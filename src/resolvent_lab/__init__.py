"""Numerical laboratory for weighted resolvent norms of radial semiclassical
Schrödinger operators, with grid-certified Carleman-type weight and phase
constructions, sector-wise tridiagonal resolvent measurements, and scaling-law
analysis of the measured norms against certificate-backed bounds."""

__version__ = "0.1.0"

from .carleman import (CarlemanConfig, Certificate, GridSpec, PhaseFunction,
                       WeightFunction, audit_at, build_phase, build_weight,
                       certify, min_ell, recommended_audit_constant,
                       search_tau0, search_tau0_with_fallback)
from .errors import (AccuracyError, EvaluationError, InvalidConfigError,
                     InvalidInputError, ResolventLabError, SearchExhaustedError,
                     SingularMatrixError, SingularPointError)
from .potentials import (MollifiedPotential, MollifierKernel, PotentialModel,
                         bump_kernel, build_potential, holder_seminorm,
                         mollify, theta_for)
from .radial import (AngularSector, DiscreteOperator, NormEstimate,
                     ResolventQuery, UniformGridSpec, assemble,
                     assemble_conjugated, dense_weighted_norm, energy_audit,
                     weighted_resolvent_norm)
from .scaling import (CertifiedBound, GridPolicy, SweepResult,
                      bound_from_certificate, fit_models, omega_map, psi_map,
                      sweep)
