"""Discretized radial operators, resolvent norms and the energy audit.

Separation of variables reduces the operator to one complex tridiagonal
system per angular sector:

    -h**2 u'' + (lambda_l / r**2 - E + V(r)) u ± i eps u,
    lambda_l = h**2 * (l (l + d - 2) + (d - 1)(d - 3) / 4),

discretized with second-order central differences on a uniform grid with
Dirichlet ends.  The weighted resolvent norm per sector is the largest
singular value of W A^{-1} W with W = diag((r+1)**(-s)), estimated by a
Lanczos recurrence on the Hermitian Gram product, which allocates its
vectors once per sector and multiplies and solves in them in place.  Each
sector is factorized once by the LAPACK tridiagonal LU (zgttrf), whose
factors solve with A and with A^H (zgttrs); the same factors serve the
phase-conjugated solve of the energy audit and the dense singular-value
oracle kept alongside for verification.  The norm is the same for both
signs of eps (A_- is the entrywise conjugate of A_+ and W is real), so
sweeps measure one sign.

The energy audit evaluates, for a solution u of the phase-conjugated system,

    F(r) = -(lambda_l / r**2 - E - phi'(r)**2 + V(r)) |u|**2 + |D_r u|**2,

and checks the pointwise lower bound on (mu F)' implied by a passing
certificate, plus the integrated identity that the derivative of mu F sums
to zero when u decays at both ends.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import (AccuracyError, EvaluationError, InvalidInputError,
                     SingularMatrixError)
from .potentials import THREADS, PotentialModel

LANCZOS_STEP_CAP = 1_000
RESIDUAL_TOL = 1e-6
# the space dimension and the energy when none is given, here and in the
# Carleman certificate a sweep is checked against
DIMENSION = 3
ENERGY = 1.0
# the Lanczos start-vector seed when none is given
SEED = 2024
# the assembly rule: the radial step dr is at most h / STEPS_PER_H
STEPS_PER_H = 10.0


@dataclass(frozen=True)
class ResolventQuery:
    """One weighted-resolvent measurement point."""

    h: float
    eps: float
    sign: int
    s: float
    potential: PotentialModel
    d: int = DIMENSION
    E: float = ENERGY

    def __post_init__(self):
        if self.d < 2:
            raise InvalidInputError(f"d must be at least 2, got {self.d}")
        if not self.E > 0:
            raise InvalidInputError(f"E must be positive, got {self.E}")
        if not 0.0 < self.h <= 1.0:
            raise InvalidInputError(f"h must lie in (0, 1], got {self.h}")
        if not 0.0 < self.eps <= 1.0:
            raise InvalidInputError(f"eps must lie in (0, 1], got {self.eps}")
        if self.sign not in (1, -1):
            raise InvalidInputError(f"sign must be +1 or -1, got {self.sign}")
        if not self.s > 0.5:
            raise InvalidInputError(f"s must exceed 1/2, got {self.s}")


@dataclass(frozen=True)
class AngularSector:
    """Sphere-harmonic sector with its centrifugal eigenvalue."""

    d: int
    l: int
    h: float
    lambda_value: float = field(init=False)

    def __post_init__(self):
        if self.l < 0:
            raise InvalidInputError(f"l must be nonnegative, got {self.l}")
        lam = self.h ** 2 * (self.l * (self.l + self.d - 2)
                             + 0.25 * (self.d - 1) * (self.d - 3))
        object.__setattr__(self, "lambda_value", lam)


@dataclass(frozen=True)
class UniformGridSpec:
    """Uniform radial grid on (r_min, r_max] with Dirichlet truncation."""

    dr: float
    r_max: float
    r_min: float = 0.0
    tail_tol: float = 1e-4

    def _interior_count(self):
        return int(math.ceil((self.r_max - self.r_min) / self.dr - 1e-9)) - 1

    def points(self):
        n = self._interior_count()
        if n < 3:
            raise InvalidInputError("grid needs at least 3 interior points")
        return self.r_min + self.dr * np.arange(1, n + 1)


@dataclass(frozen=True)
class DiscreteOperator:
    """Complex tridiagonal sector operator with Dirichlet ends.

    The real part (diag_real plus the constant off-diagonal) is symmetric;
    the imaginary part is exactly sign*eps times the identity.
    """

    grid: np.ndarray
    diag_real: np.ndarray
    query: ResolventQuery
    sector: AngularSector
    dr: float

    @property
    def offdiag(self):
        return -self.query.h ** 2 / self.dr ** 2

    def diagonals(self):
        """Sub-, main and super-diagonal of the matrix."""
        off = np.full(self.grid.size - 1, self.offdiag, dtype=complex)
        return off, self.diag_real + 1j * (self.query.sign * self.query.eps), off

    def _lu(self):
        """The zgttrf factors (dl, d, du, du2, ipiv) that zgttrs takes."""
        *lu, info = zgttrf(*self.diagonals())
        if info != 0:  # pragma: no cover - eps > 0 keeps this clear
            raise SingularMatrixError(
                f"sector factorization failed: zgttrf info={info} "
                f"(sector l={self.sector.l})")
        return lu


def assemble(query, sector, grid_spec):
    """Discretize one angular sector of the absorbing operator."""
    if sector.d != query.d or sector.h != query.h:
        raise InvalidInputError("sector and query disagree on d or h")
    return _sector_operator(query, sector, grid_spec, *_radial_terms(query, grid_spec))


def _radial_terms(query, grid_spec):
    """Grid r, r**2 and V(r) shared by every sector of one query."""
    if grid_spec.dr > query.h / STEPS_PER_H * (1.0 + 1e-12):
        raise InvalidInputError(
            f"dr rule violated: dr={grid_spec.dr:g} must be at most "
            f"h/{STEPS_PER_H:g}={query.h / STEPS_PER_H:g}")
    tail = (grid_spec.r_max + 1.0) ** (-2.0 * query.s)
    if tail > grid_spec.tail_tol * (1.0 + 1e-9):
        raise InvalidInputError(
            f"r_max rule violated: (r_max+1)^(-2s)={tail:.3g} exceeds "
            f"tail_tol={grid_spec.tail_tol:g}")
    if query.d == 2 and grid_spec.r_min <= 0:
        raise InvalidInputError("dimension two requires r_min > 0")
    r = grid_spec.points()
    return r, r ** 2, np.asarray(query.potential(r), dtype=float)


def _sector_operator(query, sector, grid_spec, r, r2, v):
    h2 = query.h ** 2
    diag = (2.0 * h2 / grid_spec.dr ** 2
            + sector.lambda_value / r2
            - query.E
            + v)
    return DiscreteOperator(grid=r, diag_real=diag, query=query, sector=sector,
                            dr=grid_spec.dr)


# ---------------------------------------------------------------------------
# Weighted resolvent norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Weighted resolvent norm, the largest of ``sector_values``; ``g_value`` is its log.

    ``iterations`` is the number of Gram products summed over the sectors;
    ``residual`` is the largest top Ritz residual among them.
    """

    iterations: int
    residual: float
    sector_values: tuple

    @property
    def g_value(self):
        return math.log(max(self.sector_values))


def _weight_vector(grid, s):
    return (grid + 1.0) ** (-s)


def _real_dot(x, y):
    """Re <x, y> of two contiguous complex vectors, summed on one thread.

    einsum over the interleaved real views adds in a fixed order, where
    BLAS zdotc and dznrm2 split long vectors across their own threads.
    """
    return float(np.einsum("i,i", x.view(float), y.view(float)))


def _lanczos_sector_norm(op, seed):
    """Top singular value of W A^{-1} W by Lanczos on its Gram operator.

    Runs the three-term recurrence on G = W A^{-1} W^2 A^{-H} W from a
    seeded start vector, keeping no basis, and stops when the top Ritz pair
    (theta, s) of the tridiagonal T_k has residual |beta_k s_k| / theta at
    most RESIDUAL_TOL.  Without reorthogonalization the top Ritz value
    converges before a spurious copy of it can form (Paige).  Returns
    sqrt(theta), the number of Gram products and the residual.

    The four working vectors (r, a scratch vector, q and q_prev) are
    allocated once; each step multiplies and solves in place in them.  The
    inner products and norms go through _real_dot, so the result does not
    depend on the BLAS thread count.
    """
    lu = op._lu()
    w = _weight_vector(op.grid, op.query.s)
    rng = np.random.default_rng((seed, op.sector.l))
    q = np.empty(op.grid.size, dtype=complex)
    q.real = rng.standard_normal(op.grid.size)
    q.imag = rng.standard_normal(op.grid.size)
    q /= math.sqrt(_real_dot(q, q))
    q_prev = np.zeros_like(q)
    r = np.empty_like(q)
    tmp = np.empty_like(q)

    alphas, betas = [], []
    beta = 0.0
    res = math.inf
    for k in range(1, LANCZOS_STEP_CAP + 1):
        # r = w A^{-H} (w (w A^{-1} (w q))), the factors of w applied one at a time
        np.multiply(w, q, out=r)
        zgttrs(*lu, r, trans="N", overwrite_b=True)  # contiguous: solves in r
        r *= w
        r *= w
        zgttrs(*lu, r, trans="C", overwrite_b=True)
        r *= w
        alpha = _real_dot(q, r)
        r -= np.multiply(alpha, q, out=tmp)
        r -= np.multiply(beta, q_prev, out=tmp)
        alphas.append(alpha)
        beta = math.sqrt(_real_dot(r, r))
        theta, s = sla.eigh_tridiagonal(alphas, betas, select="i",
                                        select_range=(k - 1, k - 1))
        theta = float(theta[0])
        res = abs(beta * s[-1, 0]) / theta
        if res <= RESIDUAL_TOL:
            return math.sqrt(theta), k, res
        betas.append(beta)
        q_prev, q = q, q_prev
        np.divide(r, beta, out=q)
    raise AccuracyError(
        f"Lanczos did not reach residual {RESIDUAL_TOL:g} within "
        f"{LANCZOS_STEP_CAP} steps (sector l={op.sector.l})", residual=res)


def dense_weighted_norm(query, sector, grid_spec):
    """Full singular-value oracle for one sector; dense, small grids only.

    A^{-1} W comes from the sector's own zgttrf factors, solved against
    the n columns of diag(w); only the singular values are dense.
    """
    op = assemble(query, sector, grid_spec)
    w = _weight_vector(op.grid, query.s)
    inv_w = zgttrs(*op._lu(), np.diag(w))[0]
    return float(sla.svdvals(w[:, None] * inv_w)[0])


def weighted_resolvent_norm(query, grid_spec, l_max, seed=SEED, threads=THREADS):
    """Largest weighted sector resolvent norm over l = 0..l_max.

    Each sector gets one LAPACK tridiagonal factorization (zgttrf) and a
    Lanczos recurrence on W A^{-1} W^2 A^{-H} W until the top Ritz residual
    reaches RESIDUAL_TOL.  ``iterations`` counts the Gram products over all
    sectors.  Sectors run independently on a pool of ``threads`` workers,
    one worker included; the reduction over sectors is an ordered max, so
    results do not depend on the thread count.
    """
    if l_max < 0:
        raise InvalidInputError(f"l_max must be nonnegative, got {l_max}")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    if threads < 1:
        raise InvalidInputError(f"threads must be at least 1, got {threads}")
    terms = _radial_terms(query, grid_spec)
    ops = [_sector_operator(query, AngularSector(query.d, l, query.h), grid_spec, *terms)
           for l in range(l_max + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda op: _lanczos_sector_norm(op, seed), ops))
    return NormEstimate(iterations=sum(res[1] for res in results),
                        residual=max(res[2] for res in results),
                        sector_values=tuple(res[0] for res in results))


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugatedOperator:
    """Sector operator conjugated by the phase gauge exp(phi/h).

    Conjugation is an exact similarity of the discrete matrix: it multiplies
    the off-diagonals by the gauge ratio of the two nodes they couple and
    leaves the diagonal unchanged.  Solving goes through the ungauged
    variable, which keeps the factorization well conditioned even when the
    gauge spans hundreds of orders of magnitude.
    """

    base: DiscreteOperator
    phi_over_h: np.ndarray

    @property
    def grid(self):
        return self.base.grid

    def _ratios(self):
        return np.exp(np.diff(self.phi_over_h))

    @staticmethod
    def _stencil(diag, off, ratio, v):
        """Tridiagonal product with the off-diagonals scaled by the gauge ratios."""
        out = diag * v
        out[:-1] += off / ratio * v[1:]
        out[1:] += off * ratio * v[:-1]
        return out

    def backward_error(self, u, rhs):
        """Componentwise backward error of the conjugated system."""
        off, ratio = self.base.offdiag, self._ratios()
        # rebuilt, not held: a live complex diagonal adds an n-array to peak memory
        res = np.abs(self._stencil(self.base.diagonals()[1], off, ratio, u) - rhs)
        scale = self._stencil(np.abs(self.base.diagonals()[1]), abs(off), ratio, np.abs(u))
        scale += np.abs(rhs) + 1e-300
        return float(np.max(res / scale))

    def solve(self, rhs):
        """Solve by ungauging: u = exp(phi/h) * (plain solve of exp(-phi/h) rhs)."""
        w = zgttrs(*self.base._lu(), np.exp(-self.phi_over_h) * rhs)[0]
        return np.exp(self.phi_over_h) * w


def assemble_conjugated(query, sector, grid_spec, phase):
    """Conjugate the sector operator by exp(phi/h) entrywise."""
    base = assemble(query, sector, grid_spec)
    return ConjugatedOperator(base=base,
                              phi_over_h=phase.value(base.grid) / query.h)


@dataclass(frozen=True)
class EnergyTrace:
    """Sector energy functional and the audited flux inequality.

    flux_residuals and residual_tolerance cover the interior nodes r[1:-1]
    of the sector grid r = grid_spec.points(), where the centered flux
    derivative has a full stencil.
    """

    flux_residuals: np.ndarray
    residual_tolerance: np.ndarray
    integral_value: float
    integral_scale: float


def energy_audit(u, query, config, weight, phase, rhs, grid_spec, v_long):
    """Audit the certified flux inequality on a solved conjugated system.

    ``u`` must solve the conjugated l = 0 sector system for ``rhs`` to
    relative residual 1e-8; ``v_long`` is the potential in F and ``config``
    is not read.  Returns the per-point residual of the flux inequality
    (nonnegative up to discretization error), the per-point tolerance scale,
    and the integral of the flux derivative, which vanishes when u decays at
    both ends.
    """
    sector = AngularSector(query.d, 0, query.h)
    op = assemble_conjugated(query, sector, grid_spec, phase)
    u = np.asarray(u, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if np.linalg.norm(rhs) == 0:
        if np.linalg.norm(u) != 0:
            raise InvalidInputError("zero right-hand side requires u = 0")
    else:
        # componentwise backward error: the gauge spans too many orders of
        # magnitude for a norm-relative residual to be meaningful
        resid = op.backward_error(u, rhs)
        if resid > 1e-8:
            raise InvalidInputError(
                f"solution residual {resid:.3g} exceeds the 1e-8 precondition")
    r, dr, h, E = op.grid, op.base.dr, query.h, query.E
    lam = sector.lambda_value
    v_l = np.asarray(v_long(r), dtype=float)
    p1 = phase.derivative(r)
    mu = weight(r)
    mup = weight.derivative(r)

    u_pad = np.concatenate([[0.0], u, [0.0]])
    du = -1j * h * (u_pad[2:] - u_pad[:-2]) / (2.0 * dr)
    abs_u2 = np.abs(u) ** 2
    abs_du2 = np.abs(du) ** 2
    F = -(lam / r ** 2 - E - p1 ** 2 + v_l) * abs_u2 + abs_du2
    if not np.all(np.isfinite(F)):
        bad = r[~np.isfinite(F)][0]
        raise EvaluationError(f"energy functional not finite at r={bad:.6g}")

    # flux derivative at interior nodes only; the ends lack a full stencil
    muF = mu * F
    dmuF = (muF[2:] - muF[:-2]) / (2.0 * dr)
    inner = slice(1, -1)

    lower_bound = (0.5 * E * mup * abs_u2
                   + mup / 3.0 * abs_du2
                   - 3.0 / h ** 2 * mu ** 2 / mup * np.abs(rhs) ** 2
                   - query.eps / h * mu * (abs_u2 + abs_du2))
    residuals = dmuF - lower_bound[inner]
    local = (1.0 + E + p1 ** 2 + lam / r ** 2 + np.abs(v_l)) ** 2.5
    tol_scale = (mu * (abs_u2 + abs_du2) * local / h ** 2)[inner] + 1e-300
    # telescoping sum of the central differences: only boundary values survive
    integral = float(np.sum(dmuF) * dr)
    scale = float(np.sum(np.abs(dmuF)) * dr)
    return EnergyTrace(flux_residuals=residuals,
                       residual_tolerance=tol_scale, integral_value=integral,
                       integral_scale=scale)
