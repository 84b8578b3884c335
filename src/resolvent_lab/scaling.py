"""Sweeps in h, certificate-backed upper bounds, and scaling-law fits.

A passing certificate yields a fully computable bound on the log resolvent
norm: with a = a0 h**(-m) and the phase rebuilt at each h,

    log M(h) = max(phi)/h + log(C0 a**2 / h),
    g_bound(h) = log 4 + 2 log M(h),

where C0 is the certified audit constant.  Measured g values are fitted in
log-norm space against each class's growth law (``_growth_law``)

    lipschitz: C / h,     holder(alpha): C h**(-4/(alpha+3)) log(1/h),
    linfty:    C h**(-4/3) log(1/h),

each with a free intercept.  With p the exponent of 1/h, the maps give the
high-frequency resolvent growth psi(lambda) = lambda**p [log(lambda+1)] and
the local energy decay rate omega(t) = (loglog t/log t)**(1/p), which is
(log t)**(-1/p) for radial potentials and for a law without the log.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .carleman import HOLDER, LIPSCHITZ, Certificate, build_phase
from .errors import AccuracyError, InvalidInputError, ResolventLabError
from .radial import (SEED, STEPS_PER_H, TAIL_TOL, THREADS, AngularSector,
                     UniformGridSpec, _check_integer, _check_positive,
                     _inner_radius, weighted_resolvent_norm)

# the class the fits and maps know besides the two weight regimes
LINF = "linfty"


# ---------------------------------------------------------------------------
# Bound shapes and fitting
# ---------------------------------------------------------------------------

_CLASSES = (LIPSCHITZ, HOLDER, LINF)


def _growth_law(kind, alpha):
    """(num, den, has_log) of the growth law h**(-num/den) [log(1/h)].

    The exponent stays a fraction because omega needs den/num, which
    differs from 1/(num/den) in the last bit for about a third of alpha.
    """
    if kind == LIPSCHITZ:
        return 1.0, 1.0, False
    if kind == HOLDER:
        if alpha is None or not 0.0 < alpha < 1.0:
            raise InvalidInputError("holder class needs alpha in (0, 1)")
        return 4.0, alpha + 3.0, True
    if kind == LINF:
        return 4.0, 3.0, True
    raise InvalidInputError(f"unknown regularity class {kind!r}; valid: {_CLASSES}")


def _shape(kind, alpha, h):
    num, den, has_log = _growth_law(kind, alpha)
    h = np.asarray(h, dtype=float)
    return h ** (-num / den) * (np.log(1.0 / h) if has_log else 1.0)


@dataclass(frozen=True)
class FitResult:
    kind: str
    alpha: Optional[float]
    C: float
    intercept: float
    residual: float
    degenerate: bool


@dataclass(frozen=True)
class FitOutcome:
    """The fits of every candidate; ``best`` is None when none shows growth."""

    fits: tuple
    best: Optional[FitResult]
    eps: float

    @property
    def degenerate(self):
        return self.best is None


def _fit_one(kind, alpha, h, g):
    x = _shape(kind, alpha, h)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    res = float(np.sqrt(np.mean((g - design @ coef) ** 2)))
    span = float(np.max(x) - np.min(x))
    degenerate = coef[0] * span <= 1e-9 * max(1.0, float(np.mean(np.abs(g))))
    return FitResult(kind, alpha, float(coef[0]), float(coef[1]), res,
                     bool(degenerate))


def fit_models(result, candidates, eps=None):
    """Least-squares fit of a sweep's measured g against each candidate shape.

    The successful rows of one eps, one g per h (a - row copies its + row),
    are fitted: the first eps in row order with four h or more, among those
    equal to the ``eps`` given.  ``best`` is the fit of least residual
    among the non-degenerate ones, whose growth C * span clears the
    threshold (so C > 0), with ties going to the slowest-growing shape;
    when every fit is degenerate it is None: no growth.
    """
    if not candidates:
        raise InvalidInputError("fit needs at least one candidate")
    groups = {}  # in row order: a dict keeps its keys in insertion order
    for row in result.rows:
        if row.status == "ok":
            groups.setdefault(row.eps, {}).setdefault(row.h, row.g_measured)
    chosen = next((key for key, by_h in groups.items() if len(by_h) >= 4
                   and (eps is None or key == eps)), None)
    if chosen is None:
        raise InvalidInputError("fit needs at least 4 successful rows at a single eps")
    h, g = (np.array(column) for column in zip(*groups[chosen].items()))
    fits = []
    for cand in candidates:
        kind, alpha = (cand, None) if isinstance(cand, str) else (cand[0], cand[1])
        fits.append(_fit_one(kind, alpha, h, g))
    growing = [f for f in fits if not f.degenerate]
    best_res = min((f.residual for f in growing), default=math.inf)
    tol = 1e-9 * (1.0 + best_res)
    tied = [f for f in growing if f.residual <= best_res + tol]

    def growth(fit):
        num, den, has_log = _growth_law(fit.kind, fit.alpha)
        return num / den, has_log

    best = min(tied, key=growth, default=None)
    return FitOutcome(fits=tuple(fits), best=best, eps=chosen)


# ---------------------------------------------------------------------------
# Certificate-backed bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedBound:
    """Bound from a passing certificate, recomposed per h with C0 = certificate.C_used."""

    certificate: Certificate
    h_values: tuple

    def g_bound(self, h):
        h = float(h)
        cfg = replace(self.certificate.config, h=h)
        log_m = (build_phase(cfg).max_phi / h
                 + math.log(self.certificate.C_used * cfg.a ** 2 / h))
        return math.log(4.0) + 2.0 * log_m

    @cached_property
    def g_values(self):
        return tuple(self.g_bound(h) for h in self.h_values)


def bound_from_certificate(certificate, h_values):
    """Evaluate the composed bound at each h; requires a passing certificate."""
    if not certificate.passed:
        raise InvalidInputError("bound composition needs a passing certificate")
    hs = tuple(float(h) for h in h_values)
    if not hs or any(not 0.0 < h <= 1.0 for h in hs):
        raise InvalidInputError("h values must lie in (0, 1] and be nonempty")
    bound = CertifiedBound(certificate=certificate, h_values=hs)
    if not all(math.isfinite(v) for v in bound.g_values):
        raise InvalidInputError("composed bound is not finite on the sweep")
    return bound


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPolicy:
    """Turns a query into a uniform operator grid and a sector cap.

    The default step h/20 sits a factor two inside the h/10 assembly rule
    (radial.STEPS_PER_H) so that halving it moves the measured g by well
    under 1e-2.
    """

    tail_tol: float = TAIL_TOL
    dr_factor: float = 0.05
    l_max: int = 8
    r_min: Optional[float] = None
    r_max_floor: float = 0.0

    def __post_init__(self):
        _check_positive("tail_tol", self.tail_tol)
        if not 0.0 < self.dr_factor <= 1.0 / STEPS_PER_H:
            raise InvalidInputError(
                f"dr_factor must lie in (0, 1/{STEPS_PER_H:g}], got {self.dr_factor}")
        _check_integer("l_max", self.l_max, 0)
        if not 0.0 <= self.r_max_floor < math.inf:
            raise InvalidInputError(
                f"r_max_floor must be finite and nonnegative, got {self.r_max_floor}")

    def grid_for(self, query):
        """The query's grid; ``r_min`` is checked and defaulted by radial._inner_radius."""
        r_tail = self.tail_tol ** (-1.0 / (2.0 * query.s)) - 1.0
        lam = AngularSector(query.d, self.l_max, query.h).lambda_value
        r_turn = math.sqrt(max(lam, 0.0) / query.E)
        r_min = _inner_radius(query.d, self.r_min)
        spec = UniformGridSpec(dr=self.dr_factor * query.h,
                               r_max=max(r_tail, 4.0 * r_turn, self.r_max_floor),
                               r_min=r_min, tail_tol=self.tail_tol)
        if spec._interior_count() < 3:
            raise InvalidInputError(
                f"grid needs at least 3 interior points: r_max={spec.r_max:g}, "
                f"set by tail_tol, l_max and r_max_floor, leaves none past "
                f"r_min={r_min:g} at h={query.h:g}")
        return spec


@dataclass(frozen=True)
class SweepRow:
    """One (h, eps, sign) row of a sweep.

    ``matvecs`` counts the Gram products the row ran and ``residual`` is
    the largest top Ritz residual over its sectors.  A row copied from
    another sign's estimate ran none and carries that estimate's residual;
    a failed row has 0 and None.  ``runtime_ms`` is the row's own time, so
    a copied row's is the copy's.
    """

    h: float
    eps: float
    sign: int
    g_measured: Optional[float]
    g_bound: Optional[float]
    l_max: int
    runtime_ms: float
    status: str
    matvecs: int
    residual: Optional[float]

    @property
    def sectors(self):
        """Sectors measured: l = 0..l_max on an ok row, none on a failed one."""
        return self.l_max + 1 if self.status == "ok" else 0


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    @property
    def bound_respected(self):
        """None without a bound column, else whether every row is ok and below it."""
        if all(row.g_bound is None for row in self.rows):
            return None
        return all(row.status == "ok" and row.g_measured <= row.g_bound
                   for row in self.rows)


def sweep(query_template, h_values, eps_values=(1e-2,), grid_policy=None,
          certificate=None, signs=(1,), seed=SEED, threads=THREADS):
    """Measure g over descending h, ascending eps and + before -, with optional bound columns.

    h values must be strictly descending in (0, 1]; eps values and signs
    must not repeat.  A certificate must share the template's d and E, and
    its s may not exceed the template's: a bound proved at s holds at every
    larger s.  Each (h, eps) is measured once, at its first sign, and the
    result, success or failure, fills every sign's row.  A row whose
    estimate fails numerically is marked; a sweep with no successful row
    raises AccuracyError.
    """
    hs = [float(h) for h in h_values]
    if not hs:
        raise InvalidInputError("h_values must not be empty")
    if any(not 0.0 < h <= 1.0 for h in hs):
        raise InvalidInputError("h values must lie in (0, 1]")
    if any(a <= b for a, b in zip(hs, hs[1:])):
        raise InvalidInputError(f"h_values must be strictly descending, got {hs!r}")
    eps_list = [float(e) for e in eps_values]
    if not eps_list:
        raise InvalidInputError("eps_values must not be empty")
    if not signs or any(sign not in (1, -1) for sign in signs):
        raise InvalidInputError(
            f"signs must be a nonempty list of +1 and -1, got {signs!r}")
    for key, values in (("eps_values", eps_list), ("signs", signs)):
        if len(set(values)) < len(values):  # a repeat would only repeat rows
            raise InvalidInputError(f"{key} must not repeat a value, got {values!r}")
    if certificate:
        cfg, q = certificate.config, query_template
        if cfg.d != q.d or cfg.E != q.E or cfg.s > q.s:
            raise InvalidInputError(
                f"certificate (d={cfg.d}, E={cfg.E:g}, s={cfg.s:g}) does not bound "
                f"a sweep at d={q.d}, E={q.E:g}, s={q.s:g}: it needs the same d "
                "and E and an s no larger than the sweep's")
    if grid_policy is None:
        grid_policy = GridPolicy()
    bound = bound_from_certificate(certificate, hs) if certificate else None
    signs = sorted(signs, reverse=True)
    rows = []
    for i, h in enumerate(hs):
        g_b = bound.g_values[i] if bound else None
        for eps in sorted(eps_list):
            start = time.perf_counter()
            query = replace(query_template, h=h, eps=eps, sign=signs[0])
            try:
                est = weighted_resolvent_norm(
                    query, grid_policy.grid_for(query), grid_policy.l_max,
                    seed=seed, threads=threads)
                g, status, matvecs, residual = (est.g_value, "ok", est.iterations,
                                                est.residual)
            except InvalidInputError:
                raise
            except ResolventLabError as exc:
                g, status, matvecs, residual = None, f"failed: {exc}", 0, None
            for sign in signs:  # later signs copy the estimate and ran nothing
                rows.append(SweepRow(h, eps, sign, g, g_b, grid_policy.l_max,
                                     1000.0 * (time.perf_counter() - start),
                                     status, matvecs, residual))
                start, matvecs = time.perf_counter(), 0
    if not any(row.status == "ok" for row in rows):
        raise AccuracyError("every sweep row failed")
    return SweepResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Corollary maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiTable:
    lambdas: np.ndarray
    psi: np.ndarray
    h: np.ndarray
    E: float


def psi_map(regularity_class, lambda_values, lambda0=1.0, alpha=None):
    """High-frequency growth exponents psi(lambda) with the h substitution.

    Returns psi per class together with the matching semiclassical data
    h = lambda0/lambda and energy E = lambda0**2.
    """
    num, den, has_log = _growth_law(regularity_class, alpha)
    lam = np.atleast_1d(np.asarray(lambda_values, dtype=float))
    if not lambda0 > 0:
        raise InvalidInputError("lambda0 must be positive")
    if np.any(lam < lambda0):
        raise InvalidInputError("lambda values must be at least lambda0")
    psi = lam ** (num / den) * (np.log(lam + 1.0) if has_log else 1.0)
    return PsiTable(lambdas=lam, psi=psi, h=lambda0 / lam, E=lambda0 ** 2)


def omega_map(regularity_class, t_values, alpha=None, radial=False):
    """Local energy decay rates omega(t); radial variants drop the loglog."""
    num, den, has_log = _growth_law(regularity_class, alpha)
    t = np.atleast_1d(np.asarray(t_values, dtype=float))
    if np.any(t <= math.e ** math.e):
        raise InvalidInputError("t values must exceed e**e")
    logt = np.log(t)
    expo = den / num
    if radial or not has_log:
        return logt ** (-expo)
    return (np.log(logt) / logt) ** expo
