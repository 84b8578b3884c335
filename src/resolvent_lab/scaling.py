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
from .potentials import REFERENCE_GRID
from .radial import (SEED, STEPS_PER_H, TAIL_TOL, THREADS, AngularSector,
                     UniformGridSpec, _check_integer, _check_positive,
                     _check_real, _inner_radius, weighted_resolvent_norm)

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
    """Fit a sweep's measured g to each candidate shape, minimizing the squared residual.

    One curve of ``result.curves`` is fitted: the first in row order with
    four h or more, among those whose eps equals the ``eps`` given.
    ``best`` is the fit of least residual among the non-degenerate ones,
    whose growth C * span clears the threshold (so C > 0), with ties going
    to the slowest-growing shape; when every fit is degenerate it is None:
    no growth.
    """
    if not candidates:
        raise InvalidInputError("fit needs at least one candidate")
    curves = result.curves
    chosen = next((key for key, by_h in curves.items() if len(by_h) >= 4
                   and (eps is None or key == eps)), None)
    if chosen is None:
        raise InvalidInputError("fit needs at least 4 successful rows at a single eps")
    h, g = (np.array(column) for column in zip(*curves[chosen].items()))
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
    """Turns a query into uniform operator grids and a sector cap.

    The default step h/20 sits a factor two inside the h/10 assembly rule
    (radial.STEPS_PER_H).  Halving it is not always a small change: the
    README row (h, eps) = (0.2, 1e-4) reads g = 6.8309 at h/20 and 6.7455
    at h/40, while at h = 0.1 the change is 4.8e-5 (ROADMAP item 3).
    ``tail_tol`` is the one truncation tolerance: it bounds a
    short box's measured tail term (sweep), sets a non-trapping short box
    to ln(1/tail_tol) absorption lengths, and sets the fallback radius
    r_tail = tail_tol**(-1/(2s)) - 1, where the weight's tail
    (r+1)**(-2s) falls to it.  ``r_max_floor`` is the least radius of
    either box.
    """

    tail_tol: float = TAIL_TOL
    dr_factor: float = 0.05
    l_max: int = 8
    r_min: Optional[float] = None
    r_max_floor: float = 0.0

    def __post_init__(self):
        _check_positive("tail_tol", self.tail_tol)
        _check_real("dr_factor", self.dr_factor)
        if not 0.0 < self.dr_factor <= 1.0 / STEPS_PER_H:
            raise InvalidInputError(
                f"dr_factor must lie in (0, 1/{STEPS_PER_H:g}], got {self.dr_factor}")
        _check_integer("l_max", self.l_max, 0)
        _check_real("r_max_floor", self.r_max_floor)
        if not 0.0 <= self.r_max_floor < math.inf:
            raise InvalidInputError(
                f"r_max_floor must be finite and nonnegative, got {self.r_max_floor}")
        if self.r_min is not None:  # the dimension-two rule waits for a query
            _inner_radius(None, self.r_min)

    def _floor(self, query):
        """max(4 r_turn(l_max), r_max_floor): past it every sector is classically allowed."""
        lam = AngularSector(query.d, self.l_max, query.h).lambda_value
        return max(4.0 * math.sqrt(max(lam, 0.0) / query.E), self.r_max_floor)

    def _grid(self, query, r_max):
        """The grid on (r_min, r_max].

        ``r_min`` is defaulted, and checked against d, by radial._inner_radius,
        whose error carries no note.  UniformGridSpec's error, here about
        r_max alone, names what sets grid_for's radius; _short turns either
        error into None.
        """
        r_min = _inner_radius(query.d, self.r_min)
        try:
            return UniformGridSpec(dr=self.dr_factor * query.h, r_max=r_max, r_min=r_min)
        except InvalidInputError as exc:
            raise InvalidInputError(
                f"{exc}; at h={query.h:g} r_max is set by tail_tol, l_max and "
                "r_max_floor") from None

    def grid_for(self, query):
        """The fallback grid, on r_tail or the floor when larger."""
        try:
            r_tail = self.tail_tol ** (-1.0 / (2.0 * query.s)) - 1.0
        except OverflowError:  # UniformGridSpec rejects the infinite r_max
            r_tail = math.inf
        return self._grid(query, max(r_tail, self._floor(query)))

    def short_grid(self, query):
        """The short grid on (r_min, r_c] of a query, or None.

        Start from r_c = max(r_V, 4 r_turn(l_max), r_max_floor), where r_V
        is the first point of potentials.REFERENCE_GRID, on which models
        are validated, past which the envelope p stays at or below
        tail_tol E.  The query traps when, for some l <= l_max, the allowed
        set {r : V + lambda_l / r**2 <= E} on this grid is not one
        interval; a grid too short for 3 points does not trap.  A query
        that does not trap holds no mode behind a barrier, and its outgoing
        wave's intensity decays like exp(-r/ell) with ell = h sqrt(E) / eps,
        so its r_c is raised to at least ell ln(1/tail_tol), where that
        intensity falls to tail_tol.  None when the two boxes _measure
        runs, r_c + 2 r_c, do not fall short of grid_for's radius (a short
        box must cost less than that), or when r_c still leaves too few
        points.
        """
        p = query.potential.envelope(REFERENCE_GRID)
        above = np.flatnonzero(~(p <= self.tail_tol * query.E))
        at = above[-1] + 1 if above.size else 0
        if at == REFERENCE_GRID.size:
            return None
        r_c = max(float(REFERENCE_GRID[at]), self._floor(query))
        fallback = self.grid_for(query).r_max
        if not 3.0 * r_c < fallback:
            return None
        grid = self._short(query, r_c)
        if grid is not None:  # a grid of fewer than 3 points holds no barrier
            r = grid.points()
            lam = np.array([AngularSector(query.d, l, query.h).lambda_value
                            for l in range(self.l_max + 1)])
            allowed = query.potential(r) + lam[:, None] / r ** 2 <= query.E
            # an interval starts at the first node or where a forbidden node precedes it
            starts = allowed[:, 0] + np.sum(allowed[:, 1:] & ~allowed[:, :-1], axis=1)
            if np.any(starts > 1):
                return grid
        ell = query.h * math.sqrt(query.E) / query.eps
        r_c = max(r_c, ell * math.log(1.0 / self.tail_tol))
        return self._short(query, r_c) if 3.0 * r_c < fallback else None

    def _short(self, query, r_c):
        """The grid on (r_min, r_c], or None when r_c leaves fewer than 3 points past r_min."""
        try:
            return self._grid(query, r_c)
        except InvalidInputError:
            return None


@dataclass(frozen=True)
class SweepRow:
    """One (h, eps, sign) row of a sweep.

    ``matvecs`` counts the Gram products the row ran and ``residual`` is
    the largest top Ritz residual over the sectors of the measurements it
    keeps: both boxes of a short-box row, the one box of a fallback row.
    ``r_max`` is the radius of the box g was measured on, and ``tail`` the
    measured tail term g(2 r_c) - g(r_c) of a short box, None on the
    fallback box.  A row that labels an (h, eps) measured for an
    earlier row ran none and carries that measurement's residual, box and
    tail; a failed row has 0 and None for each.  ``runtime_ms`` is the
    row's own time, so a copied row's is the copy's.
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
    r_max: Optional[float]
    tail: Optional[float]

    @property
    def sectors(self):
        """Sectors measured: l = 0..l_max on an ok row, none on a failed one."""
        return self.l_max + 1 if self.status == "ok" else 0


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    @property
    def curves(self):
        """The measured curve of each eps, {eps: {h: g}}, from the ok rows in row order.

        Every sign's row of an (h, eps) holds the same g, so each curve has
        one g per h.
        """
        curves = {}  # a dict keeps its keys in insertion order
        for row in self.rows:
            if row.status == "ok":
                curves.setdefault(row.eps, {}).setdefault(row.h, row.g_measured)
        return curves

    @property
    def bound_respected(self):
        """None without a bound column, else whether every row is ok and below it."""
        if all(row.g_bound is None for row in self.rows):
            return None
        return all(row.status == "ok" and row.g_measured <= row.g_bound
                   for row in self.rows)


def _measure(query, policy, seed, threads):
    """(g, Gram products, residual, r_max, tail) of one query by the policy's box rule.

    A query with a short grid, trapping or not, is measured at r_c and at
    2 r_c on one step, so the first grid is a prefix of the second, and
    keeps g(2 r_c) when the tail term g(2 r_c) - g(r_c) is at most
    tail_tol in size; the residual is then the larger of both boxes'.
    Otherwise it is measured on grid_for's box, with no tail term.  The
    Gram products count every measurement run.
    """
    def norm(grid):
        return weighted_resolvent_norm(query, grid, policy.l_max, seed=seed,
                                       threads=threads)

    short, spent = policy.short_grid(query), 0
    if short is not None:
        double = replace(short, r_max=2.0 * short.r_max)
        near, far = norm(short), norm(double)
        tail, spent = far.g_value - near.g_value, near.iterations + far.iterations
        if abs(tail) <= policy.tail_tol:
            return (far.g_value, spent, max(near.residual, far.residual),
                    double.r_max, tail)
    grid = policy.grid_for(query)
    est = norm(grid)
    return est.g_value, spent + est.iterations, est.residual, grid.r_max, None


def sweep(query_template, h_values, eps_values=(1e-2,), grid_policy=None,
          certificate=None, signs=(1,), seed=SEED, threads=THREADS):
    """Measure g over descending h, ascending eps and + before -, with optional bound columns.

    h values must be strictly descending in (0, 1]; eps values and signs
    must not repeat.  A certificate must share the template's d and E, and
    its s may not exceed the template's: a bound proved at s holds at every
    larger s.  Its r_min may not exceed the grid's, since its margins are
    verified on r > r_min only.  For a real potential the - resolvent is
    the entrywise conjugate of the + one, so each (h, eps) is measured
    once, at sign +1 whatever ``signs`` holds, on the box _measure picks,
    and the result, success or failure, fills every requested sign's row.
    A row whose estimate fails numerically is marked; a sweep with no
    successful row raises AccuracyError naming the first row's failure.
    """
    _check_integer("threads", threads, 1)
    _check_integer("seed", seed, 0)
    signs = tuple(signs)
    hs = [float(h) for h in h_values]
    if not hs:
        raise InvalidInputError("h_values must not be empty")
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
    if grid_policy is None:
        grid_policy = GridPolicy()
    if certificate:
        cfg, q = certificate.config, query_template
        if cfg.d != q.d or cfg.E != q.E or cfg.s > q.s:
            raise InvalidInputError(
                f"certificate (d={cfg.d}, E={cfg.E:g}, s={cfg.s:g}) does not bound "
                f"a sweep at d={q.d}, E={q.E:g}, s={q.s:g}: it needs the same d "
                "and E and an s no larger than the sweep's")
        r_min = _inner_radius(q.d, grid_policy.r_min)
        if certificate.r_min > r_min:
            raise InvalidInputError(
                f"certificate holds on r >= r_min={certificate.r_min:g} only and "
                f"does not bound a sweep whose grid starts at r_min={r_min:g}")
    # every row's query is built, and so checked, before the first row runs
    queries = [[replace(query_template, h=h, eps=eps, sign=1) for eps in sorted(eps_list)]
               for h in hs]
    bound = bound_from_certificate(certificate, hs) if certificate else None
    signs = sorted(signs, reverse=True)
    rows = []
    for i, h in enumerate(hs):
        g_b = bound.g_values[i] if bound else None
        for query in queries[i]:
            start = time.perf_counter()
            try:
                g, matvecs, residual, r_max, tail = _measure(
                    query, grid_policy, seed, threads)
                status = "ok"
            except InvalidInputError:
                raise
            except ResolventLabError as exc:
                g, matvecs, residual, r_max, tail = None, 0, None, None, None
                status = f"failed: {exc}"
            for sign in signs:  # labels of the + estimate; later ones ran nothing
                rows.append(SweepRow(h, query.eps, sign, g, g_b, grid_policy.l_max,
                                     1000.0 * (time.perf_counter() - start),
                                     status, matvecs, residual, r_max, tail))
                start, matvecs = time.perf_counter(), 0
    if not any(row.status == "ok" for row in rows):
        first = rows[0]
        raise AccuracyError(
            f"every sweep row failed; the first, at h={first.h:g} and "
            f"eps={first.eps:g}, with {first.status.removeprefix('failed: ')}")
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
    bad = lam[~(np.isfinite(lam) & (lam >= lambda0))]
    if bad.size:
        raise InvalidInputError(
            f"lambda values must be finite and at least lambda0, got {float(bad[0])!r}")
    psi = lam ** (num / den) * (np.log(lam + 1.0) if has_log else 1.0)
    return PsiTable(lambdas=lam, psi=psi, h=lambda0 / lam, E=lambda0 ** 2)


def omega_map(regularity_class, t_values, alpha=None, radial=False):
    """Local energy decay rates omega(t); radial variants drop the loglog."""
    num, den, has_log = _growth_law(regularity_class, alpha)
    t = np.atleast_1d(np.asarray(t_values, dtype=float))
    bad = t[~(np.isfinite(t) & (t > math.e ** math.e))]
    if bad.size:
        raise InvalidInputError(
            f"t values must be finite and exceed e**e, got {float(bad[0])!r}")
    logt = np.log(t)
    expo = den / num
    if radial or not has_log:
        return logt ** (-expo)
    return (np.log(logt) / logt) ** expo
