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

import json
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .carleman import R_MIN_D2, Certificate, build_phase
from .errors import AccuracyError, InvalidInputError, ResolventLabError
from .radial import (SEED, STEPS_PER_H, THREADS, AngularSector,
                     UniformGridSpec, weighted_resolvent_norm)

LIP = "lipschitz"
HOL = "holder"
LINF = "linfty"


# ---------------------------------------------------------------------------
# Bound shapes and fitting
# ---------------------------------------------------------------------------

_CLASSES = (LIP, HOL, LINF)


def _growth_law(kind, alpha):
    """(num, den, has_log) of the growth law h**(-num/den) [log(1/h)].

    The exponent stays a fraction because omega needs den/num, which
    differs from 1/(num/den) in the last bit for about a third of alpha.
    """
    if kind == LIP:
        return 1.0, 1.0, False
    if kind == HOL:
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
    sign: int

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


def fit_models(result, candidates, eps=None, sign=None):
    """Least-squares fit of a sweep's measured g against each candidate shape.

    The successful rows of one (eps, sign) group are fitted: the first
    group in row order with at least four of them, among those matching
    the ``eps`` and ``sign`` given.  ``best`` is the fit of least
    residual among the non-degenerate ones, whose growth C * span clears
    the threshold (so C > 0), with ties going to the slowest-growing
    shape; when every fit is degenerate it is None: no growth.
    """
    groups = {}  # in row order: a dict keeps its keys in insertion order
    for row in result.rows:
        if row.status == "ok":
            groups.setdefault((row.eps, row.sign), []).append((row.h, row.g_measured))
    chosen = next((key for key, pairs in groups.items() if len(pairs) >= 4
                   and (eps is None or key[0] == eps)
                   and (sign is None or key[1] == sign)), None)
    if chosen is None:
        raise InvalidInputError("fit needs at least 4 successful rows at a single eps")
    h, g = (np.array(column) for column in zip(*groups[chosen]))
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
    return FitOutcome(fits=tuple(fits), best=best, eps=chosen[0], sign=chosen[1])


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

    tail_tol: float = 1e-4
    dr_factor: float = 0.05
    l_max: int = 8
    r_min: float = 0.0
    r_max_floor: float = 0.0

    def __post_init__(self):
        if not self.tail_tol > 0:
            raise InvalidInputError(f"tail_tol must be positive, got {self.tail_tol}")
        if not 0.0 < self.dr_factor <= 1.0 / STEPS_PER_H:
            raise InvalidInputError(
                f"dr_factor must lie in (0, 1/{STEPS_PER_H:g}], got {self.dr_factor}")
        if self.l_max < 0:
            raise InvalidInputError(f"l_max must be nonnegative, got {self.l_max}")
        if not self.r_min >= 0:
            raise InvalidInputError(f"r_min must be nonnegative, got {self.r_min}")

    def r_max_for(self, query):
        r_tail = self.tail_tol ** (-1.0 / (2.0 * query.s)) - 1.0
        lam = AngularSector(query.d, self.l_max, query.h).lambda_value
        r_turn = math.sqrt(max(lam, 0.0) / query.E)
        return max(r_tail, 4.0 * r_turn, self.r_max_floor)

    def grid_for(self, query):
        r_min = self.r_min
        if query.d == 2 and r_min <= 0.0:
            r_min = R_MIN_D2
        spec = UniformGridSpec(dr=self.dr_factor * query.h,
                               r_max=self.r_max_for(query),
                               r_min=r_min, tail_tol=self.tail_tol)
        if spec._interior_count() < 3:
            raise InvalidInputError(
                f"grid needs at least 3 interior points: r_max={spec.r_max:g}, "
                f"set by tail_tol, l_max and r_max_floor, leaves none past "
                f"r_min={r_min:g} at h={query.h:g}")
        return spec


@dataclass(frozen=True)
class SweepRow:
    h: float
    eps: float
    sign: int
    g_measured: Optional[float]
    g_bound: Optional[float]
    sectors: int
    l_max: int
    runtime_ms: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    fit: Optional[FitOutcome]

    @property
    def bound_respected(self):
        """None without a bound column, else whether every row is ok and below it."""
        if all(row.g_bound is None for row in self.rows):
            return None
        return all(row.status == "ok" and row.g_measured <= row.g_bound
                   for row in self.rows)


def sweep(query_template, h_values, eps_values=(1e-2,), grid_policy=None,
          certificate=None, signs=(1,), seed=SEED, threads=THREADS):
    """Measure g over the (h, eps, sign) product, with optional bound columns.

    h values must be sorted descending in (0, 1].  Each (h, eps) is measured
    once, at the first sign in descending order, and that result, success
    or failure, fills the row of every requested sign; the norm does not
    depend on the sign, so the default asks for the + rows only.  Rows
    whose norm estimate fails numerically are marked and the sweep
    continues; a sweep with no successful row raises AccuracyError, and
    invalid input (InvalidInputError) ends the sweep at once.  Output rows
    are ordered by (descending h, eps, sign) so runs are reproducible.
    """
    hs = [float(h) for h in h_values]
    if not hs:
        raise InvalidInputError("h_values must not be empty")
    if any(not 0.0 < h <= 1.0 for h in hs):
        raise InvalidInputError("h values must lie in (0, 1]")
    if sorted(hs, reverse=True) != hs:
        raise InvalidInputError("h_values must be sorted descending")
    eps_list = [float(e) for e in eps_values]
    if not eps_list:
        raise InvalidInputError("eps_values must not be empty")
    if not signs or any(sign not in (1, -1) for sign in signs):
        raise InvalidInputError(
            f"signs must be a nonempty list of +1 and -1, got {signs!r}")
    if grid_policy is None:
        grid_policy = GridPolicy()
    bound = bound_from_certificate(certificate, hs) if certificate else None
    rows = []
    for i, h in enumerate(hs):
        g_b = bound.g_values[i] if bound else None
        for eps in sorted(eps_list):
            # A_- is the entrywise conjugate of A_+ and W is real, so one
            # norm serves every sign; later rows' runtime_ms is their copy time
            measured = None
            for sign in sorted(signs, reverse=True):
                start = time.perf_counter()
                if measured is None:
                    query = replace(query_template, h=h, eps=eps, sign=sign)
                    try:
                        est = weighted_resolvent_norm(
                            query, grid_policy.grid_for(query),
                            grid_policy.l_max, seed=seed, threads=threads)
                        measured = (est.g_value, len(est.sector_values), "ok")
                    except InvalidInputError:
                        raise
                    except ResolventLabError as exc:
                        measured = (None, 0, f"failed: {exc}")
                g, sectors, status = measured
                ms = 1000.0 * (time.perf_counter() - start)
                rows.append(SweepRow(h, eps, sign, g, g_b, sectors,
                                     grid_policy.l_max, ms, status))
    if not any(row.status == "ok" for row in rows):
        raise AccuracyError("every sweep row failed")
    return SweepResult(rows=tuple(rows), fit=None)


# ---------------------------------------------------------------------------
# Serialization of sweep artifacts
# ---------------------------------------------------------------------------

def _fmt(value):
    return "" if value is None else repr(float(value))


def write_sweep_csv(result, path):
    lines = ["h,eps,sign,g_measured,g_bound,sectors,lmax,runtime_ms,status"]
    for row in result.rows:
        sign = "+" if row.sign > 0 else "-"
        status = "ok" if row.status == "ok" else "failed"
        lines.append(",".join([
            repr(row.h), repr(row.eps), sign, _fmt(row.g_measured),
            _fmt(row.g_bound), str(row.sectors), str(row.l_max),
            f"{row.runtime_ms:.3f}", status]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(result, path):
    doc = {
        "rows": [
            {"h": row.h, "eps": row.eps, "sign": row.sign,
             "g_measured": row.g_measured, "g_bound": row.g_bound,
             "sectors": row.sectors, "lmax": row.l_max, "status": row.status}
            for row in result.rows
        ],
        "bound_respected": result.bound_respected,
        "fit": None,
    }
    if result.fit is not None:
        best = result.fit.best
        doc["fit"] = {
            "best": None if best is None else {
                "kind": best.kind, "alpha": best.alpha, "C": best.C,
                "intercept": best.intercept, "residual": best.residual},
            "candidates": [
                {"kind": f.kind, "alpha": f.alpha, "C": f.C,
                 "intercept": f.intercept, "residual": f.residual,
                 "degenerate": f.degenerate}
                for f in result.fit.fits
            ],
            "degenerate": result.fit.degenerate,
            "eps": result.fit.eps,
            "sign": result.fit.sign,
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plotdata_tsv(result, path):
    blocks = []
    series = {}
    for row in result.rows:
        if row.status != "ok":
            continue
        key = (row.eps, row.sign)
        series.setdefault(key, []).append((row.h, row.g_measured))
    for (eps, sign), pairs in sorted(series.items()):
        label = f"# series: g_measured eps={eps!r} sign={'+' if sign > 0 else '-'}"
        body = "\n".join(f"{h!r}\t{g!r}" for h, g in pairs)
        blocks.append(label + "\n" + body)
    bound_pairs = sorted({(row.h, row.g_bound) for row in result.rows
                          if row.g_bound is not None}, reverse=True)
    if bound_pairs:
        body = "\n".join(f"{h!r}\t{g!r}" for h, g in bound_pairs)
        blocks.append("# series: g_bound\n" + body)
    with open(path, "w") as fh:
        fh.write("\n\n".join(blocks) + "\n")


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
