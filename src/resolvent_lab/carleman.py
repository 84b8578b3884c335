"""Weight and phase construction with grid-certified inequalities.

The weight grows inside the cutoff radius a and saturates beyond it:

    mu(r) = (r+1)**(2k) - (r+1)**(2k0)                      for r <= a,
    mu(r) = mu(a) + (a+1)**(1-2s) - (r+1)**(1-2s)           for r >= a,

with a = a0 * h**(-m), a0 = tau0**ell.  The phase is flat beyond a:

    phi'(r) = tau * ((r+1)**(-k) - (a+1)**(-k))  for r <= a,  0 for r >= a,

with tau = tau0 in the Lipschitz regime and tau = tau0 * theta**(2 alpha/3)
* h**(-1/3), theta = h**(2/(alpha+3)), in the Hölder regime.

Each regime fixes beta, k, k0 and m (``_regime_constants``): Lipschitz
takes beta > 1 with k = min(1, beta-1)/4 and k0 = m = 0; Hölder has beta = 4,
m = 2 and (k, k0) = (1, 1/2) or (1/2, 0), so a configuration derives k0 and
m.  Both need 1/2 < s < min(3, beta+1)/4, and ell defaults to min_ell(k, beta, s).

The audit quantities are

    A  = (mu * phi'**2)',
    B1 = (r+1)**(-beta) mu + p mu'                                  (Lipschitz),
    B1 = theta**(alpha-1) (r+1)**(-beta) mu + (p + (r+1)**(-beta)) mu'  (Hölder),
    B2 = (mu * phi'')**2 / (phi' mu / h + mu')                      (Lipschitz),
    B2 = (mu * (theta**alpha (r+1)**(-beta) / h + |phi''|))**2
         / (phi' mu / h + mu')                                      (Hölder),

and certification verifies, on a dense logarithmic grid with refinement
around r = a, the margin families

    weight_monotone:    2 mu / r - mu' >= 0,
    weight_quotient_j:  K_j a**(2kj) (r+1)**(2s) - mu**j / mu' >= 0,
    carleman_main:      A - C (B1 + B2) + (E/2) mu' >= 0,
    carleman_2d:        A - h**2 r**(-3) mu - C (B1 + B2) + (2E/3) mu' >= 0,

the last one only in dimension two, on r >= r_min > 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .errors import (EvaluationError, InvalidConfigError, InvalidInputError,
                     SearchExhaustedError, SingularPointError)
from .potentials import bump_kernel, theta_for
from .radial import (DIMENSION, ENERGY, _check_domain, _check_integer,
                     _inner_radius)

LIPSCHITZ = "lipschitz"
HOLDER = "holder"

F_MONOTONE = "weight_monotone"
F_QUOTIENT = "weight_quotient_j{j}"
F_MAIN = "carleman_main"
F_2D = "carleman_2d"

TAU0_START = 4.0
TAU0_MAX = 4096.0
# the audit constant C when none is given, and the least one recommended
C_FLOOR = 6.0


def _regime_constants(regularity, beta, k):
    """(beta, k, k0, m) of the regime; k0 is None for a Hölder k outside the pairs."""
    if regularity == LIPSCHITZ:
        return beta, 0.25 * min(1.0, beta - 1.0), 0.0, 0.0
    return 4.0, k, {1.0: 0.5, 0.5: 0.0}.get(k), 2.0


def min_ell(k, beta, s):
    """Smallest admissible exponent ell (with margin) for a0 = tau0**ell."""
    gap = beta - 2.0 * k - 2.0 * s
    if gap <= 0:
        raise InvalidConfigError(
            f"beta - 2k - 2s = {gap:.6g} must be positive before choosing ell")
    return max(2.0 / k, 2.0 / gap) * 1.05


@dataclass(frozen=True)
class CarlemanConfig:
    """Parameter pack tying the weight/phase construction together (ell None: min_ell)."""

    regularity: str
    beta: float
    alpha: Optional[float]
    k: float
    s: float
    tau0: float
    ell: Optional[float]
    E: float
    h: float
    d: int

    def __post_init__(self):
        if self.regularity not in (LIPSCHITZ, HOLDER):
            raise InvalidConfigError(
                f"regularity must be '{LIPSCHITZ}' or '{HOLDER}', got {self.regularity!r}")
        _check_domain(InvalidConfigError, self.d, self.E, self.h, self.s)
        if not self.tau0 > 0:
            raise InvalidConfigError(f"tau0 must be positive, got {self.tau0}")
        if self.regularity == LIPSCHITZ and not self.beta > 1.0:
            raise InvalidConfigError(f"Lipschitz regime needs beta > 1, got {self.beta}")
        if self.regularity == HOLDER and (self.alpha is None
                                          or not 0.0 < self.alpha < 1.0):
            raise InvalidConfigError(
                f"Hölder regime needs alpha in (0, 1), got {self.alpha}")
        beta, k, k0, _ = _regime_constants(self.regularity, self.beta, self.k)
        if k0 is None:
            raise InvalidConfigError(f"Hölder regime allows k in {{1, 1/2}}, got {self.k}")
        if self.beta != beta or abs(self.k - k) > 1e-12:
            raise InvalidConfigError(
                f"{self.regularity} regime fixes (beta, k) = ({beta:g}, {k:.6g}), "
                f"got ({self.beta}, {self.k})")
        s_hi = 0.25 * min(3.0, self.beta + 1.0)
        if not self.s < s_hi:
            raise InvalidConfigError(
                f"s above upper bound {s_hi:.6g} (got {self.s})")
        if self.ell is None:
            object.__setattr__(self, "ell", min_ell(self.k, self.beta, self.s))
        if not self.k * self.ell > 2.0:
            raise InvalidConfigError(
                f"k*ell must exceed 2, got {self.k * self.ell:.6g}")
        gap = self.beta - 2.0 * self.k - 2.0 * self.s
        if not gap * self.ell > 2.0:
            raise InvalidConfigError(
                f"(beta - 2k - 2s)*ell must exceed 2, got {gap * self.ell:.6g}")
        try:
            a = self.a
        except OverflowError:  # a float power past the largest float
            a = math.inf
        if not math.isfinite(a):
            raise InvalidConfigError(
                f"a = tau0**ell * h**(-m) overflows a float at tau0 = {self.tau0:g}, "
                f"ell = {self.ell:.6g}, h = {self.h:g}")

    @classmethod
    def lipschitz(cls, beta, s, tau0, ell=None, *, h, E=ENERGY, d=DIMENSION):
        beta, k, _, _ = _regime_constants(LIPSCHITZ, beta, None)
        return cls(LIPSCHITZ, beta, None, k, s, tau0, ell, E, h, d)

    @classmethod
    def holder(cls, alpha, s, tau0, ell=None, *, h, E=ENERGY, d=DIMENSION, k=1.0):
        beta, k, _, _ = _regime_constants(HOLDER, None, k)
        return cls(HOLDER, beta, alpha, k, s, tau0, ell, E, h, d)

    @property
    def k0(self):
        return _regime_constants(self.regularity, self.beta, self.k)[2]

    @property
    def m(self):
        return _regime_constants(self.regularity, self.beta, self.k)[3]

    @property
    def theta(self):
        if self.regularity != HOLDER:
            return None
        return theta_for(self.h, self.alpha)

    @property
    def tau(self):
        if self.regularity == LIPSCHITZ:
            return self.tau0
        return self.tau0 * self.theta ** (2.0 * self.alpha / 3.0) * self.h ** (-1.0 / 3.0)

    @property
    def a(self):
        return self.tau0 ** self.ell * self.h ** (-self.m)


@dataclass(frozen=True)
class WeightFunction:
    """Piecewise closed-form weight mu with its derivative."""

    k: float
    k0: float
    s: float
    a: float

    def below(self, r):
        r = np.asarray(r, dtype=float)
        return (r + 1.0) ** (2 * self.k) - (r + 1.0) ** (2 * self.k0)

    def above(self, r):
        r = np.asarray(r, dtype=float)
        cap = (self.a + 1.0) ** (2 * self.k) - (self.a + 1.0) ** (2 * self.k0)
        return cap + (self.a + 1.0) ** (1 - 2 * self.s) - (r + 1.0) ** (1 - 2 * self.s)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.a, self.below(r), self.above(r))

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        lo = (2 * self.k * (r + 1.0) ** (2 * self.k - 1)
              - 2 * self.k0 * (r + 1.0) ** (2 * self.k0 - 1))
        hi = (2 * self.s - 1.0) * (r + 1.0) ** (-2 * self.s)
        return np.where(r < self.a, lo, hi)


@dataclass(frozen=True)
class PhaseFunction:
    """Phase phi with closed-form antiderivative, flat beyond r = a."""

    k: float
    a: float
    tau: float

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        val = self.tau * ((r + 1.0) ** (-self.k) - (self.a + 1.0) ** (-self.k))
        return np.where(r >= self.a, 0.0, np.maximum(val, 0.0))

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        val = -self.k * self.tau * (r + 1.0) ** (-self.k - 1.0)
        return np.where(r >= self.a, 0.0, val)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        rc = np.minimum(r, self.a)
        if self.k == 1.0:
            ramp = np.log(rc + 1.0) - rc / (self.a + 1.0)
        else:
            ramp = (((rc + 1.0) ** (1 - self.k) - 1.0) / (1 - self.k)
                    - rc * (self.a + 1.0) ** (-self.k))
        return self.tau * ramp

    @property
    def max_phi(self):
        return float(self.value(self.a))


def build_weight(config):
    """Weight function for a validated configuration."""
    return WeightFunction(config.k, config.k0, config.s, config.a)


def build_phase(config):
    """Phase function for a validated configuration."""
    return PhaseFunction(config.k, config.a, config.tau)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditValues:
    """Pointwise audit quantities at radii away from r = a."""

    r: np.ndarray
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    lhs_main: np.ndarray
    lhs_2d: np.ndarray


def audit_at(r, config, envelope_p, C):
    """Evaluate A, B1, B2 and the certified left-hand sides at radii r.

    The weight and phase are the ones ``config`` fixes; r may be a scalar or
    an array of positive points distinct from the cutoff radius a.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise InvalidInputError("audit radii must be positive")
    if np.any(r == config.a):
        raise SingularPointError(
            f"audit undefined at the singular radius r = a = {config.a:.6g}")
    weight, phase = build_weight(config), build_phase(config)
    mu = weight(r)
    mup = weight.derivative(r)
    if np.any(mup <= 0):
        raise EvaluationError("internal invariant violated: mu' <= 0 on the grid")
    p1 = phase.derivative(r)
    p2 = phase.second_derivative(r)
    A = mup * p1 ** 2 + 2.0 * mu * p1 * p2
    p_r = np.asarray(envelope_p(r), dtype=float)
    h, E, beta = config.h, config.E, config.beta
    denom = p1 * mu / h + mup
    if config.regularity == LIPSCHITZ:
        B1 = (r + 1.0) ** (-beta) * mu + p_r * mup
        B2 = (mu * p2) ** 2 / denom
    else:
        th = config.theta
        B1 = th ** (config.alpha - 1.0) * (r + 1.0) ** (-beta) * mu \
            + (p_r + (r + 1.0) ** (-beta)) * mup
        B2 = (mu * (th ** config.alpha * (r + 1.0) ** (-beta) / h + np.abs(p2))) ** 2 / denom
    B = B1 + B2
    lhs_main = A - C * B + 0.5 * E * mup
    lhs_2d = A - h ** 2 * r ** (-3.0) * mu - C * B + (2.0 * E / 3.0) * mup
    for name, arr in (("A", A), ("B1", B1), ("B2", B2),
                      ("lhs_main", lhs_main), ("lhs_2d", lhs_2d)):
        if not np.all(np.isfinite(arr)):
            bad = r[~np.isfinite(arr)][0]
            raise EvaluationError(f"audit value {name} is not finite at r={bad:.6g}")
    return AuditValues(r=r, A=A, B1=B1, B2=B2, lhs_main=lhs_main, lhs_2d=lhs_2d)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Logarithmic certification grid with refinement around r = a."""

    points_per_decade: int = 200
    span_factor: float = 10.0

    def __post_init__(self):
        _check_integer("points_per_decade", self.points_per_decade, 1)
        if self.points_per_decade < 200:
            raise InvalidInputError(
                f"grid too sparse: need >= 200 points per decade, got {self.points_per_decade}")
        if not 10.0 <= self.span_factor < math.inf:
            raise InvalidInputError(
                f"span_factor must be finite and at least 10, for the grid span to "
                f"reach 10a; got {self.span_factor}")


def certification_grid(spec, a, r_min=0.0):
    """Sample points on (r_min, span_factor*a], excluding r = a."""
    lo = r_min if r_min > 0 else 1e-6
    hi = spec.span_factor * a
    if hi <= lo:
        raise InvalidInputError("grid upper end must exceed its lower end")
    decades = math.log10(hi / lo)
    n = max(2, int(math.ceil(decades * spec.points_per_decade)) + 1)
    base = np.geomspace(lo, hi, n)
    offs = np.geomspace(8e-7, 0.5, 48)  # relative distances from a
    cluster = np.concatenate([a * (1.0 - offs), a * (1.0 + offs)])
    cluster = cluster[(cluster > lo) & (cluster <= hi)]
    grid = np.unique(np.concatenate([base, cluster]))
    return grid[grid != a]


@dataclass(frozen=True)
class FamilySummary:
    name: str
    min_margin: float
    argmin_r: float


@dataclass(frozen=True)
class Certificate:
    """Grid-verified margins, which alone decide ``passed``; ``tau0_found`` is config.tau0."""

    config: CarlemanConfig
    C_used: float
    r_min: float
    families: tuple
    constants: dict
    grid: Optional[np.ndarray] = None
    search_history: tuple = ()

    @property
    def passed(self):
        return all(f.min_margin >= 0.0 for f in self.families)

    @property
    def tau0_found(self):
        return self.config.tau0

    def worst(self):
        return min(self.families, key=lambda f: f.min_margin)

    def to_json(self):
        cfg = dict(asdict(self.config), k0=self.config.k0, m=self.config.m,
                   r_min=self.r_min, constants=self.constants)
        doc = {
            "config": cfg,
            "C_used": self.C_used,
            "families": [asdict(f) for f in self.families],
            "tau0_found": self.tau0_found,
            "passed": self.passed,
            "search_history": self.search_history,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        # k0 and m are written for readers, but (regularity, k) fix them
        cfg = {key: value for key, value in doc["config"].items() if key not in ("k0", "m")}
        r_min = cfg.pop("r_min")
        constants = cfg.pop("constants")
        config = CarlemanConfig(**cfg)
        fams = tuple(FamilySummary(**f) for f in doc["families"])
        history = tuple(tuple(step) for step in doc.get("search_history", ()))
        return cls(config=config, C_used=doc["C_used"], r_min=r_min,
                   families=fams, constants=constants, search_history=history)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


def certify(config, envelope_p, C, grid_spec=None, r_min=None):
    """Verify every margin family on a dense grid and return the record.

    ``r_min`` is checked and defaulted by radial._inner_radius: 0, or 1 in
    dimension two, where the two-dimensional family is certified on
    r >= r_min > 0 only.  ``constants["mollifier"]`` is None, for a caller
    to fill in.
    """
    if grid_spec is None:
        grid_spec = GridSpec()
    r_min = _inner_radius(config.d, r_min)
    if not 0 < C < math.inf:
        raise InvalidInputError(f"audit constant C must be positive and finite, got {C}")
    grid = certification_grid(grid_spec, config.a, r_min)
    weight = build_weight(config)
    audit = audit_at(grid, config, envelope_p, C)
    mu = weight(grid)
    mup = weight.derivative(grid)
    k, k0, s, a = config.k, config.k0, config.s, config.a
    # headroom keeps the margin strictly positive where the recorded constant
    # is the exact asymptotic ratio (the quotient margin is identically zero
    # there in exact arithmetic, so bare floats would sign-flip on noise)
    K0 = max(1.0 / (2.0 * (k - k0)), 1.0 / (2.0 * s - 1.0)) * (1.0 + 1e-6)
    margins = {F_MONOTONE: 2.0 * mu / grid - mup}
    c26 = []
    for j in (0, 1, 2):
        Kj = K0 * ((a + 1.0) / a) ** (2 * k * j)
        c26.append(Kj)
        margins[F_QUOTIENT.format(j=j)] = (
            Kj * a ** (2 * k * j) * (grid + 1.0) ** (2 * s) - mu ** j / mup)
    margins[F_MAIN] = audit.lhs_main
    if config.d == 2:
        margins[F_2D] = audit.lhs_2d
    families = []
    for name in sorted(margins):
        arr = margins[name]
        if not np.all(np.isfinite(arr)):
            bad = grid[~np.isfinite(arr)][0]
            raise EvaluationError(f"margin {name} is not finite at r={bad:.6g}")
        idx = int(np.argmin(arr))
        families.append(FamilySummary(name, float(arr[idx]), float(grid[idx])))
    constants = {"c26": c26, "mollifier": None}
    return Certificate(config=config, C_used=float(C), r_min=float(r_min),
                       families=tuple(families), constants=constants,
                       grid=grid)


def search_tau0(config_template, envelope_p, C=C_FLOOR, grid_spec=None,
                tau0_max=TAU0_MAX, r_min=None):
    """Double tau0 from TAU0_START until certification passes.

    Returns the first passing certificate, carrying the failed attempts in
    ``search_history``.  Raises SearchExhaustedError, naming the last
    attempt's worst margin and its location and carrying the attempts, when
    no tau0 <= tau0_max is admissible; the search also ends there when a
    larger tau0 would overflow the cutoff radius a.
    """
    if not TAU0_START <= tau0_max < math.inf:
        raise InvalidInputError(
            f"tau0_max must be finite and at least {TAU0_START:g}, got {tau0_max}")
    history = []
    tau0 = TAU0_START
    last = None
    while tau0 <= tau0_max:
        try:
            cfg = replace(config_template, tau0=tau0)
        except InvalidConfigError:
            if last is None:  # a overflows at the first amplitude already
                raise
            break  # a overflows here, and at every larger tau0
        cert = certify(cfg, envelope_p, C, grid_spec, r_min)
        worst = cert.worst()
        history.append((tau0, worst.name, worst.min_margin, worst.argmin_r))
        if cert.passed:
            return replace(cert, search_history=tuple(history))
        last = cert
        tau0 *= 2.0
    worst = last.worst()
    stop = "" if tau0 > tau0_max else f" (a overflows from tau0 = {tau0:g})"
    raise SearchExhaustedError(
        f"no admissible tau0 <= {tau0_max:g}{stop}: family {worst.name} has "
        f"margin {worst.min_margin:.6g} at r={worst.argmin_r:.6g}", history=history)


def search_tau0_with_fallback(config_template, envelope_p, C=C_FLOOR, grid_spec=None,
                              tau0_max=TAU0_MAX, r_min=None):
    """Two-dimensional Hölder search that retries with (k, k0) = (1/2, 0).

    The steep weight (k = 1) certifies only for small h; outside that regime
    the shallow pair takes over, at the larger of the template's ell and
    the shallow default.  Returns (certificate, used_fallback).
    """
    rest = (envelope_p, C, grid_spec, tau0_max, r_min)
    try:
        return search_tau0(config_template, *rest), False
    except SearchExhaustedError:
        t = config_template
        if t.d == 2 and t.regularity == HOLDER and t.k == 1.0:
            shallow = replace(t, k=0.5, ell=max(t.ell, min_ell(0.5, t.beta, t.s)))
            return search_tau0(shallow, *rest), True
        raise


def recommended_audit_constant(model):
    """Audit constant C large enough to absorb the model's regularity constants.

    In the Lipschitz regime the derivative bound is at most the two-sided
    constant of the model; in the Hölder regime the smoothing-error constants
    enter through the bump kernel's moments, quadratically in the squared
    audit term.  Never below C_FLOOR.
    """
    hc = model.holder_const
    if model.alpha >= 1.0:
        return max(C_FLOOR, hc)
    kernel = bump_kernel()
    m_a = kernel.moment_alpha(model.alpha)
    m_ad = kernel.moment_alpha_deriv(model.alpha)
    return max(C_FLOOR, hc * m_ad, 3.0 * (1.0 + hc * m_a) ** 2)
