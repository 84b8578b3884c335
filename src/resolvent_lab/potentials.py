"""Radial potential families with decay envelopes and Hölder bookkeeping.

A model bundles a radial potential V, a positive decreasing envelope p with
V(r) <= p(r) and p(r) -> 0, and a constant bounding the weighted local
Hölder quotient:

    sup_{0 < |r - r'| <= 1} |V(r) - V(r')| / |r - r'|**alpha
        <= holder_const * (r + 1)**(-beta).

Smoothing at width theta in (0, 1) replaces V by

    V_theta(r) = int_0^1 rho(sigma) V(r + theta*sigma) dsigma,
    V_theta'(r) = theta**(-1) int_0^1 rho'(sigma) (V(r + theta*sigma) - V(r)) dsigma,

for a nonnegative kernel rho supported in [0, 1] with unit mass.  For a
model in the class above this keeps

    |V - V_theta| <= holder_const * m_alpha * theta**alpha * (r+1)**(-beta),
    |V_theta'|    <= holder_const * m_alpha' * theta**(alpha-1) * (r+1)**(-beta),

where m_alpha = int sigma**alpha rho and m_alpha' = int sigma**alpha |rho'|.
The kernel's integrals are 128-node Gauss-Legendre sums, split at 1/2 for
rho' where the bump's |rho'| has its kink, and checked against the 64-node
rule; a kernel too rough for the rule raises AccuracyError.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, EvaluationError, InvalidInputError

Array = np.ndarray

# worker threads when none is given: the mollifier's row blocks here, the
# sectors of a resolvent norm in radial
THREADS = min(8, os.cpu_count() or 1)

# Reference grid used by the built-in builders to measure their constants and
# to validate model invariants.  Dense near the origin where the envelopes
# vary fastest, logarithmic further out.
REFERENCE_GRID = np.unique(np.concatenate([
    np.linspace(0.0, 30.0, 6001),
    np.geomspace(30.0, 300.0, 400),
]))


def holder_seminorm(f, alpha, beta, grid):
    """Largest weighted Hölder quotient over all grid pairs within unit distance.

    Returns max over pairs (r, r') with 0 < |r - r'| <= 1 of
    |f(r) - f(r')| * (r+1)**beta / |r - r'|**alpha.  The estimate is a lower
    bound on the true seminorm and never decreases under grid refinement.
    """
    r = np.asarray(grid, dtype=float).ravel()
    if r.size < 2:
        raise InvalidInputError("holder_seminorm needs at least two grid points")
    if np.any(r < 0):
        raise InvalidInputError("grid points must be nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    if beta < 0:
        raise InvalidInputError(f"beta must be nonnegative, got {beta}")
    r = np.sort(r)
    v = np.asarray(f(r), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = r[~np.isfinite(v)][0]
        raise EvaluationError(f"potential evaluation is not finite at r={bad:.6g}")
    w = (r + 1.0) ** beta
    best = 0.0
    for off in range(1, r.size):
        dr = r[off:] - r[:-off]
        if dr.min() > 1.0:
            break
        mask = (dr > 0.0) & (dr <= 1.0)
        if not mask.any():
            continue
        quot = np.abs(v[off:] - v[:-off])[mask] / dr[mask] ** alpha
        wmax = np.maximum(w[off:][mask], w[:-off][mask])
        best = max(best, float(np.max(quot * wmax)))
    return best


@dataclass(frozen=True)
class PotentialModel:
    """Radial potential with envelope and weighted Hölder constant.

    Instances are immutable.  The built-in builders measure holder_const on
    a reference grid and check the envelope there; ``validate`` checks a
    model built by hand.  ``evaluate`` is called from worker threads when a
    MollifiedPotential smooths the model, so it must be safe to call
    concurrently (a pure numpy expression is).
    """

    name: str
    evaluate: Callable[[Array], Array]
    envelope: Callable[[Array], Array]
    alpha: float
    beta: float
    holder_const: float

    def __call__(self, r):
        return self.evaluate(np.asarray(r, dtype=float))

    def validate(self):
        """Check the defining invariants on REFERENCE_GRID.

        Raises InvalidInputError if the envelope fails to decrease to a
        smaller value, if V exceeds p anywhere, or if the weighted Hölder
        quotient exceeds holder_const.
        """
        self._check_envelope(REFERENCE_GRID)
        sem = holder_seminorm(self.evaluate, self.alpha, self.beta, REFERENCE_GRID)
        if sem > self.holder_const * (1.0 + 1e-9) + 1e-300:
            raise InvalidInputError(
                f"weighted Hölder quotient {sem:.6g} exceeds declared constant "
                f"{self.holder_const:.6g} ({self.name})")

    def _check_envelope(self, r):
        """The envelope checks of ``validate``: p > 0 non-increasing and decaying, V <= p."""
        p = self.envelope(r)
        if np.any(p <= 0):
            raise InvalidInputError(f"envelope must be positive ({self.name})")
        if np.any(np.diff(p) > 0):
            raise InvalidInputError(f"envelope must be non-increasing ({self.name})")
        if not p[-1] < p[0]:
            raise InvalidInputError(
                f"envelope must decay: p({r[-1]:.3g}) >= p({r[0]:.3g}) ({self.name})")
        v = self(r)
        if np.any(v > p * (1.0 + 1e-12) + 1e-300):
            bad = r[v > p * (1.0 + 1e-12) + 1e-300][0]
            raise InvalidInputError(
                f"potential exceeds its envelope at r={bad:.6g} ({self.name})")


# ---------------------------------------------------------------------------
# Mollification kernel
# ---------------------------------------------------------------------------

def _gauss_legendre_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_GL_NODES = {n: _gauss_legendre_01(n) for n in (64, 128)}
KERNEL_QUAD_TOL = 1e-12


def _integrate_01(f, split=False):
    """int_0^1 f for a vectorized f by the 128-node Gauss-Legendre rule.

    With ``split`` the rule runs on [0, 1/2] and [1/2, 1] separately.  The
    result must agree with the 64-node rule to KERNEL_QUAD_TOL (relative
    plus absolute), otherwise AccuracyError is raised.
    """
    def rule(n):
        x, w = _GL_NODES[n]
        if not split:
            return float(w @ f(x))
        return 0.5 * float(w @ f(0.5 * x) + w @ f(0.5 + 0.5 * x))

    coarse, fine = rule(64), rule(128)
    gap = abs(fine - coarse)
    if not gap <= KERNEL_QUAD_TOL * (1.0 + abs(fine)):  # also catches NaN
        raise AccuracyError(
            f"kernel integral changed by {gap:.3g} between 64 and 128 "
            "Gauss-Legendre nodes; the kernel is too rough for the rule")
    return fine


class MollifierKernel:
    """Nonnegative smoothing kernel supported in [0, 1] with unit mass."""

    def __init__(self, rho, drho):
        self.rho = rho
        self.drho = drho
        self.moment0 = _integrate_01(rho)
        self.gradient_mass = _integrate_01(drho, split=True)
        probe = np.linspace(-0.5, 1.5, 2001)
        vals = np.asarray(rho(probe))
        if np.any(vals < -1e-14):
            raise InvalidInputError("kernel must be nonnegative")
        outside = (probe < 0.0) | (probe > 1.0)
        if np.any(np.abs(vals[outside]) > 1e-14):
            raise InvalidInputError("kernel must vanish outside [0, 1]")
        if abs(self.moment0 - 1.0) > 1e-10:
            raise InvalidInputError(
                f"kernel mass {self.moment0!r} differs from 1 beyond 1e-10")
        if abs(self.gradient_mass) > 1e-10:
            raise InvalidInputError(
                f"kernel derivative mass {self.gradient_mass!r} exceeds 1e-10")
        self.sup_value = float(np.max(vals))

    def moment_alpha(self, alpha):
        """int_0^1 sigma**alpha rho(sigma) dsigma."""
        return _integrate_01(lambda s: s ** alpha * self.rho(s))

    def moment_alpha_deriv(self, alpha):
        """int_0^1 sigma**alpha |rho'(sigma)| dsigma."""
        return _integrate_01(lambda s: s ** alpha * np.abs(self.drho(s)), split=True)


def _on_bump_support(s, f):
    """f(s, s (1 - s)) on 1e-3 < s < 1 - 1e-3, where the bump is not negligible, else 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 1e-3) & (s < 1.0 - 1e-3)
    out[inside] = f(s[inside], s[inside] * (1.0 - s[inside]))
    return out if out.ndim else float(out)


def _bump_unnormalized(s):
    return _on_bump_support(s, lambda si, u: np.exp(-1.0 / u))


_BUMP_NORM = _integrate_01(_bump_unnormalized)


def _bump_rho(s):
    return _bump_unnormalized(s) / _BUMP_NORM


def _bump_drho(s):
    return _on_bump_support(
        s, lambda si, u: np.exp(-1.0 / u) * (1.0 - 2.0 * si) / u ** 2 / _BUMP_NORM)


@functools.cache
def bump_kernel():
    """The default kernel: the normalized bump exp(-1/(s(1-s))) on (0, 1)."""
    return MollifierKernel(_bump_rho, _bump_drho)


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

# Rows of the n x 64 quadrature window in one block: each temporary of a
# block is 0.25 MB, whatever n is, and two workers hold as many rows as one
# block of 1024 did.
_BLOCK_ROWS = 512


def _map_blocks(fill, n):
    """[fill(rows) for each slice ``rows`` of _BLOCK_ROWS of n rows], in row order.

    More than one block maps over THREADS workers; one block runs inline.
    """
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS)]
    if len(blocks) > 1:
        # numpy releases the GIL in the window's loops
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            return list(pool.map(fill, blocks))
    return [fill(rows) for rows in blocks]


class MollifiedPotential:
    """Smoothed potential V_theta, and the sups of |V - V_theta| and |V_theta'|.

    Values are formed _BLOCK_ROWS rows at a time, on THREADS workers that
    call the base model's ``evaluate``; each block writes its own rows by
    the whole window's expression, so neither blocking nor the thread count
    changes a value when BLAS runs on one thread.  Both ratios come from one
    pass, and the pair of the last grid is kept.
    """

    def __init__(self, base, kernel, theta):
        self.base = base
        self.theta = float(theta)
        x, w = _GL_NODES[64]
        rw = w * kernel.rho(x)
        self._nodes = x
        self._rho_weights = rw / rw.sum()  # exact on constants
        self._drho_weights = w * kernel.drho(x)
        self._last_ratios = None  # ((shape, bytes) of a grid, its two ratios)

    def _window(self, rb):
        """(V on the quadrature window of the rows ``rb``, V_theta(rb)).

        The one block expression behind ``evaluate`` and the ratio pass.
        """
        # rb is a float array, so evaluate serves, not __call__, which the
        # benchmark's tracer wraps in spans that have no parent on a worker
        vals = self.base.evaluate(rb[:, None] + self.theta * self._nodes[None, :])
        return vals, vals @ self._rho_weights

    def evaluate(self, r):
        """V_theta(r), _BLOCK_ROWS rows at a time."""
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty(r.size)
        _map_blocks(lambda rows: np.copyto(out[rows], self._window(r[rows])[1]), r.size)
        return float(out[0]) if scalar else out

    def _ratios(self, grid):
        """(error ratio, derivative ratio) on ``grid``, from one window pass.

        The pair is kept with a copy of the grid's shape and bytes; a grid
        equal to it byte for byte gets the kept pair back.
        """
        r = np.atleast_1d(np.asarray(grid, dtype=float))
        key = (r.shape, r.tobytes())
        last = self._last_ratios
        if last is not None and last[0] == key:
            return last[1]
        beta = self.base.beta

        def maxima(rows):
            rb = r[rows]
            vals, smooth = self._window(rb)
            v0 = self.base.evaluate(rb)
            slope = (vals - v0[:, None]) @ self._drho_weights / self.theta
            weight = (rb + 1.0) ** beta
            return np.max(np.abs(v0 - smooth) * weight), np.max(np.abs(slope) * weight)

        # an empty grid raises here, as a max over no rows
        err, der = np.max(np.reshape(_map_blocks(maxima, r.size), (-1, 2)), axis=0)
        ratios = (float(err) / self.theta ** self.base.alpha,
                  float(der) / self.theta ** (self.base.alpha - 1.0))
        self._last_ratios = (key, ratios)
        return ratios

    def error_ratio(self, grid):
        """sup over the grid of |V - V_theta| (r+1)**beta / theta**alpha."""
        return self._ratios(grid)[0]

    def deriv_ratio(self, grid):
        """sup over the grid of |V_theta'| (r+1)**beta / theta**(alpha-1)."""
        return self._ratios(grid)[1]


def mollify(base, kernel, theta):
    """Smooth ``base`` at width theta using ``kernel``.

    The evaluation rule is a fixed 64-node Gauss-Legendre discretization of
    the smoothing integral.  One refinement check against the 128-node rule
    is performed on a probe grid; the allowance combines a 1e-8 tolerance with
    the provable refinement gap for a member of the declared Hölder class,
    so the check trips only when the potential behaves worse than declared.
    """
    if not 0.0 < theta < 1.0:
        raise InvalidInputError(f"theta must lie in (0, 1), got {theta}")
    mp = MollifiedPotential(base, kernel, theta)
    probe = np.linspace(0.0, 8.0, 257)
    x, w = _GL_NODES[128]
    rw = w * kernel.rho(x)
    rw = rw / rw.sum()
    fine = base(probe[:, None] + theta * x[None, :]) @ rw
    coarse = mp.evaluate(probe)
    scale = base.envelope(probe) + theta ** base.alpha + 1e-30
    modulus = (3.0 * kernel.sup_value * base.holder_const
               * (theta / 64.0) ** base.alpha
               * (probe + 1.0) ** (-base.beta))
    gap = np.abs(fine - coarse)
    if np.any(gap > 1e-8 * scale + modulus):
        worst = probe[np.argmax(gap - 1e-8 * scale - modulus)]
        raise AccuracyError(
            f"quadrature refinement check failed near r={worst:.4g}; "
            "the potential is rougher than its declared class")
    return mp


def theta_for(h, alpha):
    """Smoothing width h**(2/(alpha+3)) tied to the semiclassical parameter."""
    if not 0.0 < h <= 1.0:
        raise InvalidInputError(f"h must lie in (0, 1], got {h}")
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(
            f"alpha must lie in (0, 1) for the smoothing path, got {alpha}")
    return h ** (2.0 / (alpha + 3.0))


# ---------------------------------------------------------------------------
# Built-in family
# ---------------------------------------------------------------------------

def _measured_model(name, v, p, alpha, beta, grid):
    """The model with holder_const 1.25 times V's seminorm measured on ``grid``.

    Runs the envelope checks of ``validate``; its seminorm check would
    measure the same quotient on the same grid again and always pass.
    """
    model = PotentialModel(name, v, p, alpha=alpha, beta=beta,
                           holder_const=holder_seminorm(v, alpha, beta, grid) * 1.25)
    model._check_envelope(grid)
    return model


def zero_potential():
    """The free case; the envelope is a tiny decreasing positive floor."""

    def v(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def p(r):
        return 1e-12 / (np.asarray(r, dtype=float) + 1.0)

    return _measured_model("zero", v, p, 1.0, 4.0, REFERENCE_GRID)


def power_law(c=0.5, delta=1.0):
    """V(r) = c (r+1)**(-delta); its own exact envelope, Lipschitz in r."""
    if c <= 0 or delta <= 0:
        raise InvalidInputError("power_law needs c > 0 and delta > 0")

    def v(r):
        return c * (np.asarray(r, dtype=float) + 1.0) ** (-delta)

    return _measured_model("power_law", v, v, 1.0, delta + 1.0, REFERENCE_GRID)


def holder_bump(c=1.0, alpha=0.5, freq=1.0):
    """V(r) = c (r+1)**(-4) |cos(freq r)|**alpha, genuinely alpha-Hölder."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("holder_bump needs alpha in (0, 1)")
    if c <= 0 or freq <= 0:
        raise InvalidInputError("holder_bump needs c > 0 and freq > 0")

    def v(r):
        r = np.asarray(r, dtype=float)
        return c * (r + 1.0) ** (-4.0) * np.abs(np.cos(freq * r)) ** alpha

    def p(r):
        return c * (np.asarray(r, dtype=float) + 1.0) ** (-4.0)

    # refine the measurement grid near the cusps of |cos|**alpha
    kinks = [(0.5 + k) * math.pi / freq for k in range(int(30 * freq / math.pi) + 1)]
    offsets = np.concatenate([-np.geomspace(1e-7, 0.3, 40), [0.0],
                              np.geomspace(1e-7, 0.3, 40)])
    extra = np.concatenate([k + offsets for k in kinks])
    grid = np.unique(np.concatenate([REFERENCE_GRID, extra[(extra >= 0) & (extra <= 30)]]))
    return _measured_model("holder_bump", v, p, alpha, 4.0, grid)


def _logistic(x):
    """1 / (1 + exp(-x)), scipy.special.expit's formula; exp overflow gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def barrier_well(height=2.5, r_well=2.0, r_barrier=5.0, smoothness=0.5):
    """A smooth plateau barrier on [r_well, r_barrier] enclosing an inner well."""
    if height <= 0 or smoothness <= 0 or not 0 < r_well < r_barrier:
        raise InvalidInputError(
            "barrier_well needs height, smoothness > 0 and 0 < r_well < r_barrier")

    def v(r):
        r = np.asarray(r, dtype=float)
        return (height * _logistic((r - r_well) / smoothness)
                * _logistic((r_barrier - r) / smoothness))

    ref = REFERENCE_GRID
    tail_sup = np.maximum.accumulate(v(ref)[::-1])[::-1]
    floor = 1e-12 / (ref + 1.0)
    p_ref = np.maximum(tail_sup * (1.0 + 1e-9), floor)

    def p(r):
        r = np.asarray(r, dtype=float)
        return np.maximum(np.interp(r, ref, p_ref), 1e-12 / (r + 1.0))

    return _measured_model("barrier_well", v, p, 1.0, 3.0, ref)


POTENTIAL_BUILDERS = {
    "zero": zero_potential,
    "power_law": power_law,
    "holder_bump": holder_bump,
    "barrier_well": barrier_well,
}

_MODEL_CACHE = {}


def build_potential(name="zero", params=None):
    """Build a named model from the registry; results are cached."""
    if not isinstance(name, str) or name not in POTENTIAL_BUILDERS:
        valid = ", ".join(sorted(POTENTIAL_BUILDERS))
        raise InvalidInputError(f"unknown potential {name!r}; valid names: {valid}")
    unknown = set(params or {}) - set(inspect.signature(POTENTIAL_BUILDERS[name]).parameters)
    if unknown:
        raise InvalidInputError(
            f"unknown parameters for {name}: {', '.join(sorted(unknown))}")
    key = (name, tuple(sorted((params or {}).items())))
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = POTENTIAL_BUILDERS[name](**(params or {}))
    return _MODEL_CACHE[key]
