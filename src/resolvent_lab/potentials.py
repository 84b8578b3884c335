"""Radial potential families with decay envelopes and Hölder bookkeeping.

A model bundles a radial potential V, a positive decreasing envelope p with
V(r) <= p(r) and p(r) -> 0, and a constant bounding the weighted local
Hölder quotient:

    sup_{0 < |r - r'| <= 1} |V(r) - V(r')| / |r - r'|**alpha
        <= holder_const * (r + 1)**(-beta).

Smoothing at width theta in (0, 1) replaces V by

    V_theta(r) = int_0^1 rho(sigma) V(r + theta*sigma) dsigma,
    V_theta'(r) = theta**(-1) int_0^1 rho'(sigma) (V(r + theta*sigma) - V(r)) dsigma,

where the lab's kernel rho is the bump exp(-1/(s(1-s))) scaled to unit
mass: nonnegative, supported in [0, 1], with a derivative of zero mass.  The
formula fixes these facts, so they are checked by the tests, not at run
time.  For a model in the class above this keeps

    |V - V_theta| <= holder_const * m_alpha * theta**alpha * (r+1)**(-beta),
    |V_theta'|    <= holder_const * m_alpha' * theta**(alpha-1) * (r+1)**(-beta),

where m_alpha = int sigma**alpha rho and m_alpha' = int sigma**alpha |rho'|.
The kernel's integrals are 128-node Gauss-Legendre sums, split at 1/2 for
rho' where the bump's |rho'| has its kink, and checked against the 64-node
rule, which guards a caller's alpha: an integrand too rough for the rule
raises AccuracyError.
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, InvalidInputError, require_finite

Array = np.ndarray

# worker threads when none is given: the mollifier's row blocks here, the
# sectors of a resolvent norm in radial
THREADS = min(8, os.cpu_count() or 1)

# the process's pools, one per worker count, made on first use; a forked
# child has none of its parent's threads, so it drops them and makes its own
_POOLS = {}
_POOLS_LOCK = threading.Lock()
_ON_POOL = threading.local()  # active on the pools' own threads


def _forget_pools():
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pools)


def _mark_pool_thread():
    _ON_POOL.active = True


def _pool(threads):
    """The pool of threads - 1 workers; the caller is the last one."""
    with _POOLS_LOCK:
        if threads not in _POOLS:
            _POOLS[threads] = ThreadPoolExecutor(
                max_workers=threads - 1, thread_name_prefix=f"resolvent-lab-{threads}",
                initializer=_mark_pool_thread)
        return _POOLS[threads]


def map_on_pool(worker, items, threads):
    """[f(item) for item in items] in item order, with f = worker() once per task.

    min(threads, len(items)) tasks share the items, each taking the next
    one left and calling ``worker`` before its first; one task runs on the
    calling thread and the others on the process's pool for ``threads``.
    A call with one task, or from a pool thread, runs inline, so a pool
    thread never waits on a pool.  Every item runs; the first failure in
    item order is raised.
    """
    items = list(items)
    results = [None] * len(items)
    failures = {}
    pending = collections.deque(range(len(items)))

    def task():
        f = None
        while True:
            try:
                i = pending.popleft()
            except IndexError:
                return
            f = f or worker()
            try:
                results[i] = f(items[i])
            except Exception as exc:  # raised below, in item order
                failures[i] = exc

    count = min(threads, len(items))
    if count <= 1 or getattr(_ON_POOL, "active", False):
        task()
    else:
        futures = [_pool(threads).submit(task) for _ in range(count - 1)]
        try:
            task()
        except BaseException:  # an interrupt: the others take no more items
            pending.clear()
            raise
        finally:
            for future in futures:
                future.result()
    if failures:
        raise failures[min(failures)]
    return results


# Reference grid used by the built-in builders to measure their constants and
# to validate model invariants.  Dense near the origin where the envelopes
# vary fastest, logarithmic further out.
REFERENCE_GRID = np.unique(np.concatenate([
    np.linspace(0.0, 30.0, 6001),
    np.geomspace(30.0, 300.0, 400),
]))


# The adjacent pairs of the sorted grid are all evaluated.  Farther ones are
# grouped in cells of _CELL rows by _CELL offsets, and a cell is evaluated
# only while its bound can beat the best quotient found.
_CELL = 32
# each bound is inflated by this relative margin, far above the rounding of
# the few operations that separate it from a pair's quotient
_BOUND_SLACK = 1e-9
# the difference of two floats, each 0 or at least this in size, is 0 or normal
_TINY = 2.0 ** -970
# cells evaluated together: each temporary holds 8 x 32 x 32 pairs, 64 KB
_BATCH = 8


def _scan(r, v, w, alpha):
    """The best quotient over every pair, offset by offset in the sorted grid r.

    Each pair's quotient is |v_j - v_i| / dr**alpha * max(w_j, w_i), and
    the maximum is taken over the pairs with 0 < dr <= 1.  Once no pair at
    an offset lies within unit distance, none at a larger offset does
    either, and the scan stops there.
    """
    best = 0.0
    for off in range(1, r.size):
        dr = r[off:] - r[:-off]
        if dr.min() > 1.0:
            break
        best = _max_quotient(dr, v[off:] - v[:-off], np.maximum(w[off:], w[:-off]),
                             alpha, best)
    return best


def _max_quotient(dr, dv, wmax, alpha, best):
    """max(best, |dv| / dr**alpha * wmax over the pairs with 0 < dr <= 1).

    Every pair's quotient is formed, and the others are left out of the
    maximum; a NaN among the pairs counted leaves ``best`` as it was.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # dr = 0 is not counted
        quot = np.abs(dv) / dr ** alpha
        quot *= wmax
    return max(best, float(np.max(quot, where=(dr > 0.0) & (dr <= 1.0), initial=-math.inf)))


def _rounding_is_relative(r, v, w):
    """Whether every bound is within a relative _BOUND_SLACK of the quotients it bounds.

    That needs a finite w (v is finite), and no difference of v and no
    grid step in the subnormal range, where rounding is absolute: every
    nonzero |v| and every positive step is at least _TINY.
    """
    steps, size = np.diff(r), np.abs(v)
    return bool(np.isfinite(w).all()
                and not np.any((size > 0.0) & (size < _TINY))
                and not np.any((steps > 0.0) & (steps < _TINY)))


def _cell_search(r, v, w, alpha):
    """The best quotient over all pairs: the adjacent ones, then cells by their bounds.

    With B = _CELL, cell (b, c) pairs each row bB <= i < bB + B with i + k
    for cB + 2 <= k < cB + B + 2, an index past the grid standing for its
    last point.  Its pairs join points bB .. (b + c + 2)B, so no quotient in
    it exceeds min(spread / dmin**alpha, S * dmax**(1 - alpha)) * wmax: the
    range of v over those points, their largest slope |dv/dr| between
    neighbours (by the chain of steps, |v_j - v_i| <= S (r_j - r_i)), their
    largest w, the least distance from a row to its first offset, and the
    distance across the points, at most 1.  A cell with dmin > 1 holds no
    pair within unit distance.  Cells are evaluated in descending bound
    order until no bound beats the best quotient, so the result is the
    plain scan's maximum, float for float.
    """
    n, B = r.size, _CELL
    best = _max_quotient(np.diff(r), np.diff(v), np.maximum(w[1:], w[:-1]), alpha, 0.0)
    # offsets up to reach - i - 1 from row i may come within unit distance
    reach = np.searchsorted(r, r + 1.0 + _BOUND_SLACK * (1.0 + r), side="right")
    cols = -(-(int(np.max(reach - np.arange(n))) - 2) // B)
    rows = -(-n // B)
    # every point a cell joins, the grid's last repeated past its end
    size = (rows + cols + 1) * B + 1
    rp, vp, wp = (np.pad(x, (0, size - n), mode="edge") for x in (r, v, w))
    dv = np.abs(np.diff(vp))
    with np.errstate(divide="ignore", over="ignore"):  # a jump at a repeated point is inf
        slope = np.divide(dv, np.diff(rp), out=np.zeros_like(dv), where=dv > 0.0)
    window = np.lib.stride_tricks.sliding_window_view

    def over_cells(blocks, op):
        # op over the blocks b .. b + c + 1 of each cell (b, c)
        return op.accumulate(window(blocks, cols + 1)[:rows], axis=1)[:, 1:]

    def points(x, op):
        # op over the points qB .. (q + 1)B of each block q, with the next one's first
        return over_cells(op(op.reduce(x[:-1].reshape(-1, B), axis=1), x[B::B]), op)

    dmin = np.empty((rows, cols))
    for c in range(cols):
        k = c * B + 2
        dmin[:, c] = (rp[k:k + rows * B] - rp[:rows * B]).reshape(rows, B).min(axis=1)
    starts = rp[::B]
    dmax = np.minimum(window(starts, cols + 2)[:rows, 2:] - starts[:rows, None], 1.0)
    # 0/0 and inf*0 are NaN, each paired with a bound that is not
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = np.fmin(
            (points(vp, np.maximum) - points(vp, np.minimum)) / dmin ** alpha,
            over_cells(slope.reshape(-1, B).max(axis=1), np.maximum) * dmax ** (1.0 - alpha))
        bound *= points(wp, np.maximum)
        bound *= 1.0 + _BOUND_SLACK
    bound[dmin > 1.0] = 0.0
    bound = bound.ravel()
    live = np.flatnonzero(bound > best)
    order = live[np.argsort(-bound[live])]
    across = np.arange(B)
    for start in range(0, order.size, _BATCH):
        cells = order[start:start + _BATCH]
        if not bound[cells[0]] > best:
            break
        i = (cells // cols * B)[:, None, None] + across[:, None]
        j = i + (cells % cols * B + 2)[:, None, None] + across
        best = _max_quotient(rp[j] - rp[i], vp[j] - vp[i], np.maximum(wp[j], wp[i]),
                             alpha, best)
    return best


def holder_seminorm(f, alpha, beta, grid):
    """Largest weighted Hölder quotient over all grid pairs within unit distance.

    Returns max over pairs (r, r') with 0 < |r - r'| <= 1 of
    |f(r) - f(r')| * (r+1)**beta / |r - r'|**alpha, the exact maximum over
    the grid's pairs, found by a bounded search: neighbours in the sorted
    grid are all evaluated, and farther pairs only in cells whose bound,
    from the spread of f and from its largest slope between neighbours,
    can beat the largest quotient found.  The estimate is a lower bound on
    the true seminorm and never decreases under grid refinement.
    """
    r = np.asarray(grid, dtype=float).ravel()
    if r.size < 2:
        raise InvalidInputError("holder_seminorm needs at least two grid points")
    if np.any(r < 0):
        raise InvalidInputError("grid points must be nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= beta < math.inf:
        raise InvalidInputError(f"beta must be finite and nonnegative, got {beta}")
    r = np.sort(r)
    v = np.asarray(f(r), dtype=float)
    require_finite("potential evaluation is", v, r)
    w = (r + 1.0) ** beta
    if not _rounding_is_relative(r, v, w):
        return _scan(r, v, w, alpha)
    return _cell_search(r, v, w, alpha)


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

        Raises EvaluationError if p or V is not finite, and
        InvalidInputError if the envelope fails to decrease to a smaller
        value, if V exceeds p anywhere, or if the weighted Hölder quotient
        exceeds holder_const.
        """
        self._check_envelope(REFERENCE_GRID)
        sem = holder_seminorm(self.evaluate, self.alpha, self.beta, REFERENCE_GRID)
        if sem > self.holder_const * (1.0 + 1e-9) + 1e-300:
            raise InvalidInputError(
                f"weighted Hölder quotient {sem:.6g} exceeds declared constant "
                f"{self.holder_const:.6g} ({self.name})")

    def _check_envelope(self, r):
        """Envelope checks of ``validate``: p > 0 non-increasing, decaying; V <= p; both finite."""
        p = self.envelope(r)
        require_finite(f"envelope {self.name}", p, r)
        if np.any(p <= 0):
            raise InvalidInputError(f"envelope must be positive ({self.name})")
        if np.any(np.diff(p) > 0):
            raise InvalidInputError(f"envelope must be non-increasing ({self.name})")
        if not p[-1] < p[0]:
            raise InvalidInputError(
                f"envelope must decay: p({r[-1]:.3g}) >= p({r[0]:.3g}) ({self.name})")
        v = self(r)
        require_finite(f"potential {self.name}", v, r)
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


class MollifierKernel:
    """The lab's smoothing kernel: the normalized bump exp(-1/(s(1-s))) on (0, 1).

    The formula fixes its contract (nonnegative, supported in [0, 1], unit
    mass, a derivative of zero mass, largest at s = 1/2); the tests check it.
    """

    rho = staticmethod(_bump_rho)
    drho = staticmethod(_bump_drho)
    sup_value = float(_bump_rho(0.5))

    def moment_alpha(self, alpha):
        """int_0^1 sigma**alpha rho(sigma) dsigma."""
        return _integrate_01(lambda s: s ** alpha * self.rho(s))

    def moment_alpha_deriv(self, alpha):
        """int_0^1 sigma**alpha |rho'(sigma)| dsigma."""
        return _integrate_01(lambda s: s ** alpha * np.abs(self.drho(s)), split=True)


@functools.cache
def bump_kernel():
    """The one kernel instance, which every smoothing and certificate constant uses."""
    return MollifierKernel()


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

# Rows of the n x 64 quadrature window in one block: each temporary of a
# block is 0.25 MB, whatever n is, and two workers hold as many rows as one
# block of 1024 did.
_BLOCK_ROWS = 512


def _map_blocks(fill, n):
    """[fill(rows) for each slice ``rows`` of _BLOCK_ROWS of n rows], in row order.

    The blocks map over THREADS tasks (map_on_pool); numpy releases the GIL
    in the window's loops.
    """
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS)]
    return map_on_pool(lambda: fill, blocks, THREADS)


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
    An envelope or a gap that is not finite raises EvaluationError.
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
    p = base.envelope(probe)
    require_finite(f"envelope {base.name}", p, probe)
    scale = p + theta ** base.alpha + 1e-30
    modulus = (3.0 * kernel.sup_value * base.holder_const
               * (theta / 64.0) ** base.alpha
               * (probe + 1.0) ** (-base.beta))
    gap = np.abs(fine - coarse)
    require_finite(f"smoothed potential {base.name}", gap, probe)
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
