"""Discretized radial operators, weighted resolvent norms and the energy audit.

Separation of variables reduces the operator to one complex tridiagonal
system per angular sector,

    A = -h**2 d**2/dr**2 + lambda_l / r**2 - E + V(r) + i sign eps,
    lambda_l = h**2 (l (l + d - 2) + (d - 1)(d - 3) / 4),

by central differences on a uniform grid, with u = 0 at r_min and a
transparent outer end: the last diagonal entry stands in for the exterior,
its coefficients frozen (Ehrhardt-Arnold), so A^{-1} is the compression of
that operator's resolvent to the box and the box need not hold the
weight's tail.  The weighted norm of a sector is the largest singular
value of W A^{-1} W with W = diag((r+1)**(-s)), that is of B^{-1} for the
complex symmetric tridiagonal B = W^{-1} A W^{-1}.  A's main diagonal,
transparent entry included, is formed in one place (_diagonal), and B's
band in one (DiscreteOperator._band), in buffers from _band_buffers, for
the Lanczos norm, the dense oracle and the audit's phase-conjugated solve.
One factor step (DiscreteOperator._factor, zgttrf in place) serves the
norm and the solve; the oracle takes sigma_min(B) from the band's real
symmetric embedding without it.  B_- is the entrywise conjugate of B_+,
since W is real and the - side's transparent entry is the conjugate of
the + side's, so both signs of eps have the same norm.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dstebz, dstein, zgttrf, zgttrs

from .errors import (AccuracyError, EvaluationError, InvalidInputError,
                     SingularMatrixError, require_finite)
from .potentials import THREADS, PotentialModel, map_on_pool

LANCZOS_STEP_CAP = 1_000
RESIDUAL_TOL = 1e-6
# the space dimension and the energy when none is given, here and in the
# Carleman certificate a sweep is checked against
DIMENSION = 3
ENERGY = 1.0
# the left end of the radial range in dimension two when none is given: the
# exterior domain r >= 1 on which the two-dimensional estimates hold
R_MIN_D2 = 1.0
# the Lanczos start-vector seed when none is given
SEED = 2024
# the assembly rule: the radial step dr is at most h / STEPS_PER_H
STEPS_PER_H = 10.0
# the truncation tolerance when none is given: scaling.GridPolicy's bound on a
# short box's tail term and its fallback radius, where (r + 1)**(-2s) falls to it
TAIL_TOL = 1e-4


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
        _check_domain(InvalidInputError, self.d, self.E, self.h, self.s)
        _check_real("eps", self.eps)
        if not 0.0 < self.eps <= 1.0:
            raise InvalidInputError(f"eps must lie in (0, 1], got {self.eps}")
        if self.sign not in (1, -1):
            raise InvalidInputError(f"sign must be +1 or -1, got {self.sign}")


def _check_domain(error, d, E, h, s):
    """Raise ``error`` unless (d, E, h, s) lies in the paper's parameter domain.

    d is an integer >= 2, E > 0 and s > 1/2 are finite, and h lies in (0, 1].
    """
    _check_integer("d", d, 2, error)
    for name, value in (("E", E), ("h", h), ("s", s)):
        _check_real(name, value, error)
    if not 0.0 < E < math.inf:
        raise error(f"E must be positive and finite, got {E}")
    if not 0.0 < h <= 1.0:
        raise error(f"h must lie in (0, 1], got {h}")
    if not s > 0.5:
        raise error(f"s below lower bound 1/2 (got {s})")
    if s == math.inf:
        raise error("s must be finite, got inf")


def _check_integer(name, value, least, error=InvalidInputError):
    """Require a non-bool integer (numpy integers included) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value}")


def _check_real(name, value, error=InvalidInputError):
    """Require a real number that is not a bool (numpy reals included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")


def _check_positive(name, value):
    """Require a positive finite number."""
    _check_real(name, value)
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{name} must be positive and finite, got {value}")


def _inner_radius(d, r_min):
    """The left end of the radial range: ``r_min``, a finite number >= 0, > 0 when d = 2.

    None gives 0, or R_MIN_D2 in dimension two; d = None skips the d = 2 rule.
    """
    if r_min is None:
        return R_MIN_D2 if d == 2 else 0.0
    _check_real("r_min", r_min)
    if not 0.0 <= r_min < math.inf:
        raise InvalidInputError(f"r_min must be finite and nonnegative, got {r_min}")
    if d == 2 and r_min == 0:
        raise InvalidInputError("dimension two requires r_min > 0")
    return r_min


@dataclass(frozen=True)
class AngularSector:
    """Sphere-harmonic sector with its centrifugal eigenvalue."""

    d: int
    l: int
    h: float
    lambda_value: float = field(init=False)

    def __post_init__(self):
        _check_integer("d", self.d, 2)
        _check_integer("l", self.l, 0)
        lam = self.h ** 2 * (self.l * (self.l + self.d - 2)
                             + 0.25 * (self.d - 1) * (self.d - 3))
        object.__setattr__(self, "lambda_value", lam)


@dataclass(frozen=True)
class UniformGridSpec:
    """Uniform radial grid on (r_min, r_max], at least 3 points, the last at the outer end.

    ``tail_tol`` is checked but not read: GridPolicy, not the grid, owns
    the truncation rule.
    """

    dr: float
    r_max: float
    r_min: float = 0.0
    tail_tol: float = TAIL_TOL

    def __post_init__(self):
        _check_positive("dr", self.dr)
        _check_positive("tail_tol", self.tail_tol)
        # None, the default GridPolicy and certify take, has no meaning here;
        # the dimension-two rule waits for the query that uses the grid
        _check_real("r_min", self.r_min)
        _inner_radius(None, self.r_min)
        _check_real("r_max", self.r_max)
        # a finite span either way, whose points fit one numpy array: at most
        # intp's largest value in bytes, 8 a point
        if not abs(self.r_max - self.r_min) <= np.iinfo(np.intp).max // 8 * self.dr:
            raise InvalidInputError(
                f"r_max must be finite and leave fewer points past r_min={self.r_min:g} "
                f"at dr={self.dr:g} than an array can hold, got {self.r_max}")
        if self._interior_count() < 3:
            raise InvalidInputError(
                f"r_max={self.r_max:g} must leave at least 3 interior points "
                f"past r_min={self.r_min:g} at dr={self.dr:g}")

    def _interior_count(self):
        return int(math.ceil((self.r_max - self.r_min) / self.dr - 1e-9)) - 1

    def points(self):
        return self.r_min + self.dr * np.arange(1, self._interior_count() + 1)


@dataclass(frozen=True)
class DiscreteOperator:
    """Complex tridiagonal sector operator A, u = 0 at r_min, transparent at the outer end.

    ``v`` is V at the nodes ``grid``, shared by every sector of a query.
    _band forms B = W^{-1} A W^{-1}, and _factor factors it in place.
    """

    grid: np.ndarray
    v: np.ndarray
    query: ResolventQuery
    sector: AngularSector
    dr: float

    def _band(self, weighted, band):
        """B's band, formed in the complex buffers ``band`` = (dl, d, du), not read.

        ``weighted`` is this grid's pair from _weighted_terms: B's diagonal
        is A's times (r+1)**(2s), and its off-diagonal fills dl and du.
        A's diagonal takes its real steps in dl's memory before dl is filled.
        """
        lift2, off = weighted
        dl, d, du = band
        _diagonal(self.query, self.sector, self.dr, self.grid, self.v, d,
                  dl.view(float)[:self.grid.size])
        d *= lift2
        np.copyto(dl, off)
        np.copyto(du, off)
        return band

    def _factor(self, band):
        """The zgttrf factors (dl, d, du, du2, ipiv) of _band's band, which zgttrs takes.

        zgttrf factors the band in place and allocates du2 and ipiv only.
        """
        *lu, info = zgttrf(*band, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info != 0:  # pragma: no cover - eps > 0 keeps this clear
            raise SingularMatrixError(
                f"sector factorization failed: zgttrf info={info} "
                f"(sector l={self.sector.l})")
        return lu


def _band_buffers(n):
    """Complex (dl, d, du) of a grid of n points, for _band to form B's band in."""
    return np.empty(n - 1, complex), np.empty(n, complex), np.empty(n - 1, complex)


def assemble(query, sector, grid_spec):
    """Discretize one angular sector of the absorbing operator; V must be finite."""
    if sector.d != query.d or sector.h != query.h:
        raise InvalidInputError("sector and query disagree on d or h")
    r = _checked_points(query, grid_spec)
    v = np.asarray(query.potential(r), dtype=float)
    require_finite(f"potential {query.potential.name}", v, r)
    return DiscreteOperator(r, v, query, sector, grid_spec.dr)


def _checked_points(query, grid_spec):
    """The grid points, once the step and dimension rules hold."""
    if grid_spec.dr > query.h / STEPS_PER_H * (1.0 + 1e-12):
        raise InvalidInputError(
            f"dr rule violated: dr={grid_spec.dr:g} must be at most "
            f"h/{STEPS_PER_H:g}={query.h / STEPS_PER_H:g}")
    _inner_radius(query.d, grid_spec.r_min)
    return grid_spec.points()


def _coupling(query, dr):
    """a = h**2 / dr**2: A's off-diagonal is -a, and its diagonal holds 2 a."""
    return query.h ** 2 / dr ** 2


def _diagonal(query, sector, dr, r, v, out, scratch):
    """A's main diagonal at the nodes ``r``, where V = ``v``, formed in the complex ``out``.

    ``out``'s contents are not read; it is returned.  This is the only
    place A's diagonal is formed.  ``scratch`` is a real buffer of r.size
    values, not read, in which r**2 is formed and the real steps run.

    The last node carries the transparent condition.  With a = h**2 / dr**2
    and d_n the last entry of the interior rule, the coefficients frozen
    past that node make u_{n+1} = zeta u_n, where zeta + 1/zeta = d_n / a
    and |zeta| < 1 (the solution that decays outward), so a zeta is taken
    off d_n.  For eps > 0 this adds sign * Im(-a zeta) > 0: absorption only.
    The - side's zeta is the conjugate of the + side's, bit for bit.
    """
    a = _coupling(query, dr)
    # ((2 a + lambda_l / r**2) - E) + V + i sign eps with the formula's
    # operations in its order
    np.square(r, out=scratch)
    np.divide(sector.lambda_value, scratch, out=scratch)
    scratch += 2.0 * a
    scratch -= query.E
    np.add(v, scratch, out=out.real)
    out.imag.fill(query.sign * query.eps)
    t = complex(out[-1]) / a
    root = cmath.sqrt(t * t - 4.0)
    # the root of larger modulus is formed without cancellation; zeta is the other
    far = t + root if abs(t + root) >= abs(t - root) else t - root
    out[-1] -= a * (2.0 / far)
    return out


def _lift(r, s):
    """(r+1)**s at the nodes ``r``: the inverse of the resolvent weight."""
    return np.power(r + 1.0, s)


def _weighted_terms(query, dr, r):
    """(r+1)**(2s) and the off-diagonal of B = W^{-1} A W^{-1} at the nodes ``r``.

    The off-diagonal is -h**2 / dr**2 times (r_j+1)**s (r_{j+1}+1)**s;
    neither term depends on the sector.
    """
    lift = _lift(r, query.s)
    off = lift[:-1] * lift[1:]
    off *= -_coupling(query, dr)
    return np.multiply(lift, lift, out=lift), off


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


def _real_dot(x, y):
    """Re <x, y> of two contiguous complex vectors, summed on one thread.

    einsum over the interleaved real views adds in a fixed order, where
    BLAS zdotc and dznrm2 split long vectors across their own threads.
    """
    return float(np.einsum("i,i", x.view(float), y.view(float)))


def _start_vector(n, seed):
    """The normalized complex Gaussian start vector of length n for ``seed``."""
    rng = np.random.default_rng(seed)
    q = np.empty(n, dtype=complex)
    q.real = rng.standard_normal(n)
    q.imag = rng.standard_normal(n)
    q /= math.sqrt(_real_dot(q, q))
    return q


def _top_ritz_pair(alphas, betas):
    """Top eigenvalue of the symmetric tridiagonal T_k and the last entry of its eigenvector.

    Calls dstebz (by index, il = iu = k, block order) and dstein, the
    LAPACK routines eigh_tridiagonal(select="i") runs, without its argument
    checks; dstebz rejects an empty off-diagonal, so k = 1 is T itself.
    """
    k = alphas.size
    if k == 1:
        return float(alphas[0]), 1.0
    m, theta, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        vec, info = dstein(alphas, betas, theta[:m], iblock, isplit)
    if info != 0:  # pragma: no cover - finite T keeps this clear
        raise AccuracyError(f"tridiagonal Ritz solve failed: info={info}")
    return float(theta[0]), float(vec[-1, 0])


def _lanczos_sector_norm(op, weighted, start, work, band):
    """(sqrt(theta), Gram products, residual) of B^{-1} = W A^{-1} W by Lanczos.

    Runs the three-term recurrence on G = B^{-H} B^{-1} from ``start``,
    which it does not write, with ``weighted`` the query's pair from
    _weighted_terms, ``work`` three complex vectors of the grid's length
    and ``band`` the buffers B is formed and factored in, none read.
    It stops when the top Ritz pair (theta, s) of T_k has residual
    |beta_k s_k| / theta <= RESIDUAL_TOL.
    No basis is kept: without reorthogonalization the top Ritz value
    converges before a spurious copy of it can form (Paige).
    """
    lu = op._factor(op._band(weighted, band))
    v, v_prev, r = work
    np.copyto(v, start)
    # q_k = scale * v and q_{k-1} = scale_prev * v_prev: each Lanczos vector is
    # kept as the step's residual, and 1/beta is folded into the copy and daxpy;
    # the start vector is normalized
    scale = 1.0

    alphas = np.empty(LANCZOS_STEP_CAP)
    betas = np.empty(LANCZOS_STEP_CAP)
    beta = 0.0
    for k in range(1, LANCZOS_STEP_CAP + 1):
        # r = B^{-H} B^{-1} q_k; r is contiguous, so zgttrs solves in it
        np.multiply(v, scale, out=r)
        zgttrs(*lu, r, trans="N", overwrite_b=True)
        zgttrs(*lu, r, trans="C", overwrite_b=True)
        alpha = scale * _real_dot(v, r)
        # r -= alpha q_k + beta_{k-1} q_{k-1}, in place on the real views
        daxpy(v.view(float), r.view(float), a=-alpha * scale)
        if k > 1:
            daxpy(v_prev.view(float), r.view(float), a=-beta * scale_prev)
        alphas[k - 1] = alpha
        beta = math.sqrt(_real_dot(r, r))
        if not math.isfinite(beta):  # dstebz takes T unchecked
            raise AccuracyError(
                f"Lanczos produced a non-finite vector (sector l={op.sector.l})")
        theta, last = _top_ritz_pair(alphas[:k], betas[:k - 1])
        res = abs(beta * last) / theta
        if res <= RESIDUAL_TOL:
            return math.sqrt(theta), k, res
        betas[k - 1] = beta
        v_prev, v, r = v, r, v_prev
        scale_prev, scale = scale, 1.0 / beta
    raise AccuracyError(
        f"Lanczos did not reach residual {RESIDUAL_TOL:g} within "
        f"{LANCZOS_STEP_CAP} steps (sector l={op.sector.l})")


def dense_weighted_norm(query, sector, grid_spec):
    """Top singular value of W A^{-1} W, as 1 / sigma_min(B), without B's factor; small grids only.

    B = X + iY is complex symmetric with X, Y real, so the real symmetric
    K = [[X, Y], [Y, -X]] of size 2n has eigenvalues +-sigma_i(B).  Ordered
    (x_1, y_1, x_2, y_2, ...), K is pentadiagonal: diagonal +-x, first
    subdiagonal Y's diagonal on even rows, second subdiagonal +-off.  Its
    eigenvalue of index n (from 0, ascending) is sigma_min(B), to within
    a few eps ||B||_2 (Weyl).  Time grows as about n**2.
    """
    op = assemble(query, sector, grid_spec)
    n = op.grid.size
    _, d, off = op._band(_weighted_terms(query, op.dr, op.grid), _band_buffers(n))
    ab = np.zeros((3, 2 * n))
    ab[0, 0::2], ab[0, 1::2] = d.real, -d.real
    ab[1, 0::2] = d.imag
    ab[2, :-2:2], ab[2, 1:-2:2] = off.real, -off.real
    sigma = sla.eigvals_banded(ab, lower=True, overwrite_a_band=True, select="i",
                               select_range=(n, n))[0]
    if not sigma > 0.0:
        raise AccuracyError(
            f"dense oracle found no positive sigma_min(B): {sigma!r} "
            f"(sector l={sector.l})")
    return float(1.0 / sigma)


def weighted_resolvent_norm(query, grid_spec, l_max, seed=SEED, threads=THREADS):
    """Weighted sector resolvent norms over l = 0..l_max, on ``threads`` workers.

    Every sector starts from one Gaussian vector drawn from ``seed``, so a
    sector's value depends on neither l_max nor the thread count.  Every
    sector's operator shares the grid and V of assemble's l = 0 one, and
    (r+1)**(2s) and B's off-diagonal are formed once too.  Each
    task of map_on_pool holds B's band and the Lanczos vectors for the
    whole call, so a sector allocates only zgttrf's du2 and ipiv.
    """
    _check_integer("l_max", l_max, 0)
    _check_integer("seed", seed, 0)
    _check_integer("threads", threads, 1)
    base = assemble(query, AngularSector(query.d, 0, query.h), grid_spec)
    n = base.grid.size
    weighted = _weighted_terms(query, base.dr, base.grid)
    start = _start_vector(n, seed)

    def worker():
        band = _band_buffers(n)
        work = tuple(np.empty(n, complex) for _ in range(3))

        def sector_norm(l):
            op = replace(base, sector=AngularSector(query.d, l, query.h))
            return _lanczos_sector_norm(op, weighted, start, work, band)
        return sector_norm

    results = map_on_pool(worker, range(l_max + 1), threads)
    return NormEstimate(iterations=sum(res[1] for res in results),
                        residual=max(res[2] for res in results),
                        sector_values=tuple(res[0] for res in results))


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------

# rows per block of the backward error and the energy audit: a block's
# temporaries take a few MB at most, whatever the grid
_BLOCK_ROWS = 8192


def _blocks(n):
    """(lo, hi, a, b) per _BLOCK_ROWS-row block lo..hi-1 of rows 0..n-1; a..b-1 adds its halo."""
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        yield lo, hi, max(lo - 1, 0), min(hi + 1, n)


def _grid_vector(name, x, n):
    """``x`` as a complex array, required to hold one value per grid point."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise InvalidInputError(
            f"{name} must be a 1-D array of {n} values, one per grid point; "
            f"got shape {x.shape}")
    return x


def _stencil(diag, off, ratio, v):
    """Tridiagonal product with the off-diagonals scaled by the gauge ratios."""
    out = diag * v
    out[:-1] += off / ratio * v[1:]
    out[1:] += off * ratio * v[:-1]
    return out


def _backward_error(u, rhs, query, r, dr, phase):
    """Componentwise backward error max |A u - rhs| / (|A| |u| + |rhs|).

    A is the l = 0 sector operator of ``query`` on the nodes ``r`` with step
    ``dr``, conjugated by exp(phi/h) for ``phase``; its diagonal comes from
    _diagonal one _BLOCK_ROWS-row block at a time, with a one-row halo.
    """
    sector, n = AngularSector(query.d, 0, query.h), u.size
    off = -_coupling(query, dr)
    worst = []
    for lo, hi, a, b in _blocks(n):
        rb = r[a:b]
        v = np.asarray(query.potential(rb), dtype=float)
        require_finite(f"potential {query.potential.name}", v, rb)
        diag = np.empty(rb.size, complex)
        _diagonal(query, sector, dr, rb, v, diag, diag.imag)
        ratio = np.exp(np.diff(phase.value(rb) / query.h))
        own = slice(lo - a, hi - a)
        res = np.abs(_stencil(diag, off, ratio, u[a:b])[own] - rhs[lo:hi])
        scale = _stencil(np.abs(diag), abs(off), ratio, np.abs(u[a:b]))[own]
        scale += np.abs(rhs[lo:hi]) + 1e-300
        worst.append(np.max(res / scale))
    return float(np.max(worst))


@dataclass(frozen=True)
class ConjugatedOperator:
    """Sector operator conjugated by the phase gauge exp(phi/h), never formed.

    Conjugation multiplies each off-diagonal entry by the gauge ratio of
    the two nodes it couples.  The solve runs on the factor of the base
    operator's B instead, which stays well conditioned when the gauge spans
    hundreds of orders of magnitude.
    """

    base: DiscreteOperator
    phi_over_h: np.ndarray

    @property
    def grid(self):
        return self.base.grid

    def solve(self, rhs):
        """u = (r+1)**s exp(phi/h) B^{-1} ((r+1)**s exp(-phi/h) rhs), one value per grid point."""
        base, n = self.base, self.grid.size
        u = self._scaling(-1.0) * _grid_vector("rhs", rhs, n)
        # the weighted pair is freed once the band is formed, before the factor
        band = base._band(_weighted_terms(base.query, base.dr, self.grid),
                          _band_buffers(n))
        u = zgttrs(*base._factor(band), u, overwrite_b=True)[0]
        del band  # the factored band is freed before the scaling's temporaries
        u *= self._scaling(1.0)
        return u

    def _scaling(self, sign):
        """(r+1)**s exp(sign phi/h), as the product of the two factors.

        exp(s log1p(r) + sign phi/h) would round the sum, whose size reaches
        |phi/h|, and so perturb the two scalings independently by |phi/h|
        units in the last place; the product is good to a few units.
        """
        out = np.exp(sign * self.phi_over_h)
        out *= _lift(self.grid, self.base.query.s)
        return out


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
    componentwise backward error 1e-8; both hold one value per point of
    ``grid_spec``, and ``config`` is not read.  With ``v_long`` the
    potential in it, the audit forms

        F(r) = -(lambda_l / r**2 - E - phi'(r)**2 + V(r)) |u|**2 + |D_r u|**2

    and returns the residual of the lower bound on (mu F)' that a passing
    certificate implies (nonnegative up to discretization error), its
    tolerance scale, and the integral of (mu F)', which vanishes when u
    decays at both ends.  A scale that underflows to 0 for a nonzero u
    raises EvaluationError rather than leave that identity 0/0.
    """
    sector = AngularSector(query.d, 0, query.h)
    r = _checked_points(query, grid_spec)
    n = r.size
    u, rhs = _grid_vector("u", u, n), _grid_vector("rhs", rhs, n)
    dr, h, E = grid_spec.dr, query.h, query.E
    # a zero test, not a norm: the norm of a nonzero vector of scale
    # 1e-170 underflows, so it would read as zero
    if not np.any(rhs):
        if np.any(u):
            raise InvalidInputError("zero right-hand side requires u = 0")
    else:
        # componentwise backward error: the gauge spans too many orders of
        # magnitude for a norm-relative residual to be meaningful
        resid = _backward_error(u, rhs, query, r, dr, phase)
        if not resid <= 1e-8:
            raise InvalidInputError(
                f"solution residual {resid:.3g} exceeds the 1e-8 precondition")
    lam = sector.lambda_value
    v_l = np.asarray(v_long(r), dtype=float)
    # the flux derivative at the interior nodes only; the ends lack a full stencil
    dmuF, residuals, tol_scale = np.empty(n - 2), np.empty(n - 2), np.empty(n - 2)
    for lo, hi, a, b in _blocks(n):
        # F on nodes a..b-1 gives the flux derivative at a+1..b-2, which
        # are the block's own interior nodes; u is taken on a-1..b, zero
        # beyond the grid's ends
        pa, pb = max(a - 1, 0), min(b + 1, n)
        u_pad = np.zeros(b - a + 2, dtype=complex)
        u_pad[pa - a + 1:pb - a + 1] = u[pa:pb]
        rb, vb = r[a:b], v_l[a:b]
        du = -1j * h * (u_pad[2:] - u_pad[:-2]) / (2.0 * dr)
        p1 = phase.derivative(rb)
        abs_u2 = np.abs(u[a:b]) ** 2
        abs_du2 = np.abs(du) ** 2
        F = -(lam / rb ** 2 - E - p1 ** 2 + vb) * abs_u2 + abs_du2
        require_finite("energy functional", F[lo - a:hi - a], r[lo:hi])

        mu = weight(rb)
        mup = weight.derivative(rb)
        muF = mu * F
        out = slice(a, b - 2)
        dmuF[out] = (muF[2:] - muF[:-2]) / (2.0 * dr)
        lower_bound = (0.5 * E * mup * abs_u2
                       + mup / 3.0 * abs_du2
                       - 3.0 / h ** 2 * mu ** 2 / mup * np.abs(rhs[a:b]) ** 2
                       - query.eps / h * mu * (abs_u2 + abs_du2))
        residuals[out] = dmuF[out] - lower_bound[1:-1]
        local = (1.0 + E + p1 ** 2 + lam / rb ** 2 + np.abs(vb)) ** 2.5
        tol_scale[out] = (mu * (abs_u2 + abs_du2) * local / h ** 2)[1:-1] + 1e-300
    # telescoping sum of the central differences: only boundary values survive
    integral = float(np.sum(dmuF) * dr)
    scale = float(np.sum(np.abs(dmuF)) * dr)
    if scale == 0 and np.any(u):
        raise EvaluationError(
            "flux-derivative scale underflows to 0 for a nonzero u "
            f"(largest |u| = {np.max(np.abs(u)):.3g}); rescale the right-hand side")
    return EnergyTrace(flux_residuals=residuals,
                       residual_tolerance=tol_scale, integral_value=integral,
                       integral_scale=scale)
