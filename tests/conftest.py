import cmath
from types import SimpleNamespace

import numpy as np
import pytest

import resolvent_lab as rl
from resolvent_lab.carleman import CarlemanConfig, GridSpec, min_ell, search_tau0
from resolvent_lab.errors import EvaluationError, InvalidInputError
from resolvent_lab.potentials import (_BLOCK_ROWS, PotentialModel,
                                      REFERENCE_GRID, holder_seminorm)
from resolvent_lab.radial import (ResolventQuery, _band_buffers,
                                  _lanczos_sector_norm, _start_vector,
                                  _weighted_terms)
from resolvent_lab.scaling import GridPolicy, SweepResult, SweepRow, sweep

H_SWEEP = (0.2, 0.15, 0.1, 0.07, 0.05)


def growth_shape(kind, h, alpha=0.5):
    """The fit's candidate growth shapes, written out independently."""
    h = np.asarray(h, dtype=float)
    if kind == "lipschitz":
        return 1.0 / h
    power = 4.0 / (alpha + 3.0) if kind == "holder" else 4.0 / 3.0
    return h ** (-power) * np.log(1.0 / h)


def measured(h, g, eps=1e-2, sign=1):
    """(h, g) pairs as the successful rows of one (eps, sign) sweep group."""
    rows = tuple(SweepRow(float(hv), eps, sign, float(gv), None, 0, 0.0, "ok",
                          0, 0.0, 1.0, None)
                 for hv, gv in zip(h, g))
    return SweepResult(rows=rows)


def exhaustive_seminorm(f, alpha, beta, grid):
    """The weighted Hölder quotient by the plain scan over every offset, the seminorm's oracle.

    Every grid pair within unit distance is evaluated, offset by offset in
    the sorted grid, as holder_seminorm did before its block search.
    """
    r = np.sort(np.asarray(grid, dtype=float).ravel())
    v = np.asarray(f(r), dtype=float)
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


def buffers(n, fill=None):
    """Three Lanczos vectors and the (dl, d, du) band buffers of a grid of n points.

    With ``fill`` every entry holds it, standing for a previous sector's
    contents.
    """
    sizes = (n, n, n, n - 1, n, n - 1)
    made = [np.empty(k, dtype=complex) if fill is None else np.full(k, fill, dtype=complex)
            for k in sizes]
    return tuple(made[:3]), tuple(made[3:])


def sector_norm(op, seed=0):
    """(value, Gram products, residual) of one sector, started as the library does.

    (r+1)**(2s), B's off-diagonal and the start vector are built as
    ``weighted_resolvent_norm`` builds them once per query.
    """
    n = op.grid.size
    return _lanczos_sector_norm(op, _weighted_terms(op.query, op.dr, op.grid),
                                _start_vector(n, seed), *buffers(n))


def formed_band(op):
    """B's band (dl, d, du) of the sector, formed by ``_band`` as every consumer forms it."""
    return op._band(_weighted_terms(op.query, op.dr, op.grid),
                    _band_buffers(op.grid.size))


def interior_diagonal(op):
    """A's main diagonal by the interior rule, written out from the sector's grid and potential.

    2 h**2 / dr**2 + lambda_l / r**2 - E + V + i sign eps, each term
    taken in the order the library takes it.
    """
    q, r = op.query, op.grid
    v = np.asarray(q.potential(r), dtype=float)
    return (2.0 * q.h ** 2 / op.dr ** 2 + op.sector.lambda_value / r ** 2 - q.E + v
            + 1j * (q.sign * q.eps))


def boundary_entry(op):
    """-a zeta, the transparent condition's share of A's last diagonal entry.

    a = h**2 / dr**2, and zeta + 1/zeta = t = d_n / a with |zeta| < 1 for
    d_n the interior rule's last entry: zeta = 2 / (t +- sqrt(t**2 - 4)),
    the sign giving the larger denominator, in the library's order of
    operations.
    """
    a = op.query.h ** 2 / op.dr ** 2
    t = complex(interior_diagonal(op)[-1]) / a
    plus, minus = t + cmath.sqrt(t * t - 4.0), t - cmath.sqrt(t * t - 4.0)
    return -a * (2.0 / (plus if abs(plus) >= abs(minus) else minus))


def main_diagonal(op):
    """A's complex main diagonal: the interior rule plus -a zeta at the last node."""
    d = interior_diagonal(op)
    d[-1] += boundary_entry(op)
    return d


def fresh_diagonals(op):
    """Sub-, main and super-diagonal of the sector operator, built from its terms."""
    off = np.full(op.grid.size - 1, -op.query.h ** 2 / op.dr ** 2, dtype=complex)
    return off, main_diagonal(op), off


def dense_matrix(op):
    """The sector operator's tridiagonal matrix as a dense array."""
    dl, d, du = fresh_diagonals(op)
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def lift(op):
    """(r+1)**s on the sector grid: W = diag(1 / lift) is the resolvent weight."""
    return (op.grid + 1.0) ** op.query.s


def weighted_diagonals(op):
    """Sub-, main and super-diagonal of B = W^{-1} A W^{-1}, built from the sector's terms.

    The main diagonal is A's times (r+1)**(2s) and the off-diagonal A's
    times (r_j+1)**s (r_{j+1}+1)**s, each product taken in the order the
    factorization takes it.
    """
    up = lift(op)
    off = (up[:-1] * up[1:]) * (-op.query.h ** 2 / op.dr ** 2)
    d = main_diagonal(op) * (up * up)
    return off.astype(complex), d, off.astype(complex)


def weighted_matrix(op):
    """B = W^{-1} A W^{-1} of the sector operator as a dense array."""
    dl, d, du = weighted_diagonals(op)
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def whole_array_backward_error(conj, u, rhs):
    """The conjugated system's componentwise backward error over whole-grid arrays."""

    def stencil(diag, off, ratio, v):
        out = diag * v
        out[:-1] += off / ratio * v[1:]
        out[1:] += off * ratio * v[:-1]
        return out

    _, diag, _ = fresh_diagonals(conj.base)
    off = -conj.base.query.h ** 2 / conj.base.dr ** 2
    ratio = np.exp(np.diff(conj.phi_over_h))
    res = np.abs(stencil(diag, off, ratio, u) - rhs)
    scale = stencil(np.abs(diag), abs(off), ratio, np.abs(u))
    scale += np.abs(rhs) + 1e-300
    return float(np.max(res / scale))


def whole_array_audit(u, query, weight, phase, rhs, grid_spec, v_long):
    """(residuals, tolerance, integral, scale) of the energy audit over whole-grid arrays.

    Assembles the conjugated operator and forms every term on the whole
    grid at once; raises as ``energy_audit`` does.
    """
    sector = rl.AngularSector(query.d, 0, query.h)
    op = rl.assemble_conjugated(query, sector, grid_spec, phase)
    u = np.asarray(u, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if not np.any(rhs):
        if np.any(u):
            raise InvalidInputError("zero right-hand side requires u = 0")
    elif whole_array_backward_error(op, u, rhs) > 1e-8:
        raise InvalidInputError("solution residual exceeds the 1e-8 precondition")
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
    return (residuals, tol_scale, float(np.sum(dmuF) * dr),
            float(np.sum(np.abs(dmuF)) * dr))


def by_the_rule(smoothed, r, deriv, rows=None):
    """V_theta, or V_theta' with ``deriv``, by the 64-node rule written out.

    The quadrature window is taken ``rows`` rows at a time, or whole when
    ``rows`` is None.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    step = rows or max(r.size, 1)
    parts = [np.empty(0)]
    for start in range(0, r.size, step):
        rb = r[start:start + step]
        vals = smoothed.base(rb[:, None] + smoothed.theta * smoothed._nodes[None, :])
        if deriv:
            parts.append((vals - smoothed.base(rb)[:, None]) @ smoothed._drho_weights
                         / smoothed.theta)
        else:
            parts.append(vals @ smoothed._rho_weights)
    return np.concatenate(parts)


def two_pass_ratios(smoothed, grid):
    """(error ratio, derivative ratio) by two full passes: V_theta, then V_theta'.

    V_theta' is taken in the blocks of the ratio pass, so the two agree
    bit for bit whatever the BLAS thread count.
    """
    r = np.asarray(grid, dtype=float)
    weight = (r + 1.0) ** smoothed.base.beta
    alpha, theta = smoothed.base.alpha, smoothed.theta
    err = np.abs(smoothed.base(r) - smoothed.evaluate(r))
    der = np.abs(by_the_rule(smoothed, r, deriv=True, rows=_BLOCK_ROWS))
    return (float(np.max(err * weight)) / theta ** alpha,
            float(np.max(der * weight)) / theta ** (alpha - 1.0))


def gaussian_bump(center=3.0, width=1.0):
    """Smooth localized radial test function with analytic derivatives."""

    def f(r):
        return np.exp(-((r - center) / width) ** 2)

    def df(r):
        return -2.0 * (r - center) / width ** 2 * f(r)

    def ddf(r):
        return (4.0 * (r - center) ** 2 / width ** 4 - 2.0 / width ** 2) * f(r)

    return SimpleNamespace(value=f, d1=df, d2=ddf)


def nan_on(f, lo=3.0, hi=3.2):
    """``f`` with NaN on the open interval (lo, hi)."""

    def g(r):
        r = np.asarray(r, dtype=float)
        return np.where((r > lo) & (r < hi), np.nan, f(r))

    return g


def conjugate_check(d, grid, test_function):
    """Max relative error of the half-density reduction of the Laplacian.

    Applies the discretized form d^2/dr^2 - ((d-1)(d-3)/4) / r^2 to
    r**((d-1)/2) f and compares with r**((d-1)/2) (f'' + (d-1) f'/r) on a
    uniform positive grid; the mismatch is the second-order stencil error.
    """
    r = np.asarray(grid, dtype=float)
    dr = r[1] - r[0]
    fv = test_function.value(r)
    if max(abs(fv[0]), abs(fv[-1])) > 1e-3 * np.max(np.abs(fv)):
        raise InvalidInputError("test function support touches the grid ends")
    half = 0.5 * (d - 1)
    u = r ** half * fv
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr ** 2
    inner = r[1:-1]
    lhs = d2u - 0.25 * (d - 1) * (d - 3) / inner ** 2 * u[1:-1]
    rhs = inner ** half * (test_function.d2(inner)
                           + (d - 1) / inner * test_function.d1(inner))
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


@pytest.fixture(scope="session")
def kernel():
    return rl.bump_kernel()


@pytest.fixture(scope="session")
def zero_model():
    return rl.build_potential("zero")


@pytest.fixture(scope="session")
def power_law_model():
    return rl.build_potential("power_law", {"c": 0.5, "delta": 1.0})


@pytest.fixture(scope="session")
def barrier_model():
    return rl.build_potential("barrier_well", {})


@pytest.fixture(scope="session")
def holder_model():
    return rl.build_potential("holder_bump", {"c": 0.1, "alpha": 0.5, "freq": 2.0})


@pytest.fixture(scope="session")
def weak_holder_class_model():
    """Smooth decaying potential viewed as a member of the alpha=1/2 class."""

    def v(r):
        return 0.05 * (np.asarray(r, dtype=float) + 1.0) ** (-3.0)

    hc = holder_seminorm(v, 0.5, 4.0, REFERENCE_GRID) * 1.25
    model = PotentialModel("weak_decay", v, v, alpha=0.5, beta=4.0,
                           holder_const=hc)
    model.validate()
    return model


# certificates are searched at the largest sweep h: the audit terms that
# depend on h are hardest there, so the found tau0 covers the smaller h too
@pytest.fixture(scope="session")
def barrier_certificate(barrier_model):
    cfg = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, min_ell(0.25, 3.0, 0.6),
                                   E=1.0, h=max(H_SWEEP), d=3)
    C = rl.recommended_audit_constant(barrier_model)
    return search_tau0(cfg, barrier_model.envelope, C, GridSpec(), 4096.0)


@pytest.fixture(scope="session")
def holder_certificate(holder_model):
    cfg = CarlemanConfig.holder(0.5, 0.7, 4.0, min_ell(1.0, 4.0, 0.7),
                                E=1.0, h=max(H_SWEEP), d=3, k=1.0)
    C = rl.recommended_audit_constant(holder_model)
    return search_tau0(cfg, holder_model.envelope, C, GridSpec(), 4096.0)


@pytest.fixture(scope="session")
def free_sweep(zero_model):
    template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.7,
                              potential=zero_model)
    return sweep(template, H_SWEEP, [1e-2], GridPolicy(l_max=8),
                 signs=(1,), seed=2024, threads=2)


def cheap_policy(**overrides):
    """Small-domain policy for fast unit tests (tail tolerance relaxed)."""
    defaults = dict(tail_tol=0.05, dr_factor=0.1, l_max=2)
    defaults.update(overrides)
    return GridPolicy(**defaults)
