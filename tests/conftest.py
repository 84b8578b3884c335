from types import SimpleNamespace

import numpy as np
import pytest

import resolvent_lab as rl
from resolvent_lab.carleman import CarlemanConfig, GridSpec, min_ell, search_tau0
from resolvent_lab.errors import InvalidInputError
from resolvent_lab.potentials import (PotentialModel, REFERENCE_GRID,
                                      holder_seminorm)
from resolvent_lab.radial import ResolventQuery
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
    rows = tuple(SweepRow(float(hv), eps, sign, float(gv), None, 1, 0, 0.0, "ok")
                 for hv, gv in zip(h, g))
    return SweepResult(rows=rows, fit=None)


def dense_matrix(op):
    """The sector operator's tridiagonal matrix as a dense array."""
    dl, d, du = op.diagonals()
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def two_pass_ratios(smoothed, grid):
    """(error ratio, derivative ratio) by two full passes: V_theta, then V_theta'."""
    r = np.asarray(grid, dtype=float)
    weight = (r + 1.0) ** smoothed.base.beta
    alpha, theta = smoothed.base.alpha, smoothed.theta
    err = np.abs(smoothed.base(r) - smoothed.evaluate(r))
    der = np.abs(smoothed.evaluate_deriv(r))
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
