import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import expit

import resolvent_lab as rl
from resolvent_lab import potentials
from resolvent_lab.errors import (AccuracyError, EvaluationError,
                                  InvalidInputError)
from resolvent_lab.potentials import (_BLOCK_ROWS, MollifierKernel,
                                      PotentialModel, REFERENCE_GRID,
                                      _integrate_01,
                                      barrier_well, holder_seminorm,
                                      map_on_pool, mollify, theta_for)

from conftest import (by_the_rule, exhaustive_seminorm, nan_on, two_pass_ratios,
                      weak_holder_class)


def brute_force_seminorm(f, alpha, beta, grid):
    """Independent quadratic-time oracle over all ordered pairs."""
    r = np.sort(np.asarray(grid, dtype=float))
    v = f(r)
    best = 0.0
    for i in range(r.size):
        d = np.abs(r - r[i])
        mask = (d > 0) & (d <= 1.0)
        if not mask.any():
            continue
        q = np.abs(v[mask] - v[i]) / d[mask] ** alpha * (r[i] + 1.0) ** beta
        best = max(best, float(q.max()))
    return best


class TestHolderSeminorm:
    def test_sqrt_on_unit_interval(self):
        grid = np.linspace(0.0, 1.0, 1001)
        oracle = brute_force_seminorm(np.sqrt, 0.5, 0.0, grid)
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert holder_seminorm(np.sqrt, 0.5, 0.0, grid) == pytest.approx(oracle, rel=1e-12)

    def test_constant_is_zero(self):
        grid = np.linspace(0.0, 5.0, 301)
        assert holder_seminorm(lambda r: np.full_like(r, 3.7), 0.8, 2.0, grid) == 0.0

    def test_identity_is_one(self):
        grid = np.linspace(0.0, 3.0, 400)
        assert holder_seminorm(lambda r: r, 1.0, 0.0, grid) == pytest.approx(1.0, rel=1e-12)

    def test_matches_bruteforce_on_random_grid(self):
        rng = np.random.default_rng(11)
        grid = np.sort(rng.uniform(0.0, 4.0, 160))
        f = lambda r: np.abs(np.cos(2 * r)) ** 0.4
        assert holder_seminorm(f, 0.4, 1.5, grid) == pytest.approx(
            brute_force_seminorm(f, 0.4, 1.5, grid), rel=1e-12)

    def test_monotone_under_refinement(self):
        f = lambda r: np.abs(np.cos(3 * r)) ** 0.5
        rng = np.random.default_rng(5)
        grid = np.sort(rng.uniform(0.0, 6.0, 80))
        base = holder_seminorm(f, 0.5, 1.0, grid)
        for k in range(4):
            grid = np.sort(np.concatenate([grid, rng.uniform(0.0, 6.0, 40)]))
            refined = holder_seminorm(f, 0.5, 1.0, grid)
            assert refined >= base - 1e-15
            base = refined

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidInputError):
            holder_seminorm(np.sqrt, 0.5, 0.0, [1.0])

    def test_reports_nonfinite_location(self):
        f = lambda r: np.where(r > 0.5, np.nan, r)
        with pytest.raises(EvaluationError, match="r="):
            holder_seminorm(f, 0.5, 0.0, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("grid,alpha,beta,message", [
        ([-0.1, 0.5, 1.0], 0.5, 0.0, "grid points must be nonnegative"),
        ([0.0, 0.5, 1.0], 0.0, 0.0, r"alpha must lie in \(0, 1\], got 0.0"),
        ([0.0, 0.5, 1.0], 1.5, 0.0, r"alpha must lie in \(0, 1\], got 1.5"),
        ([0.0, 0.5, 1.0], 0.5, -1.0, "beta must be .*nonnegative, got -1.0"),
    ])
    def test_rejects_arguments_outside_the_domain(self, grid, alpha, beta, message):
        with pytest.raises(InvalidInputError, match=message):
            holder_seminorm(np.sin, alpha, beta, grid)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_a_non_finite_beta_naming_it(self, beta):
        # a NaN weight made every quotient NaN, and max(0.0, nan) is 0.0
        with pytest.raises(InvalidInputError, match=f"beta must be .*, got {beta}$"):
            holder_seminorm(np.sin, 0.5, beta, np.linspace(0.0, 1.0, 11))


@st.composite
def seminorm_grids(draw):
    """(grid, centre): a sorted grid, sparse to dense, with repeated points and
    clusters 1e-7 wide, the first of them starting at ``centre``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    span = draw(st.floats(0.05, 20.0))
    parts = [rng.uniform(0.0, span, round(10 ** rng.uniform(0.31, 3.5)))]
    parts.append(rng.choice(parts[0], draw(st.integers(0, 30))))
    centres = rng.uniform(0.0, span, draw(st.integers(1, 4)))
    for centre in centres[:draw(st.integers(0, centres.size))]:
        parts.append(centre + rng.uniform(0.0, 1e-7, rng.integers(2, 100)))
    return np.sort(np.concatenate(parts)), centres[0]


def seminorm_function(kind, alpha, beta, cut):
    """Zero, a constant, a smooth function, |cos|**alpha, a step or a ramp 1e-7 wide at
    ``cut``, or (r+1)**(1-beta).

    A ramp over a cluster of the grid has its largest quotient between the
    cluster's ends, often more than 32 places apart; (r+1)**(1-beta) has a
    nearly flat weighted quotient at alpha = 1, which the spread bound
    cannot prune and the slope bound can.
    """
    return {
        "zero": lambda r: np.zeros_like(r),
        "constant": lambda r: np.full_like(r, 3.7),
        "smooth": lambda r: np.exp(-r) * np.sin(3.0 * r) + 0.5 / (r + 1.0) ** 2,
        "cusp": lambda r: np.abs(np.cos(2.0 * r)) ** alpha,
        "step": lambda r: np.where(r > cut, 1.0, 0.0),
        "ramp": lambda r: np.clip((r - cut) / 1e-7, 0.0, 1.0),
        "power": lambda r: (r + 1.0) ** (1.0 - beta),
    }[kind]


def recorded_seminorm(monkeypatch, name, params):
    """The (f, alpha, beta, grid) and result of the seminorm call that builds a model."""
    calls = []

    def recording(f, alpha, beta, grid):
        value = holder_seminorm(f, alpha, beta, grid)
        calls.append(((f, alpha, beta, np.array(grid)), value))
        return value

    monkeypatch.setattr(potentials, "holder_seminorm", recording)
    model = MEASURED_MODELS[name](**params)
    monkeypatch.undo()
    [(args, value)] = calls
    return model, args, value


# every model whose constant the lab measures: the built-ins, among them
# holder_fast_sweep's holder_bump, and the audit's weak-decay model
MEASURED_MODELS = {**potentials.POTENTIAL_BUILDERS, "weak_decay": weak_holder_class}
BUILT_IN_MODELS = [
    ("zero", {}),
    ("power_law", {"c": 0.5, "delta": 0.5}),
    ("power_law", {"c": 0.5, "delta": 1.0}),
    ("power_law", {"c": 0.5, "delta": 2.0}),
    ("barrier_well", {}),
    ("holder_bump", {"c": 1.0, "alpha": 0.3, "freq": 2.0}),
    ("holder_bump", {"c": 1.0, "alpha": 0.5, "freq": 2.0}),
    ("holder_bump", {"c": 1.0, "alpha": 0.8, "freq": 2.0}),
    ("holder_bump", {"c": 0.1, "alpha": 0.5, "freq": 2.0}),
    ("weak_decay", {}),
]


def _never(*args):
    raise AssertionError("a search that must not run ran")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockSearch:
    """holder_seminorm's bounded search returns the plain scan's maximum, float for float."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_centre=seminorm_grids(),
           alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
           beta=st.floats(0.0, 6.0),
           kind=st.sampled_from(["zero", "constant", "smooth", "cusp", "step", "ramp",
                                 "power"]))
    def test_equals_the_plain_scan(self, grid_centre, alpha, beta, kind):
        grid, centre = grid_centre
        f = seminorm_function(kind, alpha, beta, centre)
        assert holder_seminorm(f, alpha, beta, grid) == exhaustive_seminorm(f, alpha, beta, grid)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(grid_centre=seminorm_grids(),
           alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
           beta=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
           kind=st.sampled_from(["zero", "constant", "smooth", "cusp", "step", "ramp",
                                 "power"]),
           cell=st.integers(2, 4))
    # a straight line at alpha = 1/2 has its largest quotient at the largest
    # distance: pairs exactly 1 apart, in cells whose least distance is 1,
    # and the one pair (1, 33) 1 apart, in a cell that spans points 0 .. 34
    @example(grid_centre=(np.arange(0.0, 3.0, 1.0 / 32.0), 0.0), alpha=0.5, beta=0.0,
             kind="power", cell=2)
    @example(grid_centre=(np.concatenate([[0.0, 0.25], np.linspace(0.3, 1.25, 32)]), 0.0),
             alpha=0.5, beta=0.0, kind="power", cell=2)
    def test_equals_the_plain_scan_in_small_cells(self, grid_centre, alpha, beta, kind, cell):
        # a cell of a few rows by as many offsets makes many cells of each
        # grid, its first 500 points, and its corner pair a large share of
        # its pairs, so that a bound off by one row, offset or point shows
        grid, centre = grid_centre
        grid = grid[:500]
        f = seminorm_function(kind, alpha, beta, centre)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(potentials, "_CELL", cell)
            assert holder_seminorm(f, alpha, beta, grid) == exhaustive_seminorm(
                f, alpha, beta, grid)

    @pytest.mark.parametrize("name,params", BUILT_IN_MODELS)
    def test_every_built_in_constant_is_the_plain_scans(self, monkeypatch, name, params):
        model, args, value = recorded_seminorm(monkeypatch, name, params)
        assert value == exhaustive_seminorm(*args)
        assert model.holder_const == 1.25 * exhaustive_seminorm(*args)

    @pytest.mark.parametrize("name,params", BUILT_IN_MODELS)
    def test_no_built_in_constant_needs_the_plain_scan(self, monkeypatch, name, params):
        _, args, value = recorded_seminorm(monkeypatch, name, params)
        monkeypatch.setattr(potentials, "_scan", _never)
        assert holder_seminorm(*args) == value

    @pytest.mark.parametrize("name,params", BUILT_IN_MODELS)
    def test_memory_on_a_built_in_grid(self, monkeypatch, name, params):
        # the plain scan peaked at 450-560 kB on these grids, the search at 0.56-1.12 MB
        _, args, _ = recorded_seminorm(monkeypatch, name, params)
        tracemalloc.start()
        try:
            holder_seminorm(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, peak

    @pytest.mark.parametrize("f,grid,beta", [
        # (r+1)**6 overflows at r = 1e60: no bound holds with an infinite weight
        (np.sin, np.concatenate([np.linspace(0.0, 2.0, 300), [1e60, 2e60]]), 6.0),
        # values and steps so small that their differences are subnormal
        (lambda r: 1e-300 * np.cos(r), np.linspace(0.0, 2.0, 300), 1.0),
        (np.cos, np.concatenate([[1e-310], np.linspace(0.0, 2.0, 300)]), 1.0),
    ])
    def test_the_plain_scan_runs_where_bounds_do_not_hold(self, monkeypatch, f, grid, beta):
        with np.errstate(over="ignore"):
            expected = exhaustive_seminorm(f, 0.5, beta, grid)
            monkeypatch.setattr(potentials, "_cell_search", _never)
            assert holder_seminorm(f, 0.5, beta, grid) == expected


class TestKernel:
    def test_mass_and_gradient_mass(self, kernel):
        assert abs(_integrate_01(kernel.rho) - 1.0) <= 1e-10
        assert abs(_integrate_01(kernel.drho, split=True)) <= 1e-10

    def test_sup_value_is_the_largest_value(self, kernel):
        assert kernel.sup_value == np.max(kernel.rho(np.linspace(-0.5, 1.5, 2001)))

    def test_takes_no_argument(self, kernel):
        # the bump is the one kernel: a user rho/drho pair has nowhere to go
        with pytest.raises(TypeError):
            MollifierKernel(kernel.rho, kernel.drho)
        probe = np.linspace(-0.5, 1.5, 2001)
        assert np.array_equal(MollifierKernel().rho(probe), kernel.rho(probe))
        assert np.array_equal(MollifierKernel().drho(probe), kernel.drho(probe))

    def test_bump_kernel_is_one_instance(self, kernel):
        assert isinstance(kernel, MollifierKernel)
        assert rl.bump_kernel() is kernel

    def test_support_and_sign(self, kernel):
        probe = np.array([-0.2, -1e-9, 1.0 + 1e-9, 1.5])
        assert_allclose(kernel.rho(probe), 0.0, atol=1e-300)
        inside = np.linspace(1e-4, 1 - 1e-4, 999)
        assert np.all(kernel.rho(inside) >= 0.0)

    def test_first_moment_is_half_by_symmetry(self, kernel):
        assert kernel.moment_alpha(1.0) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_moments_match_adaptive_quadrature(self, kernel, alpha):
        m, _ = quad(lambda s: s ** alpha * kernel.rho(s), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
        md, _ = quad(lambda s: s ** alpha * abs(kernel.drho(s)), 0.0, 1.0,
                     epsabs=1e-13, epsrel=1e-12, limit=200, points=[0.5])
        assert kernel.moment_alpha(alpha) == pytest.approx(m, rel=1e-13, abs=0)
        assert kernel.moment_alpha_deriv(alpha) == pytest.approx(md, rel=1e-13, abs=0)

    def test_derivative_kink_off_the_split_raises(self):
        # 1320 s^3 (1-s)^7 has unit mass and peaks at s = 0.3, so |rho'| has
        # a kink there that a rule split only at 1/2 cannot resolve
        assert _integrate_01(lambda s: 1320.0 * s ** 3 * (1.0 - s) ** 7) == pytest.approx(
            1.0, abs=1e-13)

        def skewed(s):
            return s ** 0.5 * np.abs(1320.0 * s ** 2 * (1.0 - s) ** 6 * (3.0 - 10.0 * s))

        with pytest.raises(AccuracyError, match="Gauss-Legendre"):
            _integrate_01(skewed, split=True)


class TestMollify:
    def test_exact_on_constants(self, kernel):
        model = PotentialModel("const", lambda r: np.full_like(r, 2.5),
                               lambda r: np.full_like(r, 3.0),
                               alpha=1.0, beta=1.0, holder_const=0.0)
        smoothed = mollify(model, kernel, 0.1)
        r = np.linspace(0.0, 10.0, 101)
        assert_allclose(smoothed.evaluate(r), 2.5, rtol=1e-13)
        # alpha = 1: the derivative ratio is the sup of |V_theta'| (r+1)
        assert smoothed.deriv_ratio(r) <= 1e-12

    def test_linear_shift_by_first_moment(self, kernel):
        model = PotentialModel("linear", lambda r: np.asarray(r, dtype=float),
                               lambda r: np.asarray(r, dtype=float) + 1.0,
                               alpha=1.0, beta=1.0, holder_const=1.0)
        theta = 0.05
        m1, _ = quad(lambda s: s * kernel.rho(s), 0.0, 1.0, epsabs=1e-13)
        smoothed = mollify(model, kernel, theta)
        r = np.linspace(0.0, 5.0, 41)
        assert_allclose(smoothed.evaluate(r), r + theta * m1, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("part,what,r", [
        ("evaluate", "smoothed potential", "2.90625"),
        ("envelope", "envelope", "3.03125"),
    ])
    def test_non_finite_potential_or_envelope_rejected(self, kernel, holder_model,
                                                       part, what, r):
        # a NaN gap or allowance made the refinement check pass; the window
        # of the probe point r = 2.90625 reaches into the NaN interval
        model = replace(holder_model, **{part: nan_on(getattr(holder_model, part))})
        with pytest.raises(EvaluationError,
                           match=f"^{what} holder_bump not finite at r={r}$"):
            mollify(model, kernel, 0.1)

    def test_shift_commutes_with_mollification(self, kernel, holder_model):
        c = 0.7
        shifted = PotentialModel(
            "shifted", lambda r: holder_model(np.asarray(r) + c),
            lambda r: holder_model.envelope(np.asarray(r) + c),
            alpha=holder_model.alpha, beta=holder_model.beta,
            holder_const=holder_model.holder_const)
        theta = 0.03
        a = mollify(shifted, kernel, theta)
        b = mollify(holder_model, kernel, theta)
        r = np.linspace(0.0, 6.0, 301)
        assert_allclose(a.evaluate(r), b.evaluate(r + c), rtol=0, atol=1e-12)

    def test_rejects_theta_outside_unit_interval(self, kernel, holder_model):
        for theta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(InvalidInputError):
                mollify(holder_model, kernel, theta)

    def test_rougher_than_declared_class_trips_check(self, kernel):
        step = PotentialModel(
            "step", lambda r: np.where(np.asarray(r) < 1.98, 1.0, 0.0),
            lambda r: np.full_like(np.asarray(r, dtype=float), 1.1),
            alpha=0.9, beta=1.0, holder_const=0.01)
        with pytest.raises(AccuracyError):
            mollify(step, kernel, 0.1)

    @pytest.mark.parametrize("theta", [1e-1, 1e-2, 1e-3])
    @pytest.mark.parametrize("name,params", [
        ("zero", {}),
        ("power_law", {"c": 0.5, "delta": 1.0}),
        ("holder_bump", {"c": 0.1, "alpha": 0.5, "freq": 2.0}),
        ("barrier_well", {}),
    ])
    def test_family_invariants(self, kernel, name, params, theta):
        model = rl.build_potential(name, params)
        smoothed = mollify(model, kernel, theta)
        grid = np.linspace(0.0, 12.0, 2001)
        # the smoothing-error, derivative and lifted-envelope bounds, with the
        # provable constants times 1.5 for grid and measurement effects
        hc = model.holder_const
        m_a = kernel.moment_alpha(model.alpha)
        assert smoothed.error_ratio(grid) <= hc * m_a * 1.5 + 1e-300
        assert (smoothed.deriv_ratio(grid)
                <= hc * kernel.moment_alpha_deriv(model.alpha) * 1.5 + 1e-300)
        ceiling = (model.envelope(grid)
                   + hc * m_a * theta ** model.alpha * (grid + 1.0) ** (-model.beta))
        assert np.all(smoothed.evaluate(grid) <= ceiling * (1.0 + 1e-12) + 1e-300)

    def test_error_ratio_stable_across_decades(self, kernel):
        model = rl.build_potential("holder_bump", {"c": 1.0, "alpha": 0.5, "freq": 1.0})
        grid = np.linspace(0.0, 10.0, 4001)
        ratios = [mollify(model, kernel, t).error_ratio(grid)
                  for t in (1e-1, 1e-2, 1e-3)]
        assert max(ratios) / min(ratios) <= 2.0


# the verify_mix audit grid size
AUDIT_POINTS = 166_360
# worker counts of the row-block pool: serial, the benchmark machine's, the cap
POOL_SIZES = (1, 2, 8)


class TestBlockedEvaluation:
    # pool sizes are looped inside each test, not parametrized, which keeps
    # the test ids stable; two blocks are one per worker of a 2-pool
    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                   _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS - 1,
                                   2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7, AUDIT_POINTS])
    def test_matches_whole_window(self, kernel, monkeypatch, n, deriv):
        model = rl.build_potential("holder_bump", {"c": 1.0, "alpha": 0.3, "freq": 2.0})
        smoothed = mollify(model, kernel, 0.01)
        r = np.linspace(0.0, 10.0, n)
        ref = by_the_rule(smoothed, r, deriv)
        weight = (r + 1.0) ** model.beta
        # V_theta' is formed only by the ratio pass, which keeps its weighted sup
        scale = smoothed.theta ** (model.alpha - 1.0)
        for threads in POOL_SIZES:
            monkeypatch.setattr(potentials, "THREADS", threads)
            if deriv and not n:
                with pytest.raises(ValueError, match="zero-size array"):
                    rl.MollifiedPotential(model, kernel, 0.01).deriv_ratio(r)
                continue
            if deriv:
                got = rl.MollifiedPotential(model, kernel, 0.01).deriv_ratio(r)
                want = float(np.max(np.abs(ref) * weight)) / scale
                bound = 4e-16 * np.max(np.abs(ref)) * np.max(weight) / scale
            else:
                got, want = smoothed.evaluate(r), ref
                bound = 4e-16 * np.max(np.abs(ref), initial=0.0)
                assert got.shape == ref.shape == (n,)
            if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
                # each row is the same dot product, so neither blocking nor
                # the worker that computes it changes a bit
                assert np.array_equal(got, want), threads
            else:
                # a threaded gemv may split a row's sum differently
                assert np.max(np.abs(got - want), initial=0.0) <= bound

    def test_an_error_in_a_worker_reaches_the_caller(self, kernel, holder_model):
        def failing(r):
            if np.max(r) > 9.0:
                raise EvaluationError("V failed past r=9")
            return holder_model.evaluate(r)

        smoothed = rl.MollifiedPotential(replace(holder_model, evaluate=failing),
                                         kernel, 0.05)
        r = np.linspace(0.0, 10.0, 3 * _BLOCK_ROWS)
        with pytest.raises(EvaluationError, match="past r=9"):
            smoothed.evaluate(r)

    def test_scalar_input_gives_a_float(self, kernel, holder_model):
        smoothed = mollify(holder_model, kernel, 0.05)
        value = smoothed.evaluate(1.2345)
        assert isinstance(value, float)
        assert value == by_the_rule(smoothed, 1.2345, deriv=False)[0]

    def test_memory_does_not_grow_with_the_grid(self, kernel, monkeypatch):
        model = rl.build_potential("holder_bump", {"c": 1.0, "alpha": 0.3, "freq": 2.0})
        smoothed = mollify(model, kernel, 0.01)
        r = np.linspace(0.0, 10.0, AUDIT_POINTS)
        peaks = {}
        for threads in POOL_SIZES:
            monkeypatch.setattr(potentials, "THREADS", threads)
            tracemalloc.start()
            try:
                smoothed.evaluate(r)
                # the ratio pass forms V_theta' as well; a fresh one keeps no pair
                rl.MollifiedPotential(model, kernel, 0.01).error_ratio(r)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one whole n x 64 window would take 85 MB per temporary
        assert max(peaks.values()) < 16e6, peaks


class TestPool:
    def test_every_item_runs_once_in_item_order(self):
        # more tasks than cores, switching threads as often as the
        # interpreter allows: a lost or repeated item would show in ``runs``
        runs, made = [], []

        def square(i):
            runs.append(i)
            return i * i

        def worker():
            made.append(threading.get_ident())
            return square

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 8):
                runs.clear(), made.clear()
                assert map_on_pool(worker, range(500), threads) == [i * i for i in range(500)]
                assert sorted(runs) == list(range(500))
                # one worker() per task, and each task on its own thread
                assert 1 <= len(made) == len(set(made)) <= threads
        finally:
            sys.setswitchinterval(interval)

    def test_every_item_runs_and_the_first_failure_is_raised(self):
        runs = []

        def fail_odd(i):
            runs.append(i)
            if i % 2:
                raise EvaluationError(f"item {i}")
            return i

        for threads in (1, 3):
            runs.clear()
            with pytest.raises(EvaluationError, match="^item 1$"):
                map_on_pool(lambda: fail_odd, range(9), threads)
            assert sorted(runs) == list(range(9))

    def test_evaluate_on_a_pool_thread_runs_inline(self, kernel, holder_model,
                                                   monkeypatch):
        # a pool thread never waits on a pool, so the sweep's sector tasks
        # and the mollifier's row blocks cannot deadlock on each other
        monkeypatch.setattr(potentials, "THREADS", 2)
        callers = []

        def recorded(r):
            callers.append(threading.get_ident())
            return holder_model.evaluate(r)

        smoothed = rl.MollifiedPotential(replace(holder_model, evaluate=recorded),
                                         kernel, 0.01)
        r = np.linspace(0.0, 10.0, 4 * _BLOCK_ROWS)
        want = smoothed.evaluate(r)
        callers.clear()
        on_pool = potentials._pool(2).submit(
            lambda: (threading.get_ident(), smoothed.evaluate(r)))
        ident, got = on_pool.result(timeout=60)
        assert ident != threading.get_ident()
        assert callers == [ident] * 4
        assert np.max(np.abs(got - want)) <= 4e-16 * np.max(np.abs(want))


BUILT_IN = [("zero", {}), ("power_law", {"c": 0.5, "delta": 1.0}),
            ("holder_bump", {"c": 1.0, "alpha": 0.3, "freq": 2.0}),
            ("barrier_well", {})]


def counting(model):
    """``model`` with an evaluate that records the size of every call."""
    sizes = []

    def evaluate(r):
        sizes.append(np.size(r))  # list.append is atomic across the workers
        return model.evaluate(r)

    return replace(model, evaluate=evaluate), sizes


class TestRatios:
    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 13, 3 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("name,params", BUILT_IN)
    def test_one_pass_equals_two_passes(self, kernel, monkeypatch, name, params, n):
        smoothed = mollify(rl.build_potential(name, params), kernel, 0.01)
        grid = np.linspace(0.0, 10.0, n)
        ref = two_pass_ratios(smoothed, grid)
        for threads in (1, 3):
            monkeypatch.setattr(potentials, "THREADS", threads)
            fresh = rl.MollifiedPotential(smoothed.base, kernel, smoothed.theta)
            assert (fresh.error_ratio(grid), fresh.deriv_ratio(grid)) == ref, threads
            fresh = rl.MollifiedPotential(smoothed.base, kernel, smoothed.theta)
            assert (fresh.deriv_ratio(grid), fresh.error_ratio(grid)) == ref[::-1], threads

    def test_equal_grid_evaluates_nothing(self, kernel, holder_model):
        model, sizes = counting(holder_model)
        smoothed = rl.MollifiedPotential(model, kernel, 0.01)
        grid = np.linspace(0.0, 10.0, 3 * _BLOCK_ROWS)
        err = smoothed.error_ratio(grid)
        # one window pass: 64 nodes and the row itself per grid point
        assert sum(sizes) == 65 * grid.size
        sizes.clear()
        pair = (smoothed.error_ratio(list(grid)), smoothed.deriv_ratio(grid.copy()))
        assert sizes == []
        assert pair == (err, two_pass_ratios(smoothed, grid)[1])

    def test_a_changed_grid_is_recomputed(self, kernel, holder_model):
        model, sizes = counting(holder_model)
        smoothed = rl.MollifiedPotential(model, kernel, 0.01)
        grid = np.linspace(0.0, 10.0, 2 * _BLOCK_ROWS)
        smoothed.error_ratio(grid)
        other = np.linspace(0.0, 5.0, grid.size)
        sizes.clear()
        assert (smoothed.error_ratio(other), smoothed.deriv_ratio(other)) == \
            two_pass_ratios(smoothed, other)
        assert sizes
        smoothed.error_ratio(grid)
        grid[_BLOCK_ROWS:] += 1.0  # the caller's array, changed in place
        sizes.clear()
        assert (smoothed.deriv_ratio(grid), smoothed.error_ratio(grid)) == \
            two_pass_ratios(smoothed, grid)[::-1]
        assert sizes

    def test_empty_grid_raises(self, kernel, holder_model):
        smoothed = mollify(holder_model, kernel, 0.01)
        for ratio in (smoothed.error_ratio, smoothed.deriv_ratio):
            with pytest.raises(ValueError, match="zero-size array"):
                ratio(np.array([]))


class TestThetaFor:
    def test_power_of_one(self):
        assert theta_for(1.0, 0.5) == 1.0

    def test_frozen_value(self):
        expected = math.exp(math.log(0.1) * 2.0 / 3.5)
        assert theta_for(0.1, 0.5) == pytest.approx(expected, rel=1e-15)
        assert theta_for(0.1, 0.5) == pytest.approx(0.2682695795279726, rel=1e-12)

    def test_rejects_lipschitz_exponent(self):
        with pytest.raises(InvalidInputError):
            theta_for(0.01, 1.0)

    def test_rejects_h_outside_range(self):
        for h in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                theta_for(h, 0.5)


class TestModels:
    def test_builtin_models_validate(self):
        for name, params in [("zero", {}), ("power_law", {"c": 0.5, "delta": 1.0}),
                             ("holder_bump", {"c": 0.1, "alpha": 0.5, "freq": 2.0}),
                             ("barrier_well", {})]:
            rl.build_potential(name, params).validate()

    def test_constant_envelope_rejected(self):
        model = PotentialModel("bad", lambda r: np.zeros_like(r),
                               lambda r: np.full_like(np.asarray(r, dtype=float), 1e6),
                               alpha=1.0, beta=1.0, holder_const=0.0)
        with pytest.raises(InvalidInputError, match="decay"):
            model.validate()

    @pytest.mark.parametrize("change,message", [
        (dict(holder_const=0.01), "weighted Hölder quotient .* exceeds declared constant"),
        (dict(envelope=lambda r: 0.5 - np.asarray(r, dtype=float) / 60.0),
         "envelope must be positive"),
        (dict(envelope=lambda r: 2.0 + np.cos(np.asarray(r, dtype=float))),
         "envelope must be non-increasing"),
        (dict(evaluate=lambda r: 2.0 * (np.asarray(r, dtype=float) + 1.0) ** -1.0),
         "potential exceeds its envelope at r=0 "),
    ])
    def test_validate_rejects_a_model_outside_its_contract(self, power_law_model,
                                                           change, message):
        with pytest.raises(InvalidInputError, match=message):
            replace(power_law_model, **change).validate()

    @pytest.mark.parametrize("name,params,message", [
        ("power_law", {"c": 0.0}, "power_law needs c > 0"),
        ("power_law", {"delta": -1.0}, "power_law needs c > 0"),
        ("holder_bump", {"alpha": 1.0}, r"holder_bump needs alpha in \(0, 1\)"),
        ("holder_bump", {"freq": 0.0}, "holder_bump needs c > 0"),
        ("barrier_well", {"height": 0.0}, "barrier_well needs height"),
        ("barrier_well", {"r_well": 6.0}, "r_well < r_barrier"),
    ])
    def test_builders_reject_parameters_outside_their_range(self, name, params,
                                                            message):
        with pytest.raises(InvalidInputError, match=message):
            rl.build_potential(name, params)

    @pytest.mark.parametrize("part,what", [("envelope", "envelope"),
                                           ("evaluate", "potential")])
    def test_non_finite_envelope_or_potential_rejected(self, power_law_model, part,
                                                       what):
        # p <= 0, diff(p) > 0 and V > p are all False at a NaN
        model = replace(power_law_model,
                        **{part: nan_on(getattr(power_law_model, part))})
        with pytest.raises(EvaluationError,
                           match=f"^{what} power_law not finite at r=3.00"):
            model.validate()

    @pytest.mark.parametrize("smoothness", [0.5, 0.1, 0.002])
    def test_barrier_well_matches_expit(self, smoothness):
        # at smoothness 0.002, exp(-x) overflows at r = 0 and far out
        r = np.linspace(0.0, 300.0, 30001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = barrier_well(smoothness=smoothness)(r)
        ref = 2.5 * expit((r - 2.0) / smoothness) * expit((5.0 - r) / smoothness)
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))

    def test_envelope_dominates_everywhere(self, barrier_model):
        r = REFERENCE_GRID
        assert np.all(barrier_model(r) <= barrier_model.envelope(r) * (1 + 1e-12))

    def test_unknown_name_lists_choices(self):
        with pytest.raises(InvalidInputError, match="power_law"):
            rl.build_potential("nope")

    def test_holder_membership_on_sample_grid(self, holder_model):
        sem = holder_seminorm(holder_model.evaluate, holder_model.alpha,
                              holder_model.beta, np.linspace(0.0, 20.0, 3001))
        assert sem <= holder_model.holder_const * (1 + 1e-9)
