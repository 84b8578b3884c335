import math
import multiprocessing
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import resolvent_lab as rl
from resolvent_lab import scaling
from resolvent_lab.carleman import (CarlemanConfig, Certificate, FamilySummary,
                                    build_phase, certify, min_ell)
from resolvent_lab.errors import AccuracyError, InvalidInputError
from resolvent_lab.radial import ResolventQuery
from resolvent_lab.scaling import (GridPolicy, SweepResult, SweepRow,
                                   bound_from_certificate, fit_models,
                                   omega_map, psi_map, sweep)

from conftest import cheap_policy, growth_shape, measured, nan_on


def synthetic_certificate(config, C_used=6.0):
    fams = (FamilySummary("carleman_main", 0.1, 1.0),)
    return Certificate(config=config, C_used=C_used, r_min=0.0, families=fams,
                       constants={"c26": [1.0, 1.0, 1.0], "mollifier": None})


class TestCertifiedBound:
    def test_closed_form_composition_at_h_one(self):
        # k = 1/4, a0 = 8, m = 0: the ramp integrates in closed form
        tau0 = 8.0 ** (1.0 / 9.0)
        cfg = CarlemanConfig(regularity="lipschitz", beta=2.0, alpha=None,
                             k=0.25, s=0.55, tau0=tau0, ell=9.0, E=1.0, h=1.0,
                             d=3)
        assert (cfg.k0, cfg.m) == (0.0, 0.0)
        cert = synthetic_certificate(cfg)
        bound = bound_from_certificate(cert, [1.0])
        a = 8.0
        max_phi = tau0 * (((a + 1.0) ** 0.75 - 1.0) / 0.75 - a * (a + 1.0) ** (-0.25))
        expected = math.log(4.0) + 2.0 * (max_phi + math.log(6.0 * a ** 2))
        assert bound.g_values[0] == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_h(self, holder_certificate):
        hs = [0.2, 0.15, 0.1, 0.07, 0.05]
        bound = bound_from_certificate(holder_certificate, hs)
        vals = list(bound.g_values)
        assert all(math.isfinite(v) for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_requires_passing_certificate(self):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 8.0, 9.0, E=1.0, h=0.1)
        cert = synthetic_certificate(cfg)
        failed = Certificate(config=cert.config, C_used=6.0, r_min=0.0,
                             families=(FamilySummary("carleman_main", -0.1, 1.0),),
                             constants=cert.constants)
        with pytest.raises(InvalidInputError):
            bound_from_certificate(failed, [0.1])

    @pytest.mark.parametrize("h_values,C_used,message", [
        ([], 6.0, r"lie in \(0, 1\]"),
        ([0.0], 6.0, r"lie in \(0, 1\]"),
        ([0.2, 1.5], 6.0, r"lie in \(0, 1\]"),
        # a certificate file may hold any number
        ([0.2], math.inf, "composed bound is not finite"),
    ])
    def test_h_values_in_the_unit_interval_and_a_finite_bound(self, h_values,
                                                               C_used, message):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 8.0, 9.0, E=1.0, h=0.1)
        with pytest.raises(InvalidInputError, match=message):
            bound_from_certificate(synthetic_certificate(cfg, C_used), h_values)

    def test_bit_exact_after_serialization(self, power_law_model):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 8.0, min_ell(0.25, 2.0, 0.6),
                                       E=1.0, h=0.1, d=3)
        cert = certify(cfg, power_law_model.envelope, 6.0)
        assert cert.passed
        hs = [0.2, 0.1, 0.05]
        direct = bound_from_certificate(cert, hs).g_values
        reloaded = Certificate.from_json(cert.to_json())
        again = bound_from_certificate(reloaded, hs).g_values
        assert direct == again

    def test_lipschitz_growth_dominated_by_inverse_h(self):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 8.0, 9.0, E=1.0, h=1.0)
        cert = synthetic_certificate(cfg)
        bound = bound_from_certificate(cert, [0.2, 0.1])
        max_phi = build_phase(cfg).max_phi
        diff = bound.g_values[1] - bound.g_values[0]
        expected = 2.0 * (max_phi * (1.0 / 0.1 - 1.0 / 0.2) + math.log(2.0))
        assert diff == pytest.approx(expected, rel=1e-12)


class TestFit:
    def test_recovers_lipschitz_generator(self):
        h = np.array([0.2, 0.15, 0.1, 0.07, 0.05])
        outcome = fit_models(measured(h, 3.0 / h),
                             ["lipschitz", ("holder", 0.5), "linfty"])
        lip = [f for f in outcome.fits if f.kind == "lipschitz"][0]
        assert lip.C == pytest.approx(3.0, rel=1e-10)
        assert lip.residual < 1e-10
        assert outcome.best.kind == "lipschitz"

    @pytest.mark.parametrize("kind,alpha", [("lipschitz", None),
                                            ("holder", 0.5), ("linfty", None)])
    def test_recovers_each_generator_to_high_accuracy(self, kind, alpha):
        h = np.array([0.3, 0.2, 0.15, 0.1, 0.07, 0.05])
        data = measured(h, 2.0 * growth_shape(kind, h, alpha) + 1.0)
        cands = ["lipschitz", ("holder", 0.5), "linfty"]
        outcome = fit_models(data, cands)
        match = [f for f in outcome.fits if f.kind == kind][0]
        assert match.C == pytest.approx(2.0, rel=1e-8)
        assert match.intercept == pytest.approx(1.0, rel=1e-8)

    def test_noisy_holder_within_five_percent(self):
        rng = np.random.default_rng(17)
        h = np.geomspace(0.3, 0.02, 12)
        shape = h ** (-4.0 / 3.5) * np.log(1.0 / h)
        g = 2.0 * shape + 1.0
        g = g * (1.0 + 0.01 * rng.standard_normal(h.size))
        outcome = fit_models(measured(h, g), [("holder", 0.5), "lipschitz", "linfty"])
        assert outcome.best.kind == "holder"
        assert outcome.best.C == pytest.approx(2.0, rel=0.05)

    def test_constant_data_is_degenerate(self):
        h = np.array([0.2, 0.15, 0.1, 0.05])
        outcome = fit_models(measured(h, np.full(4, 3.0)),
                             ["lipschitz", ("holder", 0.5), "linfty"])
        assert outcome.degenerate

    def test_falling_g_names_no_class(self):
        h = np.array([0.2, 0.15, 0.1, 0.05])
        outcome = fit_models(measured(h, 3.0 + h),
                             ["lipschitz", ("holder", 0.5), "linfty"])
        assert all(f.C < 0 and f.degenerate for f in outcome.fits)
        assert outcome.best is None and outcome.degenerate

    def test_best_skips_a_closer_fit_without_growth(self):
        # a kink at log(1/h) = 2.2: the linfty fit has the smaller residual
        # but a negative C, the lipschitz fit a positive one
        h = np.array([0.3, 0.2, 0.15, 0.1, 0.07, 0.05])
        outcome = fit_models(measured(h, -np.abs(np.log(1.0 / h) - 2.2)),
                             ["linfty", "lipschitz"])
        linf, lip = outcome.fits
        assert linf.C < 0 and linf.residual < lip.residual
        assert outcome.best == lip and lip.C > 0

    def test_needs_four_rows(self):
        with pytest.raises(InvalidInputError):
            fit_models(measured([0.2, 0.1, 0.05], [1.0, 2.0, 3.0]), ["lipschitz"])

    def test_fits_one_g_per_h_whatever_the_signs(self):
        h = np.array([0.2, 0.15, 0.1, 0.05])
        plus = measured(h, 3.0 / h)
        # the rows of a two-sign sweep: each - row follows its + row
        both = SweepResult(rows=tuple(row for plus_row in plus.rows for row in
                                      (plus_row, replace(plus_row, sign=-1))))
        cands = ["lipschitz", ("holder", 0.5), "linfty"]
        assert fit_models(both, cands) == fit_models(plus, cands)
        minus = SweepResult(rows=both.rows[1::2])
        assert fit_models(minus, cands) == fit_models(plus, cands)
        # four rows at two h, whatever their signs, are two points: too few
        for rows in (both.rows[:4], measured([0.5, 0.5, 0.4, 0.4], [1.0] * 4).rows):
            with pytest.raises(InvalidInputError, match="at least 4"):
                fit_models(SweepResult(rows=rows), cands)

    def test_fits_the_first_eps_with_four_h_or_the_one_given(self):
        h = [0.2, 0.15, 0.1, 0.05]
        rows = (measured(h, [1.0, 2.0, 3.0, 4.0], eps=1e-4).rows
                + measured(h, [1.0, 2.0, 4.0, 8.0], eps=1e-2).rows)
        data = SweepResult(rows=rows)
        assert fit_models(data, ["lipschitz"]).eps == 1e-4
        assert fit_models(data, ["lipschitz"], eps=1e-2).eps == 1e-2

    def test_needs_a_candidate(self):
        data = measured([0.2, 0.15, 0.1, 0.05], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidInputError, match="at least one candidate"):
            fit_models(data, [])

    def test_holder_alpha_outside_class_rejected_like_the_maps(self):
        data = measured([0.2, 0.15, 0.1, 0.05], [1.0, 2.0, 3.0, 4.0])
        for call in (lambda: fit_models(data, [("holder", 1.5)]),
                     lambda: psi_map("holder", [2.0], 1.0, alpha=1.5),
                     lambda: omega_map("holder", [100.0], alpha=1.5)):
            with pytest.raises(InvalidInputError, match="alpha in"):
                call()


class TestSweep:
    def test_rows_cover_product_and_monotone_g(self, zero_model):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        res = sweep(template, [0.2, 0.1, 0.05], [1e-2, 1e-4], cheap_policy(),
                    signs=(1,), seed=7)
        assert len(res.rows) == 6
        assert all(row.l_max == 2 and row.sectors == 3 for row in res.rows)
        assert FAILED_ROW.sectors == 0
        keys = {(row.h, row.eps, row.sign) for row in res.rows}
        assert len(keys) == 6
        by_eps = [row.g_measured for row in res.rows if row.eps == 1e-2]
        assert by_eps[0] < by_eps[-1]

    def test_deterministic_across_runs(self, zero_model):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        a = sweep(template, [0.2, 0.1], [1e-2], cheap_policy(), signs=(1,), seed=7)
        b = sweep(template, [0.2, 0.1], [1e-2], cheap_policy(), signs=(1,), seed=7)
        assert [r.g_measured for r in a.rows] == [r.g_measured for r in b.rows]

    def test_empty_h_rejected(self, zero_model):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        with pytest.raises(InvalidInputError):
            sweep(template, [], [1e-2], cheap_policy())

    @pytest.mark.parametrize("h_values,eps_values,message", [
        # each row's query owns the h rule, and every query is built first
        ([0.2, 0.0], [1e-2], r"h must lie in \(0, 1\], got 0\.0"),
        ([1.5, 0.2], [1e-2], r"h must lie in \(0, 1\], got 1\.5"),
        ([0.2], [], "eps_values must not be empty"),
        # an eps outside (0, 1] fails before the first row, not at its own
        ([0.2, 0.1], [0.01, 2.0], r"eps must lie in \(0, 1\], got 2\.0"),
    ])
    def test_h_outside_the_unit_interval_or_no_eps_rejected(
            self, zero_model, monkeypatch, h_values, eps_values, message):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        calls = []
        monkeypatch.setattr(scaling, "weighted_resolvent_norm",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InvalidInputError, match=message):
            sweep(template, h_values, eps_values, cheap_policy())
        assert calls == []

    @pytest.mark.parametrize("signs", [(), (1, 0), (True,)])
    def test_signs_other_than_plus_minus_one_rejected(self, zero_model, signs):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        with pytest.raises(InvalidInputError, match="signs"):
            sweep(template, [0.2], [1e-2], cheap_policy(), signs=signs)

    def test_no_policy_is_the_default_policy(self, barrier_model):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.7,
                                  potential=barrier_model)
        plain = sweep(template, [0.5, 0.4], seed=7)
        default = sweep(template, [0.5, 0.4], grid_policy=GridPolicy(), seed=7)
        assert ([replace(row, runtime_ms=0.0) for row in plain.rows]
                == [replace(row, runtime_ms=0.0) for row in default.rows])

    def test_unsorted_h_rejected(self, zero_model):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        with pytest.raises(InvalidInputError):
            sweep(template, [0.1, 0.2], [1e-2], cheap_policy())

    @pytest.mark.parametrize("h_values,eps_values,signs,key", [
        ([0.5, 0.5, 0.4], [1e-2], (1,), "h_values"),
        ([0.5, 0.4], [1e-2, 1e-2], (1,), "eps_values"),
        ([0.5, 0.4], [1e-2, 1e-4, 1e-2], (1,), "eps_values"),
        ([0.5, 0.4], [1e-2], (1, 1), "signs"),
        ([0.5, 0.4], [1e-2], (1, -1, -1), "signs"),
        # every key repeated: 12 rows from 2 distinct points
        ([0.5, 0.5, 0.4], [1e-2, 1e-2], (1, 1), "h_values"),
    ])
    def test_repeated_values_rejected(self, zero_model, monkeypatch, h_values,
                                      eps_values, signs, key):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        calls = []
        monkeypatch.setattr(scaling, "weighted_resolvent_norm",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InvalidInputError, match=key):
            sweep(template, h_values, eps_values, cheap_policy(), signs=signs)
        assert calls == []

    def test_fully_failed_sweep_raises(self, zero_model, monkeypatch):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)

        def failing(query, *rest, **kwargs):
            raise AccuracyError("forced failure")

        monkeypatch.setattr(scaling, "weighted_resolvent_norm", failing)
        with pytest.raises(AccuracyError, match="every sweep row"):
            sweep(template, [0.5, 0.4, 0.3, 0.25], [1e-2], cheap_policy(),
                  signs=(1,))
        # a step above the h/10 assembly rule is invalid input, not a failed row
        with pytest.raises(InvalidInputError, match="dr_factor"):
            cheap_policy(dr_factor=0.11)

    def test_non_finite_potential_fails_every_row_and_names_the_first(
            self, zero_model):
        model = replace(zero_model, evaluate=nan_on(zero_model.evaluate))
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=model)
        with pytest.raises(AccuracyError, match=(
                r"^every sweep row failed; the first, at h=0\.5 and eps=0\.01, "
                r"with potential zero not finite at r=3\.05$")):
            sweep(template, [0.5, 0.4], [1e-2], cheap_policy(), signs=(1, -1))

    def test_invalid_input_in_a_row_ends_the_sweep(self, zero_model):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        with pytest.raises(InvalidInputError, match="threads"):
            sweep(template, [0.2, 0.1], [1e-2], cheap_policy(), threads=0)

    @pytest.mark.parametrize("key,value", [("threads", 0), ("seed", -1)])
    def test_seed_and_threads_are_checked_before_any_row(self, zero_model,
                                                         monkeypatch, key, value):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)

        def measured(*args):
            raise AssertionError("a row was measured")

        monkeypatch.setattr(scaling, "_measure", measured)
        monkeypatch.setattr(GridPolicy, "grid_for", measured)
        with pytest.raises(InvalidInputError, match=f"^{key} must be at least"):
            sweep(template, [0.2, 0.1], [1e-2], cheap_policy(), **{key: value})

    @pytest.mark.parametrize("key,value", [
        ("seed", 2.5), ("seed", "7"), ("seed", True), ("threads", 1.5),
        ("threads", True),
    ])
    def test_seed_and_threads_must_be_integers(self, zero_model, key, value):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        with pytest.raises(InvalidInputError, match=key):
            sweep(template, [0.2, 0.1], [1e-2], cheap_policy(), **{key: value})

    def test_rows_carry_solver_counters(self, zero_model, monkeypatch):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        estimates = []
        real = scaling.weighted_resolvent_norm

        def kept(*args, **kwargs):
            estimates.append(real(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(scaling, "weighted_resolvent_norm", kept)
        res = sweep(template, [0.2, 0.1], [1e-2], cheap_policy(),
                    signs=(1, -1), seed=7)
        for est, plus, minus in zip(estimates, res.rows[::2], res.rows[1::2]):
            assert plus.matvecs == est.iterations > 0
            assert plus.residual == minus.residual == est.residual <= 1e-6
            # the copied row ran no Gram products
            assert minus.matvecs == 0

    def test_bound_column_and_verdict(self, zero_model):
        cfg = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, min_ell(0.25, 3.0, 0.6),
                                       E=1.0, h=0.1, d=3)
        cert = rl.search_tau0(cfg, zero_model.envelope, 6.0, rl.GridSpec(), 1024.0)
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        res = sweep(template, [0.2, 0.1], [1e-2], cheap_policy(),
                    certificate=cert, signs=(1, -1), seed=7)
        assert all(row.g_bound is not None for row in res.rows)
        assert res.bound_respected is True

    def test_certificate_must_match_the_sweep(self, zero_model):
        cert = synthetic_certificate(
            CarlemanConfig.lipschitz(3.0, 0.6, 4.0, E=1.0, h=0.2, d=3))
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=zero_model)
        for change in (dict(d=2), dict(E=4.0), dict(s=0.55)):
            with pytest.raises(InvalidInputError, match="does not bound a sweep"):
                sweep(replace(template, **change), [0.2], [1e-2], cheap_policy(),
                      certificate=cert)
        # a bound proved at s holds at every larger s
        res = sweep(replace(template, s=0.7), [0.2], [1e-2], cheap_policy(),
                    certificate=cert)
        assert res.rows[0].g_bound is not None


class TestBoxRule:
    """A short box, r_c and then 2 r_c, is taken only when r_c + 2 r_c < r_tail.

    A trapping query's r_c is set by the potential; a non-trapping one's is
    at least ln(1/tail_tol) absorption lengths h sqrt(E)/eps.  Every other
    query, and one whose tail check fails, is measured on r_tail.
    """

    R_TAIL = 1e-3 ** (-1.0 / 1.2) - 1.0  # tail_tol = 1e-3, s = 0.6

    def counting(self, monkeypatch, nudge_far=0.0):
        """Record (r_max, estimate) per norm; add ``nudge_far`` to g on the 2 r_c box."""
        calls = []
        real = scaling.weighted_resolvent_norm

        def counted(query, grid_spec, *args, **kwargs):
            est = real(query, grid_spec, *args, **kwargs)
            if nudge_far and 10.0 < grid_spec.r_max < 20.0:
                est = replace(est, sector_values=tuple(
                    v * math.exp(nudge_far) for v in est.sector_values))
            calls.append((grid_spec.r_max, est))
            return est

        monkeypatch.setattr(scaling, "weighted_resolvent_norm", counted)
        return calls

    def run(self, model, **policy):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=model)
        return sweep(template, [0.2], [1e-2], cheap_policy(tail_tol=1e-3, **policy),
                     signs=(1, -1), seed=7)

    def test_trapping_query_keeps_the_short_box(self, barrier_model, monkeypatch):
        calls = self.counting(monkeypatch)
        plus, minus = self.run(barrier_model).rows
        # r_V = 8.915: the barrier's envelope is at most 1e-3 from there on
        assert [r_max for r_max, _ in calls] == pytest.approx([8.915, 17.83], abs=1e-12)
        (_, near), (_, far) = calls
        assert plus.g_measured == far.g_value
        assert plus.tail == far.g_value - near.g_value
        assert abs(plus.tail) <= 1e-3 and plus.r_max == calls[1][0]
        assert plus.matvecs == near.iterations + far.iterations
        assert plus.residual == max(near.residual, far.residual)
        assert (minus.r_max, minus.tail, minus.matvecs) == (plus.r_max, plus.tail, 0)

    def test_failed_tail_check_falls_back_to_r_tail(self, barrier_model,
                                                    monkeypatch):
        calls = self.counting(monkeypatch, nudge_far=0.01)
        plus, minus = self.run(barrier_model).rows
        assert [r_max for r_max, _ in calls][2] == self.R_TAIL
        fallback = calls[2][1]
        assert plus.g_measured == fallback.g_value and plus.residual == fallback.residual
        assert (plus.r_max, plus.tail) == (minus.r_max, minus.tail) == (self.R_TAIL, None)
        # the row counts every Gram product it ran, the short boxes' too
        assert plus.matvecs == sum(est.iterations for _, est in calls)

    @pytest.mark.parametrize("name", ["zero", "holder_bump"])
    def test_non_trapping_query_goes_straight_to_r_tail(self, name, monkeypatch):
        model = rl.build_potential(name, {"c": 0.1} if name == "holder_bump" else {})
        calls = self.counting(monkeypatch)
        plus, _ = self.run(model).rows
        assert [r_max for r_max, _ in calls] == [self.R_TAIL]
        assert (plus.r_max, plus.tail, plus.matvecs) == (self.R_TAIL, None,
                                                         calls[0][1].iterations)

    def test_trapping_short_boxes_costing_more_than_r_tail_are_skipped(
            self, barrier_model, monkeypatch):
        # r_c = 110: the boxes 110 and 220 would run 330 > r_tail = 315.2
        calls = self.counting(monkeypatch)
        plus, _ = self.run(barrier_model, r_max_floor=110.0).rows
        assert [r_max for r_max, _ in calls] == [self.R_TAIL]
        assert (plus.r_max, plus.tail) == (self.R_TAIL, None)

    @pytest.mark.parametrize("fixture", ["zero_model", "holder_model"])
    def test_non_trapping_short_box_holds_the_absorption_length(
            self, fixture, request, monkeypatch):
        # ell = h sqrt(E)/eps = 5, so r_c = 5 ln 1000 = 34.54 and
        # 3 r_c = 103.6 < r_tail = 137.95 (tail_tol = 1e-3, s = 0.7)
        model = request.getfixturevalue(fixture)
        policy = GridPolicy(tail_tol=1e-3, dr_factor=0.05, l_max=8)
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.7,
                                  potential=model)
        calls = self.counting(monkeypatch)
        (row,) = sweep(template, [0.05], [1e-2], policy, seed=7).rows
        r_c = 5.0 * math.log(1e3)
        assert [r_max for r_max, _ in calls] == pytest.approx([r_c, 2.0 * r_c],
                                                              rel=1e-15)
        assert abs(row.tail) <= 1e-3 and row.r_max == calls[1][0]
        query = replace(template, h=0.05, eps=1e-2)
        fallback = policy.grid_for(query)
        assert fallback.r_max > 3.0 * r_c
        far = rl.weighted_resolvent_norm(query, fallback, policy.l_max, seed=7)
        assert row.g_measured == pytest.approx(far.g_value, rel=0, abs=1e-6)

    def test_a_grid_too_short_to_trap_holds_the_absorption_length(self, zero_model,
                                                                   monkeypatch):
        # l_max = 0 and V = 0 leave r_c = 0, no grid to test for trapping:
        # the query does not trap, so r_c = 5 ln 1000 = 34.54, not r_tail = 137.95
        policy = GridPolicy(tail_tol=1e-3, dr_factor=0.05, l_max=0)
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.7,
                                  potential=zero_model)
        calls = self.counting(monkeypatch)
        (row,) = sweep(template, [0.05], [1e-2], policy, seed=7).rows
        r_c = 5.0 * math.log(1e3)
        assert [r_max for r_max, _ in calls] == pytest.approx([r_c, 2.0 * r_c],
                                                              rel=1e-15)
        # the tail term is 3.2e-5, and g sits 1.3e-8 from the r_tail box's
        assert abs(row.tail) <= 1e-4 and row.r_max == calls[1][0]
        query = replace(template, h=0.05, eps=1e-2)
        far = rl.weighted_resolvent_norm(query, policy.grid_for(query), 0, seed=7)
        assert row.g_measured == pytest.approx(far.g_value, rel=0, abs=1e-7)
        # an absorption length that still leaves fewer than 3 points: r_tail
        short = replace(query, E=1e-4, eps=1.0)
        assert GridPolicy(tail_tol=0.05, l_max=0).short_grid(short) is None


OK_ROW = SweepRow(h=0.5, eps=1e-2, sign=1, g_measured=1.0, g_bound=2.0,
                  l_max=2, runtime_ms=0.0, status="ok", matvecs=20,
                  residual=1e-7, r_max=18.0, tail=None)
FAILED_ROW = replace(OK_ROW, g_measured=None, status="failed: forced")


@pytest.mark.parametrize("rows,respected", [
    ((replace(OK_ROW, g_bound=None),), None),
    ((replace(OK_ROW, g_bound=None), replace(FAILED_ROW, g_bound=None)), None),
    ((OK_ROW, replace(OK_ROW, sign=-1)), True),
    ((OK_ROW, replace(OK_ROW, g_measured=2.0)), True),
    ((OK_ROW, replace(OK_ROW, g_measured=2.5)), False),
    ((OK_ROW, FAILED_ROW), False),
])
def test_bound_respected_follows_the_rows(rows, respected):
    assert SweepResult(rows=rows).bound_respected is respected


def test_curves_hold_one_g_per_h_of_the_ok_rows_in_row_order():
    rows = (OK_ROW, replace(OK_ROW, sign=-1),
            replace(OK_ROW, eps=1e-4, g_measured=3.0),
            replace(FAILED_ROW, h=0.4),
            replace(OK_ROW, h=0.4, eps=1e-4, g_measured=4.0))
    curves = SweepResult(rows=rows).curves
    assert curves == {1e-2: {0.5: 1.0}, 1e-4: {0.5: 3.0, 0.4: 4.0}}
    assert list(curves) == [1e-2, 1e-4] and list(curves[1e-4]) == [0.5, 0.4]
    assert SweepResult(rows=(FAILED_ROW,)).curves == {}


def test_sweep_verdict_none_true_false(zero_model, monkeypatch):
    cfg = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, min_ell(0.25, 3.0, 0.6),
                                   E=1.0, h=0.1, d=3)
    cert = rl.search_tau0(cfg, zero_model.envelope, 6.0, rl.GridSpec(), 1024.0)
    template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                              potential=zero_model)
    args = (template, [0.2, 0.1], [1e-2], cheap_policy())
    assert sweep(*args, seed=7).bound_respected is None
    assert sweep(*args, certificate=cert, seed=7).bound_respected is True
    real = scaling.weighted_resolvent_norm

    def failing_at_small_h(query, *rest, **kwargs):
        if query.h == 0.1:
            raise AccuracyError("forced failure")
        return real(query, *rest, **kwargs)

    monkeypatch.setattr(scaling, "weighted_resolvent_norm", failing_at_small_h)
    assert sweep(*args, seed=7).bound_respected is None
    assert sweep(*args, certificate=cert, seed=7).bound_respected is False


class TestSweepMirror:
    H = [0.2, 0.1]
    EPS = [1e-2, 1e-4]

    def template(self, model):
        return ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                              potential=model)

    def counting(self, monkeypatch, fail_at=None):
        calls = []
        real = scaling.weighted_resolvent_norm

        def counted(query, *args, **kwargs):
            calls.append((query.h, query.eps, query.sign))
            if (query.h, query.eps) == fail_at:
                raise AccuracyError("forced failure")
            return real(query, *args, **kwargs)

        monkeypatch.setattr(scaling, "weighted_resolvent_norm", counted)
        return calls

    def test_one_norm_per_h_eps_mirrored_bitwise(self, zero_model, monkeypatch):
        calls = self.counting(monkeypatch)
        res = sweep(self.template(zero_model), self.H, self.EPS, cheap_policy(),
                    signs=(1, -1), seed=7)
        assert sorted(calls) == sorted((h, e, 1) for h in self.H for e in self.EPS)
        assert len(res.rows) == 2 * len(calls)
        for plus, minus in zip(res.rows[::2], res.rows[1::2]):
            assert (plus.sign, minus.sign) == (1, -1)
            assert (minus.h, minus.eps) == (plus.h, plus.eps)
            assert plus.status == minus.status == "ok"
            assert plus.g_measured == minus.g_measured

    def test_failure_marks_both_signs_with_one_call(self, zero_model,
                                                    monkeypatch):
        calls = self.counting(monkeypatch, fail_at=(0.1, 1e-4))
        res = sweep(self.template(zero_model), self.H, self.EPS, cheap_policy(),
                    signs=(1, -1), seed=7)
        assert calls.count((0.1, 1e-4, 1)) == 1
        assert len(calls) == len(self.H) * len(self.EPS)
        failed = [row for row in res.rows if row.status != "ok"]
        assert [(row.h, row.eps, row.sign) for row in failed] == [
            (0.1, 1e-4, 1), (0.1, 1e-4, -1)]
        assert all(row.g_measured is None and "forced failure" in row.status
                   and row.matvecs == 0 and row.residual is None
                   for row in failed)

    def test_minus_sign_alone_matches_plus(self, zero_model):
        args = (self.template(zero_model), self.H, self.EPS, cheap_policy())
        plus = sweep(*args, signs=(1,), seed=7)
        minus = sweep(*args, signs=(-1,), seed=7)
        assert [row.sign for row in minus.rows] == [-1] * len(minus.rows)
        for a, b in zip(plus.rows, minus.rows):
            assert b.g_measured == a.g_measured

    def test_signs_may_be_any_sequence(self, zero_model):
        args = (self.template(zero_model), self.H, self.EPS, cheap_policy())
        listed = sweep(*args, signs=(1, -1), seed=7)
        array = sweep(*args, signs=np.array([1, -1]), seed=7)
        assert ([replace(row, runtime_ms=0.0) for row in array.rows]
                == [replace(row, runtime_ms=0.0) for row in listed.rows])

    def test_rows_do_not_depend_on_the_signs_requested(self, zero_model,
                                                        monkeypatch):
        calls = self.counting(monkeypatch)
        args = (self.template(zero_model), self.H, self.EPS, cheap_policy())
        both = sweep(*args, signs=(1, -1), seed=7)
        minus = sweep(*args, signs=(-1,), seed=7)
        # every (h, eps) is measured on the + side, whatever the signs
        assert {sign for _, _, sign in calls} == {1}

        def measurement(row):
            return row.h, row.eps, row.g_measured, row.residual

        assert ([measurement(row) for row in minus.rows]
                == [measurement(row) for row in both.rows if row.sign == -1])
        # the first row of an (h, eps) carries the measurement's counters
        assert ([row.matvecs for row in minus.rows]
                == [row.matvecs for row in both.rows if row.sign == 1])
        assert all(row.matvecs == 0 for row in both.rows if row.sign == -1)


class TestWorkerPool:
    """The process keeps one pool per worker count; a forked child makes its own."""

    def rows(self, model, threads):
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                                  potential=model)
        swept = sweep(template, [0.5, 0.4], [1e-2], cheap_policy(l_max=4),
                      seed=3, threads=threads)
        return [(row.g_measured, row.matvecs, row.residual) for row in swept.rows]

    def test_pools_are_kept_and_change_no_bit(self, power_law_model):
        first, counts = self.rows(power_law_model, 1), []
        for _ in range(5):
            for threads in (2, 1, 3, 2):
                assert self.rows(power_law_model, threads) == first
            counts.append(threading.active_count())
        assert counts == counts[:1] * 5

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_a_forked_child_sweeps_on_its_own_pool(self, power_law_model):
        # the parent's two-worker pool exists; its thread does not in the child
        want = self.rows(power_law_model, 2)
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(
            target=lambda: results.put(self.rows(power_law_model, 2)))
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a threaded process can deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            got = results.get(timeout=120)
            child.join(timeout=30)
        finally:
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert got == want


class TestMaps:
    def test_psi_hand_values(self):
        table = psi_map("lipschitz", [10.0, 100.0], 1.0)
        assert_allclose(table.psi, [10.0, 100.0], rtol=1e-15)
        assert_allclose(table.h, [0.1, 0.01], rtol=1e-15)
        assert table.E == 1.0

    def test_psi_linfty_direct_evaluation(self):
        lam = math.e - 1.0
        expected = lam ** (4.0 / 3.0) * math.log(math.e)
        table = psi_map("linfty", [lam], 1.0)
        assert table.psi[0] == pytest.approx(expected, rel=1e-14)
        assert table.psi[0] == pytest.approx(2.058065518307139, rel=1e-12)

    def test_psi_holder_exponent_continuity(self):
        lam = np.array([5.0, 50.0])
        near_one = psi_map("holder", lam, 1.0, alpha=1.0 - 1e-9)
        assert_allclose(near_one.psi, lam * np.log(lam + 1.0), rtol=1e-6)
        assert 4.0 / (1.0 + 3.0) == 1.0

    def test_psi_domain(self):
        with pytest.raises(InvalidInputError):
            psi_map("lipschitz", [0.5], 1.0)
        with pytest.raises(InvalidInputError):
            psi_map("fancy", [2.0], 1.0)
        with pytest.raises(InvalidInputError, match="lambda0 must be positive"):
            psi_map("lipschitz", [2.0], 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_psi_rejects_a_non_finite_lambda_naming_it(self, value):
        with pytest.raises(InvalidInputError, match=f"got {value!r}$"):
            psi_map("lipschitz", [value, 2.0])

    def test_omega_hand_values(self):
        assert omega_map("lipschitz", [math.e ** 10])[0] == pytest.approx(0.1, abs=1e-12)
        radial = omega_map("linfty", [math.e ** 16], radial=True)[0]
        assert radial == pytest.approx(16.0 ** (-0.75), abs=1e-12)
        assert radial == pytest.approx(0.125, abs=1e-12)

    def test_omega_linfty_direct_evaluation(self):
        t = math.exp(math.e ** 2)
        expected = (2.0 / math.e ** 2) ** 0.75
        assert omega_map("linfty", [t])[0] == pytest.approx(expected, rel=1e-12)
        assert omega_map("linfty", [t])[0] == pytest.approx(0.37525870360760377, rel=1e-12)

    def test_omega_holder_exponent_continuity(self):
        t = np.array([math.e ** 12])
        near_one = omega_map("holder", t, alpha=1.0 - 1e-12, radial=True)
        assert near_one[0] == pytest.approx(12.0 ** (-1.0), rel=1e-9)
        assert (1.0 + 3.0) / 4.0 == 1.0

    def test_omega_domain(self):
        with pytest.raises(InvalidInputError):
            omega_map("lipschitz", [2.0])
        with pytest.raises(InvalidInputError):
            omega_map("lipschitz", [math.e ** math.e])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_omega_rejects_a_non_finite_t_naming_it(self, value):
        with pytest.raises(InvalidInputError, match=f"got {value!r}$"):
            omega_map("lipschitz", [value, 1e6])

    def test_maps_monotone(self):
        lam = np.geomspace(2.0, 1e4, 200)
        for cls, alpha in [("lipschitz", None), ("holder", 0.5), ("linfty", None)]:
            psi = psi_map(cls, lam, 1.0, alpha=alpha).psi
            assert np.all(np.diff(psi) > 0)
        t = np.geomspace(20.0, 1e12, 200)
        for cls, alpha in [("lipschitz", None), ("holder", 0.5), ("linfty", None)]:
            for radial in (False, True):
                om = omega_map(cls, t, alpha=alpha, radial=radial)
                assert np.all(np.diff(om) < 0)
