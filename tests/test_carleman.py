import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import resolvent_lab as rl
from resolvent_lab.carleman import (CarlemanConfig, Certificate, GridSpec,
                                    PhaseFunction, WeightFunction, audit_at,
                                    build_phase, build_weight,
                                    certification_grid, certify, min_ell,
                                    search_tau0, search_tau0_with_fallback)
from resolvent_lab.errors import (InvalidConfigError, InvalidInputError,
                                  SearchExhaustedError, SingularPointError)


@pytest.fixture()
def demo_weight():
    return WeightFunction(k=1.0, k0=0.5, s=0.6, a=10.0)


@pytest.fixture()
def demo_phase():
    return PhaseFunction(k=1.0, a=10.0, tau=5.0)


@pytest.fixture()
def demo_config():
    """A steep Hölder configuration: k = 1, k0 = 1/2, a = 4**3.5 * 0.5**-2 = 512."""
    return CarlemanConfig.holder(0.5, 0.6, 4.0, 3.5, E=1.0, h=0.5)


@pytest.fixture()
def a_term(demo_config, zero_model):
    """A = (mu phi'**2)' of the demo configuration, as audit_at computes it."""
    return lambda r: audit_at(r, demo_config, zero_model.envelope).A


class TestConfig:
    def test_lipschitz_constructor_fixes_exponents(self):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 8.0, 9.0, E=1.0, h=0.1)
        assert cfg.k == pytest.approx(0.25)
        assert cfg.k0 == 0.0 and cfg.m == 0.0
        assert cfg.tau == 8.0
        assert cfg.a == pytest.approx(8.0 ** 9.0)

    def test_holder_tau_scaling(self):
        cfg = CarlemanConfig.holder(0.5, 0.7, 4.0, 3.5, E=1.0, h=0.1, k=1.0)
        theta = 0.1 ** (2.0 / 3.5)
        assert cfg.theta == pytest.approx(theta, rel=1e-15)
        assert cfg.tau == pytest.approx(4.0 * theta ** (1.0 / 3.0) * 0.1 ** (-1.0 / 3.0))
        assert cfg.a == pytest.approx(4.0 ** 3.5 * 100.0)

    def test_s_lower_bound_message(self):
        with pytest.raises(InvalidConfigError, match="s below lower bound 1/2"):
            CarlemanConfig.lipschitz(2.0, 0.4, 8.0, 9.0, E=1.0, h=0.1)

    def test_s_upper_bound(self):
        with pytest.raises(InvalidConfigError, match="upper bound"):
            CarlemanConfig.lipschitz(1.5, 0.7, 8.0, 20.0, E=1.0, h=0.1)
        with pytest.raises(InvalidConfigError, match="upper bound"):
            CarlemanConfig.holder(0.5, 0.8, 8.0, 3.5, E=1.0, h=0.1)

    def test_ell_constraints(self):
        with pytest.raises(InvalidConfigError, match="ell"):
            CarlemanConfig.lipschitz(2.0, 0.6, 8.0, 2.0, E=1.0, h=0.1)

    @pytest.mark.parametrize("fields,message", [
        (dict(regularity="smooth"), "regularity must be 'lipschitz' or 'holder'"),
        (dict(tau0=0.0), "tau0 must be positive"),
        (dict(tau0=math.nan), "tau0 must be positive"),
        (dict(beta=1.0, k=0.0), "Lipschitz regime needs beta > 1"),
        (dict(k=0.3), r"lipschitz regime fixes \(beta, k\) = \(2, 0.25\)"),
        # k*ell = 2.25 passes, (2 - 0.5 - 1.4)*9 = 0.9 does not
        (dict(s=0.7), r"\(beta - 2k - 2s\)\*ell must exceed 2"),
    ])
    def test_lipschitz_fields_outside_the_regime_rejected(self, fields, message):
        base = dict(regularity="lipschitz", beta=2.0, alpha=None, k=0.25, s=0.6,
                    tau0=8.0, ell=9.0, E=1.0, h=0.1, d=3)
        with pytest.raises(InvalidConfigError, match=message):
            CarlemanConfig(**{**base, **fields})

    @pytest.mark.parametrize("fields,message", [
        (dict(alpha=None), r"Hölder regime needs alpha in \(0, 1\), got None"),
        (dict(alpha=1.0), r"Hölder regime needs alpha in \(0, 1\), got 1.0"),
        (dict(beta=3.0), r"holder regime fixes \(beta, k\) = \(4, 1\)"),
    ])
    def test_holder_fields_outside_the_regime_rejected(self, fields, message):
        base = dict(regularity="holder", beta=4.0, alpha=0.5, k=1.0, s=0.7,
                    tau0=4.0, ell=3.5, E=1.0, h=0.1, d=3)
        with pytest.raises(InvalidConfigError, match=message):
            CarlemanConfig(**{**base, **fields})

    def test_min_ell_needs_a_positive_gap(self):
        with pytest.raises(InvalidConfigError, match="must be positive before choosing ell"):
            min_ell(1.0, 2.0, 0.6)

    def test_holder_pairs_only(self):
        with pytest.raises(InvalidConfigError):
            CarlemanConfig.holder(0.5, 0.7, 8.0, 3.5, E=1.0, h=0.1, k=0.75)

    def test_h_range(self):
        with pytest.raises(InvalidConfigError, match="h"):
            CarlemanConfig.lipschitz(2.0, 0.6, 8.0, 9.0, E=1.0, h=1.5)

    def test_cutoff_radius_past_the_largest_float_rejected(self):
        # beta near 1 and s near its upper bound make min_ell about 545,
        # and 4.0**545 raises OverflowError
        with pytest.raises(InvalidConfigError, match="ell = 545"):
            CarlemanConfig.lipschitz(1.0625, 0.5137, 4.0, h=0.5)
        # 2.0**1023 is a float; h**(-2) = 4 times it is inf
        with pytest.raises(InvalidConfigError, match="ell = 1023"):
            CarlemanConfig.holder(0.5, 0.7, 2.0, 1023.0, h=0.5)


class TestWeightAndPhase:
    def test_weight_frozen_examples(self, demo_weight):
        assert demo_weight(0.0) == 0.0
        assert demo_weight(1.0) == pytest.approx(2.0, rel=1e-15)
        assert demo_weight.derivative(1.0) == pytest.approx(3.0, rel=1e-15)

    def test_weight_branches_agree_at_cutoff(self, demo_weight):
        assert demo_weight.below(10.0) == pytest.approx(110.0, rel=1e-15)
        assert demo_weight.above(10.0) == pytest.approx(110.0, rel=1e-15)

    def test_branch_consistency_near_cutoff(self, demo_weight):
        for r in (10.0 - 1e-8, 10.0 + 1e-8):
            assert demo_weight.below(r) == pytest.approx(demo_weight.above(r), rel=1e-6)

    def test_weight_positive_increasing_and_capped(self, demo_weight):
        r = np.geomspace(1e-6, 200.0, 4001)
        r = r[r != demo_weight.a]
        mup = demo_weight.derivative(r)
        assert np.all(mup > 0)
        assert np.all(demo_weight(r) <= (demo_weight.a + 1.0) ** 2)

    def test_phase_flat_beyond_cutoff(self, demo_phase):
        assert demo_phase.derivative(12.0) == 0.0
        assert demo_phase.second_derivative(12.0) == 0.0
        assert demo_phase.value(15.0) == demo_phase.max_phi

    def test_phase_frozen_examples(self, demo_phase):
        assert demo_phase.derivative(0.0) == pytest.approx(50.0 / 11.0, rel=1e-15)
        expected = 5.0 * (math.log(11.0) - 10.0 / 11.0)
        assert demo_phase.max_phi == pytest.approx(expected, rel=1e-15)
        assert demo_phase.max_phi == pytest.approx(7.4440218185373075, rel=1e-12)

    def test_max_phi_matches_quadrature(self, demo_phase):
        integral, _ = quad(lambda r: float(demo_phase.derivative(r)), 0.0, 10.0,
                           epsabs=1e-12, epsrel=1e-12)
        assert demo_phase.max_phi == pytest.approx(integral, rel=1e-8)

    def test_max_phi_closed_form_bounds(self):
        for k, tau, a in [(1.0, 5.0, 10.0), (0.25, 3.0, 400.0), (0.5, 7.0, 50.0)]:
            ph = PhaseFunction(k=k, a=a, tau=tau)
            if k == 1.0:
                assert ph.max_phi <= tau * math.log(a + 1.0)
            else:
                assert ph.max_phi <= tau * a ** (1.0 - k) / (1.0 - k)

    def test_phase_nonnegative_derivative(self, demo_phase):
        r = np.linspace(0.0, 20.0, 2001)
        assert np.all(demo_phase.derivative(r) >= 0.0)
        assert demo_phase.value(0.0) == 0.0


class TestAudit:
    def test_a_term_matches_expanded_formula(self, demo_config, a_term):
        r, k, k0, a, tau = 1.0, 1.0, 0.5, demo_config.a, demo_config.tau
        phase = PhaseFunction(k=k, a=a, tau=tau)
        p1 = phase.derivative(r)
        p2 = phase.second_derivative(r)
        expanded = (-2.0 * (r + 1.0) ** (2 * k0) * p1 * p2
                    - 2.0 * k0 * (r + 1.0) ** (2 * k0 - 1) * p1 ** 2
                    - 2.0 * k * tau ** 2 * (r + 1.0) ** (k - 1) * (a + 1.0) ** (-k)
                    * (1.0 - (r + 1.0) ** k * (a + 1.0) ** (-k)))
        assert a_term(r)[0] == pytest.approx(expanded, rel=1e-12)

    def test_a_term_matches_finite_differences(self, demo_config, a_term):
        weight, phase = build_weight(demo_config), build_phase(demo_config)
        a = demo_config.a
        rng = np.random.default_rng(3)
        rs = np.concatenate([rng.uniform(0.05, 0.99 * a, 80),
                             rng.uniform(1.01 * a, 6.0 * a, 20)])
        step = 1e-6 * (rs + 1.0)
        fd = (weight(rs + step) * phase.derivative(rs + step) ** 2
              - weight(rs - step) * phase.derivative(rs - step) ** 2) / (2 * step)
        closed = a_term(rs)
        mask = np.abs(fd) > 1e-10
        assert_allclose(closed[mask], fd[mask], rtol=1e-5)

    def test_a_vanishes_beyond_cutoff(self, demo_config, a_term):
        assert_allclose(a_term(np.array([1.1, 5.0]) * demo_config.a), 0.0)

    def test_audit_beyond_cutoff_reduces(self, zero_model):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 4.0, 9.0, E=1.0, h=0.1)
        w = build_weight(cfg)
        r = np.array([cfg.a * 2.0, cfg.a * 5.0])
        av = audit_at(r, cfg, zero_model.envelope)
        assert_allclose(av.A, 0.0)
        mup = w.derivative(r)
        # with a vanishing phase the squared-curvature term drops entirely
        assert_allclose(av.B2, 0.0, atol=1e-300)
        assert_allclose(av.B1, (r + 1.0) ** (-cfg.beta) * w(r)
                        + zero_model.envelope(r) * mup, rtol=1e-12)

    def test_singular_radius_rejected(self, zero_model):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 4.0, 9.0, E=1.0, h=0.1)
        with pytest.raises(SingularPointError):
            audit_at(cfg.a, cfg, zero_model.envelope)

    @pytest.mark.parametrize("r", [0.0, [1.0, -2.0]])
    def test_non_positive_radius_rejected(self, zero_model, r):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 4.0, 9.0, E=1.0, h=0.1)
        with pytest.raises(InvalidInputError, match="audit radii must be positive"):
            audit_at(r, cfg, zero_model.envelope)


class TestCertify:
    def test_monotone_family_nonnegative(self, zero_model):
        cfg = CarlemanConfig.holder(0.5, 0.7, 30.0, 3.5, E=1.0, h=0.1, k=1.0)
        cert = certify(cfg, zero_model.envelope, 6.0)
        margins = {f.name: f.min_margin for f in cert.families}
        assert margins["weight_monotone"] >= 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_carleman_margins_are_formed_from_the_audit_terms(self, zero_model, d):
        # carleman_main in every dimension, carleman_2d in two only, each the
        # grid minimum of its formula over audit_at's A, B1 and B2
        cfg = CarlemanConfig.holder(0.5, 0.7, 30.0, 3.5, E=1.0, h=0.1, k=1.0, d=d)
        C = 6.0
        cert = certify(cfg, zero_model.envelope, C)
        families = {f.name: f for f in cert.families}
        grid = cert.grid
        av = audit_at(grid, cfg, zero_model.envelope)
        expected = {"carleman_main": av.A - C * (av.B1 + av.B2) + 0.5 * cfg.E * av.mup}
        if d == 2:
            expected["carleman_2d"] = (av.A - cfg.h ** 2 * grid ** (-3.0) * av.mu
                                       - C * (av.B1 + av.B2)
                                       + (2.0 * cfg.E / 3.0) * av.mup)
        assert {n for n in families if n.startswith("carleman")} == set(expected)
        for name, margin in expected.items():
            i = int(np.argmin(margin))
            assert families[name].min_margin == margin[i]
            assert families[name].argmin_r == grid[i]

    def test_monotone_margin_beyond_cutoff_paper_bound(self, zero_model):
        cfg = CarlemanConfig.holder(0.5, 0.7, 30.0, 3.5, E=1.0, h=0.1, k=1.0)
        w = build_weight(cfg)
        a = cfg.a
        r = a * (1.0 + np.geomspace(1e-6, 0.4, 40))
        margin = 2.0 * w(r) / r - w.derivative(r)
        floor = 2.0 / r * ((a + 1.0) ** (2 * cfg.k) - (a + 1.0) ** (2 * cfg.k0) - cfg.s)
        assert np.all(margin >= floor)
        assert np.all(floor > 0.0)

    def test_grid_requirements(self, zero_model):
        with pytest.raises(InvalidInputError, match="sparse"):
            certification_grid(GridSpec(points_per_decade=100), 100.0)
        with pytest.raises(InvalidInputError, match="span"):
            certification_grid(GridSpec(span_factor=5.0), 100.0)

    def test_grid_needs_r_min_below_its_upper_end(self):
        # the grid ends at span_factor * a = 100
        with pytest.raises(InvalidInputError, match="upper end must exceed its lower end"):
            certification_grid(GridSpec(), 10.0, r_min=100.0)

    def test_grid_brackets_cutoff(self):
        a = 1234.5
        grid = certification_grid(GridSpec(), a)
        assert np.all(grid != a)
        gaps = np.abs(grid / a - 1.0)
        assert gaps.min() <= 1e-6
        below = grid[grid < a].max()
        above = grid[grid > a].min()
        assert (a - below) / a <= 1e-6 and (above - a) / a <= 1e-6

    def test_search_finds_tau0_for_free_potential(self, zero_model):
        cfg = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, min_ell(0.25, 3.0, 0.6),
                                       E=1.0, h=0.5, d=3)
        cert = search_tau0(cfg, zero_model.envelope, 6.0, GridSpec(), 1024.0)
        assert cert.passed and cert.tau0_found <= 1024.0
        assert cert.search_history[-1][0] == cert.tau0_found

    def test_non_finite_tau0_max_and_C_rejected(self, zero_model):
        # NaN fails every comparison, so "x < bound" checks let it through
        cfg = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, E=1.0, h=0.5, d=3)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="tau0_max must be finite"):
                search_tau0(cfg, zero_model.envelope, 6.0, GridSpec(), bad)
            with pytest.raises(InvalidInputError, match="C must be positive and finite"):
                certify(cfg, zero_model.envelope, bad)

    def test_doubling_tau0_preserves_pass(self, zero_model):
        cfg = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, min_ell(0.25, 3.0, 0.6),
                                       E=1.0, h=0.5, d=3)
        cert = search_tau0(cfg, zero_model.envelope, 6.0, GridSpec(), 1024.0)
        doubled = certify(replace(cert.config, tau0=2 * cert.tau0_found),
                          zero_model.envelope, 6.0)
        assert doubled.passed

    def test_refined_grid_still_passes(self, power_law_model):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 4.0, min_ell(0.25, 2.0, 0.6),
                                       E=1.0, h=0.1, d=3)
        cert = search_tau0(cfg, power_law_model.envelope, 6.0, GridSpec(), 4096.0)
        refined = certify(cert.config, power_law_model.envelope, 6.0,
                          GridSpec(points_per_decade=400))
        assert refined.passed

    def test_exhausted_search_reports_location(self, holder_model):
        cfg = CarlemanConfig.holder(0.5, 0.7, 4.0, min_ell(1.0, 4.0, 0.7),
                                    E=1.0, h=0.9, d=2, k=1.0)
        C = rl.recommended_audit_constant(holder_model)
        with pytest.raises(SearchExhaustedError) as info:
            search_tau0(cfg, holder_model.envelope, C, GridSpec(), 64.0, r_min=1.0)
        err = info.value
        _, family, margin, r = err.history[-1]
        assert margin < 0 and r > 0 and family
        assert len(err.history) >= 1

    def test_overflow_at_a_later_doubling_exhausts_the_search(self, zero_model):
        # a = 4**400 is a float and 8**400 is not; C = 1e6 fails tau0 = 4
        cfg = CarlemanConfig.lipschitz(1.1, 0.51, 4.0, 400.0, h=0.5)
        with pytest.raises(SearchExhaustedError, match="overflows from tau0 = 8") as info:
            search_tau0(cfg, zero_model.envelope, 1e6)
        assert [step[0] for step in info.value.history] == [4.0]
        assert info.value.history[0][2] < 0

    def test_overflow_at_the_first_amplitude_is_a_config_error(self, zero_model):
        cfg = CarlemanConfig.lipschitz(1.0625, 0.5137, 1.0, h=0.5)
        with pytest.raises(InvalidConfigError, match="ell"):
            search_tau0(cfg, zero_model.envelope)

    def test_loaded_certificate_is_judged_by_its_margins(self, zero_model):
        cfg = CarlemanConfig.lipschitz(3.0, 0.6, 8.0, min_ell(0.25, 3.0, 0.6),
                                       E=1.0, h=0.5, d=3)
        doc = json.loads(certify(cfg, zero_model.envelope, 6.0).to_json())
        assert doc["passed"] is True
        for fam in doc["families"]:
            if fam["name"] == "carleman_main":
                fam["min_margin"] = -1.0
        loaded = Certificate.from_json(json.dumps(doc))
        assert loaded.passed is False
        assert loaded.tau0_found == 8.0
        assert json.loads(loaded.to_json())["passed"] is False

    def test_fallback_reraises_outside_two_dimensions(self, holder_model,
                                                      monkeypatch):
        cfg = CarlemanConfig.holder(0.5, 0.7, 4.0, min_ell(1.0, 4.0, 0.7),
                                    E=1.0, h=0.9, d=3, k=1.0)
        C = rl.recommended_audit_constant(holder_model)
        searched = []
        real = rl.carleman.search_tau0

        def counted(template, *rest):
            searched.append(template.k)
            return real(template, *rest)

        monkeypatch.setattr(rl.carleman, "search_tau0", counted)
        with pytest.raises(SearchExhaustedError):
            search_tau0_with_fallback(cfg, holder_model.envelope, C, GridSpec(), 8.0)
        # only the steep pair was searched: the shallow one is for d = 2
        assert searched == [1.0]

    def test_d2_fallback_switches_pair(self, holder_model):
        cfg = CarlemanConfig.holder(0.5, 0.7, 4.0, min_ell(1.0, 4.0, 0.7),
                                    E=1.0, h=0.9, d=2, k=1.0)
        C = rl.recommended_audit_constant(holder_model)
        cert, fellback = search_tau0_with_fallback(
            cfg, holder_model.envelope, C, GridSpec(), 256.0, r_min=1.0)
        assert fellback and cert.passed
        assert (cert.config.k, cert.config.k0) == (0.5, 0.0)

    def test_certificate_roundtrip_is_bit_exact(self, power_law_model):
        cfg = CarlemanConfig.lipschitz(2.0, 0.6, 4.0, min_ell(0.25, 2.0, 0.6),
                                       E=1.0, h=0.1, d=3)
        cert = search_tau0(cfg, power_law_model.envelope, 6.0, GridSpec(), 4096.0)
        assert len(cert.search_history) >= 2
        text = cert.to_json()
        again = Certificate.from_json(text)
        assert again.to_json() == text
        assert again.config == cert.config
        assert again.passed == cert.passed
        assert again.search_history == cert.search_history

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    # s_frac places s in the lower half of (1/2, s_hi), which keeps
    # beta - 2k - 2s away from 0 and a = tau0**ell * h**(-m) finite
    @given(holder=st.booleans(), beta=st.floats(1.5, 4.0),
           alpha=st.floats(0.05, 0.95), steep=st.booleans(),
           s_frac=st.floats(0.01, 0.5), h=st.floats(0.05, 1.0),
           E=st.floats(0.5, 2.0), d=st.sampled_from([2, 3]),
           tau0=st.sampled_from([4.0, 8.0, 16.0]), C=st.floats(1.0, 1e3),
           moments=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
           history=st.lists(st.tuples(
               st.floats(4.0, 4096.0), st.sampled_from(["carleman_main", "weight_monotone"]),
               st.floats(-1e12, 1e12), st.floats(1e-6, 1e12)), max_size=3))
    def test_random_certificate_roundtrip_is_bit_exact(
            self, zero_model, holder, beta, alpha, steep, s_frac, h, E, d, tau0,
            C, moments, history):
        if holder:
            k = 1.0 if steep else 0.5
            s = 0.5 + 0.25 * s_frac  # below min(3, beta + 1)/4 = 3/4
            cfg = CarlemanConfig.holder(alpha, s, tau0, h=h, E=E, d=d, k=k)
            mollifier = dict(zip(("holder_const", "moment_alpha",
                                  "moment_alpha_deriv"), moments))
        else:
            s = 0.5 + (0.25 * min(3.0, beta + 1.0) - 0.5) * s_frac
            cfg = CarlemanConfig.lipschitz(beta, s, tau0, h=h, E=E, d=d)
            mollifier = None
        cert = certify(cfg, zero_model.envelope, C)
        # the Hölder kernel constants are attached as the CLI attaches them
        cert = replace(cert, constants=dict(cert.constants, mollifier=mollifier),
                       search_history=tuple(history), grid=None)
        text = cert.to_json()
        again = Certificate.from_json(text)
        assert again.to_json() == text
        assert again == cert

    @pytest.mark.parametrize("regime,k0,m", [("lipschitz", 0.0, 0.0),
                                             ("holder", 0.5, 2.0)])
    def test_certificate_file_still_writes_k0_and_m(self, zero_model, regime,
                                                    k0, m):
        if regime == "lipschitz":
            cfg = CarlemanConfig.lipschitz(3.0, 0.6, 8.0, E=1.0, h=0.5)
        else:
            cfg = CarlemanConfig.holder(0.5, 0.6, 8.0, E=1.0, h=0.5)
        cert = certify(cfg, zero_model.envelope, 6.0)
        # the layout of the file from when k0 and m were fields of the config
        config = {"regularity": cfg.regularity, "beta": cfg.beta,
                  "alpha": cfg.alpha, "k": cfg.k, "k0": k0, "s": cfg.s,
                  "tau0": cfg.tau0, "ell": cfg.ell, "m": m, "E": cfg.E,
                  "h": cfg.h, "d": cfg.d, "r_min": cert.r_min,
                  "constants": cert.constants}
        doc = {"config": config, "C_used": cert.C_used,
               "families": [{"name": f.name, "min_margin": f.min_margin,
                             "argmin_r": f.argmin_r} for f in cert.families],
               "tau0_found": cfg.tau0, "passed": cert.passed,
               "search_history": []}
        assert cert.to_json() == json.dumps(doc, indent=2, sort_keys=True)

    def test_k0_and_m_of_a_file_are_derived_on_load(self, zero_model):
        cfg = CarlemanConfig.holder(0.5, 0.6, 8.0, E=1.0, h=0.5)
        text = certify(cfg, zero_model.envelope, 6.0).to_json()
        doc = json.loads(text)
        doc["config"].update(k0=0.0, m=7.0)  # the shallow k0 and no regime's m
        loaded = Certificate.from_json(json.dumps(doc))
        assert (loaded.config.k0, loaded.config.m) == (0.5, 2.0)
        assert loaded.config == cfg and loaded.to_json() == text
        del doc["config"]["k0"], doc["config"]["m"]
        assert Certificate.from_json(json.dumps(doc)).to_json() == text

    def test_save_load(self, tmp_path, zero_model):
        cfg = CarlemanConfig.lipschitz(3.0, 0.6, 8.0, min_ell(0.25, 3.0, 0.6),
                                       E=1.0, h=0.5, d=3)
        cert = certify(cfg, zero_model.envelope, 6.0)
        path = tmp_path / "certificate.json"
        cert.save(path)
        assert Certificate.load(path).to_json() == cert.to_json()
