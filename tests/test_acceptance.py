"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import resolvent_lab as rl
from resolvent_lab.carleman import (CarlemanConfig, GridSpec, build_phase,
                                    build_weight, certify, min_ell,
                                    search_tau0, search_tau0_with_fallback)
from resolvent_lab.errors import SearchExhaustedError
from resolvent_lab.radial import (AngularSector, ResolventQuery,
                                  UniformGridSpec, assemble,
                                  assemble_conjugated, dense_weighted_norm,
                                  energy_audit, _lanczos_sector_norm)
from resolvent_lab.scaling import (GridPolicy, fit_models, omega_map,
                                   psi_map, sweep)

from conftest import (H_SWEEP, conjugate_check, dense_matrix, gaussian_bump,
                      growth_shape, measured)

THREADS = 2


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_mollifier_ratio_stability(kernel):
    start = time.time()
    kinks = [(0.5 + j) * math.pi / 2.0 for j in range(7)]
    offs = np.concatenate([-np.geomspace(1e-5, 0.5, 50), [0.0],
                           np.geomspace(1e-5, 0.5, 50)])
    extra = np.concatenate([z + offs for z in kinks])
    grid = np.unique(np.concatenate([np.linspace(0.0, 10.0, 9401),
                                     extra[(extra >= 0) & (extra <= 10.0)]]))
    spreads = []
    for alpha in (0.3, 0.5, 0.8):
        model = rl.build_potential("holder_bump",
                                   {"c": 1.0, "alpha": alpha, "freq": 2.0})
        err, der = [], []
        for theta in (1e-1, 1e-2, 1e-3):
            smoothed = rl.mollify(model, kernel, theta)
            err.append(smoothed.error_ratio(grid))
            der.append(smoothed.deriv_ratio(grid))
        spread_err = max(err) / min(err)
        spread_der = max(der) / min(der)
        assert spread_err <= 2.0, f"alpha={alpha}: error spread {spread_err}"
        assert spread_der <= 2.0, f"alpha={alpha}: derivative spread {spread_der}"
        spreads.append((alpha, spread_err, spread_der))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"ratio spreads {[(a, round(e, 3), round(d, 3)) for a, e, d in spreads]} "
              f"in {elapsed:.1f}s")


def test_criterion_2_lipschitz_certification():
    zero = rl.build_potential("zero")
    families = [("zero", zero, 3.0)]
    for beta in (1.5, 2.0, 3.0):
        model = rl.build_potential("power_law", {"c": 0.5, "delta": beta - 1.0})
        families.append((f"power_law(beta={beta})", model, beta))
    results = []
    for name, model, beta in families:
        k = 0.25 * min(1.0, beta - 1.0)
        ell = min_ell(k, beta, 0.6)
        for h in (0.05, 0.1, 0.5):
            start = time.time()
            cfg = CarlemanConfig.lipschitz(beta, 0.6, 4.0, ell, E=1.0, h=h, d=3)
            cert = search_tau0(cfg, model.envelope, 6.0, GridSpec(), 4096.0)
            assert cert.passed and cert.tau0_found <= 2 ** 10 * 4
            for fam in cert.families:
                assert fam.min_margin >= 0.0
            finer = certify(cert.config, model.envelope, 6.0,
                            GridSpec(points_per_decade=400))
            assert finer.passed
            elapsed = time.time() - start
            assert elapsed < 30.0, f"{name} h={h} took {elapsed:.1f}s"
            results.append((name, h, cert.tau0_found))
    report(2, f"{len(results)} configurations certified, "
              f"tau0 max {max(r[2] for r in results):g}")


def test_criterion_3_two_dimensional_fallback(holder_model):
    C = rl.recommended_audit_constant(holder_model)
    shallow_tau = []
    for h in (0.1, 0.5, 0.9):
        cfg = CarlemanConfig.holder(0.5, 0.7, 4.0, min_ell(0.5, 4.0, 0.7),
                                    E=1.0, h=h, d=2, k=0.5)
        cert = search_tau0(cfg, holder_model.envelope, C, GridSpec(), 4096.0,
                           r_min=1.0)
        assert cert.passed
        margins = {f.name: f.min_margin for f in cert.families}
        assert margins["carleman_2d"] >= 0.0
        shallow_tau.append(cert.tau0_found)
    steep = CarlemanConfig.holder(0.5, 0.7, 4.0, min_ell(1.0, 4.0, 0.7),
                                  E=1.0, h=0.5, d=2, k=1.0)
    results = {}
    for h in (0.9, 0.5, 0.1, 0.05, 0.02):
        try:
            search_tau0(replace(steep, h=h), holder_model.envelope, C,
                        GridSpec(), 64.0, r_min=1.0)
            results[h] = True
        except SearchExhaustedError:
            results[h] = False
    h0 = max((h for h, ok in results.items() if ok), default=None)
    assert h0 is not None, "steep pair never certified"
    assert any(not ok for ok in results.values()), "steep pair never failed"
    for h, ok in results.items():
        if h > h0:
            assert not ok
            cert, fellback = search_tau0_with_fallback(
                replace(steep, h=h), holder_model.envelope, C, GridSpec(),
                64.0, r_min=1.0)
            assert fellback and cert.passed
    report(3, f"shallow pair tau0={shallow_tau}; steep pair holds up to h0={h0}, "
              f"fallback covers h>{h0}")


def test_criterion_4_discrete_operator_fidelity(power_law_model):
    tf = gaussian_bump(3.0, 1.0)
    errs = [conjugate_check(5, np.arange(dr, 8.0, dr), tf)
            for dr in (2e-3, 1e-3)]
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9

    rng = np.random.default_rng(314)
    worst = 0.0
    gs = UniformGridSpec(dr=0.05, r_max=18.0, tail_tol=0.05)
    for sign in (1, -1):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.5, sign=sign, s=0.6,
                           potential=power_law_model)
        mat = dense_matrix(assemble(q, AngularSector(3, 1, 0.5), gs))
        n = mat.shape[0]
        for _ in range(50):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = q.eps * np.vdot(f, f).real
            rhs = sign * np.imag(np.vdot(f, mat @ f))
            worst = max(worst, abs(lhs - rhs) / lhs)
    assert worst <= 1e-12
    report(4, f"conjugation order {order:.3f}, symmetry identity to {worst:.2e}")


def test_criterion_5_norm_oracle_equivalence(power_law_model):
    worst = 0.0
    count = 0
    for d in (2, 3):
        gs = UniformGridSpec(dr=0.05, r_max=18.0,
                             r_min=(1.0 if d == 2 else 0.0), tail_tol=0.05)
        assert gs.points().size <= 400
        for l in (0, 1, 2):
            for eps in (1e-2, 1e-4):
                q = ResolventQuery(d=d, E=1.0, h=0.5, eps=eps, sign=1, s=0.6,
                                   potential=power_law_model)
                dense = dense_weighted_norm(q, AngularSector(d, l, 0.5), gs)
                op = assemble(q, AngularSector(d, l, 0.5), gs)
                value, _, _ = _lanczos_sector_norm(op, 0)
                rel = abs(value - dense) / dense
                assert rel <= 1e-6
                worst = max(worst, rel)
                count += 1
    report(5, f"{count} instances agree with the dense oracle to {worst:.2e}")


def test_criterion_6_bound_domination(barrier_model, holder_model,
                                      barrier_certificate, holder_certificate):
    start = time.time()
    policy = GridPolicy(l_max=8)
    outcomes = []
    for model, cert in ((barrier_model, barrier_certificate),
                        (holder_model, holder_certificate)):
        assert cert.passed
        # the single certificate recomposes across h; verify each h directly
        for h in H_SWEEP:
            per_h = certify(replace(cert.config, h=h),
                            model.envelope, cert.C_used)
            assert per_h.passed, f"{model.name} certificate fails at h={h}"
        template = ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.7,
                                  potential=model)
        result = sweep(template, H_SWEEP, [1e-2, 1e-4], policy,
                       certificate=cert, signs=(1, -1), seed=2024,
                       threads=THREADS)
        assert len(result.rows) == len(H_SWEEP) * 2 * 2
        assert all(row.status == "ok" for row in result.rows)
        assert result.bound_respected is True
        margin = min(row.g_bound - row.g_measured for row in result.rows)
        outcomes.append((model.name, margin))
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(6, f"all rows dominated; min log-margins "
              f"{[(n, f'{m:.3g}') for n, m in outcomes]} in {elapsed:.0f}s")


def test_criterion_7_scaling_shape_recovery(free_sweep):
    h = np.geomspace(0.3, 0.02, 8)
    for kind in ("lipschitz", "holder", "linfty"):
        g = 2.5 * growth_shape(kind, h) + 0.7
        outcome = fit_models(measured(h, g),
                             ["lipschitz", ("holder", 0.5), "linfty"])
        match = [f for f in outcome.fits if f.kind == kind][0]
        assert match.C == pytest.approx(2.5, rel=1e-8)

    free = fit_models(free_sweep, ["lipschitz", ("holder", 0.5), "linfty"])
    assert free.best.kind == "lipschitz"
    report(7, f"self-fits recover C to 1e-8; free sweep selects "
              f"{free.best.kind} (C={free.best.C:.3g})")


def test_criterion_8_corollary_maps():
    psi = psi_map("lipschitz", [10.0], 1.0).psi[0]
    assert abs(psi - 10.0) <= 1e-12
    om_lip = omega_map("lipschitz", [math.e ** 10])[0]
    assert abs(om_lip - 0.1) <= 1e-12
    om_rad = omega_map("linfty", [math.e ** 16], radial=True)[0]
    assert abs(om_rad - 16.0 ** (-0.75)) <= 1e-12
    report(8, f"psi(10)={psi}, omega(e^10)={om_lip}, radial omega(e^16)={om_rad}")


def test_criterion_9_energy_audit(weak_holder_class_model):
    model = weak_holder_class_model
    s = 0.51
    cfg = CarlemanConfig.holder(0.5, s, 4.0, min_ell(1.0, 4.0, s), E=1.0,
                                h=0.5, d=3, k=1.0)
    cert = search_tau0(cfg, model.envelope, 6.0, GridSpec(), 4096.0)
    assert cert.passed
    cfg = cert.config
    q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.02, sign=1, s=s,
                       potential=model)
    r_max = max(4.0 * cfg.a, 1e4 ** (1.0 / (2.0 * s)) - 1.0)
    gs = UniformGridSpec(dr=0.05, r_max=r_max, tail_tol=1e-4)
    weight, phase = build_weight(cfg), build_phase(cfg)
    smoothed = rl.mollify(model, rl.bump_kernel(), cfg.theta)
    op = assemble_conjugated(q, AngularSector(3, 0, 0.5), gs, phase)
    r = op.grid
    rhs = np.exp(-((r - 6.0)) ** 2).astype(complex)
    u = op.solve(rhs)
    trace = energy_audit(u, q, cfg, weight, phase, rhs, gs,
                         v_long=smoothed.evaluate)
    tol = 10.0 * gs.dr * trace.residual_tolerance
    assert np.all(trace.flux_residuals >= -tol)
    integral_rel = abs(trace.integral_value) / trace.integral_scale
    assert integral_rel <= 1e-6
    worst = float(np.min(trace.flux_residuals / tol))
    report(9, f"flux inequality holds at {r.size} points "
              f"(worst residual/tolerance {worst:.2e}), "
              f"integral identity at {integral_rel:.2e}")
