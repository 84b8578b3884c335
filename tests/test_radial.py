import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import zgttrs

import resolvent_lab as rl
from resolvent_lab.carleman import (CarlemanConfig, GridSpec, build_phase,
                                    build_weight, min_ell, search_tau0)
from resolvent_lab.errors import InvalidInputError
from resolvent_lab.radial import (AngularSector, ResolventQuery,
                                  UniformGridSpec, assemble,
                                  assemble_conjugated, dense_weighted_norm,
                                  energy_audit, weighted_resolvent_norm,
                                  _lanczos_sector_norm)

from conftest import conjugate_check, dense_matrix, gaussian_bump


def small_grid(d):
    return UniformGridSpec(dr=0.05, r_max=18.0, r_min=(1.0 if d == 2 else 0.0),
                           tail_tol=0.05)


class TestSector:
    def test_eigenvalue_formula(self):
        sec = AngularSector(3, 2, 0.5)
        assert sec.lambda_value == pytest.approx(0.25 * (2 * 3 + 0.0))
        assert AngularSector(3, 0, 0.7).lambda_value == 0.0

    def test_d2_negative_only_at_zero(self):
        assert AngularSector(2, 0, 1.0).lambda_value == pytest.approx(-0.25)
        for l in (1, 2, 5):
            assert AngularSector(2, l, 1.0).lambda_value > 0

    def test_d3_nonnegative(self):
        for l in range(6):
            assert AngularSector(3, l, 0.3).lambda_value >= 0.0


class TestAssemble:
    def test_imaginary_part_is_exact(self, power_law_model):
        for sign in (1, -1):
            q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=sign, s=0.6,
                               potential=power_law_model)
            op = assemble(q, AngularSector(3, 0, 0.5), small_grid(3))
            mat = dense_matrix(op)
            assert_allclose(np.imag(np.diag(mat)), sign * 0.1, rtol=0, atol=0.0)
            off = mat - np.diag(np.diag(mat))
            assert_allclose(np.imag(off), 0.0, atol=0.0)
            assert_allclose(np.real(mat), np.real(mat).T, rtol=0, atol=0.0)

    def test_centrifugal_coefficient(self, zero_model):
        q = ResolventQuery(d=3, E=1.0, h=0.1, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        gs = UniformGridSpec(dr=0.01, r_max=18.0, tail_tol=0.05)
        op = assemble(q, AngularSector(3, 1, 0.1), gs)
        i = np.argmin(np.abs(op.grid - 2.0))
        r = op.grid[i]
        base = 2.0 * 0.01 / gs.dr ** 2 - 1.0
        assert op.diag_real[i] - base == pytest.approx(0.01 * 2.0 / r ** 2, rel=1e-12)
        assert 0.01 * 1 * (1 + 3 - 2) / 4.0 == pytest.approx(0.005)

    def test_dr_rule_enforced(self, zero_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        with pytest.raises(InvalidInputError, match="dr"):
            assemble(q, AngularSector(3, 0, 0.5), UniformGridSpec(dr=0.1, r_max=18.0, tail_tol=0.05))

    def test_r_max_rule_enforced(self, zero_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        with pytest.raises(InvalidInputError, match="r_max"):
            assemble(q, AngularSector(3, 0, 0.5), UniformGridSpec(dr=0.05, r_max=18.0, tail_tol=1e-6))

    def test_d2_needs_positive_r_min(self, zero_model):
        q = ResolventQuery(d=2, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        with pytest.raises(InvalidInputError, match="r_min"):
            assemble(q, AngularSector(2, 0, 0.5), UniformGridSpec(dr=0.05, r_max=18.0, tail_tol=0.05))

    def test_apply_consistent_with_continuum_operator(self, power_law_model):
        tf = gaussian_bump(4.0, 0.7)
        errs = []
        for dr in (0.02, 0.01):
            q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                               potential=power_law_model)
            gs = UniformGridSpec(dr=dr, r_max=18.0, tail_tol=0.05)
            op = assemble(q, AngularSector(3, 1, 0.5), gs)
            r = op.grid
            f = tf.value(r).astype(complex)
            applied = dense_matrix(op) @ f
            lam = op.sector.lambda_value
            exact = (-0.25 * tf.d2(r)
                     + (lam / r ** 2 - 1.0 + power_law_model(r) + 0.1j) * tf.value(r))
            inner = (r > 1.0) & (r < 8.0)
            errs.append(np.max(np.abs(applied - exact)[inner])
                        / np.max(np.abs(exact[inner])))
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_symmetry_identity(self, power_law_model):
        rng = np.random.default_rng(99)
        for sign in (1, -1):
            q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.5, sign=sign, s=0.6,
                               potential=power_law_model)
            mat = dense_matrix(assemble(q, AngularSector(3, 1, 0.5), small_grid(3)))
            n = mat.shape[0]
            for _ in range(20):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                lhs = 0.5 * np.vdot(f, f).real
                rhs = sign * np.imag(np.vdot(f, mat @ f))
                assert abs(lhs - rhs) <= 1e-12 * lhs


class TestConjugateCheck:
    def test_d3_reduces_to_plain_second_derivative(self):
        tf = gaussian_bump(4.0, 0.5)
        dr = 1e-3
        grid = np.arange(dr, 9.0, dr)
        err = conjugate_check(3, grid, tf)
        u = tf.value(grid)
        d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / dr ** 2
        bare = np.max(np.abs(d2 - tf.d2(grid[1:-1]))) / np.max(
            np.abs(tf.d2(grid[1:-1]) + 2.0 / grid[1:-1] * tf.d1(grid[1:-1])))
        # with no angular term the check measures exactly the stencil error
        assert err <= 5 * bare

    def test_d5_example_accuracy(self):
        tf = gaussian_bump(3.0, 1.0)
        grid = np.arange(1e-3, 8.0, 1e-3)
        assert conjugate_check(5, grid, tf) <= 1e-4

    def test_d2_angular_coefficient(self):
        sec = AngularSector(2, 0, 1.0)
        assert sec.lambda_value == pytest.approx(-0.25)
        # the reduction carries +1/4 / r^2 while the operator carries -1/4 / r^2
        tf = gaussian_bump(4.0, 0.5)
        dr = 1e-3
        grid = np.arange(dr, 9.0, dr)
        assert conjugate_check(2, grid, tf) <= 1e-4

    def test_order_two_convergence(self):
        tf = gaussian_bump(3.0, 1.0)
        errs = [conjugate_check(5, np.arange(dr, 8.0, dr), tf)
                for dr in (2e-3, 1e-3)]
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_support_guard(self):
        tf = gaussian_bump(1.0, 2.0)
        with pytest.raises(InvalidInputError, match="support"):
            conjugate_check(3, np.arange(0.01, 4.0, 0.01), tf)


class TestNorms:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_power_matches_dense_oracle(self, power_law_model, d, l, eps):
        q = ResolventQuery(d=d, E=1.0, h=0.5, eps=eps, sign=1, s=0.6,
                           potential=power_law_model)
        gs = small_grid(d)
        dense = dense_weighted_norm(q, AngularSector(d, l, 0.5), gs)
        op = assemble(q, AngularSector(d, l, 0.5), gs)
        value, _, res = _lanczos_sector_norm(op, 0)
        assert res <= 1e-6
        assert value == pytest.approx(dense, rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_oracle_matches_a_dense_solve(self, power_law_model, d):
        # criterion 5's grid; the oracle solves on the sector's zgttrf
        # factors, the reference by LU of the dense matrix
        gs = small_grid(d)
        for l in (0, 1, 2):
            for eps in (1e-2, 1e-4):
                for sign in (1, -1):
                    q = ResolventQuery(d=d, E=1.0, h=0.5, eps=eps, sign=sign,
                                       s=0.6, potential=power_law_model)
                    sec = AngularSector(d, l, 0.5)
                    op = assemble(q, sec, gs)
                    w = (op.grid + 1.0) ** (-q.s)
                    inv_w = sla.solve(dense_matrix(op), np.diag(w))
                    ref = sla.svdvals(w[:, None] * inv_w)[0]
                    assert dense_weighted_norm(q, sec, gs) == pytest.approx(
                        ref, rel=1e-15, abs=0)

    def test_norm_estimate_fields(self, power_law_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        est = weighted_resolvent_norm(q, small_grid(3), l_max=2, seed=0)
        assert est.residual <= 1e-6
        assert len(est.sector_values) == 3

    def test_threads_do_not_change_result(self, power_law_model):
        # each sector owns its Lanczos vectors, so threads share none
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        a = weighted_resolvent_norm(q, small_grid(3), l_max=3, seed=0, threads=1)
        for threads in (2, 3):
            b = weighted_resolvent_norm(q, small_grid(3), l_max=3, seed=0,
                                        threads=threads)
            # every field bit for bit: sector values, iterations and residual
            assert a == b

    def test_blas_threads_do_not_change_result(self):
        # the h=0.1 row of perfbench's readme_sweep config: 13,794 points,
        # long enough for OpenBLAS to split a vector reduction across threads
        script = textwrap.dedent("""
            import resolvent_lab as rl
            from resolvent_lab.scaling import GridPolicy
            policy = GridPolicy(tail_tol=1e-3, dr_factor=0.1, l_max=8)
            query = rl.ResolventQuery(h=0.1, eps=1e-2, sign=1, s=0.7,
                                      potential=rl.build_potential("barrier_well"))
            est = rl.weighted_resolvent_norm(query, policy.grid_for(query),
                                             policy.l_max, threads=2)
            print(repr(est.sector_values), est.iterations, repr(est.residual))
        """)
        src = os.path.dirname(os.path.dirname(rl.__file__))
        outputs = []
        for blas in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas,
                       OMP_NUM_THREADS=blas)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_doubling_eps_does_not_increase_norm(self, power_law_model):
        gs = small_grid(3)
        sec = AngularSector(3, 0, 0.5)
        for eps in (1e-2, 1e-3):
            q1 = ResolventQuery(d=3, E=1.0, h=0.5, eps=eps, sign=1, s=0.6,
                                potential=power_law_model)
            q2 = replace(q1, eps=2 * eps)
            d1 = dense_weighted_norm(q1, sec, gs)
            d2 = dense_weighted_norm(q2, sec, gs)
            assert d2 <= d1 * (1 + 1e-6)
            v1 = _lanczos_sector_norm(assemble(q1, sec, gs), 0)[0]
            v2 = _lanczos_sector_norm(assemble(q2, sec, gs), 0)[0]
            assert v2 <= v1 * (1 + 1e-6) + 2e-6 * v1

    def test_elliptic_sectors_monotone(self, power_law_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        gs = small_grid(3)
        values = [dense_weighted_norm(q, AngularSector(3, l, 0.5), gs)
                  for l in range(50, 55)]
        lam = AngularSector(3, 50, 0.5).lambda_value
        assert lam / gs.r_max ** 2 > q.E
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_free_norm_far_below_certified_scale(self, zero_model):
        q = ResolventQuery(d=3, E=1.0, h=0.1, eps=1e-6, sign=1, s=0.6,
                           potential=zero_model)
        gs = UniformGridSpec(dr=0.01, r_max=60.0, tail_tol=0.01)
        est = weighted_resolvent_norm(q, gs, l_max=4, seed=0)
        assert math.isfinite(est.g_value)
        assert est.g_value < 100.0 / q.h

    def test_grid_convergence_of_g(self, power_law_model):
        # at the default policy step h/20; halving it moves g by well under 1e-2
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        coarse_spec = UniformGridSpec(dr=0.025, r_max=18.0, tail_tol=0.05)
        coarse = weighted_resolvent_norm(q, coarse_spec, l_max=2, seed=0)
        fine_spec = UniformGridSpec(dr=0.0125, r_max=18.0, tail_tol=0.05)
        fine = weighted_resolvent_norm(q, fine_spec, l_max=2, seed=0)
        assert abs(fine.g_value - coarse.g_value) < 1e-2


class TestFactor:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from([2, 3]), l=st.integers(0, 3),
           eps=st.floats(1e-4, 1e-1), sign=st.sampled_from([1, -1]),
           c=st.floats(0.01, 3.0), delta=st.floats(0.1, 3.0))
    def test_factor_solves_and_norms_match_dense(self, d, l, eps, sign, c, delta):
        model = rl.build_potential("power_law", {"c": c, "delta": delta})
        gs = small_grid(d)
        sec = AngularSector(d, l, 0.5)
        q = ResolventQuery(d=d, E=1.0, h=0.5, eps=eps, sign=sign, s=0.6,
                           potential=model)
        op = assemble(q, sec, gs)
        assert op.grid.size <= 400
        mat = dense_matrix(op)
        lu = op._lu()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(op.grid.size) + 1j * rng.standard_normal(op.grid.size)
        for trans, m in (("N", mat), ("C", mat.conj().T)):
            ref = np.linalg.solve(m, b)
            rel = np.linalg.norm(zgttrs(*lu, b, trans=trans)[0] - ref) / np.linalg.norm(ref)
            # the dense LU reference carries a forward error proportional to
            # cond(A), which reaches about 1e6 at eps = 1e-4
            assert rel <= 1e-12 * max(1.0, np.linalg.cond(m) / 1e3)
        value, _, residual = _lanczos_sector_norm(op, 0)
        dense = dense_weighted_norm(q, sec, gs)
        assert value == pytest.approx(dense, rel=1e-6)
        # a Ritz value lies below the top eigenvalue of the Gram operator, by
        # at most its relative residual; the slack covers rounding in both
        gap = (dense ** 2 - value ** 2) / value ** 2
        assert -1e-10 <= gap <= residual + 1e-10
        mirrored = _lanczos_sector_norm(assemble(replace(q, sign=-sign), sec, gs), 0)[0]
        assert mirrored == pytest.approx(value, rel=1e-10)


@pytest.fixture(scope="module")
def audit_setup(weak_holder_class_model):
    model = weak_holder_class_model
    s = 0.51
    cfg = CarlemanConfig.holder(0.5, s, 4.0, min_ell(1.0, 4.0, s), E=1.0,
                                h=0.5, d=3, k=1.0)
    cert = search_tau0(cfg, model.envelope, 6.0, GridSpec(), 4096.0)
    cfg = cert.config
    q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.02, sign=1, s=s, potential=model)
    r_max = max(4.0 * cfg.a, 1e4 ** (1.0 / (2.0 * s)) - 1.0)
    gs = UniformGridSpec(dr=0.05, r_max=r_max, tail_tol=1e-4)
    weight, phase = build_weight(cfg), build_phase(cfg)
    smoothed = rl.mollify(model, rl.bump_kernel(), cfg.theta)
    op = assemble_conjugated(q, AngularSector(3, 0, 0.5), gs, phase)
    return model, cfg, q, gs, weight, phase, smoothed, op


class TestEnergyAudit:
    def test_zero_solution(self, audit_setup):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        n = gs.points().size
        trace = energy_audit(np.zeros(n, dtype=complex), q, cfg, weight, phase,
                             np.zeros(n, dtype=complex), gs,
                             v_long=smoothed.evaluate)
        assert_allclose(trace.flux_residuals, 0.0)
        # F vanishes with u, so does every difference of mu F
        assert trace.integral_value == trace.integral_scale == 0.0

    def test_certified_flux_inequality(self, audit_setup):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        r = op.grid
        rhs = np.exp(-((r - 6.0)) ** 2).astype(complex)
        u = op.solve(rhs)
        trace = energy_audit(u, q, cfg, weight, phase, rhs, gs,
                             v_long=smoothed.evaluate)
        tol = 10.0 * gs.dr * trace.residual_tolerance
        assert np.all(trace.flux_residuals >= -tol)
        assert abs(trace.integral_value) <= 1e-6 * trace.integral_scale

    def test_random_rhs_flux_inequality(self, audit_setup):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        rng = np.random.default_rng(42)
        n = op.grid.size
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = op.solve(rhs)
        trace = energy_audit(u, q, cfg, weight, phase, rhs, gs,
                             v_long=smoothed.evaluate)
        tol = 10.0 * gs.dr * trace.residual_tolerance
        assert np.all(trace.flux_residuals >= -tol)

    def test_rejects_bad_solution(self, audit_setup):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        r = op.grid
        rhs = np.exp(-((r - 6.0)) ** 2).astype(complex)
        u = op.solve(rhs) * 1.01
        with pytest.raises(InvalidInputError, match="residual"):
            energy_audit(u, q, cfg, weight, phase, rhs, gs,
                         v_long=smoothed.evaluate)
