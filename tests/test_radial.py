import cmath
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import zgttrf, zgttrs

import resolvent_lab as rl
from resolvent_lab import radial
from resolvent_lab.carleman import (CarlemanConfig, GridSpec, build_phase,
                                    build_weight, certify, min_ell, search_tau0)
from resolvent_lab.errors import (AccuracyError, EvaluationError,
                                  InvalidConfigError, InvalidInputError)
from resolvent_lab.radial import (_BLOCK_ROWS, AngularSector, ResolventQuery,
                                  UniformGridSpec, assemble,
                                  assemble_conjugated, dense_weighted_norm,
                                  energy_audit, weighted_resolvent_norm,
                                  _backward_error, _lanczos_sector_norm,
                                  _start_vector, _top_ritz_pair,
                                  _weighted_terms)
from resolvent_lab.scaling import GridPolicy

from conftest import (boundary_entry, buffers, conjugate_check, dense_matrix,
                      formed_band, gaussian_bump, interior_diagonal, lift,
                      main_diagonal,
                      nan_on, sector_norm, weighted_diagonals, weighted_matrix,
                      whole_array_audit, whole_array_backward_error)


# c in the dense oracle's error bound c eps cond(B), relative to sigma_min(B)
ORACLE_C = 8.0


def small_grid(d):
    return UniformGridSpec(dr=0.05, r_max=18.0, r_min=(1.0 if d == 2 else 0.0),
                           tail_tol=0.05)


def criterion_5_sectors(model, d):
    """(query, sector, operator) of the 12 criterion-5 sectors in dimension d, both signs."""
    for l in (0, 1, 2):
        for eps in (1e-2, 1e-4):
            for sign in (1, -1):
                q = ResolventQuery(d=d, E=1.0, h=0.5, eps=eps, sign=sign, s=0.6,
                                   potential=model)
                sec = AngularSector(d, l, 0.5)
                yield q, sec, assemble(q, sec, small_grid(d))


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

    @pytest.mark.parametrize("d,l,name", [
        (3, 1.5, "l"), (3, True, "l"), (3, -1, "l"), (3, "1", "l"),
        (2.5, 0, "d"), (1, 0, "d"), (True, 0, "d"), (np.float64(3.0), 0, "d"),
    ])
    def test_d_and_l_must_be_integers_in_range(self, d, l, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must"):
            AngularSector(d, l, 0.5)


class TestAssemble:
    def test_imaginary_part_is_exact(self, power_law_model):
        for sign in (1, -1):
            q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=sign, s=0.6,
                               potential=power_law_model)
            op = assemble(q, AngularSector(3, 0, 0.5), small_grid(3))
            mat = dense_matrix(op)
            # sign eps at every node, plus the transparent end's absorption
            assert_allclose(np.imag(np.diag(mat))[:-1], sign * 0.1, rtol=0, atol=0.0)
            assert np.imag(np.diag(mat))[-1] == sign * 0.1 + np.imag(boundary_entry(op))
            assert sign * np.imag(boundary_entry(op)) > 0
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
        buf = np.empty(op.grid.size, complex)
        diag = radial._diagonal(q, op.sector, op.dr, op.grid, op.v, buf, buf.imag)
        assert diag[i].real - base == pytest.approx(0.01 * 2.0 / r ** 2, rel=1e-12)
        assert 0.01 * 1 * (1 + 3 - 2) / 4.0 == pytest.approx(0.005)

    def test_dr_rule_enforced(self, zero_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        with pytest.raises(InvalidInputError, match="dr"):
            assemble(q, AngularSector(3, 0, 0.5), UniformGridSpec(dr=0.1, r_max=18.0, tail_tol=0.05))

    def test_grid_policy_falls_back_to_r_tail(self, zero_model, barrier_model):
        # with a transparent end the box need not hold the weight's tail
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        assemble(q, AngularSector(3, 0, 0.5), UniformGridSpec(dr=0.05, r_max=18.0, tail_tol=1e-6))
        for tol in (1e-3, 0.05):
            policy = GridPolicy(tail_tol=tol, l_max=2)
            r_tail = tol ** (-1.0 / 1.2) - 1.0
            assert policy.grid_for(q).r_max == r_tail
        # the free potential never traps, so its short box holds ln(1/tail_tol)
        # absorption lengths h sqrt(E)/eps = 5: 34.54 at 1e-3, where
        # 3 * 34.54 < r_tail = 315.2; at 0.05, 3 * 14.98 >= r_tail = 11.14
        short = GridPolicy(tail_tol=1e-3, l_max=2).short_grid(q)
        assert short.r_max == pytest.approx(5.0 * math.log(1e3), rel=1e-15)
        assert GridPolicy(tail_tol=0.05, l_max=2).short_grid(q) is None
        # the barrier traps; r_V = 8.915 at 1e-3, and at 0.05 its 2 r_c = 13.9
        # does not fall short of r_tail = 11.1, so only the fallback box is left
        trapped = replace(q, potential=barrier_model)
        short = GridPolicy(tail_tol=1e-3, l_max=2).short_grid(trapped)
        assert short.r_max == pytest.approx(8.915, abs=1e-12) and short.dr == 0.025
        assert GridPolicy(tail_tol=0.05, l_max=2).short_grid(trapped) is None

    @pytest.mark.parametrize("sector", [AngularSector(2, 0, 0.5),
                                        AngularSector(3, 0, 0.25)])
    def test_sector_must_share_the_query_d_and_h(self, zero_model, sector):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                           potential=zero_model)
        with pytest.raises(InvalidInputError, match="disagree on d or h"):
            assemble(q, sector, small_grid(3))

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
            op = assemble(q, AngularSector(3, 1, 0.5), small_grid(3))
            mat = dense_matrix(op)
            n = mat.shape[0]
            for _ in range(20):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                # eps |f|**2 plus the transparent end's term at the last node
                lhs = (0.5 * np.vdot(f, f).real
                       + sign * np.imag(boundary_entry(op)) * abs(f[-1]) ** 2)
                rhs = sign * np.imag(np.vdot(f, mat @ f))
                assert abs(lhs - rhs) <= 1e-12 * lhs


class TestDomain:
    @pytest.mark.parametrize("change,message", [
        (dict(d=2.5), "d must be an integer"),
        (dict(d=3.5), "d must be an integer"),
        (dict(E=math.inf), "E must be positive and finite"),
        (dict(s=math.inf), "s must be finite"),
        # a bool is not a number, though True == 1 lies in each range
        (dict(E=True), "E must be a number, got True"),
        (dict(h=True), "h must be a number, got True"),
        (dict(s=True), "s must be a number, got True"),
        (dict(h="0.5"), "h must be a number, got '0.5'"),
    ])
    def test_query_and_config_share_one_parameter_domain(self, zero_model, change,
                                                         message):
        point = {**dict(d=3, E=1.0, h=0.5, s=0.6), **change}
        with pytest.raises(InvalidInputError, match=message):
            ResolventQuery(eps=0.1, sign=1, potential=zero_model, **point)
        with pytest.raises(InvalidConfigError, match=message):
            CarlemanConfig.lipschitz(3.0, point.pop("s"), 4.0, **point)

    @pytest.mark.parametrize("eps,sign,message", [
        (0.0, 1, r"eps must lie in \(0, 1\], got 0.0"),
        (1.5, 1, r"eps must lie in \(0, 1\], got 1.5"),
        (math.nan, 1, r"eps must lie in \(0, 1\], got nan"),
        (0.1, 0, "sign must be"),
        (0.1, 2, "sign must be"),
        (True, 1, "eps must be a number, got True"),
        (0.1, True, "sign must be"),
    ])
    def test_query_needs_eps_in_the_unit_interval_and_a_sign(self, zero_model,
                                                             eps, sign, message):
        with pytest.raises(InvalidInputError, match=message):
            ResolventQuery(h=0.5, eps=eps, sign=sign, s=0.6, potential=zero_model)

    @pytest.mark.parametrize("d,r_min", [(3, -1.0), (3, math.nan), (3, math.inf),
                                         (2, 0.0), (3, True)])
    def test_every_radial_range_takes_one_inner_radius_rule(self, zero_model, d,
                                                           r_min):
        query = ResolventQuery(d=d, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                               potential=zero_model)
        config = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, h=0.5, d=d)
        # the grid spec rejects every r_min but d = 2's zero when it is built
        for call in (lambda: assemble(query, AngularSector(d, 0, 0.5),
                                      UniformGridSpec(dr=0.05, r_max=18.0,
                                                      r_min=r_min, tail_tol=0.05)),
                     lambda: certify(config, zero_model.envelope, 6.0, r_min=r_min),
                     lambda: GridPolicy(tail_tol=0.05, r_min=r_min).grid_for(query)):
            with pytest.raises(InvalidInputError, match="r_min"):
                call()

    @pytest.mark.parametrize("d,r_min", [(2, 1.0), (3, 0.0)])
    def test_inner_radius_defaults_to_one_in_dimension_two(self, zero_model, d,
                                                           r_min):
        query = ResolventQuery(d=d, E=1.0, h=0.5, eps=0.1, sign=1, s=0.6,
                               potential=zero_model)
        config = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, h=0.5, d=d)
        assert GridPolicy(tail_tol=0.05).grid_for(query).r_min == r_min
        assert certify(config, zero_model.envelope, 6.0).r_min == r_min

    @pytest.mark.parametrize("cls,kwargs,field", [
        (UniformGridSpec, dict(dr=0.0, r_max=18.0), "dr"),
        (UniformGridSpec, dict(dr=math.nan, r_max=18.0), "dr"),
        (UniformGridSpec, dict(dr=0.05, r_max=math.nan), "r_max"),
        (UniformGridSpec, dict(dr=0.05, r_max=math.inf), "r_max"),
        (UniformGridSpec, dict(dr=0.05, r_max=18.0, tail_tol=math.nan), "tail_tol"),
        (GridPolicy, dict(r_max_floor=math.nan), "r_max_floor"),
        (GridPolicy, dict(r_max_floor=-5.0), "r_max_floor"),
        (GridPolicy, dict(r_max_floor=math.inf), "r_max_floor"),
        (GridPolicy, dict(tail_tol=math.inf), "tail_tol"),
        (GridPolicy, dict(l_max=2.5), "l_max"),
        (GridPolicy, dict(l_max=True), "l_max"),
        (GridSpec, dict(points_per_decade=math.inf), "points_per_decade"),
        (GridSpec, dict(points_per_decade=200.5), "points_per_decade"),
        (GridSpec, dict(span_factor=math.nan), "span_factor"),
        # appended last so the other cases keep their ids
        (UniformGridSpec, dict(dr=0.05, r_max=18.0, r_min=None), "r_min"),
        (UniformGridSpec, dict(dr=0.05, r_max=18.0, r_min=math.nan), "r_min"),
        (UniformGridSpec, dict(dr=0.05, r_max=18.0, r_min=math.inf), "r_min"),
        (GridPolicy, dict(r_min=-1.0), "r_min"),
        (GridPolicy, dict(r_min=math.nan), "r_min"),
        (GridPolicy, dict(r_min=math.inf), "r_min"),
        (GridPolicy, dict(r_min="1"), "r_min"),
    ])
    def test_grid_values_reject_non_finite_and_ill_typed_fields(self, cls, kwargs,
                                                                field):
        with pytest.raises(InvalidInputError, match=f"^{field} must"):
            cls(**kwargs)

    # True == 1 lies in each range, and UniformGridSpec(dr=True, r_max=5.0)
    # once gave the points [1, 2, 3]
    @pytest.mark.parametrize("cls,kwargs,field", [
        (UniformGridSpec, dict(dr=True, r_max=5.0), "dr"),
        (UniformGridSpec, dict(dr=0.05, r_max=True), "r_max"),
        (UniformGridSpec, dict(dr=0.05, r_max=18.0, r_min=True), "r_min"),
        (UniformGridSpec, dict(dr=0.05, r_max=18.0, tail_tol=True), "tail_tol"),
        (GridPolicy, dict(r_min=True), "r_min"),
        (GridPolicy, dict(r_min=np.True_), "r_min"),
        (GridPolicy, dict(tail_tol=True), "tail_tol"),
        (GridPolicy, dict(r_max_floor=True), "r_max_floor"),
        (GridPolicy, dict(dr_factor=True), "dr_factor"),
    ])
    def test_grid_values_reject_a_bool_as_a_number(self, cls, kwargs, field):
        with pytest.raises(InvalidInputError,
                           match=rf"^{field} must be a number, got (np\.)?True_?$"):
            cls(**kwargs)

    @pytest.mark.parametrize("r_min,r_max", [(0.0, 0.15), (1.0, 1.1), (0.0, -5.0)])
    def test_grid_with_fewer_than_three_interior_points_rejected(self, r_min,
                                                                r_max):
        with pytest.raises(InvalidInputError,
                           match=f"^r_max={r_max:g} must leave at least 3 interior "
                                 f"points past r_min={r_min:g} at dr=0.05$"):
            UniformGridSpec(dr=0.05, r_max=r_max, r_min=r_min)
        # three interior points are enough
        assert UniformGridSpec(dr=0.05, r_max=r_min + 0.2, r_min=r_min).points().size == 3


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
        value, _, res = sector_norm(op)
        assert res <= 1e-6
        assert value == pytest.approx(dense, rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_oracle_matches_a_dense_solve(self, power_law_model, d):
        # criterion 5's grid; the oracle takes sigma_min(B) from B's real
        # embedding, the reference inverts the dense B by LU.  Both are
        # backward stable, so they agree to c eps cond(B) (Weyl); c = 8
        # covers the 0.23 observed
        gs = small_grid(d)
        for q, sec, op in criterion_5_sectors(power_law_model, d):
            b = weighted_matrix(op)
            ref = sla.svdvals(sla.solve(b, np.eye(op.grid.size)))[0]
            tol = ORACLE_C * np.finfo(float).eps * np.linalg.cond(b)
            assert dense_weighted_norm(q, sec, gs) == pytest.approx(ref, rel=tol, abs=0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_oracle_matches_the_unweighted_formula(self, power_law_model, d):
        # the same 12 sectors per d against W A^-1 W from LU of the dense A,
        # to the same c eps cond(B)
        gs = small_grid(d)
        for q, sec, op in criterion_5_sectors(power_law_model, d):
            w = (op.grid + 1.0) ** (-q.s)
            ref = sla.svdvals(w[:, None] * sla.solve(dense_matrix(op), np.diag(w)))[0]
            tol = ORACLE_C * np.finfo(float).eps * np.linalg.cond(weighted_matrix(op))
            assert dense_weighted_norm(q, sec, gs) == pytest.approx(ref, rel=tol, abs=0)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 12), sign=st.sampled_from([1, -1]),
           seed=st.integers(0, 2 ** 31))
    def test_real_embedding_has_eigenvalues_plus_minus_the_singular_values(
            self, n, sign, seed):
        # B = X + iY complex symmetric tridiagonal, Y diagonal of one sign as
        # in B; K = [[X, Y], [Y, -X]] interleaved (x_1, y_1, x_2, y_2, ...)
        rng = np.random.default_rng(seed)
        x, off = rng.standard_normal(n), rng.standard_normal(n - 1)
        y = sign * rng.uniform(1e-3, 1.0, n)
        b = np.diag(x + 1j * y) + np.diag(off, 1) + np.diag(off, -1)
        k = np.zeros((2 * n, 2 * n))
        k[0::2, 0::2] = b.real
        k[1::2, 1::2] = -b.real
        k[0::2, 1::2] = k[1::2, 0::2] = np.diag(y)
        sv = sla.svdvals(b)
        weyl = ORACLE_C * np.finfo(float).eps * sv[0]
        assert_allclose(np.linalg.eigvalsh(k), np.concatenate([-sv, sv[::-1]]),
                        rtol=0, atol=weyl)
        # the band the oracle hands eigvals_banded: index n is sigma_min(B)
        ab = np.array([np.diag(k, -j).tolist() + [0.0] * j for j in range(3)])
        assert not np.any(k[np.tril_indices(2 * n, -3)])
        got = sla.eigvals_banded(ab, lower=True, select="i", select_range=(n, n))
        assert got[0] == pytest.approx(sv[-1], rel=0, abs=weyl)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_band_parts_are_the_real_products(self, power_law_model, sign):
        # complex times real is exact in each part, so the oracle embeds
        # x = Re(A's diagonal) (r+1)**(2s) and y = Im(A's diagonal) (r+1)**(2s)
        # bit for bit; y is sign eps (r+1)**(2s) but at the transparent end
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-4, sign=sign, s=0.6,
                           potential=power_law_model)
        op = assemble(q, AngularSector(3, 1, 0.5), small_grid(3))
        lift2, off = _weighted_terms(q, op.dr, op.grid)
        _, d, band_off = formed_band(op)
        assert d.real.tobytes() == (main_diagonal(op).real * lift2).tobytes()
        assert d.imag.tobytes() == (main_diagonal(op).imag * lift2).tobytes()
        assert d.imag[:-1].tobytes() == (lift2[:-1] * (sign * 1e-4)).tobytes()
        assert band_off.real.tobytes() == off.tobytes() and not band_off.imag.any()

    @pytest.mark.parametrize("entry", ["lanczos", "oracle"])
    def test_non_finite_potential_is_an_evaluation_error(self, power_law_model,
                                                         entry):
        # Lanczos met a non-finite vector and eigvals_banded raised a bare
        # ValueError; both now stop where the grid evaluates V
        model = replace(power_law_model, evaluate=nan_on(power_law_model.evaluate))
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=model)
        with pytest.raises(EvaluationError,
                           match=r"^potential power_law not finite at r=3\.05$"):
            if entry == "lanczos":
                weighted_resolvent_norm(q, small_grid(3), l_max=1)
            else:
                dense_weighted_norm(q, AngularSector(3, 1, 0.5), small_grid(3))

    def test_dense_oracle_never_touches_the_factor(self, power_law_model,
                                                   monkeypatch):
        # criterion 5 checks the factor, both solves and the recurrence
        # against an oracle that runs none of them
        expected = [(q, sec, sector_norm(op)[0])
                    for q, sec, op in criterion_5_sectors(power_law_model, 3)]

        def refused(*args, **kwargs):
            raise AssertionError("the oracle reached the sector factor")

        monkeypatch.setattr(radial.DiscreteOperator, "_factor", refused)
        monkeypatch.setattr(radial, "zgttrf", refused)
        monkeypatch.setattr(radial, "zgttrs", refused)
        for q, sec, value in expected:
            assert dense_weighted_norm(q, sec, small_grid(3)) == pytest.approx(
                value, rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.0, -1e-18, math.nan])
    def test_dense_oracle_rejects_a_non_positive_sigma_min(self, power_law_model,
                                                           monkeypatch, sigma):
        q, sec, _ = next(criterion_5_sectors(power_law_model, 3))
        monkeypatch.setattr(radial.sla, "eigvals_banded",
                            lambda *args, **kwargs: np.array([sigma]))
        with pytest.raises(AccuracyError, match="no positive sigma_min"):
            dense_weighted_norm(q, sec, small_grid(3))

    def test_norm_estimate_fields(self, power_law_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        est = weighted_resolvent_norm(q, small_grid(3), l_max=2, seed=0)
        assert est.residual <= 1e-6
        assert len(est.sector_values) == 3

    def test_threads_do_not_change_result(self, power_law_model):
        # each worker owns its Lanczos vectors, so threads share none
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        a = weighted_resolvent_norm(q, small_grid(3), l_max=3, seed=0, threads=1)
        for threads in (2, 3):
            b = weighted_resolvent_norm(q, small_grid(3), l_max=3, seed=0,
                                        threads=threads)
            # every field bit for bit: sector values, iterations and residual
            assert a == b

    def test_sector_values_depend_on_neither_l_max_nor_threads(self,
                                                               power_law_model):
        # one start vector and one weight per query, read by every sector
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        wide = weighted_resolvent_norm(q, small_grid(3), l_max=5, seed=3,
                                       threads=1).sector_values
        for threads in (1, 2, 3):
            narrow = weighted_resolvent_norm(q, small_grid(3), l_max=2, seed=3,
                                             threads=threads)
            assert narrow.sector_values == wide[:3]

    def test_start_vector_drawn_once_per_call(self, power_law_model,
                                              monkeypatch):
        draws = []

        def counted(n, seed):
            draws.append((n, seed))
            return _start_vector(n, seed)

        monkeypatch.setattr(radial, "_start_vector", counted)
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        for threads in (1, 2):
            weighted_resolvent_norm(q, small_grid(3), l_max=4, seed=5,
                                    threads=threads)
        assert draws == [(small_grid(3).points().size, 5)] * 2

    def test_start_vector_is_read_only_to_the_sectors(self, power_law_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        op = assemble(q, AngularSector(3, 1, 0.5), small_grid(3))
        weighted = _weighted_terms(q, op.dr, op.grid)
        start = _start_vector(op.grid.size, 0)
        kept = [a.copy() for a in (start, *weighted)]
        # buffers left over from another sector: their contents are not read
        stale = buffers(start.size, fill=complex(np.nan, np.nan))
        assert _lanczos_sector_norm(op, weighted, start, *stale) == sector_norm(op)
        # the start vector and the weighted terms are shared by the sectors
        assert all(np.array_equal(a, b) for a, b in zip((start, *weighted), kept))
        assert np.vdot(start, start).real == pytest.approx(1.0, rel=1e-15)

    def test_working_vectors_are_allocated_once_per_worker(self, power_law_model,
                                                           monkeypatch):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        inner = radial._lanczos_sector_norm

        def recording(op, weighted, start, work, band):
            held = (*work, *band)
            vectors.setdefault(threading.get_ident(), set()).add(tuple(map(id, held)))
            alive.extend(weakref.ref(v) for v in held)
            return inner(op, weighted, start, work, band)

        monkeypatch.setattr(radial, "_lanczos_sector_norm", recording)
        for threads in (1, 2, 3):
            vectors, alive = {}, []
            weighted_resolvent_norm(q, small_grid(3), l_max=5, seed=0,
                                    threads=threads)
            assert 1 <= len(vectors) <= threads
            assert all(len(ids) == 1 for ids in vectors.values())
            # six buffers for each of the six sectors; nothing outlives the call
            assert len(alive) == 36 and all(ref() is None for ref in alive)

    def test_non_finite_vector_fails_the_sector(self, power_law_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        op = assemble(q, AngularSector(3, 0, 0.5), small_grid(3))
        lift2, off = _weighted_terms(q, op.dr, op.grid)
        lift2[7] = np.nan
        n = op.grid.size
        with pytest.raises(AccuracyError, match="non-finite"):
            _lanczos_sector_norm(op, (lift2, off), _start_vector(n, 0), *buffers(n))

    def test_step_cap_fails_the_sector(self, power_law_model, monkeypatch):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        op = assemble(q, AngularSector(3, 0, 0.5), small_grid(3))
        assert sector_norm(op)[1] > 2
        monkeypatch.setattr(radial, "LANCZOS_STEP_CAP", 2)
        with pytest.raises(AccuracyError, match="within 2 steps"):
            sector_norm(op)

    @pytest.mark.parametrize("key,value", [
        ("seed", 2.5), ("seed", "7"), ("seed", True), ("seed", np.float64(3.0)),
        ("seed", -1), ("threads", 1.5), ("threads", True), ("threads", 0),
        ("threads", "2"), ("l_max", 2.5), ("l_max", True), ("l_max", -1),
    ])
    def test_counts_must_be_integers(self, zero_model, key, value):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=zero_model)
        kwargs = {"l_max": 1, key: value}
        with pytest.raises(InvalidInputError, match=key):
            weighted_resolvent_norm(q, small_grid(3), **kwargs)

    def test_numpy_integer_seed_and_threads_accepted(self, zero_model):
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=1, s=0.6,
                           potential=zero_model)
        plain = weighted_resolvent_norm(q, small_grid(3), l_max=1, seed=4,
                                        threads=2)
        numpy = weighted_resolvent_norm(q, small_grid(3), l_max=1,
                                        seed=np.int64(4), threads=np.int32(2))
        assert numpy == plain

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
            v1 = sector_norm(assemble(q1, sec, gs))[0]
            v2 = sector_norm(assemble(q2, sec, gs))[0]
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

    def test_lanczos_steps_allocate_no_vector(self, holder_model, monkeypatch):
        # holder_fast_sweep's h = 0.05 row: 55,179 points, about 9 Gram products
        q = ResolventQuery(d=3, E=1.0, h=0.05, eps=1e-2, sign=1, s=0.7,
                           potential=holder_model)
        policy = GridPolicy(tail_tol=1e-3, dr_factor=0.05, l_max=8)
        op = assemble(q, AngularSector(3, 2, 0.05), policy.grid_for(q))
        n = op.grid.size
        assert n == 55_179
        weighted = _weighted_terms(q, op.dr, op.grid)
        start = _start_vector(n, 2024)
        work, band = buffers(n)
        factored = []
        factor = radial.DiscreteOperator._factor

        def measured_from_here(self, *args):
            factors = factor(self, *args)
            tracemalloc.reset_peak()
            factored.append(tracemalloc.get_traced_memory()[0])
            return factors

        monkeypatch.setattr(radial.DiscreteOperator, "_factor", measured_from_here)
        tracemalloc.start()
        try:
            _, steps, _ = _lanczos_sector_norm(op, weighted, start, work, band)
            growth = tracemalloc.get_traced_memory()[1] - factored[0]
        finally:
            tracemalloc.stop()
        assert steps >= 5
        # one full-length complex vector is 0.88 MB
        assert growth < n * 16, growth

    def test_a_sector_allocates_only_the_pivots(self, holder_model):
        # the same sector with its buffers held: B's band is formed in them,
        # so what it allocates is zgttrf's du2 and ipiv and T_k's few kB
        q = ResolventQuery(d=3, E=1.0, h=0.05, eps=1e-2, sign=1, s=0.7,
                           potential=holder_model)
        policy = GridPolicy(tail_tol=1e-3, dr_factor=0.05, l_max=8)
        op = assemble(q, AngularSector(3, 2, 0.05), policy.grid_for(q))
        n = op.grid.size
        weighted = _weighted_terms(q, op.dr, op.grid)
        start = _start_vector(n, 2024)
        work, band = buffers(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _lanczos_sector_norm(op, weighted, start, work, band)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        pivots = 16 * (n - 2) + 4 * n
        # 18 kB above the pivots; a real grid-length array is 0.44 MB
        assert pivots <= growth < pivots + 64 * 1024, growth


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
        lu = op._factor(formed_band(op))
        up = lift(op)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(op.grid.size) + 1j * rng.standard_normal(op.grid.size)
        for trans, m in (("N", mat), ("C", mat.conj().T)):
            ref = np.linalg.solve(m, b)
            # A = W B W with W = diag(1 / up), so A^-1 = W^-1 B^-1 W^-1, and likewise for A^H
            got = up * zgttrs(*lu, up * b, trans=trans)[0]
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            # the dense LU reference carries a forward error proportional to
            # cond(A), which reaches about 1e6 at eps = 1e-4
            assert rel <= 1e-12 * max(1.0, np.linalg.cond(m) / 1e3)
        value, _, residual = sector_norm(op)
        dense = dense_weighted_norm(q, sec, gs)
        assert value == pytest.approx(dense, rel=1e-6)
        # a Ritz value lies below the top eigenvalue of the Gram operator, by
        # at most its relative residual; the slack covers rounding in both
        gap = (dense ** 2 - value ** 2) / value ** 2
        assert -1e-10 <= gap <= residual + 1e-10
        mirrored = sector_norm(assemble(replace(q, sign=-sign), sec, gs))[0]
        assert mirrored == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("d,l,sign", [(3, 0, 1), (3, 2, -1), (2, 1, 1)])
    def test_in_place_factors_equal_zgttrf_on_fresh_diagonals(self, power_law_model,
                                                              d, l, sign):
        q = ResolventQuery(d=d, E=1.0, h=0.5, eps=1e-3, sign=sign, s=0.6,
                           potential=power_law_model)
        op = assemble(q, AngularSector(d, l, 0.5), small_grid(d))
        weighted = _weighted_terms(q, op.dr, op.grid)
        kept = [a.copy() for a in (op.v, *weighted)]
        *ref, info = zgttrf(*weighted_diagonals(op))
        assert info == 0
        # the factor of B from the query's shared weighted terms, formed in a
        # worker's stale band buffers, which zgttrf overwrites
        _, band = buffers(op.grid.size, fill=complex(np.nan, np.nan))
        factors = op._factor(op._band(weighted, band))
        assert len(factors) == len(ref)
        for got, want in zip(factors, ref):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert all(got is buf for got, buf in zip(factors, band))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip((op.v, *weighted), kept))


class TestRitzPair:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(alphas=st.lists(st.floats(1e-6, 1e6), min_size=40, max_size=40),
           betas=st.lists(st.floats(1e-6, 1e6), min_size=39, max_size=39))
    def test_matches_eigh_tridiagonal_bit_for_bit(self, alphas, betas):
        # every leading T_k, k = 1..40, as the recurrence grows it
        alphas, betas = np.array(alphas), np.array(betas)
        for k in range(1, 41):
            theta, last = _top_ritz_pair(alphas[:k], betas[:k - 1])
            ref_theta, ref_vec = sla.eigh_tridiagonal(
                alphas[:k], betas[:k - 1], select="i", select_range=(k - 1, k - 1))
            assert theta == float(ref_theta[0])
            assert last == float(ref_vec[-1, 0])


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

    def test_zero_rhs_needs_zero_solution(self, audit_setup):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        n = gs.points().size
        u = np.zeros(n, dtype=complex)
        u[n // 2] = 1e-300
        with pytest.raises(InvalidInputError, match="zero right-hand side requires u = 0"):
            energy_audit(u, q, cfg, weight, phase, np.zeros(n, dtype=complex), gs,
                         v_long=smoothed.evaluate)

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

    def test_rejects_bad_solution_when_v_is_not_finite(self, audit_setup):
        # a NaN in V made the backward error NaN, which passed the 1e-8 check
        model, cfg, q, gs, weight, phase, smoothed, _ = audit_setup
        grid = UniformGridSpec(dr=0.05, r_max=50.0, tail_tol=1.0)
        op = assemble_conjugated(q, AngularSector(3, 0, 0.5), grid, phase)
        rhs = np.exp(-((op.grid - 6.0)) ** 2).astype(complex)
        u = op.solve(rhs)
        u[120] *= 2.0
        with pytest.raises(InvalidInputError, match="residual 0.33"):
            energy_audit(u, q, cfg, weight, phase, rhs, grid,
                         v_long=smoothed.evaluate)
        nan_q = replace(q, potential=replace(model, evaluate=nan_on(
            model.evaluate, 7.0, 7.1)))
        with pytest.raises(EvaluationError,
                           match="^potential weak_decay not finite at r=7.05$"):
            energy_audit(u, nan_q, cfg, weight, phase, rhs, grid,
                         v_long=smoothed.evaluate)
        # a NaN in u itself fails the precondition, not the energy functional
        u[120] = np.nan
        with pytest.raises(InvalidInputError, match="residual nan"):
            energy_audit(u, q, cfg, weight, phase, rhs, grid,
                         v_long=smoothed.evaluate)

    def test_rejects_mis_shaped_vectors(self, audit_setup):
        # a column u once broadcast the stencil to n x n (415 GiB on this grid)
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        n = op.grid.size
        rhs = np.exp(-((op.grid - 6.0)) ** 2).astype(complex)
        u = op.solve(rhs)
        for bad_u, bad_rhs, name, rows in ((u[:, None], rhs, "u", n),
                                           (u[:-1], rhs, "u", n - 1),
                                           (u, rhs[:-1], "rhs", n - 1)):
            # the message names the grid's size and the size given
            message = rf"^{name} must be a 1-D array of {n} values.*got shape \({rows},"
            with pytest.raises(InvalidInputError, match=message):
                energy_audit(bad_u, q, cfg, weight, phase, bad_rhs, gs,
                             v_long=smoothed.evaluate)
        for bad_rhs in (rhs[:-1], rhs[:, None]):
            with pytest.raises(InvalidInputError,
                               match=rf"^rhs must be a 1-D array of {n} values"):
                op.solve(bad_rhs)

    @pytest.mark.parametrize("kind", ["gauss", "random"])
    def test_solve_through_the_weighted_factor_is_backward_stable(self, audit_setup,
                                                                  kind):
        # the componentwise backward error is taken against the conjugated A,
        # not the weighted B the solve factors
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        assert op.grid.size == 166_934
        rhs = audit_rhs(op.grid, kind)
        u = op.solve(rhs)
        assert _backward_error(u, rhs, q, op.grid, gs.dr, phase) <= 1e-14

    def test_tiny_nonzero_rhs_is_audited(self, audit_setup):
        # |rhs|**2 underflows at 1e-170, so a norm would read the rhs as zero
        model, cfg, q, gs, weight, phase, smoothed, _ = audit_setup
        grid = UniformGridSpec(dr=0.05, r_max=50.0, tail_tol=1.0)
        op = assemble_conjugated(q, AngularSector(3, 0, 0.5), grid, phase)
        rhs = np.exp(-((op.grid - 6.0)) ** 2).astype(complex)
        traces = [energy_audit(op.solve(c * rhs), q, cfg, weight, phase, c * rhs,
                               grid, v_long=smoothed.evaluate)
                  for c in (1.0, 1e-170)]
        assert traces[1].integral_scale > 0
        # every term is quadratic in u and rhs: undo the factor 1e-340 in two
        # steps, since 1e-340 itself underflows
        for name in ("integral_value", "integral_scale"):
            assert getattr(traces[1], name) * 1e170 * 1e170 == pytest.approx(
                getattr(traces[0], name), rel=1e-12)
        residuals = traces[0].flux_residuals
        assert_allclose(traces[1].flux_residuals * 1e170 * 1e170, residuals,
                        rtol=1e-12, atol=1e-12 * np.max(np.abs(residuals)))
        with pytest.raises(InvalidInputError, match="residual"):
            energy_audit(1.01 * op.solve(1e-170 * rhs), q, cfg, weight, phase,
                         1e-170 * rhs, grid, v_long=smoothed.evaluate)

    def test_underflowing_flux_scale_fails(self, audit_setup):
        # at 1e-250 the norms of rhs and u both underflow, and so does |u|**2
        model, cfg, q, gs, weight, phase, smoothed, _ = audit_setup
        grid = UniformGridSpec(dr=0.05, r_max=50.0, tail_tol=1.0)
        op = assemble_conjugated(q, AngularSector(3, 0, 0.5), grid, phase)
        rhs = 1e-250 * np.exp(-((op.grid - 6.0)) ** 2).astype(complex)
        u = op.solve(rhs)
        assert np.linalg.norm(u) == 0 and np.any(u)
        with pytest.raises(EvaluationError, match="underflows"):
            energy_audit(u, q, cfg, weight, phase, rhs, grid,
                         v_long=smoothed.evaluate)
        # the precondition is no longer skipped
        with pytest.raises(InvalidInputError, match="residual"):
            energy_audit(1.01 * u, q, cfg, weight, phase, rhs, grid,
                         v_long=smoothed.evaluate)

    @pytest.mark.parametrize("kind", ["gauss", "random", "zero"])
    def test_equals_the_whole_array_audit_on_the_criterion_9_grid(self, audit_setup,
                                                                  kind):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        check_against_whole_array(q, gs, weight, phase, smoothed, op, cfg,
                                  audit_rhs(op.grid, kind))

    @pytest.mark.parametrize("offset", [-1, 0, 1, _BLOCK_ROWS + 1])
    def test_equals_the_whole_array_audit_at_block_edges(self, audit_setup, offset):
        model, cfg, q, gs, weight, phase, smoothed, _ = audit_setup
        grid = grid_of(_BLOCK_ROWS + offset)
        op = assemble_conjugated(q, AngularSector(3, 0, 0.5), grid, phase)
        for kind in ("random", "zero"):
            check_against_whole_array(q, grid, weight, phase, smoothed, op, cfg,
                                      audit_rhs(op.grid, kind))

    @pytest.mark.parametrize("bad", [[_BLOCK_ROWS - 1], [_BLOCK_ROWS],
                                     [_BLOCK_ROWS + 1], [2 * _BLOCK_ROWS],
                                     [3, 2 * _BLOCK_ROWS]])
    def test_non_finite_F_fails_at_the_same_first_r(self, audit_setup, bad):
        model, cfg, q, gs, weight, phase, smoothed, _ = audit_setup
        grid = grid_of(2 * _BLOCK_ROWS + 1)
        op = assemble_conjugated(q, AngularSector(3, 0, 0.5), grid, phase)
        rhs = audit_rhs(op.grid, "random")
        u = op.solve(rhs)

        def v_long(r):
            v = smoothed.evaluate(r)
            v[bad] = np.nan
            return v

        with pytest.raises(EvaluationError) as ref:
            whole_array_audit(u, q, weight, phase, rhs, grid, v_long)
        with pytest.raises(EvaluationError) as got:
            energy_audit(u, q, cfg, weight, phase, rhs, grid, v_long=v_long)
        assert str(got.value) == str(ref.value)
        assert str(got.value).endswith(f"r={op.grid[min(bad)]:.6g}")

    def test_memory_stays_flat_on_the_audit_grid(self, audit_setup):
        model, cfg, q, gs, weight, phase, smoothed, op = audit_setup
        assert op.grid.size == 166_934
        rhs = audit_rhs(op.grid, "gauss")
        u = op.solve(rhs)
        tracemalloc.start()
        try:
            energy_audit(u, q, cfg, weight, phase, rhs, gs, v_long=smoothed.evaluate)
            audit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _backward_error(u, rhs, q, op.grid, gs.dr, phase)
            error_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # over whole-grid arrays these peaked at 26.8 MB and 10.3 MB
        assert audit_peak <= 10e6, audit_peak
        assert error_peak <= 2e6, error_peak

    def test_the_solve_holds_only_the_band_u_the_pivots_and_one_real_array(
            self, audit_setup):
        # B's band (3 complex vectors), u, zgttrf's du2 and ipiv and one real
        # grid array: (r+1)**(2s) and B's off-diagonal, the weighted pair,
        # are freed once the band is formed, and the factored band before
        # the last scaling; the peak is 84 bytes a point, and 88 if the band
        # outlives the solve into the scaling's temporaries
        *_, op = audit_setup
        n = op.grid.size
        rhs = audit_rhs(op.grid, "gauss")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op.solve(rhs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 86 * n, peak


def grid_of(n):
    """The criterion-9 step on a grid of exactly n interior points."""
    grid = UniformGridSpec(dr=0.05, r_max=0.05 * (n + 1), tail_tol=0.05)
    assert grid.points().size == n
    return grid


def audit_rhs(r, kind):
    if kind == "zero":
        return np.zeros(r.size, dtype=complex)
    if kind == "gauss":
        return np.exp(-((r - 6.0)) ** 2).astype(complex)
    rng = np.random.default_rng(42)
    return rng.standard_normal(r.size) + 1j * rng.standard_normal(r.size)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def check_against_whole_array(q, grid, weight, phase, smoothed, op, cfg, rhs):
    """The solve, backward error and audit equal the whole-array formulas bit for bit."""
    u = op.solve(rhs)
    *lu, info = zgttrf(*weighted_diagonals(op.base))
    assert info == 0
    up = lift(op.base)
    unscaled = zgttrs(*lu, np.exp(-op.phi_over_h) * up * rhs)[0]
    assert same_bits(u, unscaled * (np.exp(op.phi_over_h) * up))
    if np.any(rhs):
        assert same_bits(_backward_error(u, rhs, q, op.grid, grid.dr, phase),
                         whole_array_backward_error(op, u, rhs))
    trace = energy_audit(u, q, cfg, weight, phase, rhs, grid,
                         v_long=smoothed.evaluate)
    residuals, tolerance, integral, scale = whole_array_audit(
        u, q, weight, phase, rhs, grid, smoothed.evaluate)
    assert same_bits(trace.flux_residuals, residuals)
    assert same_bits(trace.residual_tolerance, tolerance)
    assert same_bits(trace.integral_value, integral)
    assert same_bits(trace.integral_scale, scale)


def test_every_consumer_reads_A_from_one_diagonal(power_law_model, monkeypatch):
    # an entry changed in _diagonal alone reaches the factor, the oracle,
    # the conjugated solve and the backward error alike
    q = ResolventQuery(d=3, E=1.0, h=0.5, eps=0.02, sign=1, s=0.51,
                       potential=power_law_model)
    sec = AngularSector(3, 1, 0.5)
    unpatched = sector_norm(assemble(q, sec, small_grid(3)))[0]
    original = radial._diagonal

    def absorbing_end(*args):
        d = original(*args)
        d[-1] -= 0.5j
        return d

    monkeypatch.setattr(radial, "_diagonal", absorbing_end)
    grid = grid_of(2 * _BLOCK_ROWS + 1)
    phase = rl.PhaseFunction(k=1.0, a=20.0, tau=0.5)
    op = assemble_conjugated(q, AngularSector(3, 0, 0.5), grid, phase)
    rhs = audit_rhs(op.grid, "gauss")
    # 7.0e-16, and 1.3e-3 when the solve or the error alone sees the entry
    assert _backward_error(op.solve(rhs), rhs, q, op.grid, grid.dr, phase) <= 1e-14
    value = sector_norm(assemble(q, sec, small_grid(3)))[0]
    assert value == pytest.approx(dense_weighted_norm(q, sec, small_grid(3)), rel=1e-6)
    assert abs(value - unpatched) > 1e-6


def compact_bump(r, centre=3.0):
    """exp(-1 / (1 - x**2)) on |x| < 1, x = r - centre, and 0 elsewhere."""
    x = np.asarray(r, dtype=float) - centre
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


class TestTransparentEnd:
    """The last diagonal entry -a zeta stands in for the exterior, coefficients frozen."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_free_solve_matches_the_closed_form(self, zero_model, sign):
        # d = 3, l = 0, V = 0: A u = f has u(r) = int G(r, r') f(r') dr' with
        # G = sin(k r_<) e^{i k r_>} / (h**2 k), h**2 k**2 = E - i sign eps and
        # Im k > 0; the trapezoid rule on the bump's support is exact to
        # rounding, so what is left is the stencil's O(dr**2) error
        q = ResolventQuery(d=3, E=1.0, h=0.5, eps=1e-2, sign=sign, s=0.6,
                           potential=zero_model)
        k = cmath.sqrt(q.E - 1j * sign * q.eps) / q.h
        k = k if k.imag > 0 else -k
        rp = np.linspace(2.0, 4.0, 4001)
        fw = compact_bump(rp) * (rp[1] - rp[0])
        errors, walls = [], []
        for dr in (0.025, 0.0125):
            op = assemble(q, AngularSector(3, 0, 0.5), UniformGridSpec(dr=dr, r_max=10.0))
            r = op.grid
            probe = np.arange(0, r.size, round(0.1 / dr))
            lo = np.minimum.outer(r[probe], rp)
            hi = np.maximum.outer(r[probe], rp)
            exact = (np.sin(k * lo) * np.exp(1j * k * hi)) @ fw / (q.h ** 2 * k)
            off = -radial._coupling(q, dr)
            buf = np.empty(r.size, complex)
            transparent = radial._diagonal(q, op.sector, dr, r, op.v, buf, buf.imag)
            for diag, out in ((transparent, errors),
                              (interior_diagonal(op), walls)):
                band = np.array([np.full(r.size, off), diag, np.full(r.size, off)])
                u = sla.solve_banded((1, 1), band, compact_bump(r).astype(complex))
                out.append(np.max(np.abs(u[probe] - exact)) / np.max(np.abs(exact)))
        # 6.8e-4 and 1.7e-4; a Dirichlet wall at r = 10 reflects: 0.28 at both steps
        assert errors[1] <= 3e-4 and math.log2(errors[0] / errors[1]) >= 1.9
        assert min(walls) > 0.1

    def test_sign_mirror_is_bit_exact(self, barrier_model):
        # zeta_- = conj(zeta_+), so B_- is the entrywise conjugate of B_+
        for h, eps in ((0.2, 1e-2), (0.1, 1e-4), (0.05, 1e-4)):
            plus = ResolventQuery(d=3, E=1.0, h=h, eps=eps, sign=1, s=0.7,
                                  potential=barrier_model)
            minus = replace(plus, sign=-1)
            grid = UniformGridSpec(dr=h / 20, r_max=20.13)
            for l in (0, 8):
                sector = AngularSector(3, l, h)
                _, d_plus, off_plus = formed_band(assemble(plus, sector, grid))
                _, d_minus, off_minus = formed_band(assemble(minus, sector, grid))
                assert d_minus.tobytes() == np.conj(d_plus).tobytes()
                assert off_minus.tobytes() == off_plus.tobytes()

    def test_agrees_with_dirichlet_once_the_wall_has_decayed(self, power_law_model,
                                                             monkeypatch):
        # at eps = 1e-2 and h = 0.2 a wave decays as exp(-0.025 r): a wall at
        # r = 300 returns exp(-15) of it, where at r = 20 it returns 0.37
        q = ResolventQuery(d=3, E=1.0, h=0.2, eps=1e-2, sign=1, s=0.6,
                           potential=power_law_model)
        values = {}
        for end in ("transparent", "dirichlet"):
            if end == "dirichlet":
                def wall(query, sector, dr, r, v, out, *_):
                    out[:] = (2.0 * query.h ** 2 / dr ** 2 + sector.lambda_value / r ** 2
                              - query.E + v + 1j * (query.sign * query.eps))
                    return out
                monkeypatch.setattr(radial, "_diagonal", wall)
            values[end] = [weighted_resolvent_norm(
                q, UniformGridSpec(dr=0.02, r_max=r_max), l_max=2, seed=1).g_value
                for r_max in (20.0, 300.0)]
        assert values["dirichlet"][1] == pytest.approx(values["transparent"][1],
                                                       rel=0, abs=1e-6)
        assert abs(values["dirichlet"][0] - values["transparent"][0]) > 1e-3

    @settings(max_examples=200, deadline=None)
    @given(h=st.floats(0.01, 1.0), steps=st.floats(10.0, 100.0),
           E=st.floats(0.1, 10.0), eps=st.floats(1e-6, 1.0),
           sign=st.sampled_from([1, -1]), d=st.integers(2, 4),
           l=st.integers(0, 40), r_end=st.floats(1.0, 1000.0),
           v_end=st.floats(-10.0, 10.0))
    def test_the_decaying_root_absorbs(self, zero_model, h, steps, E, eps, sign,
                                       d, l, r_end, v_end):
        # zeta + 1/zeta = t with |zeta| < 1 means Im t = (|zeta| - 1/|zeta|)
        # sin(arg zeta), so Im zeta has the sign of -Im t = -sign eps / a:
        # the entry -a zeta always adds absorption on the eps side
        q = ResolventQuery(d=d, E=E, h=h, eps=eps, sign=sign, s=0.6,
                           potential=zero_model)
        sector = AngularSector(d, l, h)
        dr = h / steps
        r = np.array([r_end - dr, r_end])
        v = np.full(2, v_end)
        buf = np.empty(2, complex)
        diag = radial._diagonal(q, sector, dr, r, v, buf, buf.imag)
        interior = (2.0 * h ** 2 / dr ** 2 + sector.lambda_value / r ** 2 - E + v
                    + 1j * (sign * eps))
        assert diag[0] == interior[0]
        a = h ** 2 / dr ** 2
        entry = complex(diag[1] - interior[1])
        zeta = -entry / a
        assert abs(zeta) < 1.0
        assert sign * entry.imag > 0.0
        t = complex(interior[1]) / a
        assert abs(zeta + 1.0 / zeta - t) <= 1e-12 * max(1.0, abs(t))

    def test_readme_rows_do_not_depend_on_the_box_end(self, barrier_model):
        # each README row's box, 2 r_c = 20.13, moved by ten steps
        policy = GridPolicy()
        for h in (0.2, 0.15, 0.1, 0.07, 0.05):
            for eps in (1e-2, 1e-4):
                q = ResolventQuery(d=3, E=1.0, h=h, eps=eps, sign=1, s=0.7,
                                   potential=barrier_model)
                short = policy.short_grid(q)
                g = [weighted_resolvent_norm(q, replace(short, r_max=r_max),
                                             policy.l_max, threads=2).g_value
                     for r_max in (2.0 * short.r_max, 2.0 * short.r_max + 10 * short.dr)]
                assert g[1] == pytest.approx(g[0], rel=0, abs=1e-6)
