import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq import certify
from gridfreq.certify import (Certificate, LAMBDA_SHAVE, SymmetricMatrix,
                              TOL_PSD, _diagonal_secondary, _primary_array,
                              check_secondary_lmi, first_order_min_damping,
                              is_positive_definite, search_certificate,
                              second_order_min_damping, secondary_lmi_matrix,
                              sym_eigenvalues)
from gridfreq.control import ControllerGains
from gridfreq.generation import (LtiGenerator, first_order_params,
                                 make_first_order, make_second_order,
                                 second_order_params)
from reference import (check_primary, first_order_certificate, primary_matrix,
                       second_order_certificate)


def _params(**over):
    base = dict(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    base.update(over)
    return ControllerGains(**base)


class TestSymmetricMatrix:
    def test_entry_mirrors_exactly(self):
        m = SymmetricMatrix.from_upper(3, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert m.entry(0, 2) == 3.0
        assert m.entry(2, 0) == 3.0
        assert m.entry(1, 2) == 5.0
        assert m.entry(2, 1) is m.entry(1, 2)

    def test_packed_length_checked(self):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_upper(2, [1.0, 2.0])

    def test_from_rows_reads_upper_triangle(self):
        m = SymmetricMatrix.from_rows([[1.0, 2.0], [99.0, 3.0]])
        assert m.entry(1, 0) == 2.0  # lower triangle of input ignored

    def test_from_rows_requires_square(self):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_diagonal_and_to_lists(self):
        m = SymmetricMatrix.diagonal([2.0, -1.0])
        assert m.to_lists() == [[2.0, 0.0], [0.0, -1.0]]

    def test_index_out_of_range(self):
        m = SymmetricMatrix.diagonal([1.0])
        with pytest.raises(IndexError):
            m.entry(0, 1)


class TestSymEigenvalues:
    def test_diagonal_matrix_is_exact(self):
        m = SymmetricMatrix.diagonal([3.0, -1.0, 2.0])
        assert sym_eigenvalues(m) == [-1.0, 2.0, 3.0]

    def test_two_by_two_hand_case(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3
        m = SymmetricMatrix.from_upper(2, [2.0, 1.0, 2.0])
        assert sym_eigenvalues(m) == pytest.approx([1.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_numpy_on_random_matrices(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(5):
            a = rng.normal(size=(dim, dim))
            s = (a + a.T) / 2.0
            got = sym_eigenvalues(SymmetricMatrix.from_rows(s.tolist()))
            want = np.linalg.eigvalsh(s)
            scale = max(1.0, float(np.abs(want).max()))
            assert got == pytest.approx(list(want), abs=1e-10 * scale)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(77)
        for dim in (2, 3, 4, 5):
            a = rng.normal(size=(dim, dim))
            s = (a + a.T) / 2.0
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            rotated = q @ s @ q.T
            rotated = (rotated + rotated.T) / 2.0
            e1 = sym_eigenvalues(SymmetricMatrix.from_rows(s.tolist()))
            e2 = sym_eigenvalues(SymmetricMatrix.from_rows(rotated.tolist()))
            assert e1 == pytest.approx(e2, abs=1e-8)


class TestPositiveDefinite:
    def test_cases(self):
        assert is_positive_definite(SymmetricMatrix.diagonal([1.0, 2.0]))
        assert not is_positive_definite(SymmetricMatrix.diagonal([1.0, 0.0]))
        assert not is_positive_definite(SymmetricMatrix.diagonal([1.0, -1.0]))
        # [[1,2],[2,1]] has eigenvalues 3 and -1
        assert not is_positive_definite(
            SymmetricMatrix.from_upper(2, [1.0, 2.0, 1.0]))


class TestPrimaryMatrix:
    def test_first_order_hand_case(self):
        gen = make_first_order(1.0, 1.0)
        for m in (_primary_array(gen, 1.0, np.array([[2.0]]), 0.0),
                  primary_matrix(gen, 1.0, [[2.0]], 0.0)):
            assert m.tolist() == [[-2.0, 0.5], [0.5, 0.0]]

    def test_coupling_column_vanishes_without_droop_or_output(self):
        gen = dataclasses.replace(make_first_order(2.0, 1.0),
                                  c_vector=(0.0,), d_scalar=0.0)
        m = _primary_array(gen, 0.0, np.array([[3.0]]), 0.7)
        assert m[0, 1] == m[1, 0] == 0.0
        assert m[1, 1] == -0.7

    def test_dimension_mismatch(self):
        gen = make_first_order(1.0, 1.0)
        for build in (_primary_array, primary_matrix):
            with pytest.raises(ValueError):
                build(gen, 1.0, np.eye(2), 0.0)


class TestCheckPrimary:
    def test_feasible_hand_case(self):
        gen = make_first_order(1.0, 1.0)
        cert = Certificate(p_matrix=SymmetricMatrix.diagonal([1.0]),
                           k_f=1.0, lambda_hat=0.5)
        assert check_primary(gen, 1.0, cert, 1.0)

    def test_lambda_hat_must_stay_below_bus_damping(self):
        gen = make_first_order(1.0, 1.0)
        cert = Certificate(p_matrix=SymmetricMatrix.diagonal([1.0]),
                           k_f=1.0, lambda_hat=1.0)
        with pytest.raises(ValueError):
            check_primary(gen, 1.0, cert, 1.0)

    def test_indefinite_p_rejected(self):
        gen = make_first_order(1.0, 1.0)
        cert = Certificate(p_matrix=SymmetricMatrix.diagonal([-1.0]),
                           k_f=1.0, lambda_hat=0.5)
        assert not check_primary(gen, 1.0, cert, 1.0)


class TestSecondaryMatrix:
    def test_first_order_hand_case(self):
        gen = make_first_order(1.0, 1.0)
        m = secondary_lmi_matrix(gen, _params(), SymmetricMatrix.diagonal([2.0]), 0.0)
        assert m.to_lists() == [[-1.0, 1.5, 0.0],
                                [1.5, -2.0, 0.5],
                                [0.0, 0.5, 0.0]]

    def test_frequency_border_cancels_when_kf_matches_droop(self):
        gen = make_first_order(0.7, 1.3)
        params = _params(k_f=1.3 * 0.9, k_d=0.9, k_c=0.4)
        m = secondary_lmi_matrix(gen, params, SymmetricMatrix.diagonal([1.0]), 0.2)
        assert m.entry(0, 2) == pytest.approx(0.0, abs=1e-15)

    def test_trailing_block_is_primary_matrix_bit_for_bit(self):
        gen = make_second_order(0.35, 1.2, 1.2)
        params = _params(k_c=0.6, k_d=0.8, k_f=0.7)
        p = SymmetricMatrix.from_upper(2, [1.5, 0.2, 0.9])
        outer = secondary_lmi_matrix(gen, params, p, 0.41)
        inner = _primary_array(gen, params.k_d, p.to_array(), 0.41)
        for i in range(3):
            for j in range(3):
                assert outer.entry(i + 1, j + 1) == inner[i, j]
        assert np.allclose(inner, primary_matrix(gen, params.k_d, p.to_array(),
                                                 0.41), rtol=1e-15, atol=1e-15)

    def test_kf_override_only_touches_frequency_border(self):
        gen = make_first_order(1.0, 1.0)
        p = SymmetricMatrix.diagonal([2.0])
        m1 = secondary_lmi_matrix(gen, _params(k_f=1.0), p, 0.0)
        m2 = secondary_lmi_matrix(gen, _params(k_f=1.0), p, 0.0, k_f=3.0)
        assert m2.entry(0, 2) == 1.0
        assert m1.entry(0, 1) == m2.entry(0, 1)
        assert m1.entry(1, 1) == m2.entry(1, 1)


class TestDampingThresholds:
    def test_second_order_values(self):
        assert second_order_min_damping(1.0, 1.0, 1.0) == pytest.approx(1 / 3)
        assert second_order_min_damping(1.0, 2.0, 2.0) == pytest.approx(2 / 3)

    def test_first_order_values(self):
        assert first_order_min_damping(1.0, 1.0, 1.0) == 0.0
        assert first_order_min_damping(2.0, 0.5, 1.5) == pytest.approx(1.0)

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError):
            second_order_min_damping(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            first_order_min_damping(1.0, -1.0, 1.0)

    @given(st.floats(0.05, 20.0))
    def test_second_order_threshold_floor(self, k_d):
        # minimized over k_d at k_d = k_c/2 where it equals K*k_c/4
        val = second_order_min_damping(2.0, 1.4, k_d)
        assert val >= 2.0 * 1.4 / 4.0 - 1e-12
        floor = second_order_min_damping(2.0, 1.4, 0.7)
        assert floor == pytest.approx(2.0 * 1.4 / 4.0)


class TestAnalyticCertificates:
    def test_second_order_p_scaling(self):
        cert = second_order_certificate(1.0, 1.0, 1.0, 1.0, 1.0)
        assert cert.p_matrix.to_lists() == [[1.0, 0.0], [0.0, 1.0]]
        cert = second_order_certificate(2.0, 4.0, 1.0, 0.5, 1.0)
        assert cert.p_matrix.to_lists() == [[4.0, 0.0], [0.0, 8.0]]
        assert is_positive_definite(cert.p_matrix)

    def test_certified_kf_ties_command_gain(self):
        cert = second_order_certificate(0.3, 1.0, 1.1, 0.4, 0.9)
        assert cert.k_f == pytest.approx(1.1 * 0.4)
        cert = first_order_certificate(0.45, 1.25, 0.8)
        assert cert.k_f == pytest.approx(1.25 * 0.8)
        assert cert.p_matrix.to_lists() == [[0.45]]

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            second_order_certificate(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            first_order_certificate(1.0, 1.0, 0.0)

    def test_second_order_feasible_above_threshold(self):
        gen = make_second_order(1.0, 1.0, 1.0)
        params = _params()
        cert = dataclasses.replace(second_order_certificate(1.0, 1.0, 1.0, 1.0, 1.0),
                                   lambda_hat=0.45)
        assert check_secondary_lmi(gen, params, cert, 0.5)

    def test_second_order_infeasible_below_threshold(self):
        gen = make_second_order(1.0, 1.0, 1.0)
        params = _params()
        cert = dataclasses.replace(second_order_certificate(1.0, 1.0, 1.0, 1.0, 1.0),
                                   lambda_hat=0.19)
        assert not check_secondary_lmi(gen, params, cert, 0.2)

    def test_analytic_matrix_independent_of_time_constants(self):
        params = _params(k_c=0.7, k_d=1.1, k_f=0.7 * 1.2)
        entries = []
        for tau_a, tau_p in [(1.0, 1.0), (0.01, 37.0), (250.0, 0.004)]:
            cert = second_order_certificate(tau_a, tau_p, 1.2, 0.7, 1.1)
            gen = make_second_order(tau_a, tau_p, 1.2)
            m = secondary_lmi_matrix(gen, params, cert.p_matrix, 0.3,
                                     k_f=cert.k_f)
            entries.append(m.entries)
        for other in entries[1:]:
            assert other == pytest.approx(entries[0], rel=1e-12, abs=1e-15)

    def test_threshold_crossing_on_time_constant_grid(self):
        taus = [0.01, 0.1, 1.0, 10.0, 100.0]
        params = _params()
        threshold = second_order_min_damping(1.0, 1.0, 1.0)
        for lam, expect in [(0.30, False), (0.34, True)]:
            lam_hat = lam * (1.0 - 1e-3)
            assert (lam_hat >= threshold) == expect
            for tau_a in taus:
                for tau_p in taus:
                    gen = make_second_order(tau_a, tau_p, 1.0)
                    cert = dataclasses.replace(
                        second_order_certificate(tau_a, tau_p, 1.0, 1.0, 1.0),
                        lambda_hat=lam_hat)
                    got = check_secondary_lmi(gen, params, cert, lam)
                    assert got == expect, (tau_a, tau_p, lam)

    def test_first_order_threshold_flip(self):
        # K=2, k_c=0.5, k_d=1.5 needs damping >= 1.0
        gen = make_first_order(1.0, 2.0)
        params = _params(k_c=0.5, k_d=1.5)
        assert search_certificate(gen, params, 1.2) is not None
        assert search_certificate(gen, params, 0.8) is None


class TestSearchCertificate:
    def test_first_order_baseline_found(self):
        gen = make_first_order(1.0, 1.0)
        cert = search_certificate(gen, _params(), 1.0)
        assert cert is not None
        assert check_secondary_lmi(gen, _params(), cert, 1.0)
        assert cert.lambda_hat == pytest.approx(1.0 * (1.0 - 1e-3))
        assert cert.margin == pytest.approx(1e-3)

    def test_zero_damping_not_found(self):
        gen = make_first_order(1.0, 1.0)
        assert search_certificate(gen, _params(), 0.0) is None

    def test_deterministic(self):
        gen = make_second_order(0.35, 1.2, 1.2)
        params = _params(k_c=0.6, k_d=0.8, k_f=0.9)
        a = search_certificate(gen, params, 0.6)
        b = search_certificate(gen, params, 0.6)
        assert a == b
        assert a is not None

    def test_found_certificates_imply_droop_condition(self):
        """Secondary feasibility must always carry the droop-only check.

        Random feasible instances across both generator models; the found
        witness is re-verified, then stripped to (P, lambda_hat) and pushed
        through the droop-side check with the same k_d.
        """
        rng = np.random.default_rng(20240817)
        checked = 0
        for trial in range(120):
            k_gain = float(10.0 ** rng.uniform(-1, 1))
            k_c = float(10.0 ** rng.uniform(-1, 1))
            k_d = float(10.0 ** rng.uniform(-1, 1))
            if trial % 2 == 0:
                tau = float(10.0 ** rng.uniform(-1.3, 0.7))
                gen = make_first_order(tau, k_gain)
                threshold = first_order_min_damping(k_gain, k_c, k_d)
            else:
                tau_a = float(10.0 ** rng.uniform(-1.3, 0.7))
                tau_p = float(10.0 ** rng.uniform(-1.3, 0.7))
                gen = make_second_order(tau_a, tau_p, k_gain)
                threshold = second_order_min_damping(k_gain, k_c, k_d)
            lam = threshold * float(rng.uniform(1.1, 3.0)) + 0.01
            params = _params(k_c=k_c, k_d=k_d,
                             k_f=float(10.0 ** rng.uniform(-1, 1)))
            cert = search_certificate(gen, params, lam)
            assert cert is not None, (trial, gen, params, lam)
            assert check_secondary_lmi(gen, params, cert, lam)
            assert check_primary(gen, params.k_d, cert, lam)
            checked += 1
        assert checked >= 100


def _block(a, b, c, d):
    return LtiGenerator(a_matrix=tuple(tuple(r) for r in a), b_vector=tuple(b),
                        c_vector=tuple(c), d_scalar=d, order=len(b))


class TestDiagonalEvaluator:
    """The search's affine templates against the assembled matrix."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_templates_match_assembled_matrix(self, order):
        rng = np.random.default_rng(300 + order)
        # lower triangular with a negative diagonal: Hurwitz by construction
        a = (-np.diag(rng.uniform(0.5, 5.0, order))
             + np.tril(rng.normal(size=(order, order)), -1))
        gen = _block(a.tolist(), rng.uniform(0.2, 3.0, order).tolist(),
                     rng.uniform(0.0, 1.0, order).tolist(),
                     float(rng.uniform(0.0, 0.5)))
        params = _params(k_c=float(rng.uniform(0.3, 2.0)),
                         k_d=float(rng.uniform(0.3, 2.0)))
        lambda_hat = float(rng.uniform(0.1, 2.0))
        matrices = _diagonal_secondary(gen, params, lambda_hat)
        count = 20
        diags = 10.0 ** rng.uniform(-3.0, 3.0, size=(count, order))
        kfs = rng.uniform(0.05, 5.0, count)
        rows = np.column_stack([diags, kfs, np.ones(count)])
        batched = matrices(rows)
        batched_top = np.linalg.eigvalsh(batched)[:, -1]
        assert batched.shape == (count, order + 2, order + 2)
        for i in range(count):
            want = secondary_lmi_matrix(
                gen, params, SymmetricMatrix.diagonal(diags[i].tolist()),
                lambda_hat, k_f=float(kfs[i])).to_array()
            single = matrices(rows[i:i + 1])[0]
            scale = np.abs(want).max()
            assert np.abs(single - want).max() <= 1e-14 * scale
            assert np.abs(batched[i] - want).max() <= 1e-14 * scale
            top = np.linalg.eigvalsh(single)[-1]
            assert batched_top[i] == pytest.approx(top, rel=1e-14,
                                                   abs=1e-14 * scale)


def _assembled_secondary(gen, params, p, k_f, lambda_hat):
    """The secondary matrix written out from its definition in numpy."""
    a = np.array(gen.a_matrix)
    b = np.array(gen.b_vector)
    c = np.array(gen.c_vector)
    d, k_c, k_d = gen.d_scalar, params.k_c, params.k_d
    n = len(b)
    k = d - c @ np.linalg.solve(a, b)
    m = np.zeros((n + 2, n + 2))
    m[0, 0] = (d - k) * k_c
    m[0, 1:n + 1] = m[1:n + 1, 0] = (k_c * (b @ p) + c) / 2.0
    m[0, n + 1] = m[n + 1, 0] = (k_f - k_d * k + d * k_d - d * k_c) / 2.0
    m[1:n + 1, 1:n + 1] = (p @ a + a.T @ p) / 2.0
    m[1:n + 1, n + 1] = m[n + 1, 1:n + 1] = (k_d * (p @ b) - c) / 2.0
    m[n + 1, n + 1] = -lambda_hat - d * k_d
    return m


class TestSearchPaths:
    """Blocks outside the worked shapes take the grid and the descent."""

    def _assert_certifies(self, gen, params, lam):
        assert first_order_params(gen) is None
        assert second_order_params(gen) is None
        cert = search_certificate(gen, params, lam)
        assert cert is not None
        p = cert.p_matrix.to_array()
        assert cert.lambda_hat < lam
        assert np.linalg.eigvalsh(p)[0] > 0.0
        m = _assembled_secondary(gen, params, p, cert.k_f, cert.lambda_hat)
        assert np.linalg.eigvalsh(m)[-1] <= TOL_PSD

    def test_reheat_governor(self):
        # governor lag -> steam chest -> reheater, p_m = F x_ch + (1 - F) x_rh
        t_g, t_ch, t_rh, f_hp = 0.2, 0.3, 6.0, 0.3
        gen = _block([[-1.0 / t_g, 0.0, 0.0], [1.0 / t_ch, -1.0 / t_ch, 0.0],
                      [0.0, 1.0 / t_rh, -1.0 / t_rh]],
                     [1.0 / t_g, 0.0, 0.0], [0.0, f_hp, 1.0 - f_hp], 0.0)
        self._assert_certifies(gen, _params(k_f=1.0, k_c=1.0, k_d=1.0), 1.0)

    def test_cascade_with_feedthrough(self):
        # two-lag cascade, p_m = (1 - f) x_2 + f K u
        t_a, t_p, f = 0.3, 1.1, 0.2
        gen = _block([[-1.0 / t_a, 0.0], [1.0 / t_p, -1.0 / t_p]],
                     [1.0 / t_a, 0.0], [0.0, 1.0 - f], f)
        self._assert_certifies(gen, _params(k_f=1.0, k_c=1.0, k_d=1.0), 1.0)


class TestFirstOrderVerdicts:
    """A lag is certifiable only at its analytic point, so its verdict is
    the closed-form threshold and the search never goes past it."""

    def test_lag_below_threshold_not_found(self):
        gen = make_first_order(0.45, 1.0)
        params = _params(k_f=2.0, k_c=1.0, k_d=3.0)
        threshold = first_order_min_damping(1.0, 1.0, 3.0)
        lam = 0.9 * threshold
        assert lam * (1.0 - LAMBDA_SHAVE) < threshold
        assert search_certificate(gen, params, lam) is None

    def test_verdicts_follow_closed_form(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            return _diagonal_secondary(*args)
        monkeypatch.setattr(certify, "_diagonal_secondary", spy)
        # The ranges of test_found_certificates_imply_droop_condition.
        # TOL_PSD is absolute, so a threshold near 0 (k_c close to k_d)
        # would hide a relative shortfall of 1e-5 inside the tolerance;
        # such lags are skipped.
        rng = np.random.default_rng(20261018)
        lags = 0
        while lags < 40:
            k_gain = float(10.0 ** rng.uniform(-1, 1))
            k_c = float(10.0 ** rng.uniform(-1, 1))
            k_d = float(10.0 ** rng.uniform(-1, 1))
            tau = float(10.0 ** rng.uniform(-1.3, 0.7))
            k_f = float(10.0 ** rng.uniform(-1, 1))
            threshold = first_order_min_damping(k_gain, k_c, k_d)
            if threshold < 1e-2:
                continue
            lags += 1
            gen = make_first_order(tau, k_gain)
            params = _params(k_c=k_c, k_d=k_d, k_f=k_f)
            for ratio in (1.0 - 1e-3, 1.0 - 1e-5, 1.0 + 1e-6, 1.0 + 1e-3):
                lam = ratio * threshold / (1.0 - LAMBDA_SHAVE)
                lambda_hat = lam * (1.0 - LAMBDA_SHAVE)
                cert = search_certificate(gen, params, lam)
                assert (cert is not None) == (lambda_hat >= threshold), \
                    (tau, k_gain, params, ratio)
        assert built == []
        # the spy does see a block outside the worked shapes
        cascade = _block([[-1.0 / 0.3, 0.0], [1.0 / 1.1, -1.0 / 1.1]],
                         [1.0 / 0.3, 0.0], [0.0, 0.8], 0.2)
        assert search_certificate(cascade, _params(), 1.0) is not None
        assert len(built) == 1
