import dataclasses
import pickle
import runpy
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq import certify
from gridfreq.certify import (Certificate, LAMBDA_SHAVE, SymmetricMatrix,
                              check_secondary_lmi, first_order_min_damping,
                              search_certificate, second_order_min_damping,
                              secondary_lmi_matrix)
from gridfreq.cli import load_scenario, with_optimal_gains
from gridfreq.control import ControllerGains
from gridfreq.fixtures import fixture_path
from gridfreq.generation import make_first_order, make_second_order
from reference import (cascade_min_damping, check_primary, check_secondary,
                       first_order_certificate, primary_matrix,
                       second_order_certificate, secondary_matrix)


def _params(**over):
    base = dict(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    base.update(over)
    return ControllerGains(**base)


class TestSymmetricMatrix:
    def test_entry_mirrors_exactly(self):
        m = SymmetricMatrix.from_rows([[1.0, 2.0, 3.0], [0.0, 4.0, 5.0],
                                       [0.0, 0.0, 6.0]])
        assert m.entry(0, 2) == 3.0
        assert m.entry(2, 0) == 3.0
        assert m.entry(1, 2) == 5.0
        assert m.entry(2, 1) == m.entry(1, 2)
        assert np.array_equal(m.array, m.array.T)

    def test_from_rows_reads_upper_triangle(self):
        m = SymmetricMatrix.from_rows([[1.0, 2.0], [99.0, 3.0]])
        assert m.entry(1, 0) == 2.0  # lower triangle of input ignored
        assert m == SymmetricMatrix.from_rows([[1.0, 2.0], [-7.0, 3.0]])
        # the sign of a zero is mirrored too
        assert np.signbit(SymmetricMatrix.from_rows(
            [[1.0, -0.0], [5.0, 1.0]]).array[1, 0])

    def test_from_rows_requires_square(self):
        for rows in ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 2.0], [[[1.0]]]):
            with pytest.raises(ValueError, match="must form a square matrix"):
                SymmetricMatrix.from_rows(rows)

    def test_diagonal_and_to_array(self):
        m = SymmetricMatrix.diagonal([2.0, -1.0])
        assert m.to_array().tolist() == [[2.0, 0.0], [0.0, -1.0]]

    def test_index_out_of_range(self):
        m = SymmetricMatrix.diagonal([1.0, 2.0])
        for i, j in [(0, 2), (2, 0), (2, 2), (-1, 0), (0, -1)]:
            with pytest.raises(IndexError):
                m.entry(i, j)

    def test_array_is_read_only_and_owned(self):
        rows = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymmetricMatrix.from_rows(rows)
        assert not m.array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.array[0, 0] = 5.0
        rows[0, 1] = 7.0  # the rows it was made from stay the caller's
        assert m.entry(0, 1) == 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.array = rows

    def test_to_array_is_a_writable_copy(self):
        m = SymmetricMatrix.from_rows([[1.0, 2.0], [2.0, 3.0]])
        a = m.to_array()
        assert a.flags.writeable and not np.shares_memory(a, m.array)
        a[0, 1] = 9.0
        assert m.entry(0, 1) == 2.0
        assert np.array_equal(m.to_array(), [[1.0, 2.0], [2.0, 3.0]])

    def test_equal_by_value(self):
        m = SymmetricMatrix.from_rows([[1.0, 2.0], [2.0, 3.0]])
        same = SymmetricMatrix.from_rows([[1.0, 2.0], [0.0, 3.0]])
        assert m == same and hash(m) == hash(same)
        zero, negative_zero = (SymmetricMatrix.diagonal([z])
                               for z in (0.0, -0.0))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        for other in (SymmetricMatrix.from_rows([[1.0, 2.5], [2.5, 3.0]]),
                      SymmetricMatrix.diagonal([1.0, 3.0]),
                      SymmetricMatrix.diagonal([1.0, 3.0, 0.0]),
                      m.to_array()):
            assert m != other
        assert SymmetricMatrix.diagonal([np.nan]) != \
            SymmetricMatrix.diagonal([np.nan])
        cert = Certificate(p_matrix=m, k_f=1.0, lambda_hat=0.5)
        twin = Certificate(p_matrix=same, k_f=1.0, lambda_hat=0.5)
        assert cert == twin and hash(cert) == hash(twin)
        assert cert != dataclasses.replace(
            cert, p_matrix=SymmetricMatrix.diagonal([1.0, 3.0]))

    def test_pickle_keeps_the_array_read_only(self):
        m = SymmetricMatrix.from_rows([[1.0, 2.0], [2.0, 3.0]])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(m, protocol))
            assert back == m and not back.array.flags.writeable

    @pytest.mark.parametrize("case", ["two_gen", "ring9", "riccati"])
    def test_entries_are_the_array(self, case):
        # perfbench's checks.certificate_problems reads P entry by entry
        if case == "riccati":
            # search_paths_reheat at a bus damping of 0.3 fails at its
            # diagonal point, so its P comes from the Riccati step
            name, gen, params, _ = _search_cases()[0]
            assert name == "search_paths_reheat"
            certs = [search_certificate(gen, params, 0.3)]
            assert certs[0].p_matrix.entry(0, 1) != 0.0
        else:
            scn = load_scenario(fixture_path(f"{case}.scn"))
            certs = [search_certificate(scn.generators[g], scn.controllers[g],
                                        scn.network.bus(g).damping)
                     for g in sorted(scn.network.generator_ids)]
        for cert in certs:
            p = cert.p_matrix.array
            assert [[cert.p_matrix.entry(i, j) for j in range(len(p))]
                    for i in range(len(p))] == p.tolist()


class TestPositiveDefinite:
    """check_secondary_lmi refuses a P that is not positive definite."""

    def _case(self, p):
        gen = make_second_order(0.35, 1.2, 1.2)
        params = _params(k_c=0.6, k_d=0.8, k_f=1.2 * 0.6)
        cert = second_order_certificate(0.35, 1.2, 1.2, 0.6, 0.8,
                                        lambda_hat=0.5)
        if p is not None:
            cert = dataclasses.replace(cert, p_matrix=p)
        return check_secondary_lmi(gen, params, cert, 0.6)

    def test_cases(self):
        assert self._case(None)
        assert not self._case(SymmetricMatrix.diagonal([1.0, 0.0]))
        assert not self._case(SymmetricMatrix.diagonal([1.0, -1.0]))
        # [[1,2],[2,1]] has eigenvalues 3 and -1
        assert not self._case(SymmetricMatrix.from_rows([[1.0, 2.0],
                                                         [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_p_raises_without_warning(self, bad):
        gen = _block(np.diag([-1.0, -2.0, -3.0, -4.0]).tolist(),
                     [1.0, 2.0, 3.0, 4.0], [0.25] * 4, 0.0)
        cert = Certificate(p_matrix=SymmetricMatrix.from_rows(np.full((4, 4), bad)),
                           k_f=1.0, lambda_hat=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError,
                               match="Eigenvalues did not converge"):
                check_secondary_lmi(gen, _params(), cert, 1.0)


class TestPrimaryMatrix:
    """The primary matrix, read as the secondary matrix's trailing block."""

    @staticmethod
    def _trailing(gen, gains, p, lambda_hat):
        return secondary_lmi_matrix(gen, gains, SymmetricMatrix.from_rows(p),
                                    lambda_hat).to_array()[1:, 1:]

    def test_first_order_hand_case(self):
        gen = make_first_order(1.0, 1.0)
        for m in (self._trailing(gen, _params(k_d=1.0), [[2.0]], 0.0),
                  primary_matrix(gen, 1.0, [[2.0]], 0.0)):
            assert m.tolist() == [[-2.0, 0.5], [0.5, 0.0]]

    def test_coupling_column_vanishes_without_droop_or_output(self):
        gen = dataclasses.replace(make_first_order(2.0, 1.0),
                                  c_vector=(0.0,), d_scalar=0.0)
        # ControllerGains refuses k_d = 0; the matrix reads only the gains
        droopless = types.SimpleNamespace(k_c=1.0, k_d=0.0, k_f=1.0)
        m = self._trailing(gen, droopless, [[3.0]], 0.7)
        assert m[0, 1] == m[1, 0] == 0.0
        assert m[1, 1] == -0.7

    def test_dimension_mismatch(self):
        gen = make_first_order(1.0, 1.0)
        with pytest.raises(ValueError, match="P has dim 2"):
            self._trailing(gen, _params(), np.eye(2), 0.0)
        with pytest.raises(ValueError):
            primary_matrix(gen, 1.0, np.eye(2), 0.0)


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
        assert m.to_array().tolist() == [[-1.0, 1.5, 0.0],
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
        p = SymmetricMatrix.from_rows([[1.5, 0.2], [0.2, 0.9]])
        outer = secondary_lmi_matrix(gen, params, p, 0.41)
        # the primary matrix from its definition, in certify's expressions
        a, b, c = (np.array(v) for v in (gen.a_matrix, gen.b_vector,
                                         gen.c_vector))
        pp = p.to_array()
        pa = pp @ a
        inner = np.empty((3, 3))
        inner[:2, :2] = (pa + pa.T) / 2.0
        inner[:2, 2] = inner[2, :2] = (params.k_d * (pp @ b) - c) / 2.0
        inner[2, 2] = -0.41 - gen.d_scalar * params.k_d
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


    @pytest.mark.parametrize("lambda_hat", [1.0, 1.5])
    def test_check_needs_lambda_hat_below_bus_damping(self, lambda_hat):
        # the lag's analytic certificate, which passes at lambda_hat 0.5
        gen = make_first_order(1.0, 1.0)
        cert = Certificate(p_matrix=SymmetricMatrix.diagonal([1.0]),
                           k_f=1.0, lambda_hat=lambda_hat)
        assert check_secondary_lmi(
            gen, _params(), dataclasses.replace(cert, lambda_hat=0.5), 1.0)
        with pytest.raises(ValueError, match="^certificate lambda_hat must "
                           "be below the bus damping$"):
            check_secondary_lmi(gen, _params(), cert, 1.0)


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


class TestCascadeBoundary:
    # search_certificate certifies at lambda_hat = Lambda (1 - LAMBDA_SHAVE),
    # so its boundary on the bus damping is Lambda_0 / (1 - LAMBDA_SHAVE)
    @staticmethod
    def _cascades(count=400):
        rng = np.random.default_rng(3301)
        for _ in range(count):
            tau_a, tau_p = rng.uniform(0.05, 3.0, 2)
            k_gain = rng.uniform(0.5, 2.0)
            k_c, k_d = rng.uniform(0.3, 2.0, 2)
            yield tau_a, tau_p, k_gain, k_c, k_d

    def test_search_flips_at_the_closed_form(self):
        wrong = []
        for tau_a, tau_p, k_gain, k_c, k_d in self._cascades():
            lam0 = cascade_min_damping(tau_a, tau_p, k_gain, k_c, k_d)
            boundary = lam0 / (1.0 - LAMBDA_SHAVE)
            gen = make_second_order(tau_a, tau_p, k_gain)
            params = _params(k_c=k_c, k_d=k_d)
            verdicts = [search_certificate(gen, params, f * boundary) is not None
                        for f in (0.99, 1.01)]
            if lam0 <= 0.0 or verdicts != [False, True]:
                wrong.append((tau_a, tau_p, k_gain, k_c, k_d, lam0, verdicts))
        assert wrong == []

    def test_meets_the_analytic_threshold_only_at_equal_time_constants(self):
        for tau_a, tau_p, k_gain, k_c, k_d in self._cascades(50):
            analytic = second_order_min_damping(k_gain, k_c, k_d)
            assert cascade_min_damping(tau_a, tau_a, k_gain, k_c, k_d) \
                == pytest.approx(analytic, rel=1e-12)
            assert cascade_min_damping(tau_a, tau_p, k_gain, k_c, k_d) < analytic


class TestAnalyticCertificates:
    def test_second_order_p_scaling(self):
        cert = second_order_certificate(1.0, 1.0, 1.0, 1.0, 1.0)
        assert cert.p_matrix.to_array().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        cert = second_order_certificate(2.0, 4.0, 1.0, 0.5, 1.0)
        assert cert.p_matrix.to_array().tolist() == [[4.0, 0.0], [0.0, 8.0]]
        assert np.linalg.eigvalsh(cert.p_matrix.to_array())[0] \
            > certify.TOL_PD_PER_DIM * 2

    def test_certified_kf_ties_command_gain(self):
        cert = second_order_certificate(0.3, 1.0, 1.1, 0.4, 0.9)
        assert cert.k_f == pytest.approx(1.1 * 0.4)
        cert = first_order_certificate(0.45, 1.25, 0.8)
        assert cert.k_f == pytest.approx(1.25 * 0.8)
        assert cert.p_matrix.to_array().tolist() == [[0.45]]

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
            entries.append(m.to_array())
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
        # an analytic certificate, then one of the LMI solve (off-diagonal P)
        for gen, params, lam in ((make_second_order(0.35, 1.2, 1.2),
                                  _params(k_c=0.6, k_d=0.8, k_f=0.9), 0.6),
                                 (_reheat(), _params(), 0.3)):
            a = search_certificate(gen, params, lam)
            b = search_certificate(gen, params, lam)
            assert a == b
            assert a is not None
        assert a.p_matrix.entry(0, 1) != 0.0

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


#: The random and chain blocks of the face pin, tests/data/pin_face_verdicts.py.
_FACE = runpy.run_path(str(Path(__file__).parent / "data"
                           / "pin_face_verdicts.py"))
_block = _FACE["block"]
#: Hurwitz blocks of order 1 to 5 with a feedthrough D != 0, their gains
#: and the generator that drew them.
_random_blocks = _FACE["random_blocks"]
#: A chain of lags read out through a mix of its states plus a
#: feedthrough: never one of the worked shapes.
_chain_block = _FACE["chain_block"]


def _face_vectors(gen, params):
    """x_s = -A^-1 B k_c, the block's steady state under a unit command,
    and v = [1, x_s, 0] in the secondary matrix's coordinates."""
    x_s = -params.k_c * np.linalg.solve(np.array(gen.a_matrix),
                                        np.array(gen.b_vector))
    return x_s, np.concatenate([[1.0], x_s, [0.0]])


class TestFace:
    """With v = [1, x_s, 0], v^T M v = 0 for every P and k_f, so M <= 0
    forces M v = 0, which is k_f = K k_c and A^T P x_s = -C^T."""

    def test_v_is_isotropic_for_every_p_and_kf(self):
        for gen, params, rng in _random_blocks(2601, 60):
            assert gen.d_scalar != 0.0
            _, v = _face_vectors(gen, params)
            for _ in range(5):
                p = _symmetric_stack(rng, 1, gen.order)[0]
                k_f = float(10.0 ** rng.uniform(-2, 2))
                lambda_hat = float(rng.uniform(0.0, 2.0))
                for m in (secondary_matrix(gen, params, p, k_f, lambda_hat),
                          secondary_lmi_matrix(gen, params,
                                               SymmetricMatrix.from_rows(p),
                                               lambda_hat, k_f=k_f).to_array()):
                    scale = np.abs(v) @ np.abs(m) @ np.abs(v)
                    assert abs(v @ m @ v) <= 1e-12 * scale

    def test_m_annihilates_v_on_the_face(self):
        for gen, params, rng in _random_blocks(2602, 60):
            a = np.array(gen.a_matrix)
            x_s, v = _face_vectors(gen, params)
            w = -np.linalg.solve(a.T, np.array(gen.c_vector))
            # P x_s = w: w w^T / (w^T x_s) plus any symmetric N with N x_s = 0
            q = np.linalg.svd(x_s[None, :])[2][1:].T
            s = _symmetric_stack(rng, 1, gen.order - 1)[0]
            p = np.outer(w, w) / (w @ x_s) + q @ s @ q.T
            assert np.allclose(a.T @ p @ x_s, -np.array(gen.c_vector),
                               rtol=1e-9, atol=1e-9 * np.abs(p).max())
            m = secondary_lmi_matrix(gen, params, SymmetricMatrix.from_rows(p),
                                     float(rng.uniform(0.0, 2.0)),
                                     k_f=gen.dc_gain * params.k_c).to_array()
            scale = np.abs(m) @ np.abs(v)
            assert np.all(np.abs(m @ v) <= 1e-10 * scale.max())

    @staticmethod
    def _fixture_cases():
        for name in ("two_gen.scn", "ring9.scn"):
            scn = load_scenario(fixture_path(name))
            for s in (scn, with_optimal_gains(scn)):
                for g, gen in s.generators.items():
                    yield (f"{name} gen {g}", gen, s.controllers[g],
                           s.network.bus(g).damping)

    def test_certificates_lie_on_the_face(self):
        found = 0
        for name, gen, params, lam in [*_search_cases(),
                                       *self._fixture_cases()]:
            cert = search_certificate(gen, params, lam)
            assert cert is not None, name
            found += 1
            assert cert.k_f == gen.dc_gain * params.k_c, name
            a = np.array(gen.a_matrix)
            c = np.array(gen.c_vector)
            x_s, _ = _face_vectors(gen, params)
            residual = a.T @ cert.p_matrix.to_array() @ x_s + c
            assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(c), name
        assert found == len(_search_cases()) + 12

    def test_face_without_positive_definite_p_is_refused_at_once(
            self, monkeypatch):
        # w = -A^-T C^T = [-1, -0.5] and x_s = [1, 0.5] k_c: w^T x_s < 0, so
        # no positive definite P has P x_s = w
        gen = _block([[-1.0, 0.0], [0.0, -2.0]], [1.0, 1.0], [-1.0, -1.0], 3.0)
        assert gen.dc_gain == pytest.approx(1.5)
        solved = _solver_spy(monkeypatch)
        assert search_certificate(gen, _params(), 100.0) is None
        assert solved == []


class TestFaceHamiltonian:
    """face_hamiltonian's [[F, G], [-Q, -F^T]]: the Riccati equation of M's
    Schur complement, with the face's direction in its kernel."""

    @staticmethod
    def _blocks():
        for seed in (2611, 2612):
            for gen, params, rng in _random_blocks(seed, 60):
                lambda_hat = float(rng.uniform(0.05, 5.0))
                h = certify.face_hamiltonian(gen, params, lambda_hat)
                if h is not None:
                    yield gen, params, rng, lambda_hat, h

    def test_face_direction_is_in_the_kernel(self):
        seen = 0
        for gen, params, _, _, h in self._blocks():
            x_s, _ = _face_vectors(gen, params)
            w = -np.linalg.solve(np.array(gen.a_matrix).T,
                                 np.array(gen.c_vector))
            z = np.concatenate([x_s, w])
            assert np.all(np.abs(h @ z) <= 1e-13 * (np.abs(h) @ np.abs(z))), gen
            seen += 1
        assert seen >= 40

    def test_riccati_residual_is_twice_m_over_r(self):
        seen = 0
        for gen, params, rng, lambda_hat, h in self._blocks():
            n = gen.order
            f, g, q = h[:n, :n], h[:n, n:], -h[n:, :n]
            assert np.array_equal(h[n:, n:], -f.T)
            for p in _symmetric_stack(rng, 3, n):
                m = secondary_matrix(gen, params, p, gen.dc_gain * params.k_c,
                                     lambda_hat)
                # M / R, the Schur complement of R = M's (xi, omega) block
                ends = [0, n + 1]
                cross = m[1:n + 1, ends]
                schur = (m[1:n + 1, 1:n + 1]
                         - cross @ np.linalg.solve(m[np.ix_(ends, ends)], cross.T))
                residual = p @ f + f.T @ p + p @ g @ p + q
                scale = (np.abs(p) @ np.abs(f) + np.abs(f.T) @ np.abs(p)
                         + np.abs(p) @ np.abs(g) @ np.abs(p) + np.abs(q))
                assert np.all(np.abs(residual - 2.0 * schur) <= 1e-10 * scale)
            seen += 1
        assert seen >= 40

    def test_lags_build_exactly_above_the_closed_form(self):
        # for a lag, R < 0 is lambda_hat > first_order_min_damping
        rng = np.random.default_rng(2613)
        wrong = []
        for _ in range(400):
            tau, k_gain, k_c, k_d = 10.0 ** rng.uniform(-1, 1, 4)
            gen = make_first_order(float(tau), float(k_gain))
            params = _params(k_c=float(k_c), k_d=float(k_d))
            threshold = first_order_min_damping(k_gain, k_c, k_d)
            built = [certify.face_hamiltonian(gen, params, f * threshold)
                     is not None for f in (0.99, 1.01)]
            if built != [False, True]:
                wrong.append((tau, k_gain, k_c, k_d, built))
        assert wrong == []

    def test_cascade_spectrum_leaves_the_imaginary_axis_at_lambda_0(self):
        # beside the face's zero pair a cascade's Hamiltonian has one pair
        # +-mu: imaginary below Lambda_0, where no P certifies, and real
        # above it
        wrong = []
        for tau_a, tau_p, k_gain, k_c, k_d in TestCascadeBoundary._cascades():
            gen = make_second_order(tau_a, tau_p, k_gain)
            params = _params(k_c=k_c, k_d=k_d)
            lam0 = cascade_min_damping(tau_a, tau_p, k_gain, k_c, k_d)
            pairs = []
            for f in (0.99, 1.01):
                eig = np.linalg.eigvals(
                    certify.face_hamiltonian(gen, params, f * lam0))
                pairs.append(eig[np.argsort(np.abs(eig))[2:]])
            below, above = pairs
            if not (np.abs(below.real).max() <= 4.8e-13 * np.abs(below).max()
                    and below.imag.all() and not above.imag.any()):
                wrong.append((tau_a, tau_p, k_gain, k_c, k_d, below, above))
        assert wrong == []


def _reheat():
    """Governor lag -> steam chest -> reheater, p_m = F x_ch + (1 - F) x_rh."""
    t_g, t_ch, t_rh, f_hp = 0.2, 0.3, 6.0, 0.3
    return _block([[-1.0 / t_g, 0.0, 0.0], [1.0 / t_ch, -1.0 / t_ch, 0.0],
                   [0.0, 1.0 / t_rh, -1.0 / t_rh]],
                  [1.0 / t_g, 0.0, 0.0], [0.0, f_hp, 1.0 - f_hp], 0.0)


def _cascade():
    """Two-lag cascade with feedthrough, p_m = 0.8 x_2 + 0.2 u."""
    return _block([[-1.0 / 0.3, 0.0], [1.0 / 1.1, -1.0 / 1.1]],
                  [1.0 / 0.3, 0.0], [0.0, 0.8], 0.2)


def _worked_shape(gen):
    """Has gen the exact structure of a make_first_order lag or a
    make_second_order cascade: no feedthrough, the last state read out
    alone, and for order 2 the command entering the first state only and
    the second state a unit-gain lag of the first?"""
    if gen.d_scalar != 0.0 or gen.c_vector != (0.0,) * (gen.order - 1) + (1.0,):
        return False
    if gen.order == 1:
        return True
    (_, a12), (a21, a22) = gen.a_matrix
    return gen.order == 2 and a12 == gen.b_vector[1] == 0.0 and a21 == -a22


def _diagonal_point(gen, params):
    """p with A^T diag(p) x_s = -C^T, the face's one diagonal point: p =
    w / x_s with w = -A^-T C^T."""
    x_s, _ = _face_vectors(gen, params)
    return -np.linalg.solve(np.array(gen.a_matrix).T,
                            np.array(gen.c_vector)) / x_s


def _worked_below_threshold(share=0.75):
    """(block, gains, bus damping): a worked cascade whose lambda_hat is
    share of second_order_min_damping."""
    gen = make_second_order(0.3, 1.1, 1.0)
    threshold = second_order_min_damping(1.0, 1.0, 1.0)
    return gen, _params(), share * threshold / (1.0 - LAMBDA_SHAVE)


def _top_off_v(gen, params, p, lambda_hat):
    """U^T M U's largest eigenvalue, M the secondary matrix at k_f = K k_c
    and the columns of U an orthonormal basis of v's complement."""
    _, v = _face_vectors(gen, params)
    u = np.linalg.qr(v[:, None], mode="complete")[0][:, 1:]
    m = secondary_matrix(gen, params, p, gen.dc_gain * params.k_c, lambda_hat)
    return np.linalg.eigvalsh(u.T @ m @ u)[-1]


def _checked_spy(monkeypatch):
    """The certificates of every check from here on: the calls of
    certify._witnesses, which check_secondary_lmi and the search share."""
    checked = []
    check = certify._witnesses

    def spy(gen, params, p, lambda_hat, k_f):
        checked.append(Certificate(p_matrix=SymmetricMatrix.from_rows(p),
                                   k_f=k_f, lambda_hat=lambda_hat))
        return check(gen, params, p, lambda_hat, k_f)
    monkeypatch.setattr(certify, "_witnesses", spy)
    return checked


def _solver_spy(monkeypatch):
    """The argument tuples of every face_hamiltonian call from here on: one
    per search that reaches step 3, the Riccati construction."""
    solved = []
    build = certify.face_hamiltonian

    def spy(*args):
        solved.append(args)
        return build(*args)
    monkeypatch.setattr(certify, "face_hamiltonian", spy)
    return solved


class TestSearchPaths:
    """Every block goes to the face: one check at its diagonal point, which
    decides order 1 (a worked shape's analytic point is that point), and
    the Riccati construction when it fails."""

    def _assert_certifies(self, gen, params, lam):
        assert not _worked_shape(gen)
        cert = search_certificate(gen, params, lam)
        assert cert is not None
        assert check_secondary(gen, params, cert, lam)

    def test_reheat_governor(self):
        self._assert_certifies(_reheat(), _params(k_f=1.0, k_c=1.0, k_d=1.0),
                               1.0)

    def test_reheat_at_hundredth_damping_not_found(self):
        assert search_certificate(_reheat(), _params(), 0.01) is None

    @pytest.mark.parametrize("share", [0.9, 0.75])
    def test_worked_block_below_threshold_certifies_off_diagonal(self, share):
        # the analytic (diagonal) certificate needs the whole threshold
        gen, params, lam = _worked_below_threshold(share)
        cert = search_certificate(gen, params, lam)
        assert cert is not None
        assert cert.p_matrix.entry(0, 1) != 0.0
        assert check_secondary(gen, params, cert, lam)

    def test_worked_block_at_half_threshold_not_found(self):
        gen = make_second_order(0.3, 1.1, 1.0)
        threshold = second_order_min_damping(1.0, 1.0, 1.0)
        lam = 0.5 * threshold / (1.0 - LAMBDA_SHAVE)
        assert search_certificate(gen, _params(), lam) is None

    def test_order_one_blocks_make_no_barrier_solve(self, monkeypatch):
        # a lag plus feedthrough, p_m = 0.8 x + 0.2 u: not the lag's shape,
        # and its face is the one point P = w / x_s = 0.4 / 1
        gen = _block([[-2.0]], [2.0], [0.8], 0.2)
        solved = _solver_spy(monkeypatch)
        self._assert_certifies(gen, _params(), 1.0)
        cert = search_certificate(gen, _params(), 1.0)
        assert cert.p_matrix.entry(0, 0) == pytest.approx(0.4, rel=1e-15)
        assert cert.k_f == gen.dc_gain
        # below its damping threshold the point's check fails: no search
        assert search_certificate(gen, _params(k_d=3.0), 0.1) is None
        # a worked cascade below its threshold does reach the Riccati step
        assert search_certificate(*_worked_below_threshold()) is not None
        assert len(solved) == 1

    def test_face_point_is_decided_before_the_solve(self, monkeypatch):
        solved = _solver_spy(monkeypatch)
        params = _params()
        lambda_hat = 1.0 - LAMBDA_SHAVE
        # U^T M U's largest eigenvalue at the diagonal point
        for gen, diagonal in ((_cascade(), -0.634), (_reheat(), -0.310)):
            assert _top_off_v(
                gen, params, np.diag(_diagonal_point(gen, params)),
                lambda_hat) == pytest.approx(diagonal, abs=1e-3)
            # both certify at the diagonal point
            cert = search_certificate(gen, params, 1.0)
            assert np.array_equal(cert.p_matrix.to_array(),
                                  np.diag(_diagonal_point(gen, params)))
        assert solved == []
        # the worked cascade below its threshold fails there: one
        # Hamiltonian
        gen, params, lam = _worked_below_threshold()
        lambda_hat = lam * (1.0 - LAMBDA_SHAVE)
        assert _top_off_v(gen, params, np.diag(_diagonal_point(gen, params)),
                          lambda_hat) == pytest.approx(0.0687, abs=1e-3)
        cert = search_certificate(gen, params, lam)
        assert cert is not None and check_secondary(gen, params, cert, lam)
        assert len(solved) == 1

    @pytest.mark.parametrize("case, most", [
        ((_cascade(), _params(), 1.0), 1), ((_reheat(), _params(), 1.0), 1),
        (_worked_below_threshold(), 3)], ids=["cascade", "reheat", "worked"])
    def test_secondary_matrix_builds_per_search(self, monkeypatch, case, most):
        # one build per check, at the diagonal (analytic) point and of the
        # Riccati step's certificate, and M at P = 0 for its Hamiltonian
        builds = []
        build = certify._secondary_array

        def spy(*args):
            builds.append(args)
            return build(*args)
        monkeypatch.setattr(certify, "_secondary_array", spy)
        assert search_certificate(*case) is not None
        assert len(builds) == most

    def test_search_cases_certify(self):
        for name, gen, params, lam in _search_cases():
            cert = search_certificate(gen, params, lam)
            assert cert is not None, name
            assert check_secondary(gen, params, cert, lam), name

    def test_cascade_with_feedthrough(self):
        self._assert_certifies(_cascade(), _params(), 1.0)


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
        solved = _solver_spy(monkeypatch)
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
        assert solved == []
        # the spy does see a worked cascade below its threshold
        assert search_certificate(*_worked_below_threshold()) is not None
        assert len(solved) == 1

    def test_lag_below_threshold_makes_one_check(self, monkeypatch):
        # its face is its analytic point: no second check
        checked = _checked_spy(monkeypatch)
        gen = make_first_order(0.45, 1.0)
        params = _params(k_c=1.0, k_d=3.0)
        lam = 0.9 * first_order_min_damping(1.0, 1.0, 3.0)
        assert search_certificate(gen, params, lam) is None
        assert len(checked) == 1


class TestDiagonalFacePoint:
    """The face holds one diagonal P: diag(p) with A^T diag(x_s) p = -C^T,
    that is p * x_s = w for w = -A^-T C^T, so p = w / x_s.  It is every
    block's first check, and for the worked shapes it is their analytic
    certificate."""

    def test_division_matches_the_solve(self):
        # both round, so w / x_s and the n x n solve of A^T diag(x_s) p =
        # -C^T agree to a few ulps of p's largest entry, and w / x_s meets
        # the face residual bound of the certificates' first check
        eps = np.finfo(float).eps
        seen = 0
        for seed in range(2601, 2606):
            for gen, params, _ in _random_blocks(seed, 60):
                x_s, _ = _face_vectors(gen, params)
                a, c = np.array(gen.a_matrix), np.array(gen.c_vector)
                if not x_s.all():
                    continue
                seen += 1
                p = _diagonal_point(gen, params)
                solved = np.linalg.solve(a.T * x_s, -c)
                assert (np.abs(p - solved).max()
                        <= 32.0 * eps * np.abs(solved).max()), (seed, gen)
                residual = a.T @ np.diag(p) @ x_s + c
                scale = np.abs(a.T) @ np.abs(p * x_s)
                assert np.all(np.abs(residual) <= 1e-13 * (scale + np.abs(c)))
        assert seen == 300

    def test_one_linear_solve_per_search(self, monkeypatch):
        # x_s = -k_c A^-1 B and w = -A^-T C^T are read off the block and the
        # diagonal point is w / x_s, so a block certified there, worked
        # shape or not, makes no solve
        cases = [_cascade(), _reheat(), make_first_order(0.45, 1.0),
                 make_second_order(0.3, 1.1, 1.0)]
        solves = []
        solve = np.linalg.solve

        def spy(*args):
            solves.append(args)
            return solve(*args)
        monkeypatch.setattr(np.linalg, "solve", spy)
        for gen in cases:
            del solves[:]
            cert = search_certificate(gen, _params(), 1.0)
            p = cert.p_matrix.to_array()
            assert np.array_equal(p, np.diag(np.diag(p)))
            assert solves == [], gen

    def test_first_check_outside_the_worked_shapes_is_on_the_face(
            self, monkeypatch):
        checked = _checked_spy(monkeypatch)
        seen = 0
        for gen, params, _ in _random_blocks(2603, 60):
            del checked[:]
            search_certificate(gen, params, 1.0)
            if not checked:
                continue  # w^T x_s <= 0: no positive definite P on the face
            seen += 1
            p = checked[0].p_matrix.to_array()
            assert np.array_equal(p, np.diag(np.diag(p)))
            assert checked[0].k_f == gen.dc_gain * params.k_c
            x_s, _ = _face_vectors(gen, params)
            c = np.array(gen.c_vector)
            residual = np.array(gen.a_matrix).T @ p @ x_s + c
            scale = np.abs(np.array(gen.a_matrix).T) @ np.abs(p @ x_s)
            assert np.all(np.abs(residual) <= 1e-13 * (scale + np.abs(c)))
        assert seen >= 20

    def test_worked_shapes_analytic_certificates_are_the_diagonal_point(
            self, monkeypatch):
        # the analytic certificates of tests/reference.py, from the time
        # constants and gain the block's shape gives back: a lag's is its
        # diagonal point bit for bit, a cascade's to rounding
        solved = _solver_spy(monkeypatch)
        rng = np.random.default_rng(2604)
        for trial in range(200):
            k_gain = float(10.0 ** rng.uniform(-1, 1))
            params = _params(k_c=float(10.0 ** rng.uniform(-1, 1)),
                             k_d=float(10.0 ** rng.uniform(-1, 1)))
            tau_a, tau_p = 10.0 ** rng.uniform(-1.3, 0.7, 2)
            if trial % 2 == 0:
                gen = make_first_order(float(tau_a), k_gain)
                lam = first_order_min_damping(k_gain, params.k_c, params.k_d)
                analytic = first_order_certificate(
                    -1.0 / gen.a_matrix[0][0], gen.dc_gain, params.k_c)
            else:
                gen = make_second_order(float(tau_a), float(tau_p), k_gain)
                lam = second_order_min_damping(k_gain, params.k_c, params.k_d)
                (a11, _), (_, a22) = gen.a_matrix
                analytic = second_order_certificate(
                    -1.0 / a11, -1.0 / a22, gen.dc_gain, params.k_c,
                    params.k_d)
            cert = search_certificate(gen, params, 2.0 * lam + 0.01)
            assert cert is not None
            assert cert.k_f == analytic.k_f
            p, want = cert.p_matrix.to_array(), analytic.p_matrix.to_array()
            if gen.order == 1:
                assert np.array_equal(p, want), (gen, params)
            else:
                assert np.all(np.abs(p - want) <= 1e-15 * np.abs(want)), \
                    (gen, params)
        assert solved == []


#: (seed, index, bus dampings) of _random_blocks(seed, 60) that the
#: Riccati construction certified but the former barrier solve refused
#: when its duality-gap test ran on a point left uncentred by a cap of 50
#: Newton steps, or, for (617, 54) at 0.05, 0.2 and 0.5, before its Newton
#: step was a least-squares solve
_REFUSED_UNCENTRED = [
    (601, 8, (2.0,)), (604, 17, (0.5,)), (604, 54, (5.0,)),
    (605, 13, (0.05, 0.1, 0.2)), (605, 18, (0.05,)),
    (606, 58, (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)),
    (611, 17, (0.5,)), (611, 19, (0.5,)), (615, 17, (1.0,)),
    (617, 54, (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)), (618, 3, (0.2, 0.5)),
    (620, 52, (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)), (620, 58, (0.5,)),
    (624, 11, (2.0, 5.0)), (628, 39, (0.05, 0.1, 0.2)), (629, 54, (2.0,)),
    (633, 59, (0.5, 1.0)), (634, 52, (0.5,)),
    (635, 24, (0.05, 0.1, 0.2, 0.5, 1.0)), (636, 37, (2.0, 5.0)),
    (636, 59, (1.0,)), (638, 4, (0.2,))]

#: The (seed, index) of _REFUSED_UNCENTRED's blocks whose DC gain K is not
#: positive: their certified k_f = K k_c would not be a gain
_NONPOSITIVE_GAIN = [(601, 8), (620, 58), (636, 37), (636, 59)]


def _random_block(seed, index):
    return list(_random_blocks(seed, 60))[index][:2]


class TestCentredVerdicts:
    """Blocks that the former barrier solve refused or could not decide:
    the Riccati construction certifies the first and decides the second
    without raising, and a block whose DC gain K is not positive is
    refused before either step."""

    def test_blocks_refused_from_uncentred_points_certify(self):
        assert sum(len(lams) for *_, lams in _REFUSED_UNCENTRED) == 52
        certified = refused = 0
        for seed, index, dampings in _REFUSED_UNCENTRED:
            gen, params = _random_block(seed, index)
            positive = (seed, index) not in _NONPOSITIVE_GAIN
            assert (gen.dc_gain > 0.0) == positive, (seed, index)
            for lam in dampings:
                cert = search_certificate(gen, params, lam)
                if not positive:
                    assert cert is None, (seed, index, lam)
                    refused += 1
                    continue
                assert cert is not None, (seed, index, lam)
                assert check_secondary_lmi(gen, params, cert, lam)
                certified += 1
        assert (certified, refused) == (47, 5)

    @pytest.mark.parametrize("seed, index, lam",
                             [(601, 13, 1.0), (603, 53, 2.0), (620, 48, 5.0)])
    def test_singular_newton_systems_do_not_raise(self, monkeypatch, seed,
                                                  index, lam):
        # order-4 blocks whose Newton system in the barrier solve was
        # singular: they are refused, as the face pin has them, with no
        # exception or warning; the two with K <= 0 before the Riccati
        # step, the third there
        solved = _solver_spy(monkeypatch)
        gen, params = _random_block(seed, index)
        assert gen.order == 4
        assert (gen.dc_gain > 0.0) == ((seed, index) == (620, 48))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert search_certificate(gen, params, lam) is None
        assert len(solved) == (1 if gen.dc_gain > 0.0 else 0)


def _symmetric_stack(rng, count, dim):
    a = rng.normal(size=(count, dim, dim)) * 10.0 ** rng.uniform(-3, 3)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


class TestGainsOutsideM:
    """gamma, q and the given k_f do not enter M, so the search returns the
    same certificate whatever they are."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.tuples(*[st.floats(0.05, 20.0)] * 3),
           st.floats(0.2, 5.0))
    def test_same_certificate_for_any_gamma_q_and_given_kf(self, seed,
                                                           other, lam):
        rng = np.random.default_rng(seed)
        blocks = [(gen, params) for gen, params, _ in _random_blocks(seed, 5)]
        for order in (2, 3, 4):
            blocks.append((_chain_block(rng, order),
                           _params(k_c=float(rng.uniform(0.8, 1.2)),
                                   k_d=float(rng.uniform(0.8, 1.2)))))
        gamma, q, k_f = other
        for gen, params in blocks:
            want = search_certificate(gen, params, lam)
            got = search_certificate(
                gen, dataclasses.replace(params, gamma=gamma, q=q, k_f=k_f),
                lam)
            if want is None:
                assert got is None
                continue
            assert got.p_matrix.to_array().tobytes() == \
                want.p_matrix.to_array().tobytes()
            assert (got.k_f, got.lambda_hat) == (want.k_f, want.lambda_hat)


def _search_cases():
    """(name, block, gains, bus damping): the cases of
    tests/data/search_cases.py, then seeded chains of order 2-4."""
    script = runpy.run_path(str(Path(__file__).parent / "data"
                                / "search_cases.py"))
    cases = [(c["name"], script["generator"](c["block"]),
              script["controller"](c["gains"]), c["lambda_bus"])
             for c in script["cases"]()]
    rng = np.random.default_rng(20261019)
    for i in range(24):
        gen = _chain_block(rng, 2 + i % 3)
        k_c = float(rng.uniform(0.8, 1.2))
        k_d = k_c * float(rng.uniform(0.8, 1.2))
        params = _params(k_c=k_c, k_d=k_d,
                         k_f=gen.dc_gain * (k_c + k_d) / 2.0)
        cases.append((f"chain_{i}", gen, params, float(rng.uniform(0.8, 1.2))))
    return cases
