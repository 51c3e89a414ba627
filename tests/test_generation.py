import dataclasses
import pickle

import numpy as np
import pytest

from gridfreq.control import ControllerGains
from gridfreq.generation import (LtiGenerator, is_hurwitz, make_first_order,
                                 make_second_order)
from gridfreq.network import Bus, BusKind, PowerNetwork
from gridfreq.sim import Scenario, assemble
from reference import dense, output


def test_first_order_construction():
    gen = make_first_order(1.0, 1.0)
    assert gen.a_matrix == ((-1.0,),)
    assert gen.b_vector == (1.0,)
    assert gen.c_vector == (1.0,)
    assert gen.d_scalar == 0.0

    gen = make_first_order(2.0, 3.0)
    assert gen.a_matrix == ((-0.5,),)
    assert gen.b_vector == (1.5,)


def test_second_order_construction():
    gen = make_second_order(1.0, 1.0, 1.0)
    assert gen.a_matrix == ((-1.0, 0.0), (1.0, -1.0))
    assert gen.b_vector == (1.0, 0.0)
    assert gen.c_vector == (0.0, 1.0)
    # triangular A: eigenvalues sit on the diagonal
    gen = make_second_order(2.0, 4.0, 0.7)
    eigs = sorted(np.linalg.eigvals(np.array(gen.a_matrix)).real)
    assert eigs == pytest.approx([-0.5, -0.25])


def test_constructors_reject_nonpositive_parameters():
    with pytest.raises(ValueError):
        make_first_order(0.0, 1.0)
    with pytest.raises(ValueError):
        make_first_order(1.0, -2.0)
    with pytest.raises(ValueError):
        make_second_order(1.0, 0.0, 1.0)


@pytest.mark.parametrize("build", [
    lambda x: LtiGenerator(((-1.0,),), (x,), (1.0,), 0.0, 1),
    lambda x: LtiGenerator(((-1.0, 0.0), (1.0, -1.0)), (1.0, 0.0), (0.0, 1.0),
                           x, 2)])
def test_block_entries_must_be_finite(build):
    with pytest.raises(ValueError, match="^generator block entries must be finite$"):
        build(np.inf)


@pytest.mark.parametrize("fields, message", [
    ((((),), (), (), 0.0, 0), "generator order must be at least 1"),
    ((((-1.0, 0.0),), (1.0,), (1.0,), 0.0, 1),
     "a_matrix shape does not match order"),
    ((((-1.0, 0.0), (1.0, -1.0)), (1.0,), (0.0, 1.0), 0.0, 2),
     "b/c vector length does not match order"),
    ((((-1.0, 0.0), (1.0, -1.0)), (1.0, 0.0), (1.0,), 0.0, 2),
     "b/c vector length does not match order")])
def test_block_shape_must_match_order(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LtiGenerator(*fields)


@pytest.mark.parametrize("args, name", [
    ((np.inf, 1.0), "tau"), ((0.5, np.inf), "k"), ((np.inf, np.inf), "tau")])
def test_first_order_names_a_non_finite_parameter(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make_first_order(*args)


@pytest.mark.parametrize("args, name", [
    ((np.inf, 1.0, 1.0), "tau_a"), ((0.5, np.inf, 1.0), "tau_p"),
    ((0.5, 1.0, np.inf), "k")])
def test_second_order_names_a_non_finite_parameter(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make_second_order(*args)


def _closed_loop_output(gen, state, u):
    """p_m as the closed loop reads it (its p_m rows), for the block on a
    single bus with internal state ``state``, zero frequency and the
    command that makes the input u (k_c = 1)."""
    net = PowerNetwork(buses=[Bus(0, BusKind.GENERATOR, inertia=1.0,
                                  damping=1.0)], lines=[], comm=[])
    gains = ControllerGains(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    loop = assemble(Scenario(network=net, generators={0: gen},
                             controllers={0: gains}, disturbance_time=0.0,
                             step_loads={}, t_end=1.0, dt=0.1))
    x = np.zeros(loop.layout.size)
    x[loop.layout.x[0]] = state
    x[loop.layout.pc] = u
    return float(dense(loop)[3][0] @ x)


def test_output_examples():
    gen = make_second_order(1.0, 1.0, 1.0)
    assert _closed_loop_output(gen, [0.3, 0.9], 5.0) == 0.9
    direct = LtiGenerator(a_matrix=((-1.0,),), b_vector=(1.0,),
                          c_vector=(0.0,), d_scalar=0.5, order=1)
    assert _closed_loop_output(direct, [0.0], 2.0) == 1.0


def test_dc_gain_examples():
    assert make_first_order(3.0, 2.5).dc_gain == pytest.approx(2.5)
    assert make_second_order(1.0, 2.0, 0.7).dc_gain == pytest.approx(0.7)
    gen = LtiGenerator(a_matrix=((-2.0, 0.0), (0.0, -1.0)),
                       b_vector=(1.0, 1.0), c_vector=(1.0, 1.0),
                       d_scalar=0.0, order=2)
    assert gen.dc_gain == pytest.approx(1.5)


def test_dc_gain_is_solved_once_when_the_block_is_made(monkeypatch):
    gen = LtiGenerator(a_matrix=((-2.0, 0.5), (0.3, -1.0)),
                       b_vector=(1.0, 0.2), c_vector=(0.4, 1.0),
                       d_scalar=0.1, order=2)
    a, b, c = (np.array(v) for v in (gen.a_matrix, gen.b_vector, gen.c_vector))
    assert gen.dc_gain == float(-c @ np.linalg.solve(a, b) + 0.1)
    # the block's arrays, A^-1 B and A^-T C^T, made with it, equal to the
    # tuples and their solves, and read-only
    arrays = dict(a_array=a, b_array=b, c_array=c,
                  a_inv_b=np.linalg.solve(a, b),
                  a_inv_t_c=np.linalg.solve(a.T, c))
    for name, want in arrays.items():
        got = getattr(gen, name)
        assert np.array_equal(got, want) and got.dtype == float, name
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0
    # derived values: out of repr, == and hash, and kept by pickle and replace
    for name in ("dc_gain", *arrays):
        assert name not in repr(gen)
    odd = dataclasses.replace(gen)
    for name in arrays:
        object.__setattr__(odd, name, np.zeros(2))
    assert odd == gen and hash(odd) == hash(gen)
    twin = dataclasses.replace(gen)
    assert twin == gen and hash(twin) == hash(gen)
    assert twin.dc_gain == pickle.loads(pickle.dumps(gen)).dc_gain == gen.dc_gain
    with pytest.raises(TypeError):
        LtiGenerator(a_matrix=((-1.0,),), b_vector=(1.0,), c_vector=(1.0,),
                     d_scalar=0.0, order=1, dc_gain=2.0)
    with pytest.raises(TypeError):
        LtiGenerator(a_matrix=((-1.0,),), b_vector=(1.0,), c_vector=(1.0,),
                     d_scalar=0.0, order=1, a_array=np.eye(1))

    def no_solve(*args):
        raise AssertionError("dc_gain solved again")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert pickle.loads(pickle.dumps(gen)).dc_gain == gen.dc_gain
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(gen, protocol=protocol))
        for name in arrays:
            got = getattr(copied, name)
            assert np.array_equal(got, getattr(gen, name)), (protocol, name)
            assert not got.flags.writeable, (protocol, name)
    for name in arrays:
        assert np.array_equal(getattr(twin, name), getattr(gen, name))
        assert not getattr(twin, name).flags.writeable


class TestIsHurwitz:
    def test_scalar_cases(self):
        assert is_hurwitz([[-1.0]])
        assert not is_hurwitz([[1.0]])
        assert not is_hurwitz([[0.0]])

    def test_rotation_matrix_is_marginal(self):
        # eigenvalues +/- i: zero real part must be rejected
        assert not is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_hurwitz([[1.0, 2.0]])

    def test_order_cap(self):
        big = -np.eye(11)
        with pytest.raises(ValueError):
            is_hurwitz(big)

    def test_constructors_always_pass(self):
        for tau in (0.05, 1.0, 17.0):
            assert is_hurwitz(make_first_order(tau, 1.0).a_matrix)
            assert is_hurwitz(make_second_order(tau, 2 * tau, 1.0).a_matrix)


def test_lti_generator_rejects_unstable_a():
    with pytest.raises(ValueError):
        LtiGenerator(a_matrix=((1.0,),), b_vector=(1.0,), c_vector=(1.0,),
                     d_scalar=0.0, order=1)


def _read_back(gen):
    """The builder arguments read back from a lag's or a cascade's
    matrices: tau = -1/a for each time constant, k = b_1 tau_1."""
    taus = [-1.0 / gen.a_matrix[i][i] for i in range(gen.order)]
    return (*taus, gen.b_vector[0] * taus[0])


def test_builders_record_the_arguments_that_rebuild_the_block():
    rng = np.random.default_rng(3201)
    missed = 0
    for _ in range(1000):
        tau_a, tau_p, k = (10.0 ** rng.uniform(-1.5, 1.5, 3)).tolist()
        for build, args in ((make_first_order, (tau_a, k)),
                             (make_second_order, (tau_a, tau_p, k))):
            gen = build(*args)
            assert gen.built_by == (build, args)
            assert build(*gen.built_by[1]) == gen
            missed += build(*_read_back(gen)) != gen
    # the draws include blocks that the arguments read back from their
    # matrices do not rebuild, about one in a hundred
    assert missed >= 10


def test_record_is_kept_out_of_equality_hash_and_repr():
    gen = make_second_order(0.35, 1.2, 1.1)
    direct = LtiGenerator(gen.a_matrix, gen.b_vector, gen.c_vector,
                          gen.d_scalar, gen.order)
    assert direct.built_by is None
    assert direct == gen and hash(direct) == hash(gen)
    assert repr(direct) == repr(gen)
    assert "built_by" not in repr(gen)


def test_replace_drops_the_record():
    # a changed block must not keep the model of the block it came from
    gen = make_first_order(0.45, 1.25)
    assert dataclasses.replace(gen).built_by is None
    assert dataclasses.replace(gen, d_scalar=0.5).built_by is None
    with pytest.raises(ValueError):
        dataclasses.replace(gen, built_by=gen.built_by)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_keeps_the_record(protocol):
    for gen in (make_first_order(0.45, 1.25), make_second_order(0.35, 1.2, 1.1)):
        again = pickle.loads(pickle.dumps(gen, protocol=protocol))
        assert again == gen
        assert again.built_by == gen.built_by


def _rk4_step_response(gen: LtiGenerator, u: float, t_end: float, dt: float) -> float:
    a = np.array(gen.a_matrix)
    b = np.array(gen.b_vector) * u
    x = np.zeros(gen.order)
    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = a @ x + b
        k2 = a @ (x + dt / 2 * k1) + b
        k3 = a @ (x + dt / 2 * k2) + b
        k4 = a @ (x + dt * k3) + b
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return output(gen, x, u)


@pytest.mark.parametrize("tau,k", [(0.2, 0.8), (1.0, 1.0), (3.0, 2.5)])
def test_step_response_settles_at_dc_gain(tau, k):
    gen = make_first_order(tau, k)
    settled = _rk4_step_response(gen, 0.7, 20 * tau, tau / 50)
    assert settled == pytest.approx(gen.dc_gain * 0.7, abs=1e-7)
