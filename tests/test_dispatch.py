import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq.dispatch import DispatchProblem, marginal_costs, solve_dispatch


def _cost(allocation, costs):
    return sum(costs[g] * p * p / 2.0 for g, p in allocation.items())


def test_equal_costs_split_evenly():
    prob = DispatchProblem(costs={0: 1.0, 1: 1.0}, total_load=1.0)
    allocation, nu = solve_dispatch(prob)
    assert allocation == pytest.approx({0: 0.5, 1: 0.5})
    assert nu == pytest.approx(0.5)


def test_unequal_costs_inverse_proportional():
    prob = DispatchProblem(costs={0: 1.0, 1: 2.0}, total_load=3.0)
    allocation, nu = solve_dispatch(prob)
    assert nu == pytest.approx(2.0)
    assert allocation == pytest.approx({0: 2.0, 1: 1.0})
    mc = marginal_costs(allocation, prob.costs)
    assert mc[0] == pytest.approx(mc[1])


def test_single_generator_takes_everything():
    allocation, nu = solve_dispatch(DispatchProblem(costs={3: 2.5}, total_load=0.8))
    assert allocation == pytest.approx({3: 0.8})
    assert nu == pytest.approx(2.0)


def test_negative_load_allowed():
    allocation, nu = solve_dispatch(DispatchProblem(costs={0: 1.0}, total_load=-0.4))
    assert allocation[0] == pytest.approx(-0.4)
    assert nu == pytest.approx(-0.4)


def test_problem_validation():
    with pytest.raises(ValueError):
        DispatchProblem(costs={}, total_load=1.0)
    with pytest.raises(ValueError):
        DispatchProblem(costs={0: 0.0}, total_load=1.0)
    with pytest.raises(ValueError):
        DispatchProblem(costs={0: 1.0, 1: -2.0}, total_load=1.0)


def test_marginal_costs_key_mismatch():
    with pytest.raises(ValueError):
        marginal_costs({0: 1.0}, {0: 1.0, 1: 2.0})


def test_solution_beats_grid_search():
    # brute-force oracle over the (p0, p0+p1=load) constraint line
    prob = DispatchProblem(costs={0: 1.0, 1: 3.0}, total_load=2.0)
    allocation, _ = solve_dispatch(prob)
    best = min(
        ({0: p0, 1: prob.total_load - p0} for p0 in np.linspace(-1.0, 3.0, 4001)),
        key=lambda a: _cost(a, prob.costs))
    assert allocation[0] == pytest.approx(best[0], abs=1e-3)
    assert _cost(allocation, prob.costs) <= _cost(best, prob.costs) + 1e-12


def test_balanced_perturbations_never_cheaper():
    rng = np.random.default_rng(42)
    prob = DispatchProblem(costs={0: 0.7, 1: 1.9, 2: 3.1}, total_load=1.3)
    allocation, _ = solve_dispatch(prob)
    base = _cost(allocation, prob.costs)
    gids = sorted(allocation)
    for _ in range(50):
        delta = rng.normal(scale=0.2, size=len(gids))
        delta -= delta.mean()  # stay on the balance constraint
        if np.abs(delta).max() < 1e-12:
            continue
        perturbed = {g: allocation[g] + d for g, d in zip(gids, delta)}
        assert _cost(perturbed, prob.costs) > base


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-5.0, 5.0),
       st.floats(0.1, 10.0))
def test_scaling_homogeneity(q0, q1, load, scale):
    prob = DispatchProblem(costs={0: q0, 1: q1}, total_load=load)
    scaled = DispatchProblem(costs={0: q0, 1: q1}, total_load=load * scale)
    allocation, nu = solve_dispatch(prob)
    allocation_s, nu_s = solve_dispatch(scaled)
    assert nu_s == pytest.approx(nu * scale, rel=1e-12, abs=1e-12)
    for g in allocation:
        assert allocation_s[g] == pytest.approx(allocation[g] * scale,
                                                rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
       st.floats(-3.0, 3.0))
def test_marginals_always_agree_and_balance(qs, load):
    prob = DispatchProblem(costs=dict(enumerate(qs)), total_load=load)
    allocation, nu = solve_dispatch(prob)
    mc = marginal_costs(allocation, prob.costs)
    for v in mc.values():
        assert v == pytest.approx(nu, rel=1e-12, abs=1e-12)
    assert sum(allocation.values()) == pytest.approx(load, rel=1e-12, abs=1e-12)
