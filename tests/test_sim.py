import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from gridfreq.certify import search_certificate
from gridfreq.control import ControllerGains
from gridfreq.fixtures import fixture_path
from gridfreq.generation import dc_gain, make_first_order, output
from gridfreq.network import Bus, BusKind, Line, PowerNetwork, net_injection
from gridfreq.sim import (EPSILON_V, Scenario, assemble, compute_equilibrium,
                          dissipation_check, equilibrium_system_state,
                          integrate, lyapunov_value, state_layout)


def _single_bus_scenario():
    net = PowerNetwork(
        buses=[Bus(id=0, kind=BusKind.GENERATOR, inertia=2.0, damping=0.5)],
        lines=[], comm=[])
    gen = make_first_order(0.5, 2.0)
    params = ControllerGains(gamma=2.0, k_f=0.9, k_c=0.8, k_d=0.6, q=1.0)
    return Scenario(network=net, generators={0: gen}, controllers={0: params},
                    disturbance_time=1.0, step_loads={0: 0.1},
                    t_end=2.0, dt=0.01)


class TestScenarioValidation:
    def test_rejects_bad_timing(self):
        scn = _single_bus_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(scn, dt=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(scn, disturbance_time=3.0)
        with pytest.raises(ValueError):
            dataclasses.replace(scn, output_stride=0)

    def test_requires_full_generator_coverage(self):
        scn = _single_bus_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(scn, controllers={})
        with pytest.raises(ValueError):
            dataclasses.replace(scn, generators={0: scn.generators[0],
                                                 1: scn.generators[0]})

    def test_name_not_part_of_equality(self):
        scn = _single_bus_scenario()
        assert dataclasses.replace(scn, name="other") == scn


class TestLoadBusFrequency:
    def test_algebraic_balance(self, two_gen_scenario):
        # the recorded load-bus frequency is the damping balance
        # (-load + net inflow) / damping at every sample
        scn = dataclasses.replace(two_gen_scenario, t_end=3.0)
        traj = integrate(scn)
        net = scn.network
        for t, x, w in zip(traj.times, traj.states, traj.freqs[:, 2]):
            angles = {b: x[b] for b in range(3)}
            load = scn.step_loads[2] if t >= scn.disturbance_time else 0.0
            want = (-load + net_injection(net, 2, angles)) / net.bus(2).damping
            assert w == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestClosedLoopDerivative:
    # single bus: [theta, omega, x, pc]
    STATE = np.array([0.1, 0.3, 0.2, 0.7])

    def test_single_bus_hand_values(self):
        loop = assemble(_single_bus_scenario())
        d = loop.derivative(self.STATE, 0.0)  # before the load step
        assert d == pytest.approx([0.3, 0.025, 1.12, -0.415])

    def test_load_bus_hand_value(self, two_gen_scenario):
        # bus 2 takes a 0.4 step at t = 1 and has damping 0.9; with angles
        # (0.1, 0.05, 0) it receives 5 sin(0.1) + 5 sin(0.05) over its lines
        loop = assemble(two_gen_scenario)
        x = np.zeros(loop.layout.size)
        x[:3] = [0.1, 0.05, 0.0]
        assert loop.derivative(x, 0.5)[2] == pytest.approx(0.832292143986147,
                                                           rel=1e-12)
        assert loop.derivative(x, 2.0)[2] == pytest.approx(0.3878476995417026,
                                                           rel=1e-12)

    def test_load_step_only_after_disturbance_time(self):
        loop = assemble(_single_bus_scenario())
        before, at, after = (loop.derivative(self.STATE, t)[1]
                             for t in (0.5, 1.0, 1.5))
        assert at == after
        assert after == pytest.approx(before - 0.1 / 2.0)

    def test_vanishes_at_equilibrium(self, two_gen_scenario):
        scn = two_gen_scenario
        eq = compute_equilibrium(scn)
        d = assemble(scn).derivative(equilibrium_system_state(scn, eq),
                                     scn.disturbance_time + 1.0)
        assert d == pytest.approx(np.zeros(len(d)), abs=1e-11)

    def test_line_orientation_flip_is_invisible(self, two_gen_scenario):
        scn = two_gen_scenario
        net = scn.network
        flipped_lines = [Line(from_bus=net.lines[0].to_bus,
                              to_bus=net.lines[0].from_bus,
                              susceptance=net.lines[0].susceptance)]
        flipped_lines += list(net.lines[1:])
        flipped = dataclasses.replace(
            scn, network=PowerNetwork(net.buses, flipped_lines, net.comm))
        # angles, frequencies, internal states, commands
        x = np.array([0.11, -0.07, 0.02, 0.01, -0.03, 0.4, 0.1, 0.2, 0.3])
        d1 = assemble(scn).derivative(x, 2.0)
        d2 = assemble(flipped).derivative(x, 2.0)
        assert np.array_equal(d1, d2)

    def test_aggregate_command_rate_ignores_communication(self, ring9_scenario):
        # the averaging terms are pairwise antisymmetric, so the
        # gamma-weighted sum of command rates depends only on local terms
        scn = ring9_scenario
        loop = assemble(scn)
        lay = loop.layout
        x = np.random.default_rng(5).normal(scale=0.3, size=lay.size)
        d = loop.derivative(x, 2.0)
        lhs = rhs = 0.0
        for i, g in enumerate(lay.gen_ids):
            prm = scn.controllers[g]
            gen = scn.generators[g]
            omega, pc = x[lay.n_bus + i], x[lay.pc][i]
            lhs += prm.gamma * d[lay.pc][i]
            u = prm.k_c * pc - prm.k_d * omega
            p_m = output(gen, x[lay.x[i]], u)
            rhs += p_m - dc_gain(gen) * u - prm.k_f * omega
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_wrong_state_dimension_rejected(self):
        loop = assemble(_single_bus_scenario())
        with pytest.raises(ValueError):
            loop.derivative(np.zeros(5), 0.0)


class TestStateLayout:
    def test_labels_name_every_slot(self, two_gen_scenario):
        lay = state_layout(two_gen_scenario)
        assert lay.labels[0] == "theta_0"
        assert lay.labels[lay.omega] == ("omega_0", "omega_1")
        assert [lay.labels[xs] for xs in lay.x] == [("x_0[0]",), ("x_1[0]",)]
        assert lay.labels[lay.pc] == ("pc_0", "pc_1")
        assert len(set(lay.labels)) == lay.size == 9


class TestIntegrate:
    def test_time_grid_and_stride(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.2,
                                  t_end=1.0, dt=0.1, output_stride=3)
        traj = integrate(scn)
        assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.states.shape == (5, 9)

    def test_t_end_must_be_dt_multiple(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.5,
                                  t_end=1.0, dt=0.3)
        with pytest.raises(ValueError):
            integrate(scn)

    @pytest.mark.parametrize("disturbance_time", [0.0, 0.005])
    def test_step_is_classical_rk4(self, ring9_scenario, disturbance_time):
        # one step of the integrator's buffered kernel against RK4 written
        # out over the public right-hand side
        scn = dataclasses.replace(ring9_scenario, dt=0.01, t_end=0.01,
                                  disturbance_time=disturbance_time)
        loop = assemble(scn)
        x = np.random.default_rng(17).normal(scale=0.3, size=loop.layout.size)
        h = scn.dt
        k1 = loop.derivative(x, 0.0)
        k2 = loop.derivative(x + h / 2 * k1, 0.0)
        k3 = loop.derivative(x + h / 2 * k2, 0.0)
        k4 = loop.derivative(x + h * k3, 0.0)
        want = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = integrate(scn, initial_state=x).states[-1]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_no_disturbance_stays_at_rest(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, step_loads={},
                                  disturbance_time=0.5, t_end=1.0, dt=0.01)
        traj = integrate(scn)
        assert not traj.states.any()

    def test_marginal_cost_series_scales_output(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, t_end=2.0, dt=0.01)
        traj = integrate(scn)
        for i, g in enumerate(traj.layout.gen_ids):
            q = scn.controllers[g].q
            assert np.array_equal(traj.marginal_cost[:, i], q * traj.p_m[:, i])

    def test_equilibrium_is_a_fixed_point(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.0,
                                  t_end=10.0)
        eq = compute_equilibrium(scn)
        start = equilibrium_system_state(scn, eq)
        traj = integrate(scn, initial_state=start)
        assert np.max(np.abs(traj.states[-1] - start)) <= 1e-10

    def test_unstable_step_size_reports_offending_variable(self, two_gen_scenario):
        # x_0[0] is the largest slot (3.5e284) at t=600, the last finite
        # sample; by t=700 every slot is non-finite
        scn = dataclasses.replace(two_gen_scenario, dt=10.0, t_end=1000.0)
        with pytest.raises(ArithmeticError,
                           match=r"non-finite value in x_0\[0\] at t=700\.0$"):
            integrate(scn)
        # recording every step names the same slot, one step after it overflows
        with pytest.raises(ArithmeticError,
                           match=r"non-finite value in x_0\[0\] at t=650\.0$"):
            integrate(dataclasses.replace(scn, output_stride=1))
        # through the CLI: exit 2 and one error line, without numpy warnings
        proc = subprocess.run(
            [sys.executable, "-m", "gridfreq.cli", "simulate",
             str(fixture_path("two_gen.scn")), "--dt", "10", "--t-end", "1000"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: non-finite value in x_0[0] at t=700.0\n"


class TestEquilibrium:
    def test_two_gen_values(self, two_gen_scenario):
        eq = compute_equilibrium(two_gen_scenario)
        assert eq.nu == pytest.approx(0.4 / 1.5)
        assert eq.angles_star[0] == 0.0  # reference bus pinned
        assert eq.p_m_star[0] == pytest.approx(1.0 * eq.nu)
        assert eq.p_m_star[1] == pytest.approx(0.5 * eq.nu)
        assert sum(eq.p_m_star.values()) == pytest.approx(0.4)
        assert eq.security_ok
        assert eq.max_abs_angle_diff < 0.06

    def test_flow_balance_at_each_bus(self, ring9_scenario):
        scn = ring9_scenario
        eq = compute_equilibrium(scn)
        for b in scn.network.buses:
            inj = net_injection(scn.network, b.id, eq.angles_star)
            load = scn.step_loads.get(b.id, 0.0)
            gen_out = eq.p_m_star.get(b.id, 0.0)
            assert gen_out - load + inj == pytest.approx(0.0, abs=1e-10)

    def test_flows_match_angle_differences(self, two_gen_scenario):
        eq = compute_equilibrium(two_gen_scenario)
        for (i, j), f in eq.flows_star.items():
            eta = eq.angles_star[i] - eq.angles_star[j]
            assert f == pytest.approx(math.sin(eta) * {
                frozenset((0, 1)): 2.0}.get(frozenset((i, j)), 5.0))

    def test_overload_raises(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, step_loads={2: 50.0})
        with pytest.raises(RuntimeError, match="smaller loads"):
            compute_equilibrium(scn)

    def test_single_bus_network_needs_no_newton(self):
        scn = _single_bus_scenario()
        eq = compute_equilibrium(scn)
        assert eq.nu == pytest.approx(0.1 / (2.0 * 0.8))
        assert eq.angles_star == {0: 0.0}
        assert eq.security_ok


@pytest.fixture(scope="module")
def certified(two_gen_scenario):
    scn = two_gen_scenario
    certs = {}
    for g in scn.network.generator_ids:
        cert = search_certificate(scn.generators[g], scn.controllers[g],
                                  scn.network.bus(g).damping)
        assert cert is not None
        certs[g] = cert
    return scn, certs, compute_equilibrium(scn)


class TestLyapunov:
    def test_zero_exactly_at_equilibrium(self, certified):
        scn, certs, eq = certified
        state = equilibrium_system_state(scn, eq)
        assert lyapunov_value(scn, certs, eq, state) == 0.0

    def test_frequency_perturbation_contributes_kinetic_term(self, certified):
        scn, certs, eq = certified
        bumped = equilibrium_system_state(scn, eq)
        bumped[state_layout(scn).labels.index("omega_0")] = 0.02
        v = lyapunov_value(scn, certs, eq, bumped)
        m = scn.network.bus(0).inertia
        assert v == pytest.approx(0.5 * m * 0.02 ** 2, rel=1e-12)

    def test_angle_perturbation_is_positive(self, certified):
        scn, certs, eq = certified
        bumped = equilibrium_system_state(scn, eq)
        bumped[2] += 0.05
        assert lyapunov_value(scn, certs, eq, bumped) > 0.0

    def test_missing_certificate_rejected(self, certified):
        scn, certs, eq = certified
        state = equilibrium_system_state(scn, eq)
        with pytest.raises(ValueError):
            lyapunov_value(scn, {0: certs[0]}, eq, state)

    def test_constant_trajectory_has_zero_dissipation(self, certified):
        scn, certs, eq = certified
        scn0 = dataclasses.replace(scn, disturbance_time=0.0, t_end=1.0)
        traj = integrate(scn0, initial_state=equilibrium_system_state(scn, eq))
        # the equilibrium is a fixed point only up to rhs roundoff, so V
        # wobbles at the square of that scale rather than sitting at 0.0
        assert dissipation_check(scn0, certs, eq, traj) <= 1e-30

    def test_disturbed_run_dissipates(self, certified):
        scn, certs, eq = certified
        scn_fast = dataclasses.replace(scn, t_end=10.0)
        traj = integrate(scn_fast, certs=certs, equilibrium=eq)
        assert traj.lyapunov is not None
        peak = dissipation_check(scn_fast, certs, eq, traj)
        assert peak <= EPSILON_V
        # V must actually decay once the step has landed
        assert traj.lyapunov[-1] < traj.lyapunov[len(traj.lyapunov) // 3]

    def test_series_matches_single_states(self, certified):
        scn, certs, eq = certified
        scn_fast = dataclasses.replace(scn, t_end=3.0)
        traj = integrate(scn_fast, certs=certs, equilibrium=eq)
        one_by_one = [lyapunov_value(scn, certs, eq, x) for x in traj.states]
        assert traj.lyapunov == pytest.approx(one_by_one, rel=1e-13, abs=1e-16)
        # without a stored series, dissipation_check evaluates it itself
        bare = dataclasses.replace(traj, lyapunov=None)
        assert dissipation_check(scn, certs, eq, bare) == pytest.approx(
            dissipation_check(scn, certs, eq, traj), rel=0, abs=1e-15)
