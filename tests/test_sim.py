import dataclasses
import math
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from gridfreq import cli, sim
from gridfreq.certify import search_certificate
from gridfreq.cli import load_scenario
from gridfreq.control import ControllerGains
from gridfreq.fixtures import fixture_path
from gridfreq.generation import make_first_order
from gridfreq.network import Bus, BusKind, Line, PowerNetwork, validate
from gridfreq.sim import (EPSILON_V, Scenario, assemble, compute_equilibrium,
                          dissipation_check, equilibrium_system_state,
                          integrate, integrate_many, lyapunov_value,
                          state_layout, transient_angle_peak)
from meshes import ring_with_chords, with_generic_blocks
from reference import (angle_peak, dense, derivative, equilibrium_angles,
                       incidence, lyapunov, lyapunov_weights, net_injection,
                       output, series)
from tracing import traced_peak


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

    @pytest.mark.parametrize("field", ["dt", "t_end", "disturbance_time"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_timing(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(_single_bus_scenario(), **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_step_load_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^invalid scenario: step load at "
                                             "bus 0 must be finite$"):
            dataclasses.replace(_single_bus_scenario(), step_loads={0: value})

    def test_requires_full_generator_coverage(self):
        scn = _single_bus_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(scn, controllers={})
        with pytest.raises(ValueError):
            dataclasses.replace(scn, generators={0: scn.generators[0],
                                                 1: scn.generators[0]})

    def test_invalid_network_names_every_problem(self):
        scn = _single_bus_scenario()
        net = PowerNetwork(
            buses=[Bus(id=0, kind=BusKind.GENERATOR, inertia=0.0, damping=0.5),
                   Bus(id=1, kind=BusKind.LOAD, damping=0.0)],
            lines=[Line(0, 1, -1.0)], comm=[])
        problems = validate(net)
        assert len(problems) == 3
        with pytest.raises(ValueError) as err:
            dataclasses.replace(scn, network=net)
        assert str(err.value) == "invalid scenario: " + "; ".join(problems)

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
        d = derivative(loop, self.STATE, 0.0)  # before the load step
        assert d == pytest.approx([0.3, 0.025, 1.12, -0.415])

    def test_load_bus_hand_value(self, two_gen_scenario):
        # bus 2 takes a 0.4 step at t = 1 and has damping 0.9; with angles
        # (0.1, 0.05, 0) it receives 5 sin(0.1) + 5 sin(0.05) over its lines
        loop = assemble(two_gen_scenario)
        x = np.zeros(loop.layout.size)
        x[:3] = [0.1, 0.05, 0.0]
        assert derivative(loop, x, 0.5)[2] == pytest.approx(0.832292143986147,
                                                            rel=1e-12)
        assert derivative(loop, x, 2.0)[2] == pytest.approx(0.3878476995417026,
                                                            rel=1e-12)

    def test_load_step_only_after_disturbance_time(self):
        loop = assemble(_single_bus_scenario())
        before, at, after = (derivative(loop, self.STATE, t)[1]
                             for t in (0.5, 1.0, 1.5))
        assert at == after
        assert after == pytest.approx(before - 0.1 / 2.0)

    def test_vanishes_at_equilibrium(self, two_gen_scenario):
        scn = two_gen_scenario
        eq = compute_equilibrium(scn)
        d = derivative(assemble(scn), equilibrium_system_state(scn, eq),
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
        d1 = derivative(assemble(scn), x, 2.0)
        d2 = derivative(assemble(flipped), x, 2.0)
        assert np.array_equal(d1, d2)

    def test_aggregate_command_rate_ignores_communication(self, ring9_scenario):
        # the averaging terms are pairwise antisymmetric, so the
        # gamma-weighted sum of command rates depends only on local terms
        scn = ring9_scenario
        loop = assemble(scn)
        lay = loop.layout
        x = np.random.default_rng(5).normal(scale=0.3, size=lay.size)
        d = derivative(loop, x, 2.0)
        lhs = rhs = 0.0
        for i, g in enumerate(lay.gen_ids):
            prm = scn.controllers[g]
            gen = scn.generators[g]
            omega, pc = x[lay.n_bus + i], x[lay.pc][i]
            lhs += prm.gamma * d[lay.pc][i]
            u = prm.k_c * pc - prm.k_d * omega
            p_m = output(gen, x[lay.x[i]], u)
            rhs += p_m - gen.dc_gain * u - prm.k_f * omega
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_generic_blocks_match_the_equations(self, t):
        # blocks with feedthrough (D != 0) and a dense A, a generator bus
        # of damping 0: each generator's frequency, block and command rates
        # written out from assemble's equations
        scn = with_generic_blocks(ring_with_chords(3, buses=30, generators=8,
                                                   chords=8), seed=4)
        net, loop = scn.network, assemble(scn)
        lay = loop.layout
        x = np.random.default_rng(9).normal(scale=0.3, size=lay.size)
        d = derivative(loop, x, t)
        pc = dict(zip(lay.gen_ids, x[lay.pc]))
        for i, g in enumerate(lay.gen_ids):
            gen, prm, bus = scn.generators[g], scn.controllers[g], net.bus(g)
            omega, xg = x[lay.omega][i], x[lay.x[i]]
            u = prm.k_c * pc[g] - prm.k_d * omega
            p_m = output(gen, xg, u)
            step = scn.step_loads.get(g, 0.0) if t >= scn.disturbance_time else 0.0
            want = {lay.omega.start + i: (p_m - step - bus.damping * omega
                                          + net_injection(net, g, x)) / bus.inertia,
                    lay.pc.start + i: (p_m - gen.dc_gain * u - prm.k_f * omega
                                       + sum(e.weight * (pc[e.b if e.a == g else e.a]
                                                         - pc[g])
                                             for e in net.comm if g in (e.a, e.b))
                                       ) / prm.gamma}
            for r, (a_row, b_r) in enumerate(zip(gen.a_matrix, gen.b_vector)):
                want[lay.x[i].start + r] = sum(a * v for a, v in zip(a_row, xg)) + b_r * u
            for row, value in want.items():
                assert d[row] == pytest.approx(value, rel=1e-12, abs=1e-12), \
                    lay.labels[row]
        assert any(gen.d_scalar for gen in scn.generators.values())
        assert min(b.damping for b in net.buses) == 0.0

    def test_wrong_state_dimension_rejected(self):
        loop = assemble(_single_bus_scenario())
        with pytest.raises(ValueError):
            derivative(loop, np.zeros(5), 0.0)


class TestStateLayout:
    def test_labels_name_every_slot(self, two_gen_scenario):
        lay = state_layout(two_gen_scenario)
        assert lay.labels[0] == "theta_0"
        assert lay.labels[lay.omega] == ("omega_0", "omega_1")
        assert [lay.labels[xs] for xs in lay.x] == [("x_0[0]",), ("x_1[0]",)]
        assert lay.labels[lay.pc] == ("pc_0", "pc_1")
        assert len(set(lay.labels)) == lay.size == 9


def _three_cases(request, mesh_buses):
    """two_gen, ring9 and a seeded ring_with_chords mesh of mesh_buses buses."""
    return [request.getfixturevalue("two_gen_scenario"),
            request.getfixturevalue("ring9_scenario"),
            ring_with_chords(mesh_buses + 1, buses=mesh_buses,
                             generators=mesh_buses // 4, chords=3 * mesh_buses // 10)]


class TestClosedLoopForm:
    def test_loop_holds_its_nonzeros(self, request):
        for scn in _three_cases(request, 200):
            loop = assemble(scn)
            lay = loop.layout
            for rows, cols, vals in (loop.jac, loop.pm_rows):
                # row by row, column by column, as np.nonzero gives them
                assert (np.diff(rows * lay.size + cols) > 0).all(), scn.name
                assert vals.all(), scn.name
            flow_rows, flow_vals = loop.spread
            assert flow_rows.shape == flow_vals.shape == (2, len(scn.network.lines))
            assert (flow_vals[0] < 0.0).all() and (flow_vals[1] > 0.0).all()
            # bus b's angle is slot b
            frm, to = loop.ends
            assert list(zip(frm, to)) == [(ln.from_bus, ln.to_bus)
                                          for ln in scn.network.lines]
            # nothing grows as states x states, states x lines or
            # lines x states
            bound = 2 * max(lay.size, len(frm), len(loop.jac[0]))
            arrays = [loop.load, *loop.jac, *loop.ends, *loop.spread, *loop.pm_rows]
            assert max(a.size for a in arrays) <= bound, scn.name

    def test_union_is_the_block_diagonal_of_its_members(self, ring9_scenario,
                                                         two_gen_scenario):
        members = [assemble(s) for s in (ring9_scenario, two_gen_scenario,
                                         ring9_scenario)]
        union = sim._union(members)
        # J, E, S and p_m's rows
        for got, blocks in zip(dense(union), zip(*map(dense, members))):
            want = np.zeros(tuple(np.sum([b.shape for b in blocks], axis=0)))
            r = c = 0
            for b in blocks:
                want[r:r + b.shape[0], c:c + b.shape[1]] = b
                r, c = r + b.shape[0], c + b.shape[1]
            assert np.array_equal(got, want)
        assert np.array_equal(union.load,
                              np.concatenate([m.load for m in members]))
        rows, cols, _ = union.jac
        assert (np.diff(rows * len(union.load) + cols) > 0).all()

    def test_controller_is_distributed_and_reads_no_demand(self, request):
        # each command row reads its own generator's frequency, block
        # states and command and its comm neighbours' commands, nothing else
        for scn in _three_cases(request, 40):
            loop = assemble(scn)
            lay = loop.layout
            rows, cols, _ = loop.jac
            pc = {g: lay.pc.start + i for i, g in enumerate(lay.gen_ids)}
            for i, g in enumerate(lay.gen_ids):
                own = {lay.omega.start + i, *range(lay.x[i].start, lay.x[i].stop),
                       pc[g]}
                neighbours = {pc[e.b if e.a == g else e.a] for e in scn.network.comm
                              if g in (e.a, e.b)}
                read = set(cols[rows == pc[g]].tolist())
                assert read - own == neighbours, (scn.name, g)

            # and no command row, of J or of c, depends on the step loads
            def commands(s):
                loop = assemble(s)
                rows, cols, vals = loop.jac
                at = rows >= loop.layout.pc.start
                return rows[at], cols[at], vals[at], loop.load[loop.layout.pc]

            want = commands(scn)
            assert not want[3].any()
            for loads in ({b: 3.0 * d for b, d in scn.step_loads.items()}, {}):
                got = commands(dataclasses.replace(scn, step_loads=loads))
                assert all(map(np.array_equal, got, want)), scn.name


class TestIntegrate:
    def test_time_grid_and_stride(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.2,
                                  t_end=1.0, dt=0.1, output_stride=3)
        traj = integrate(scn)
        assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.states.shape == (5, 9)

    def test_t_end_must_be_dt_multiple(self, two_gen_scenario):
        # the scenario itself is invalid, so no run can start on it
        with pytest.raises(ValueError, match="^t_end must be an integer multiple of dt$"):
            dataclasses.replace(two_gen_scenario, disturbance_time=0.5,
                                t_end=1.0, dt=0.3)

    @pytest.mark.parametrize("disturbance_time", [0.0, 0.005])
    def test_step_is_classical_rk4(self, ring9_scenario, disturbance_time):
        # one step of the integrator's buffered kernel against RK4 written
        # out over the dense right-hand side
        scn = dataclasses.replace(ring9_scenario, dt=0.01, t_end=0.01,
                                  disturbance_time=disturbance_time)
        loop = assemble(scn)
        x = np.random.default_rng(17).normal(scale=0.3, size=loop.layout.size)
        h = scn.dt
        k1 = derivative(loop, x, 0.0)
        k2 = derivative(loop, x + h / 2 * k1, 0.0)
        k3 = derivative(loop, x + h / 2 * k2, 0.0)
        k4 = derivative(loop, x + h * k3, 0.0)
        want = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = integrate(scn, initial_state=x).states[-1]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_run_of_no_steps_records_its_start(self, two_gen_scenario):
        # the load is on from the start, and the one sample is the rest state
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=-1.0,
                                  t_end=0.0)
        traj = integrate(scn)
        assert list(traj.times) == [0.0]
        assert not traj.states.any()
        assert traj.freqs[0] == pytest.approx([0.0, 0.0, -0.4 / 0.9])

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
        # two_gen, and meshes that mix first- and second-order generators
        cases = [two_gen_scenario] + [
            ring_with_chords(seed, buses=20, generators=6, chords=6)
            for seed in (3, 4, 5)]
        for base in cases:
            scn = dataclasses.replace(base, disturbance_time=0.0, t_end=10.0)
            eq = compute_equilibrium(scn)
            start = equilibrium_system_state(scn, eq)
            traj = integrate(scn, initial_state=start)
            drift = np.max(np.abs(traj.states[-1] - start))
            assert drift <= 1e-10, (scn.name, drift)

    def test_unstable_step_size_reports_offending_variable(self, two_gen_scenario,
                                                           child_env):
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
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 2
        assert proc.stderr == "error: non-finite value in x_0[0] at t=700.0\n"

    def test_divergence_past_the_first_sample_block(self, two_gen_scenario,
                                                     monkeypatch):
        # finiteness is checked once per sample block: the first non-finite
        # sample is 264, in the third block, and the run steps no further
        # than that block's last sample
        scn = dataclasses.replace(two_gen_scenario, dt=10.0, t_end=4000.0,
                                  disturbance_time=2000.0, output_stride=1)
        counts = _counted_steps(monkeypatch)
        with pytest.raises(ArithmeticError,
                           match=r"non-finite value in x_0\[0\] at t=2640\.0$"):
            integrate(scn)
        (block,) = [b for b in sim._sample_blocks(401) if b.start <= 264 < b.stop]
        assert block.start > 0
        # from rest the kernel starts at the load step, step 200
        assert 264 <= 200 + sum(counts) <= block.stop - 1


def _certified_variant(scn, k_d):
    ctl = dict(scn.controllers)
    ctl[1] = dataclasses.replace(ctl[1], k_d=k_d)
    scn = dataclasses.replace(scn, controllers=ctl)
    certs = {g: search_certificate(scn.generators[g], scn.controllers[g],
                                   scn.network.bus(g).damping)
             for g in scn.network.generator_ids}
    scn = dataclasses.replace(scn, controllers={
        g: dataclasses.replace(c, k_f=certs[g].k_f)
        for g, c in scn.controllers.items()})
    return scn, certs, compute_equilibrium(scn)


class TestIntegrateMany:
    @pytest.mark.parametrize("name", ["two_gen.scn", "ring9.scn"])
    def test_one_member_is_bitwise_integrate(self, name):
        scn = dataclasses.replace(load_scenario(fixture_path(name)), t_end=5.0)
        lone = integrate(scn)
        (one,) = integrate_many([scn])
        for field in ("times", "states", "freqs", "p_m", "marginal_cost"):
            assert np.array_equal(getattr(one, field), getattr(lone, field)), field

    def test_members_match_lone_runs(self, two_gen_scenario):
        # eight k_d values, as a sweep packs them; the block products sum
        # in another order, so members may differ in the last digits
        base = dataclasses.replace(two_gen_scenario, t_end=10.0)
        runs = [_certified_variant(base, k_d)
                for k_d in (0.43, 0.54, 0.59, 0.7, 0.74, 0.81, 0.88, 1.0)]
        trajs = integrate_many([r[0] for r in runs])
        for (scn, certs, eq), got in zip(runs, trajs):
            lone = integrate(scn)
            assert got.layout == lone.layout
            for field in ("states", "freqs", "p_m", "marginal_cost"):
                assert np.max(np.abs(getattr(got, field) - getattr(lone, field))) \
                    <= 1e-12, field
            assert np.max(np.abs(lyapunov_value(scn, certs, eq, got.states)
                                 - lyapunov_value(scn, certs, eq, lone.states))) \
                <= 1e-12

    def test_members_of_different_sizes(self, two_gen_scenario, ring9_scenario):
        grid = dict(t_end=3.0, dt=0.01, disturbance_time=0.5)
        scns = [dataclasses.replace(ring9_scenario, **grid),
                dataclasses.replace(two_gen_scenario, **grid)]
        x0 = [None, np.full(9, 0.01)]
        for got, scn, start in zip(integrate_many(scns, initial_states=x0),
                                   scns, x0):
            lone = integrate(scn, initial_state=start)
            assert np.max(np.abs(got.states - lone.states)) <= 1e-12

    def test_divergence_names_the_member(self, two_gen_scenario):
        # the run of TestIntegrate's divergence past the first sample block,
        # beside a copy with another k_d
        scn = dataclasses.replace(two_gen_scenario, dt=10.0, t_end=4000.0,
                                  disturbance_time=2000.0, output_stride=1)
        ctl = dict(scn.controllers)
        ctl[1] = dataclasses.replace(ctl[1], k_d=0.6)
        other = dataclasses.replace(scn, controllers=ctl)
        with pytest.raises(ArithmeticError, match=r"non-finite value in "
                           r"x_0\[0\] of member 1 at t=2640\.0$"):
            integrate_many([scn, other])

    def test_members_need_one_time_grid(self, two_gen_scenario):
        other = dataclasses.replace(two_gen_scenario, output_stride=5)
        with pytest.raises(ValueError, match="one time grid"):
            integrate_many([two_gen_scenario, other])

    def test_no_scenarios_is_no_run(self):
        # as packs([]) makes no pack
        assert integrate_many([]) == []


def _kernel_size(scns):
    return sim.kernel_entries(sum(state_layout(s).size for s in scns),
                              sum(len(s.network.lines) for s in scns))


def _rk4_reference(scns, starts, steps):
    """The recorded states of RK4 written out over the dense right-hand
    side of each member, with the load switched per step as the kernels
    do."""
    loops = [assemble(s) for s in scns]
    cuts = np.cumsum([loop.layout.size for loop in loops])[:-1]

    def slope(x, t):
        return np.concatenate([derivative(loop, part, t)
                               for loop, part in zip(loops, np.split(x, cuts))])

    x = np.concatenate(starts)
    want = [x]
    h = scns[0].dt
    for k in range(steps):
        t = k * h
        k1 = slope(x, t)
        k2 = slope(x + h / 2 * k1, t)
        k3 = slope(x + h / 2 * k2, t)
        k4 = slope(x + h * k3, t)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        want.append(x)
    return np.array(want)


class TestDenseKernel:
    @pytest.mark.parametrize("with_two_gen", [False, True])
    def test_short_run_matches_rk4_reference(self, ring9_scenario,
                                             two_gen_scenario, with_two_gen):
        # the fused step across the load step, alone and in a union of
        # members of different sizes, from a non-zero state
        members = ([ring9_scenario, two_gen_scenario] if with_two_gen
                   else [ring9_scenario])
        scns = [dataclasses.replace(s, dt=0.01, t_end=0.5, disturbance_time=0.1,
                                    output_stride=1) for s in members]
        assert _kernel_size(scns) <= sim.DENSE_ENTRIES
        rng = np.random.default_rng(29)
        starts = [rng.normal(scale=0.2, size=state_layout(s).size) for s in scns]
        got = np.hstack([t.states for t in
                         integrate_many(scns, initial_states=starts)])
        assert np.max(np.abs(got - _rk4_reference(scns, starts, 50))) <= 1e-12

    def test_step_makes_nine_numpy_calls(self, ring9_scenario, monkeypatch):
        calls = _advance_calls(sim._dense_kernel, ring9_scenario, monkeypatch)
        assert calls == ["add"] + ["dot"] * 4 + ["sin"] * 4

    @pytest.mark.parametrize("name, members, entries",
                             [("ring9", 1, 3_830), ("two_gen", 4, 6_276)])
    def test_kernel_entries_are_its_matrices(self, name, members, entries,
                                             request):
        # the four matrices whose bound dot methods advance() calls
        scns = [request.getfixturevalue(f"{name}_scenario")] * members
        loops = [assemble(s) for s in scns]
        advance, _ = sim._dense_kernel(
            sim._union(loops), 0.01,
            np.zeros(sum(loop.layout.size for loop in loops)))
        mats = [cell.cell_contents.__self__ for cell in advance.__closure__
                if isinstance(getattr(cell.cell_contents, "__self__", None),
                              np.ndarray)]
        assert len(mats) == 4
        assert sum(m.size for m in mats) == _kernel_size(scns) == entries

    def test_equilibrium_stays_put(self, two_gen_scenario):
        # the state takes each step's increment with one add, so x's own
        # coefficient is exactly 1: at the equilibrium the increment is
        # rounding noise below half an ulp of most slots, and the state
        # stays within a few ulps of x* over 40 000 steps (a kernel that
        # rounds x's coefficient drifts by about 20)
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.0,
                                  t_end=40.0)
        start = equilibrium_system_state(scn, compute_equilibrium(scn))
        traj = integrate(scn, initial_state=start)
        ulp = np.spacing(np.max(np.abs(start)))
        assert np.max(np.abs(traj.states - start)) <= 4 * ulp

    def test_mid_size_run_stays_on_one_core(self):
        # a lone 50-bus mesh runs on the dense kernel; had its matrices
        # been built by BLAS products, the BLAS thread pool would spin on a
        # second core through the first 0.14 s of the run
        scn = dataclasses.replace(
            ring_with_chords(5, buses=50, generators=12, chords=12), dt=0.001)
        assert _kernel_size([scn]) <= sim.DENSE_ENTRIES  # 92 876 entries
        time.sleep(0.2)  # until a pool an earlier test woke is idle

        def cpu_s():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        cpu, wall = cpu_s(), time.perf_counter()
        integrate(scn)
        cpu, wall = cpu_s() - cpu, time.perf_counter() - wall
        assert cpu <= 1.1 * wall


def _advance_calls(kernel, scn, monkeypatch):
    """The sorted names of the numpy calls that one advance(1) of the
    kernel makes on scn's closed loop.  Kernels bind numpy's callables
    when they are built, so the counting wrappers go in before the build."""
    calls = []

    class Counted:
        """f, counting its calls, with f's own methods (a ufunc's reduceat)."""

        def __init__(self, f):
            self.f = f

        def __call__(self, *args, **kwargs):
            calls.append(self.f.__name__)
            return self.f(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.f, name)

    # ufuncs and numpy's C functions behind array-function dispatch, which
    # the profiler below does not see
    counted = (np.ufunc, type(np.copyto))
    for name, f in list(vars(np).items()):
        if isinstance(f, counted):
            monkeypatch.setattr(np, name, Counted(f))
    loop = assemble(scn)
    advance, load_on = kernel(loop, 0.01, np.full(loop.layout.size, 0.1))
    load_on()
    calls.clear()

    def profile(frame, event, arg):
        # numpy functions written in C, and ndarray methods
        if event == "c_call" and (
                isinstance(getattr(arg, "__self__", None), np.ndarray)
                or (getattr(arg, "__module__", None) or "").startswith("numpy")):
            calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        advance(1)
    finally:
        sys.setprofile(None)
    return sorted(calls)


@pytest.fixture(scope="module")
def mesh():
    scn = ring_with_chords(seed=5)
    assert _kernel_size([scn]) > sim.DENSE_ENTRIES  # 399 156 entries
    return scn


class TestSparseKernel:
    @pytest.mark.parametrize("with_two_gen", [False, True])
    def test_slope_matches_derivative(self, mesh, two_gen_scenario,
                                      with_two_gen):
        scns = [mesh, two_gen_scenario] if with_two_gen else [mesh]
        loops = [assemble(s) for s in scns]
        slope, load_on = sim._sparse_slope(sim._union(loops))
        rng = np.random.default_rng(11)
        xs = [rng.normal(scale=0.5, size=(3, loop.layout.size)) for loop in loops]
        for t, switch in ((0.0, False), (5.0, True)):
            if switch:
                load_on()
            for i in range(3):
                want = np.concatenate([derivative(loop, x[i], t)
                                       for loop, x in zip(loops, xs)])
                got = np.empty(len(want))
                slope(np.concatenate([x[i] for x in xs]), got)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_step_makes_thirty_three_numpy_calls(self, mesh, monkeypatch):
        # four slopes of seven calls, three stage inputs, the step and its
        # copy into the state
        calls = _advance_calls(sim._sparse_kernel, mesh, monkeypatch)
        slope = ["add", "bincount", "copyto", "multiply", "sin", "subtract",
                 "take"]
        assert calls == sorted(slope * 4 + ["dot"] * 4 + ["copyto"])

    def test_short_run_matches_rk4_reference(self, mesh):
        # across the load step, against RK4 written out over the dense
        # right-hand side, with the load switched per step as the kernel does
        scn = dataclasses.replace(mesh, dt=0.01, t_end=0.3,
                                  disturbance_time=0.1, output_stride=1)
        x = np.random.default_rng(23).normal(scale=0.2,
                                             size=state_layout(scn).size)
        got = integrate(scn, initial_state=x).states
        assert np.max(np.abs(got - _rk4_reference([scn], [x], 30))) <= 1e-12

    def test_kernel_follows_the_budget(self, two_gen_scenario, monkeypatch):
        # the largest two_gen union within DENSE_ENTRIES stays dense; one
        # member more does not
        used = []
        for name in ("_dense_kernel", "_sparse_kernel"):
            real = getattr(sim, name)
            monkeypatch.setattr(sim, name, lambda *args, real=real, name=name:
                                used.append(name) or real(*args))
        scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.01,
                                  t_end=0.02)
        size = 1
        while _kernel_size([scn] * (size + 1)) <= sim.DENSE_ENTRIES:
            size += 1
        for members in (1, size, size + 1):
            integrate_many([scn] * members)
        assert used == ["_dense_kernel", "_dense_kernel", "_sparse_kernel"]


def test_mesh_run_scans_no_matrix_after_assemble(monkeypatch):
    # assemble writes the closed loop's nonzeros term by term; the kernel
    # and the derived series read them as they are: nothing in a run
    # scans a matrix for its nonzeros
    scn = dataclasses.replace(
        ring_with_chords(7, buses=200, generators=50, chords=60), t_end=2.0)
    scanned = []

    def nonzero(a, real=np.nonzero):
        scanned.append(np.ndim(a))
        return real(a)

    monkeypatch.setattr(np, "nonzero", nonzero)
    integrate(scn)
    assert all(ndim <= 1 for ndim in scanned), scanned


def test_assemble_holds_no_matrix():
    # 1 875 states: J over them alone would take 28 MB; the loop's
    # nonzeros and assemble's lists of them take well under 1 MB
    scn = ring_with_chords(1, buses=1000, generators=250, chords=300)
    assert traced_peak(lambda: assemble(scn))[1] < 4e6


@pytest.mark.parametrize("case", ["ring9_scenario", "mesh"])
def test_blocks_of_steps_match_single_steps(case, request):
    # integrate_many advances the kernel from event to event (the load step
    # lands inside a block of seven); recording every step runs one step
    # per call, and the shared samples agree bit for bit
    scn = dataclasses.replace(request.getfixturevalue(case), dt=0.01,
                              t_end=0.7, disturbance_time=0.1, output_stride=7)
    x = np.random.default_rng(31).normal(scale=0.2, size=state_layout(scn).size)
    blocks = integrate(scn, initial_state=x)
    steps = integrate(dataclasses.replace(scn, output_stride=1), initial_state=x)
    assert np.array_equal(blocks.states, steps.states[::7])


def _rest_cases(request):
    """two_gen and ring9 on the dense kernel and a 200-bus mesh on the
    sparse one, each with its load step at t = 1 s, step 1 000 of 2 000
    (the fixtures) or step 100 of 200 (the mesh)."""
    return [
        (dataclasses.replace(request.getfixturevalue("two_gen_scenario"),
                             t_end=2.0), sim._dense_kernel, 1000),
        (dataclasses.replace(request.getfixturevalue("ring9_scenario"),
                             t_end=2.0), sim._dense_kernel, 1000),
        (dataclasses.replace(ring_with_chords(7, buses=200, generators=50,
                                              chords=60), t_end=2.0),
         sim._sparse_kernel, 100)]


def _every_step(scn, kernel, x0):
    """The recorded states of the kernel driven one step at a time from
    t = 0, the load switched on before step load_step as integrate does."""
    loop = assemble(scn)
    advance, load_on = kernel(loop, scn.dt, x0)
    load_step = next(k for k in range(scn.steps + 1)
                     if k == scn.steps or loop.loaded(k * scn.dt))
    states = [x0]
    for k in range(scn.steps):
        if k == load_step:
            load_on()
        x = advance(1)
        if (k + 1) % scn.output_stride == 0 or k + 1 == scn.steps:
            states.append(x.copy())
    return np.array(states)


def _counted_steps(monkeypatch):
    """The step counts of every advance() call from here on."""
    counts = []
    for name in ("_dense_kernel", "_sparse_kernel"):
        def counted(*args, real=getattr(sim, name)):
            advance, load_on = real(*args)

            def counting(count):
                counts.append(count)
                return advance(count)
            return counting, load_on
        monkeypatch.setattr(sim, name, counted)
    return counts


class TestRestPhase:
    def test_kernels_are_the_expected_ones(self, request):
        for scn, kernel, _ in _rest_cases(request):
            dense = _kernel_size([scn]) <= sim.DENSE_ENTRIES
            assert dense == (kernel is sim._dense_kernel), scn.name

    def test_skipped_steps_change_no_state(self, request):
        # the steps before the load step leave the rest state at exactly
        # +0.0, so starting the kernel at the load step gives the same bits
        for scn, kernel, _ in _rest_cases(request):
            want = _every_step(scn, kernel, np.zeros(state_layout(scn).size))
            assert np.array_equal(integrate(scn).states, want), scn.name

    def test_rest_run_starts_at_the_load_step(self, request, monkeypatch):
        counts = _counted_steps(monkeypatch)
        for scn, _, load_step in _rest_cases(request):
            counts.clear()
            traj = integrate(scn)
            assert sum(counts) == scn.steps - load_step, scn.name
            # the samples up to the load step hold the rest state
            rest = load_step // scn.output_stride + 1
            assert not traj.states[:rest].any() and traj.states[rest].any()

    def test_other_runs_step_from_t_0(self, request, monkeypatch):
        # from a nonzero start, or with the load on from t = 0, every step runs
        counts = _counted_steps(monkeypatch)
        for scn, kernel, _ in _rest_cases(request):
            x0 = np.zeros(state_layout(scn).size)
            x0[0] = 1e-3
            counts.clear()
            traj = integrate(scn, initial_state=x0)
            assert sum(counts) == scn.steps, scn.name
            assert np.array_equal(traj.states, _every_step(scn, kernel, x0))
            counts.clear()
            integrate(dataclasses.replace(scn, disturbance_time=0.0))
            assert sum(counts) == scn.steps, scn.name


class TestPacks:
    def test_packs_stay_within_the_budget(self, mesh, two_gen_scenario,
                                          ring9_scenario):
        # a pack never lands on the sparse kernel
        assert sim.PACK_ENTRIES <= sim.DENSE_ENTRIES
        rng = np.random.default_rng(3)
        scns = []
        for _ in range(200):
            buses = int(rng.integers(3, 40))
            scns.append(ring_with_chords(
                seed=int(rng.integers(1000)), buses=buses,
                generators=int(rng.integers(2, buses // 3 + 3)), chords=0))
        packs = sim.packs(scns)
        assert [i for pack in packs for i in pack] == list(range(len(scns)))
        for pack in packs:
            assert len(pack) == 1 or \
                _kernel_size([scns[i] for i in pack]) <= sim.PACK_ENTRIES
        small = dataclasses.replace(two_gen_scenario, dt=mesh.dt, t_end=mesh.t_end,
                                    disturbance_time=mesh.disturbance_time)
        assert sim.packs([mesh, small, mesh]) == [[0], [1], [2]]
        # a sweep's values all have one size: they make the fewest packs
        # within the budget, with member counts that differ by at most one
        for scn in (two_gen_scenario, ring9_scenario,
                    ring_with_chords(seed=4, buses=12, generators=4, chords=2)):
            fit = 1
            while _kernel_size([scn] * (fit + 1)) <= sim.PACK_ENTRIES:
                fit += 1
            for count in range(1, 3 * fit + 2):
                packs = sim.packs([scn] * count)
                assert [i for pack in packs for i in pack] == list(range(count))
                assert len(packs) == -(-count // fit)
                sizes = [len(pack) for pack in packs]
                assert max(sizes) - min(sizes) <= 1

    def test_benchmark_sweep_is_two_packs_of_four(self, two_gen_scenario):
        # the eight two_gen k_d values the benchmark sweeps integrate as two
        # block-diagonal loops, which the sweep's pool runs side by side
        assert sim.packs([two_gen_scenario] * 8) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert [len(p) for p in sim.packs([two_gen_scenario] * 9)] == [5, 4]

    def test_packs_hold_one_time_grid(self, two_gen_scenario):
        other = dataclasses.replace(two_gen_scenario, output_stride=5)
        assert sim.packs([two_gen_scenario, other, two_gen_scenario, other]) \
            == [[0, 2], [1, 3]]


class TestSeries:
    @pytest.mark.parametrize("case", ["two_gen_scenario", "ring9_scenario",
                                      "mesh"])
    def test_series_match_dense_formulas(self, case, request):
        # integrate() sums the series over the nonzeros of J, S, the p_m
        # rows and the Lyapunov weights; the dense products give the same
        scn = request.getfixturevalue(case)
        certs = {g: search_certificate(scn.generators[g], scn.controllers[g],
                                       scn.network.bus(g).damping)
                 for g in scn.network.generator_ids}
        eq = compute_equilibrium(scn)
        traj = integrate(scn)
        freqs, p_m = series(scn, traj)
        for got, want in ((traj.freqs, freqs), (traj.p_m, p_m),
                          (lyapunov_value(scn, certs, eq, traj.states),
                           lyapunov(scn, certs, eq, traj.states))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        peak, at = transient_angle_peak(scn, traj)
        want_peak, want_at = angle_peak(scn, traj)
        assert peak == pytest.approx(want_peak, rel=1e-12, abs=0.0)
        assert at == want_at


class TestTransientAnglePeak:
    def test_peak_over_lines_and_samples(self, two_gen_scenario):
        scn = dataclasses.replace(two_gen_scenario, t_end=5.0)
        traj = integrate(scn)
        th = traj.states[:, :3]
        diffs = np.abs(np.stack([th[:, 0] - th[:, 1], th[:, 0] - th[:, 2],
                                 th[:, 1] - th[:, 2]], axis=1)).max(axis=1)
        i = int(np.argmax(diffs))
        assert transient_angle_peak(scn, traj) == (diffs[i], traj.times[i])

    def test_no_lines(self):
        scn = _single_bus_scenario()
        assert transient_angle_peak(scn, integrate(scn)) == (0.0, 0.0)


def _whole_array_series(scn, states, times, certs, eq):
    """p_m, the bus frequencies, the angle peak with its time, and V of the
    (samples, states) array states, each one expression over all the
    samples at once, with the per-sample order of operations of integrate,
    transient_angle_peak and lyapunov_value."""
    loop = assemble(scn)
    lay, n_bus = loop.layout, loop.layout.n_bus
    (frm, to), (flow_rows, flow_vals) = loop.ends, loop.spread

    def product(out, mat, x):
        rows, cols, vals = mat
        np.add.at(out, (slice(None), rows), x[:, cols] * vals)
        return out

    p_m = product(np.zeros((len(times), len(lay.gen_ids))), loop.pm_rows, states)
    freqs = np.multiply.outer(loop.loaded(times), loop.load[:n_bus])
    product(freqs, [a[:np.searchsorted(loop.jac[0], n_bus)] for a in loop.jac],
            states)
    flows = sim._row_major(flow_rows.ravel(), np.tile(np.arange(len(frm)), 2),
                           flow_vals.ravel())
    product(freqs, [a[:np.searchsorted(flows[0], n_bus)] for a in flows],
            np.sin(states[:, frm] - states[:, to]))
    peak = np.max(np.abs(states[:, frm] - states[:, to]), axis=1, initial=0.0)
    i = int(np.argmax(peak))

    weights = []
    for k, g in enumerate(lay.gen_ids):
        om, pc, x0 = lay.omega.start + k, lay.pc.start + k, lay.x[k].start
        weights += [(om, om, scn.network.bus(g).inertia),
                    (pc, pc, scn.controllers[g].gamma)]
        weights += [(x0 + r, x0 + c, v)
                    for (r, c), v in np.ndenumerate(certs[g].p_matrix.to_array())]
    rows, cols, vals = sim._row_major(*zip(*weights))
    b = sim._line_ends(scn.network)[2]
    x_star = equilibrium_system_state(scn, eq)
    d = states - x_star
    eta_s = x_star[frm] - x_star[to]
    delta = states[:, frm] - states[:, to] - eta_s
    potential = (2.0 * np.sin(eta_s + delta / 2.0) * np.sin(delta / 2.0)
                 - np.sin(eta_s) * delta) * b
    v = (0.5 * np.sum(d[:, rows] * vals * d[:, cols], axis=-1)
         + np.sum(potential, axis=-1))
    return p_m, freqs, (float(peak[i]), float(times[i])), v


def _certificates(scn):
    return {g: search_certificate(scn.generators[g], scn.controllers[g],
                                  scn.network.bus(g).damping)
            for g in scn.network.generator_ids}


class TestSampleBlocks:
    """The series derived from the recorded states, taken SAMPLE_BLOCK
    samples at a time, are bitwise the whole-array ones."""

    @pytest.fixture(params=["ring9_scenario", "mesh", "no_lines"])
    def case(self, request):
        if request.param == "no_lines":
            scn = _single_bus_scenario()
        else:
            scn = request.getfixturevalue(request.param)
        return scn, _certificates(scn), compute_equilibrium(scn)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                               (2, 1)])
    def test_series_at_block_edges(self, case, blocks, extra):
        scn, certs, eq = case
        samples = blocks * sim.SAMPLE_BLOCK + extra
        # stride 1, the load step half way, from a state off rest
        scn = dataclasses.replace(scn, dt=0.01, t_end=(samples - 1) * 0.01,
                                  disturbance_time=(samples // 2 - 0.5) * 0.01,
                                  output_stride=1)
        x = np.random.default_rng(samples).normal(scale=0.2,
                                                  size=state_layout(scn).size)
        traj = integrate(scn, initial_state=x)
        assert len(traj.times) == samples
        p_m, freqs, peak, v = _whole_array_series(scn, traj.states, traj.times,
                                                  certs, eq)
        assert np.array_equal(traj.p_m, p_m)
        assert np.array_equal(traj.freqs, freqs)
        assert transient_angle_peak(scn, traj) == peak
        assert np.array_equal(lyapunov_value(scn, certs, eq, traj.states), v)
        if not scn.network.lines:
            assert peak == (0.0, 0.0)

    def test_blocks_tile_the_samples(self):
        b = sim.SAMPLE_BLOCK
        for samples in range(1, 3 * b + 3):
            blocks = sim._sample_blocks(samples)
            assert [i for s in blocks for i in range(samples)[s]] == \
                list(range(samples))
            sizes = [s.stop - s.start for s in blocks]
            assert all(size == b for size in sizes[:-1])
            assert 2 <= sizes[-1] <= b + 1 or samples == 1

    def test_one_state_is_one_value(self, case):
        scn, certs, eq = case
        x = np.random.default_rng(5).normal(scale=0.2, size=state_layout(scn).size)
        value = lyapunov_value(scn, certs, eq, x)
        assert np.ndim(value) == 0
        assert value == _whole_array_series(scn, x[None], np.zeros(1), certs,
                                            eq)[3][0]


def test_series_memory_follows_the_states():
    # 2 001 samples of 187 states and 130 lines: the run holds the states,
    # the bus frequencies (100 columns), p_m and the marginal cost (25
    # each); a block of samples times the nonzeros or lines read is small
    # beside them
    scn = dataclasses.replace(ring_with_chords(1), t_end=20.0, output_stride=1)
    certs, eq = _certificates(scn), compute_equilibrium(scn)
    traj, run = traced_peak(lambda: integrate(scn))
    held = traj.states.nbytes
    assert run < 2.5 * held
    assert traced_peak(lambda: lyapunov_value(scn, certs, eq, traj.states))[1] \
        < 0.5 * held
    assert traced_peak(lambda: transient_angle_peak(scn, traj))[1] < 0.5 * held


def test_run_bookkeeping_does_not_grow_with_steps(two_gen_scenario, monkeypatch):
    # 4 million steps and 5 samples, the kernel stubbed out: finding the
    # load step and walking the samples take no array or list per step
    # (one float per step alone would take 32 MB)
    for name in ("_dense_kernel", "_sparse_kernel"):
        monkeypatch.setattr(sim, name, lambda loop, dt, x0: (
            lambda count: x0, lambda: None))
    scn = dataclasses.replace(two_gen_scenario, dt=1e-3, t_end=4000.0,
                              disturbance_time=1234.5, output_stride=10 ** 6)
    traj, held = traced_peak(lambda: integrate(scn))
    assert len(traj.times) == 5
    assert held < 1e6


class TestEquilibrium:
    def test_two_gen_values(self, two_gen_scenario):
        scn = two_gen_scenario
        eq = compute_equilibrium(scn)
        assert eq.nu == pytest.approx(0.4 / 1.5)
        assert eq.angles_star[0] == 0.0  # reference bus pinned
        p_m = dense(assemble(scn))[3] @ equilibrium_system_state(scn, eq)
        assert p_m == pytest.approx([1.0 * eq.nu, 0.5 * eq.nu])
        assert sum(p_m) == pytest.approx(0.4)
        assert eq.max_abs_angle_diff < 0.06 < math.pi / 2.0

    def test_flow_balance_at_each_bus(self, ring9_scenario):
        scn = ring9_scenario
        eq = compute_equilibrium(scn)
        p_m = dense(assemble(scn))[3] @ equilibrium_system_state(scn, eq)
        outputs = dict(zip(sorted(scn.network.generator_ids), p_m))
        for b in scn.network.buses:
            inj = net_injection(scn.network, b.id, eq.angles_star)
            load = scn.step_loads.get(b.id, 0.0)
            gen_out = outputs.get(b.id, 0.0)
            assert gen_out - load + inj == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("case", ["ring9", "generic"])
    def test_block_rest_states_reach_dc_gain(self, case, ring9_scenario):
        # each block's slice of x* rests under its input u = k_c nu (A x +
        # B u = 0) and puts out its DC gain times u, feedthrough included
        scn = (ring9_scenario if case == "ring9" else
               with_generic_blocks(ring_with_chords(5, buses=12, generators=6,
                                                    chords=2), seed=5))
        eq = compute_equilibrium(scn)
        x_star = equilibrium_system_state(scn, eq)
        lay = sim.state_layout(scn)
        for g, xs in zip(lay.gen_ids, lay.x):
            gen, u = scn.generators[g], scn.controllers[g].k_c * eq.nu
            rate = np.array(gen.a_matrix) @ x_star[xs] + np.array(gen.b_vector) * u
            assert rate == pytest.approx(np.zeros(gen.order), abs=1e-15)
            assert output(gen, x_star[xs], u) == pytest.approx(gen.dc_gain * u)

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

    @pytest.mark.parametrize("buses", [100, 200])
    def test_mesh_matches_dense_newton(self, buses):
        scn = ring_with_chords(seed=buses + 1, buses=buses,
                               generators=buses // 4, chords=3 * buses // 10)
        eq = compute_equilibrium(scn)
        theta = [eq.angles_star[b] for b in range(buses)]
        assert theta == pytest.approx(equilibrium_angles(scn, eq.nu),
                                      rel=0, abs=1e-12)
        p_m = dense(assemble(scn))[3] @ equilibrium_system_state(scn, eq)
        outputs = dict(zip(sorted(scn.network.generator_ids), p_m))
        for b in range(buses):
            balance = (outputs.get(b, 0.0) - scn.step_loads.get(b, 0.0)
                       + net_injection(scn.network, b, eq.angles_star))
            assert abs(balance) < sim.NEWTON_TOL

    def test_mesh_needs_no_lapack(self, monkeypatch):
        # np.linalg's solvers wake the BLAS thread pool from about 100
        # unknowns, which then spins on a second core after the call; only
        # a generator block's DC gain (LtiGenerator.dc_gain) may use them
        scn = ring_with_chords(seed=201, buses=200, generators=50, chords=60)
        order = max(gen.order for gen in scn.generators.values())

        def guard(solver):
            def call(a, *args, **kwargs):
                assert len(a) <= order, f"np.linalg.{solver.__name__} on {np.shape(a)}"
                return solver(a, *args, **kwargs)
            return call

        for name in ("solve", "cholesky", "inv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, guard(getattr(np.linalg, name)))
        assert compute_equilibrium(scn).max_abs_angle_diff < math.pi / 2.0

    @pytest.mark.parametrize("scale", [1e4, 1e5, 1e8])
    def test_tolerance_scales_with_the_loads(self, two_gen_scenario, scale):
        # every susceptance and the step scaled alike leave the angles as
        # they are; the flows' rounding grows with the loads, so an absolute
        # NEWTON_TOL stalled from x1e5 on, and a relative one does not
        net = two_gen_scenario.network
        scn = dataclasses.replace(
            two_gen_scenario, step_loads={2: 0.4 * scale},
            network=dataclasses.replace(net, lines=[
                dataclasses.replace(ln, susceptance=ln.susceptance * scale)
                for ln in net.lines]))
        assert compute_equilibrium(scn).max_abs_angle_diff == pytest.approx(
            compute_equilibrium(two_gen_scenario).max_abs_angle_diff,
            rel=1e-15)

    def test_newton_stalls_below_rounding(self, two_gen_scenario, monkeypatch):
        # no step of the line search lowers the residual below 1e-17
        monkeypatch.setattr(sim, "NEWTON_TOL", 1e-17)
        with pytest.raises(RuntimeError,
                           match="^equilibrium Newton stalled; try smaller"):
            compute_equilibrium(two_gen_scenario)

    def test_newton_stops_at_its_iteration_cap(self, two_gen_scenario,
                                               monkeypatch):
        monkeypatch.setattr(sim, "NEWTON_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="^equilibrium Newton did not "
                           "converge in 1 iterations; try smaller"):
            compute_equilibrium(two_gen_scenario)

    def test_indefinite_laplacian_raises(self):
        # line 1-2's weight of -0.9 leaves both free diagonal entries at
        # 0.1 > 0, but L with bus 0 pinned is [[0.1, 0.9], [0.9, 0.1]],
        # indefinite: the first direction [10, -10] has curvature -160
        frm, to = np.array([0, 0, 1]), np.array([1, 2, 2])
        with pytest.raises(RuntimeError, match="singular Jacobian"):
            sim._solve_laplacian(frm, to, np.array([1.0, 1.0, -0.9]),
                                 np.array([0.0, 1.0, -1.0]), sim.NEWTON_TOL)

    def test_overloaded_mesh_raises(self):
        scn = ring_with_chords(seed=3)
        scn = dataclasses.replace(scn, step_loads={
            b: 500.0 * delta for b, delta in scn.step_loads.items()})
        with pytest.raises(RuntimeError, match="smaller loads"):
            compute_equilibrium(scn)

    def test_single_bus_network_needs_no_newton(self):
        scn = _single_bus_scenario()
        eq = compute_equilibrium(scn)
        assert eq.nu == pytest.approx(0.1 / (2.0 * 0.8))
        assert eq.angles_star == {0: 0.0}
        assert eq.max_abs_angle_diff == 0.0


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
        assert dissipation_check(lyapunov_value(scn0, certs, eq, traj.states)) \
            <= 1e-30

    @pytest.mark.parametrize("values", [[], [3.0]])
    def test_fewer_than_two_values_have_no_increase(self, values):
        assert dissipation_check(np.array(values)) == 0.0

    def test_disturbed_run_dissipates(self, certified):
        scn, certs, eq = certified
        scn_fast = dataclasses.replace(scn, t_end=10.0)
        traj = integrate(scn_fast)
        values = lyapunov_value(scn_fast, certs, eq, traj.states)
        assert dissipation_check(values) <= EPSILON_V
        # V must actually decay once the step has landed
        assert values[-1] < values[len(values) // 3]

    def test_series_matches_single_states(self, certified):
        scn, certs, eq = certified
        scn_fast = dataclasses.replace(scn, t_end=3.0)
        traj = integrate(scn_fast)
        one_by_one = [lyapunov_value(scn, certs, eq, x) for x in traj.states]
        assert lyapunov_value(scn, certs, eq, traj.states) == pytest.approx(
            one_by_one, rel=1e-13, abs=1e-16)


@pytest.fixture(scope="module", params=[
    ("two_gen.scn", False), ("two_gen.scn", True), ("ring9.scn", False),
    ("ring9.scn", True), (1, False), (2, False), (3, False)],
    ids=["two_gen", "two_gen-optimal", "ring9", "ring9-optimal", "mesh1",
         "mesh2", "mesh3"])
def prepared(request):
    """A run as cli._prepare leaves it (--optimal-gains and the adopted k_f
    applied), on a fixture or a seeded mesh in which every generator
    certifies."""
    case, optimal = request.param
    scn = (load_scenario(fixture_path(case)) if isinstance(case, str)
           else ring_with_chords(case, buses=60, generators=15, chords=20))
    prep = cli._prepare(scn, cli.RunFlags(optimal_gains=optimal))
    assert prep.certs is not None
    assert set(prep.certs) == set(prep.scn.network.generator_ids)
    return prep


def _linearised(prep, p_scale=1.0):
    """A, the loop linearised at the equilibrium, and Q = HA + AᵀH, the
    rate of the energy function's quadratic part along it, with every
    certificate's P times p_scale."""
    scn = prep.scn
    jac, e, s, _ = dense(assemble(scn))
    x_star = equilibrium_system_state(scn, prep.eq)
    cos = np.cos(e @ x_star)
    a = jac + s @ (cos[:, None] * e)
    inc, b = incidence(scn.network, len(x_star))
    h = (lyapunov_weights(scn, prep.certs, p_scale)
         + inc.T @ ((b * np.cos(inc @ x_star))[:, None] * inc))
    return a, h @ a + a.T @ h


class TestStabilityTheorem:
    """The argument the verdict rests on, on the linearised loop: with every
    generator certified, the energy function's Hessian H at the equilibrium
    makes Q = HA + AᵀH negative semidefinite, and A is stable but for the
    angle reference."""

    def test_certified_energy_does_not_grow(self, prepared):
        _, q = _linearised(prepared)
        assert np.linalg.eigvalsh(q)[-1] <= 1e-12 * np.linalg.norm(q, 2)

    @pytest.mark.parametrize("p_scale", [0.5, 2.0])
    def test_energy_off_the_certificate_grows(self, prepared, p_scale):
        # P scaled leaves the LMI's face, and some direction gains energy
        _, q = _linearised(prepared, p_scale)
        assert np.linalg.eigvalsh(q)[-1] > 0.0

    def test_one_zero_mode_and_the_rest_decay(self, prepared):
        a, _ = _linearised(prepared)
        modes = np.linalg.eigvals(a)
        zero = np.abs(modes) <= 1e-12 * np.linalg.norm(a, 2)
        assert np.count_nonzero(zero) == 1
        assert np.all(modes[~zero].real < 0.0)
