import dataclasses
import re
import textwrap

import pytest

from gridfreq import sim
from gridfreq.cli import (MARGINAL_TOL, RunFlags, ScenarioError, apply_param,
                          emit_plots, load_scenario, main, parse_scenario_text,
                          run, run_sweep, serialize_scenario,
                          write_trajectory_csv)
from gridfreq.fixtures import fixture_path
from gridfreq.network import PowerNetwork
from gridfreq.sim import integrate

MINIMAL = textwrap.dedent("""\
    # one generator feeding one load
    [buses]
    id=0 kind=generator inertia=2.0 damping=1.0
    id=1 kind=load damping=1.0

    [lines]
    from=0 to=1 susceptance=2.0

    [generators]
    bus=0 model=first_order tau=0.5 gain=1.0

    [controllers]
    bus=0 gamma=1.0 k_f=1.0 k_c=1.0 k_d=1.0 cost=1.0

    [comm]

    [disturbance]
    time=1.0
    bus=1 delta=0.2

    [sim]
    dt=0.001 t_end=5.0
    """)


class TestParsing:
    def test_minimal_scenario(self):
        scn = parse_scenario_text(MINIMAL, name="mini")
        assert scn.name == "mini"
        assert scn.network.generator_ids == [0]
        assert scn.step_loads == {1: 0.2}
        assert scn.disturbance_time == 1.0
        assert scn.dt == 0.001
        assert scn.output_stride == 10  # default

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario_text(MINIMAL + "[bogus]\n")

    def test_content_before_section(self):
        with pytest.raises(ScenarioError, match="before any"):
            parse_scenario_text("id=0 kind=generator\n" + MINIMAL)

    def test_missing_dt_names_the_field(self):
        broken = MINIMAL.replace("dt=0.001 ", "")
        with pytest.raises(ScenarioError, match="missing required field 'dt'"):
            parse_scenario_text(broken)

    def test_missing_disturbance_time(self):
        broken = MINIMAL.replace("time=1.0\n", "")
        with pytest.raises(ScenarioError, match="missing required field 'time'"):
            parse_scenario_text(broken)

    def test_time_line_must_stand_alone(self):
        broken = MINIMAL.replace("time=1.0", "time=1.0 bus=0")
        with pytest.raises(ScenarioError, match="own line"):
            parse_scenario_text(broken)

    def test_negative_susceptance_rejected(self):
        broken = MINIMAL.replace("susceptance=2.0", "susceptance=-2.0")
        with pytest.raises(ScenarioError, match="susceptance must be positive"):
            parse_scenario_text(broken)

    def test_unknown_generator_model(self):
        broken = MINIMAL.replace("model=first_order tau=0.5", "model=cubic tau=0.5")
        with pytest.raises(ScenarioError, match="unknown generator model"):
            parse_scenario_text(broken)

    def test_non_numeric_field(self):
        broken = MINIMAL.replace("tau=0.5", "tau=half")
        with pytest.raises(ScenarioError, match="is not a number"):
            parse_scenario_text(broken)

    def test_duplicate_key_in_record(self):
        broken = MINIMAL.replace("from=0 to=1", "from=0 to=1 to=0")
        with pytest.raises(ScenarioError, match="duplicate key"):
            parse_scenario_text(broken)

    def test_missing_controller_record(self):
        broken = MINIMAL.replace(
            "bus=0 gamma=1.0 k_f=1.0 k_c=1.0 k_d=1.0 cost=1.0\n", "")
        with pytest.raises(ScenarioError, match=r"\[controllers\] record"):
            parse_scenario_text(broken)

    def test_nonpositive_gain_rejected_with_line_number(self):
        broken = MINIMAL.replace("k_c=1.0", "k_c=0.0")
        with pytest.raises(ScenarioError, match="line .*positive"):
            parse_scenario_text(broken)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.scn")

    def test_fixtures_parse(self):
        for name in ("two_gen.scn", "ring9.scn"):
            scn = load_scenario(fixture_path(name))
            assert scn.network.buses


class TestSerialize:
    def test_round_trip_equality(self, two_gen_scenario, ring9_scenario):
        for scn in (two_gen_scenario, ring9_scenario):
            again = parse_scenario_text(serialize_scenario(scn))
            assert again == scn

    def test_serialization_is_stable(self, two_gen_scenario):
        text = serialize_scenario(two_gen_scenario)
        assert serialize_scenario(parse_scenario_text(text)) == text
        assert text.startswith("[buses]\n")


@pytest.fixture(scope="module")
def short_traj(two_gen_scenario):
    scn = dataclasses.replace(two_gen_scenario, disturbance_time=0.2,
                              t_end=1.0, dt=0.01, output_stride=20)
    return integrate(scn)


class TestOutputs:
    def test_csv_layout(self, short_traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_traj, path)
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["t", "omega_0", "omega_1", "omega_2", "pm_0", "pm_1",
                          "pc_0", "pc_1", "mc_0", "mc_1", "V"]
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        assert first[-1] == ""  # no certificates, V column blank
        assert len(rows) == 1 + len(short_traj.times)
        # full-precision repr round-trips through float()
        assert float(rows[2].split(",")[1]) == short_traj.freqs[1, 0]

    def test_plots_reference_csv_columns(self, short_traj, tmp_path):
        paths = emit_plots(short_traj, tmp_path)
        assert [p.name for p in paths] == ["frequency.gnu", "marginal_cost.gnu"]
        freq = paths[0].read_text()
        assert "'trajectory.csv' using 1:2" in freq
        assert "omega_2" in freq
        mc = paths[1].read_text()
        assert "mc_1" in mc and "omega_0" not in mc

    def test_plots_deterministic(self, short_traj, tmp_path):
        a = emit_plots(short_traj, tmp_path / "a")[0].read_bytes()
        b = emit_plots(short_traj, tmp_path / "b")[0].read_bytes()
        assert a == b

    def test_empty_trajectory_rejected(self, short_traj, tmp_path):
        empty = dataclasses.replace(short_traj, times=short_traj.times[:0],
                                    states=short_traj.states[:0])
        with pytest.raises(ValueError):
            emit_plots(empty, tmp_path)


class TestRun:
    def test_clean_run_passes_all_gates(self, two_gen_scenario, tmp_path):
        report = run(two_gen_scenario, RunFlags(out_dir=str(tmp_path)))
        assert report.exit_code == 0
        for name in ("validation", "certification", "security", "settling",
                     "dissipation"):
            assert report.checks[name][0] == "pass", name
        assert report.checks["dispatch-optimality"][0] == "skipped"
        names = {p.name for p in report.outputs}
        assert names == {"report.txt", "trajectory.csv", "frequency.gnu",
                         "marginal_cost.gnu"}
        assert "[checks]" in report.report_text
        assert "exit code: 0" in report.report_text

    def test_optimal_gains_synchronize_marginals(self, two_gen_scenario):
        report = run(two_gen_scenario, RunFlags(optimal_gains=True))
        assert report.exit_code == 0
        assert report.checks["dispatch-optimality"][0] == "pass"
        assert "marginal-cost spread" in report.report_text

    def test_skip_certify(self, two_gen_scenario):
        report = run(two_gen_scenario, RunFlags(skip_certify=True))
        assert report.checks["certification"][0] == "skipped"
        assert report.checks["dissipation"][0] == "skipped"
        assert "dissipation: not evaluated" in report.report_text
        assert report.exit_code == 0

    def test_energy_increase_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(sim, "dissipation_check",
                            lambda *args: 10 * sim.EPSILON_V)
        assert main(["simulate", str(fixture_path("two_gen.scn"))]) == 1
        out = capsys.readouterr().out
        assert "-> EXCEEDED" in out
        assert "\ndissipation: fail (max V jump = " in out

    def test_short_horizon_fails_settling(self, two_gen_scenario):
        report = run(two_gen_scenario, RunFlags(t_end=2.0))
        assert report.checks["settling"][0] == "fail"
        assert report.exit_code == 1

    def test_uncertifiable_gains_gate_the_run(self, two_gen_scenario):
        ctl = dict(two_gen_scenario.controllers)
        ctl[0] = dataclasses.replace(ctl[0], k_c=0.1, k_d=2.0)
        scn = dataclasses.replace(two_gen_scenario, controllers=ctl)
        report = run(scn, RunFlags(t_end=5.0))
        assert report.checks["certification"][0] == "fail"
        assert "no diagonal certificate found" in report.report_text
        assert report.exit_code == 1

    def test_invalid_network_reports_and_stops(self, two_gen_scenario, tmp_path):
        net = two_gen_scenario.network
        buses = [dataclasses.replace(b, damping=0.0) if b.id == 2 else b
                 for b in net.buses]
        scn = dataclasses.replace(
            two_gen_scenario,
            network=PowerNetwork(buses, net.lines, net.comm))
        report = run(scn, RunFlags(out_dir=str(tmp_path)))
        assert report.exit_code == 1
        assert report.checks["validation"][0] == "fail"
        assert "damping must be positive" in report.report_text
        assert [p.name for p in report.outputs] == ["report.txt"]

    def test_certified_kf_is_adopted_for_the_run(self, two_gen_scenario):
        # scenario k_f values already equal the certified ones, so force a
        # mismatch and watch the report call out the adoption
        ctl = dict(two_gen_scenario.controllers)
        ctl[0] = dataclasses.replace(ctl[0], k_f=0.77)
        scn = dataclasses.replace(two_gen_scenario, controllers=ctl)
        report = run(scn, RunFlags(t_end=20.0))
        assert "adopting certified k_f" in report.report_text
        assert report.checks["certification"][0] == "pass"

    def test_run_is_deterministic(self, two_gen_scenario, tmp_path):
        flags_a = RunFlags(skip_certify=True, out_dir=str(tmp_path / "a"))
        flags_b = RunFlags(skip_certify=True, out_dir=str(tmp_path / "b"))
        a = run(two_gen_scenario, flags_a)
        b = run(two_gen_scenario, flags_b)
        assert a.report_text == b.report_text
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b


class TestApplyParam:
    def test_sim_and_disturbance_paths(self, two_gen_scenario):
        scn = apply_param(two_gen_scenario, "sim.dt", 0.002)
        assert scn.dt == 0.002
        scn = apply_param(two_gen_scenario, "sim.t_end", 12.0)
        assert scn.t_end == 12.0
        scn = apply_param(two_gen_scenario, "disturbance.time", 2.5)
        assert scn.disturbance_time == 2.5
        scn = apply_param(two_gen_scenario, "disturbance.2.delta", 0.6)
        assert scn.step_loads[2] == 0.6

    def test_network_paths(self, two_gen_scenario):
        scn = apply_param(two_gen_scenario, "buses.2.damping", 1.4)
        assert scn.network.bus(2).damping == 1.4
        scn = apply_param(two_gen_scenario, "buses.0.inertia", 5.0)
        assert scn.network.bus(0).inertia == 5.0
        scn = apply_param(two_gen_scenario, "lines.0.susceptance", 3.3)
        assert scn.network.lines[0].susceptance == 3.3
        scn = apply_param(two_gen_scenario, "comm.0.weight", 2.5)
        assert scn.network.comm[0].weight == 2.5

    def test_controller_and_generator_paths(self, two_gen_scenario, ring9_scenario):
        scn = apply_param(two_gen_scenario, "controllers.1.cost", 3.0)
        assert scn.controllers[1].q == 3.0
        scn = apply_param(two_gen_scenario, "controllers.0.k_d", 0.5)
        assert scn.controllers[0].k_d == 0.5
        scn = apply_param(two_gen_scenario, "generators.0.tau", 0.8)
        from gridfreq.generation import first_order_params
        assert first_order_params(scn.generators[0]) == pytest.approx((0.8, 1.0))
        scn = apply_param(ring9_scenario, "generators.1.tau_p", 0.9)
        from gridfreq.generation import second_order_params
        assert second_order_params(scn.generators[1])[1] == pytest.approx(0.9)

    def test_bad_paths(self, two_gen_scenario):
        with pytest.raises(ScenarioError, match="unknown parameter path"):
            apply_param(two_gen_scenario, "sim.gravity", 9.8)
        with pytest.raises(ScenarioError, match="cannot apply"):
            apply_param(two_gen_scenario, "lines.9.susceptance", 1.0)
        with pytest.raises(ScenarioError, match="cannot apply"):
            apply_param(two_gen_scenario, "generators.0.tau_p", 1.0)


class TestSweep:
    def test_parallel_sweep_writes_one_dir_per_value(self, tmp_path, capsys):
        worst = run_sweep(str(fixture_path("two_gen.scn")),
                          "controllers.1.k_d", [0.6, 0.8], str(tmp_path),
                          RunFlags(skip_certify=True))
        assert worst == 0
        out = capsys.readouterr().out
        assert "controllers.1.k_d=0.6: exit 0" in out
        for v in ("0.6", "0.8"):
            sub = tmp_path / f"controllers_1_k_d={v}"
            assert (sub / "report.txt").exists()
            assert (sub / "trajectory.csv").exists()

    def test_bad_value_keeps_the_others(self, tmp_path, capsys):
        code = main(["sweep", str(fixture_path("two_gen.scn")),
                     "--param", "controllers.1.k_d", "--values", "0.6,-1",
                     "--t-end", "3", "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["controllers.1.k_d=0.6: exit 1",
                                             "controllers.1.k_d=-1.0: exit 2"]
        assert captured.err == ("controllers.1.k_d=-1.0: error: "
                                "k_d must be strictly positive\n")
        assert (tmp_path / "controllers_1_k_d=0.6" / "trajectory.csv").exists()


class TestMain:
    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.scn")]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_unparseable_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("nonsense\n")
        assert main(["simulate", str(bad)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_simulate_success(self, tmp_path, capsys):
        code = main(["simulate", str(fixture_path("two_gen.scn")),
                     "--skip-certify", "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[checks]" in out
        assert (tmp_path / "out" / "report.txt").exists()

    def test_certify_reports_failure(self, tmp_path, capsys):
        scn = load_scenario(fixture_path("two_gen.scn"))
        ctl = dict(scn.controllers)
        ctl[0] = dataclasses.replace(ctl[0], k_c=0.1, k_d=2.0)
        bad = tmp_path / "uncertifiable.scn"
        bad.write_text(serialize_scenario(dataclasses.replace(scn, controllers=ctl)))
        assert main(["certify", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "no diagonal certificate found" in out
        assert "gen 1: found" in out

    def test_certify_success(self, capsys):
        assert main(["certify", str(fixture_path("two_gen.scn"))]) == 0
        out = capsys.readouterr().out
        assert out.count("found") == 2

    def test_optimal_gains_certify_matches_simulate(self, capsys):
        ring9 = str(fixture_path("ring9.scn"))
        main(["certify", ring9, "--optimal-gains"])
        certified = capsys.readouterr().out
        main(["simulate", ring9, "--optimal-gains", "--t-end", "1.01"])
        simulated = capsys.readouterr().out
        found = re.compile(r"^gen (\d+): found k_f=(\S+) ", re.M)
        gens = load_scenario(fixture_path("ring9.scn")).network.generator_ids
        assert len(found.findall(certified)) == len(gens)
        assert found.findall(certified) == found.findall(simulated)

    def test_dispatch_prints_allocation(self, capsys):
        assert main(["dispatch", str(fixture_path("two_gen.scn"))]) == 0
        out = capsys.readouterr().out
        assert "nu = " in out and "gen 0: p=" in out

    def test_equilibrium_prints_angles(self, capsys):
        assert main(["equilibrium", str(fixture_path("two_gen.scn"))]) == 0
        out = capsys.readouterr().out
        assert "bus 0: theta=0.0" in out
        assert "security constraint: pass" in out

    def test_sweep_requires_values(self, capsys):
        code = main(["sweep", str(fixture_path("two_gen.scn")),
                     "--param", "sim.dt", "--values", ","])
        assert code == 2

    def test_marginal_tolerance_is_strict(self):
        assert MARGINAL_TOL == 1e-3
