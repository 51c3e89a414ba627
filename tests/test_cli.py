import copy
import dataclasses
import math
import multiprocessing
import os
import re
import shlex
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from gridfreq import certify, cli, generation, sim
from gridfreq.cli import (MARGINAL_TOL, RunFlags, ScenarioError, apply_param,
                          emit_plots, load_scenario, main, parse_scenario_text,
                          run, run_sweep, serialize_scenario,
                          write_trajectory_csv)
from gridfreq.fixtures import fixture_path
from gridfreq.sim import integrate
from meshes import ring_with_chords
from tracing import traced_peak

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

    @pytest.mark.parametrize("old, new, fault", [
        # int and float alone would read these as 20.0, 10, 0.5 and 1
        ("susceptance=2.0", "susceptance=2_0.0",
         "line 7: field 'susceptance' is not a number: '2_0.0'"),
        ("id=1", "id=1_0", "line 4: field 'id' is not an integer: '1_0'"),
        ("tau=0.5", "tau=\uff10.5",
         "line 10: field 'tau' is not a number: '\uff10.5'"),
        ("bus=1 delta", "bus=\u0661 delta",
         "line 19: field 'bus' is not an integer: '\u0661'"),
    ])
    def test_numbers_are_plain_ascii(self, old, new, fault):
        with pytest.raises(ScenarioError, match=f"^{re.escape(fault)}$"):
            parse_scenario_text(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old, new, where", [
        ("cost=1.0", "cost=inf", "line 13: field 'cost'"),
        ("tau=0.5", "tau=nan", "line 10: field 'tau'"),
        ("time=1.0", "time=-inf", "line 18: field 'time'"),
        ("t_end=5.0", "t_end=inf", "line 22: field 't_end'"),
        ("dt=0.001", "dt=1e400", "line 22: field 'dt'"),
    ])
    def test_non_finite_field_names_line_and_field(self, old, new, where):
        with pytest.raises(ScenarioError, match=f"^{re.escape(where)} is not finite"):
            parse_scenario_text(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old, new, where", [
        ("cost=1.0\n", "cost=1.0\nbus=0 gamma=1.0 k_f=1.0 k_c=1.0 k_d=1.0 cost=9.0\n",
         "line 14: duplicate controller for bus 0"),
        ("delta=0.2\n", "delta=0.2\nbus=1 delta=0.1\n",
         "line 20: duplicate step load for bus 1"),
        ("time=1.0\n", "time=1.0\ntime=2.0\n", "line 19: duplicate time= line"),
        ("t_end=5.0\n", "t_end=5.0\ndt=0.002\n", "line 23: duplicate key 'dt'"),
    ], ids=["controller", "step-load", "time", "sim-key"])
    def test_repeated_record_rejected(self, old, new, where):
        with pytest.raises(ScenarioError, match=f"^{re.escape(where)}$"):
            parse_scenario_text(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("lineno, section, old, new, key", [
        (3, "buses", "inertia=2.0", "inertai=2.0", "inertai"),
        (7, "lines", "susceptance=2.0", "susceptance=2.0 length=3", "length"),
        (10, "generators", "gain=1.0", "gain=1.0 tau_p=3", "tau_p"),
        (13, "controllers", "cost=1.0", "cost=1.0 k_i=0.5", "k_i"),
        (16, "comm", "[comm]\n", "[comm]\na=0 b=1 weigth=2.5\n", "weigth"),
        (19, "disturbance", "delta=0.2", "delta=0.2 ramp=3", "ramp"),
        (22, "sim", "t_end=5.0", "t_ned=5.0", "t_ned"),
    ], ids=["buses", "lines", "generators", "controllers", "comm", "disturbance",
            "sim"])
    def test_unknown_field_rejected(self, lineno, section, old, new, key):
        where = f"line {lineno}: [{section}] record has unknown field {key!r}"
        with pytest.raises(ScenarioError, match=f"^{re.escape(where)}$"):
            parse_scenario_text(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old, new, message", [
        ("id=0 kind", "kind", "line 3: [buses] record missing required field 'id'"),
        ("kind=generator ", "", "line 3: [buses] record missing required field 'kind'"),
        (" damping=1.0\nid=1", "\nid=1",
         "line 3: [buses] record missing required field 'damping'"),
        (" to=1", "", "line 7: [lines] record missing required field 'to'"),
        (" susceptance=2.0", "",
         "line 7: [lines] record missing required field 'susceptance'"),
        ("bus=0 model", "model",
         "line 10: [generators] record missing required field 'bus'"),
        (" gain=1.0", "", "line 10: [generators] record missing required field 'gain'"),
        ("bus=0 gamma", "gamma",
         "line 13: [controllers] record missing required field 'bus'"),
        (" cost=1.0", "", "line 13: [controllers] record missing required field 'cost'"),
        ("[comm]\n", "[comm]\na=0 weight=1.0\n",
         "line 16: [comm] record missing required field 'b'"),
        ("time=1.0\n", "", "disturbance section missing required field 'time'"),
        (" delta=0.2", "",
         "line 19: [disturbance] record missing required field 'delta'"),
        ("dt=0.001 ", "", "sim section missing required field 'dt'"),
        (" t_end=5.0", "", "sim section missing required field 't_end'"),
        ("id=1 kind", "id=1.0 kind", "line 4: field 'id' is not an integer: '1.0'"),
        ("kind=load", "kind=storage", "line 4: unknown bus kind 'storage'"),
        ("from=0", "from=", "line 7: malformed token 'from='"),
        ("from=0", "from", "line 7: expected key=value tokens, got 'from'"),
        ("time=1.0", "time=1.0 zzz=1.0",
         "line 18: [disturbance] record has unknown field 'zzz'"),
        (" model=first_order", "",
         "line 10: [generators] record missing required field 'model'"),
    ], ids=["buses-id", "buses-kind", "buses-damping", "lines-to",
            "lines-susceptance", "generators-bus", "generators-gain",
            "controllers-bus", "controllers-cost", "comm-b", "disturbance-time",
            "disturbance-delta", "sim-dt", "sim-t_end", "non-integer-id",
            "unknown-kind", "malformed-token", "token-without-equals",
            "time-with-unknown-key", "generator-without-model"])
    def test_parse_error_text(self, old, new, message):
        assert old in MINIMAL
        with pytest.raises(ScenarioError) as info:
            parse_scenario_text(MINIMAL.replace(old, new, 1))
        assert str(info.value) == message

    def test_load_bus_inertia_rejected(self):
        # a load bus has no inertia, and serialize_scenario writes none
        broken = MINIMAL.replace("kind=load", "kind=load inertia=7")
        with pytest.raises(ScenarioError,
                           match="^invalid scenario: load bus 1 inertia must be zero$"):
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

    def test_numpy_numbers_are_written_as_numbers(self, two_gen_scenario):
        # a library caller may build a Scenario from numpy scalars
        net = two_gen_scenario.network
        lines = [dataclasses.replace(ln, susceptance=np.float64(ln.susceptance))
                 for ln in net.lines]
        scn = dataclasses.replace(
            two_gen_scenario, network=dataclasses.replace(net, lines=lines),
            dt=np.float64(two_gen_scenario.dt),
            output_stride=np.int64(two_gen_scenario.output_stride))
        text = serialize_scenario(scn)
        assert text == serialize_scenario(two_gen_scenario)
        assert parse_scenario_text(text) == two_gen_scenario

    @pytest.mark.parametrize("name", ["two_gen.scn", "ring9.scn"])
    def test_fixture_serializes_to_its_own_records(self, name):
        # each generator value is written as the file gives it
        text = fixture_path(name).read_text(encoding="utf-8")
        records = [line for line in text.splitlines()
                   if line.strip() and not line.startswith("#")]
        got = serialize_scenario(load_scenario(fixture_path(name)))
        assert got.splitlines() == records

    def test_unrecorded_generator_has_no_model(self, two_gen_scenario):
        # a block built directly or by dataclasses.replace records no
        # builder, though it equals the one the file built
        gen = two_gen_scenario.generators[1]
        direct = generation.LtiGenerator(gen.a_matrix, gen.b_vector,
                                         gen.c_vector, gen.d_scalar, gen.order)
        message = "^generator at bus 1 does not match a serializable model$"
        for block in (direct, dataclasses.replace(gen)):
            scn = dataclasses.replace(two_gen_scenario, generators={
                **two_gen_scenario.generators, 1: block})
            assert scn == two_gen_scenario
            with pytest.raises(ValueError, match=message):
                serialize_scenario(scn)
            with pytest.raises(ValueError, match=message):
                apply_param(scn, "generators.1.tau", 0.8)


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

    def test_csv_v_column_holds_the_given_series(self, short_traj, tmp_path):
        path = tmp_path / "traj.csv"
        values = np.linspace(1.0, 0.0, len(short_traj.times))
        write_trajectory_csv(short_traj, path, values)
        rows = path.read_text().splitlines()[1:]
        assert [float(row.split(",")[-1]) for row in rows] == values.tolist()

    def test_csv_holds_a_block_of_rows_at_a_time(self, short_traj, tmp_path):
        # 20 001 samples of 11 columns: the table would take 1.8 MB, a
        # block of rows and one row's strings take a few kB
        samples = 20001
        rng = np.random.default_rng(8)

        def series(a):
            return rng.normal(size=(samples, a.shape[1]))
        traj = dataclasses.replace(
            short_traj, times=np.arange(samples) * 0.01,
            states=series(short_traj.states), freqs=series(short_traj.freqs),
            p_m=series(short_traj.p_m),
            marginal_cost=series(short_traj.marginal_cost))
        values = rng.normal(size=samples)
        path = tmp_path / "traj.csv"
        held = traced_peak(lambda: write_trajectory_csv(traj, path, values))[1]
        assert held < 0.1 * samples * 11 * 8
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == samples
        assert rows[-1] == ",".join(map(repr, np.concatenate([
            traj.times[-1:], traj.freqs[-1], traj.p_m[-1], traj.commands[-1],
            traj.marginal_cost[-1], values[-1:]]).tolist()))

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


def _lyapunov_calls(monkeypatch):
    """The scenario of every sim.lyapunov_value call from here on."""
    calls = []

    def counted(scn, *args, real=sim.lyapunov_value):
        calls.append(scn)
        return real(scn, *args)

    monkeypatch.setattr(sim, "lyapunov_value", counted)
    return calls


class TestRun:
    def test_one_lyapunov_evaluation_per_run(self, two_gen_scenario, tmp_path,
                                             monkeypatch):
        # the dissipation check and the CSV's V column read one series
        calls = _lyapunov_calls(monkeypatch)
        report = run(two_gen_scenario, RunFlags(out_dir=str(tmp_path)))
        assert report.checks["dissipation"][0] == "pass"
        assert len(calls) == 1
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert all(row.split(",")[-1] for row in rows[1:])
        run(two_gen_scenario, RunFlags(skip_certify=True))
        assert len(calls) == 1

    def test_clean_run_passes_all_gates(self, two_gen_scenario, tmp_path):
        report = run(two_gen_scenario, RunFlags(out_dir=str(tmp_path)))
        assert report.exit_code == 0
        for name in ("certification", "security", "settling", "dissipation"):
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

    def test_transient_angle_excursion_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(sim, "transient_angle_peak",
                            lambda *args: (math.pi / 2.0, 2.5))
        assert main(["simulate", str(fixture_path("two_gen.scn"))]) == 1
        out = capsys.readouterr().out
        assert f"= {math.pi / 2.0!r} at t=2.5 -> VIOLATED (>= pi/2)" in out
        assert "\ntransient-security: fail (max transient |angle difference| = " in out

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

    def test_concluding_twice_gives_the_same_report(self, two_gen_scenario):
        # _conclude reads the prepared run and leaves it as it was
        prep = cli._prepare(two_gen_scenario, RunFlags(optimal_gains=True))
        sections = copy.deepcopy(prep.sections)
        traj = integrate(prep.scn)
        first = cli._conclude(prep, traj)
        second = cli._conclude(prep, traj)
        assert prep.sections == sections
        assert second.report_text == first.report_text
        assert second.checks == first.checks
        assert first.report_text.count("[simulation]") == 1
        assert first.report_text == run(two_gen_scenario,
                                        RunFlags(optimal_gains=True)).report_text

    @pytest.mark.parametrize("flags", [
        RunFlags(), RunFlags(skip_certify=True), RunFlags(optimal_gains=True),
        RunFlags(t_end=2.0)], ids=["clean", "skip-certify", "optimal-gains",
                                   "failing"])
    def test_verdict_contract(self, two_gen_scenario, flags):
        # the checks come out in [checks] order, each a (status, detail)
        # pair, and the report's [checks] lines and exit code say the same
        report = run(two_gen_scenario, flags)
        names = ["certification", "security", "transient-security",
                 "settling", "dissipation", "dispatch-optimality"]
        assert list(report.checks) == names
        for check in report.checks.values():
            assert isinstance(check, tuple) and len(check) == 2
            assert check[0] in ("pass", "fail", "skipped")
        failed = any(status == "fail" for status, _ in report.checks.values())
        assert report.exit_code == (1 if failed else 0)
        assert failed == (flags.t_end is not None)
        rendered = ["[checks]"] + [
            f"{name}: {status}" + (f" ({detail})" if detail else "")
            for name, (status, detail) in report.checks.items()] + [
            f"exit code: {report.exit_code}"]
        tail = report.report_text.split("\n\n")[-1]
        assert tail == "\n".join(rendered) + "\n"

    def test_benchmark_entry_points(self, two_gen_scenario, monkeypatch):
        # the benchmark wraps these module attributes and reads the
        # scenario integrate is called with and the equilibrium it uses
        for module, names in [(cli, ("run", "run_sweep", "search_certificate",
                                     "write_trajectory_csv")),
                              (sim, ("integrate", "compute_equilibrium",
                                     "dissipation_check"))]:
            for name in names:
                assert callable(getattr(module, name)), name
        calls = {}

        def recording(name):
            real = getattr(sim, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                calls.setdefault(name, []).append((args, result))
                return result

            monkeypatch.setattr(sim, name, wrapper)

        recording("integrate")
        recording("compute_equilibrium")
        report = run(two_gen_scenario, RunFlags())
        assert report.exit_code == 0
        [(args, traj)], [(eq_args, eq)] = (calls["integrate"],
                                           calls["compute_equilibrium"])
        assert len(args) == len(eq_args) == 1
        scn = args[0]
        assert eq_args[0] is scn
        assert scn.name == two_gen_scenario.name
        assert f"nu = {eq.nu!r}" in report.report_text


def _simulated(prep, **changes):
    """The simulation stage's section of the prepared run, its fields set
    from changes after integration."""
    traj = integrate(prep.scn)
    return cli._simulation(dataclasses.replace(prep, **changes), traj)[1]


def _scaled_certificates(certs, factor):
    """Each certificate with its P times factor, off the LMI's face."""
    return {g: dataclasses.replace(
        c, p_matrix=certify.SymmetricMatrix(factor * c.p_matrix.array))
        for g, c in certs.items()}


class TestGatesAtTheirBoundary:
    """Each gate fails on a run just past its bound and passes on one
    inside it, so loosening its bound or dropping a clause fails a test."""

    def test_equilibrium_past_pi_over_2_fails_security(self, two_gen_scenario,
                                                       tmp_path, capsys):
        # bus 2's step at 9.2 sets max |eta*| = 1.6021, past pi/2 and far
        # below pi; from about 9.3 Newton meets a singular Jacobian
        scn = apply_param(two_gen_scenario, "disturbance.2.delta", 9.2)
        eq, section = cli._equilibrium(scn)
        assert math.pi / 2.0 < eq.max_abs_angle_diff < 1.61
        assert section.checks["security"] == (
            "fail", f"max |angle difference| = {eq.max_abs_angle_diff!r}")
        path = tmp_path / "heavy.scn"
        path.write_text(serialize_scenario(scn))
        assert main(["equilibrium", str(path)]) == 1
        assert "security constraint: VIOLATED" in capsys.readouterr().out
        assert cli._equilibrium(two_gen_scenario)[1].checks["security"] == ("pass", "")

    @pytest.mark.parametrize("scale", [50.4, 50.61])
    def test_swing_past_pi_over_2_fails_transient_security(self,
                                                           ring9_scenario,
                                                           scale):
        # every ring9 step load x50.61 leaves the post-step equilibrium
        # secure (max |eta*| = 1.5589) while the swing to it peaks at
        # 1.5868 at t = 21.2, past pi/2; x50.4 peaks at 1.5430
        scn = dataclasses.replace(ring9_scenario, step_loads={
            bus: delta * scale
            for bus, delta in ring9_scenario.step_loads.items()})
        report = run(scn, RunFlags())
        peak = float(re.search(r"max transient \|angle difference\| = (\S+) at",
                               report.report_text).group(1))
        checks = {name: status for name, (status, _) in report.checks.items()}
        assert checks.pop("dispatch-optimality") == "skipped"
        if scale == 50.4:
            assert 1.54 < peak < math.pi / 2.0
            assert set(checks.values()) == {"pass"}
            assert report.exit_code == 0
            return
        assert math.pi / 2.0 < peak < 1.59
        assert checks.pop("transient-security") == "fail"
        assert report.checks["transient-security"][1] == (
            f"max transient |angle difference| = {peak!r} at t=21.2")
        assert set(checks.values()) == {"pass"}
        assert report.exit_code == 1

    @pytest.mark.parametrize("scale", [1.0, 1.01])
    def test_dispatch_optimality_needs_the_price(self, two_gen_scenario, scale):
        # the final marginal costs agree with each other to 1.4e-5 whatever
        # the price; 1 % off the dispatch price nu they miss it by 0.0099
        prep = cli._prepare(two_gen_scenario, RunFlags(optimal_gains=True))
        section = _simulated(prep, nu_opt=prep.nu_opt * scale)
        status, detail = section.checks["dispatch-optimality"]
        assert status == ("pass" if scale == 1.0 else "fail")
        if scale != 1.0:
            spread, rel = map(float, re.fullmatch(
                r"marginal spread (\S+), relative offset (\S+)", detail).groups())
            assert spread < MARGINAL_TOL < rel < 1e-2

    def test_slow_settling_fails_the_run(self, two_gen_scenario, capsys,
                                         tmp_path):
        # bus 1's damping at 0.12 leaves max |omega| = 1.96e-4 at t_end,
        # twice SETTLING_TOL
        scn = apply_param(two_gen_scenario, "buses.1.damping", 0.12)
        path = tmp_path / "slow.scn"
        path.write_text(serialize_scenario(scn))
        assert main(["simulate", str(path), "--skip-certify"]) == 1
        checks = dict(line.split(": ", 1) for line in capsys.readouterr().out
                      .split("[checks]\n")[1].splitlines())
        assert checks.pop("settling").startswith("fail (final max |omega| = 0.0001")
        assert checks.pop("exit code") == "1"
        assert set(checks.values()) <= {"pass", "skipped"}

    @pytest.mark.parametrize("name", ["two_gen.scn", "ring9.scn"])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 10.0])
    def test_certificate_off_the_lmi_fails_dissipation(self, name, factor):
        # P halved lets V rise after the step by 2.2e-5 (two_gen) and
        # 1.8e-5 (ring9), three orders above EPSILON_V; P doubled or times
        # ten stays within it (ring9 at ten rises by 8.4e-9)
        prep = cli._prepare(load_scenario(fixture_path(name)), RunFlags())
        section = _simulated(prep, certs=_scaled_certificates(prep.certs, factor))
        status, detail = section.checks["dissipation"]
        assert status == ("fail" if factor == 0.5 else "pass")
        if factor == 0.5:
            assert 1e-5 < float(detail.split("= ")[1]) < 3e-5


def test_mesh_run_repeats_no_per_generator_constant(tmp_path, monkeypatch):
    # each generator's A^{-1}B is solved when its block is made: a
    # --optimal-gains run of a 200-bus mesh reads the blocks' rest states
    # from A^{-1}B and solves nothing
    scn = ring_with_chords(7, buses=200, generators=50, chords=60)
    solvers = []

    def solve(a, b, real=np.linalg.solve):
        solvers.append(sys._getframe(1).f_code)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    assert run(scn, RunFlags(optimal_gains=True, out_dir=str(tmp_path))).outputs
    assert solvers == []


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
        assert scn.generators[0].built_by == (generation.make_first_order,
                                              (0.8, 1.0))
        scn = apply_param(ring9_scenario, "generators.1.tau_p", 0.9)
        assert scn.generators[1].built_by[0] is generation.make_second_order
        assert scn.generators[1].built_by[1][1] == 0.9

    def test_negative_horizon_rejected(self, two_gen_scenario):
        # a step before t = 0 may still lie before a negative horizon
        scn = apply_param(two_gen_scenario, "disturbance.time", -2.0)
        with pytest.raises(ValueError, match="^t_end must not be negative$"):
            apply_param(scn, "sim.t_end", -1.0)

    def test_bad_paths(self, two_gen_scenario):
        with pytest.raises(ScenarioError, match="unknown parameter path"):
            apply_param(two_gen_scenario, "sim.gravity", 9.8)
        with pytest.raises(ScenarioError, match="cannot apply"):
            apply_param(two_gen_scenario, "lines.9.susceptance", 1.0)
        with pytest.raises(ScenarioError, match="cannot apply"):
            apply_param(two_gen_scenario, "generators.0.tau_p", 1.0)
        # no such bus, line or controller gain, a bus key the format does
        # not let a sweep set, and a load bus, which has no inertia
        for path in ("disturbance.9.delta", "buses.9.damping",
                     "lines.-1.susceptance", "buses.2.kind", "buses.0.id",
                     "disturbance.x.delta", "buses.2.inertia",
                     "controllers.0.q", "comm.1.weight", "sim.output_stride",
                     # decimal digits, but not ASCII ones
                     "controllers.\u0661.k_d", "buses.\uff12.damping"):
            with pytest.raises(ScenarioError,
                               match=f"^cannot apply parameter path {path!r}: "):
                apply_param(two_gen_scenario, path, 1.0)

    @pytest.mark.parametrize("name", ["two_gen.scn", "ring9.scn"])
    def test_every_settable_path_round_trips(self, name):
        scn = load_scenario(fixture_path(name))
        rng = np.random.default_rng(5)
        for path, read in _settable(scn):
            values = rng.uniform(0.3, 3.0, size=3)
            # a step must divide the horizon: dt is snapped to the nearest
            # divisor of t_end, and t_end to the nearest multiple of dt
            if path == "sim.dt":
                values = scn.t_end / np.round(scn.t_end / (values * 1e-3))
            elif path == "sim.t_end":
                values = np.round((values + scn.disturbance_time) / scn.dt) * scn.dt
            elif path == "disturbance.time":
                values = values * scn.t_end / 4.0
            for v in values.tolist():
                new = apply_param(scn, path, v)
                again = parse_scenario_text(serialize_scenario(new))
                assert again == new, (path, v)
                assert read(again) == v, path

    def test_generator_serializes_to_its_exact_block(self, two_gen_scenario):
        # tau = -1/a, read back from this block's matrix, rebuilds a block
        # one float away; the serialized value must rebuild it exactly
        scn = apply_param(two_gen_scenario, "generators.1.tau", 1.891515249195032)
        assert parse_scenario_text(serialize_scenario(scn)) == scn


def _settable(scn):
    """Every path apply_param documents for scn, with a reader of its value."""
    net = scn.network
    yield "sim.dt", lambda s: s.dt
    yield "sim.t_end", lambda s: s.t_end
    yield "disturbance.time", lambda s: s.disturbance_time
    for b in net.buses:
        yield f"disturbance.{b.id}.delta", lambda s, i=b.id: s.step_loads[i]
        yield f"buses.{b.id}.damping", lambda s, i=b.id: s.network.bus(i).damping
    for i in range(len(net.lines)):
        yield f"lines.{i}.susceptance", lambda s, i=i: s.network.lines[i].susceptance
    for i in range(len(net.comm)):
        yield f"comm.{i}.weight", lambda s, i=i: s.network.comm[i].weight
    for g in net.generator_ids:
        yield f"buses.{g}.inertia", lambda s, g=g: s.network.bus(g).inertia
        for key, attr in (("gamma", "gamma"), ("k_f", "k_f"), ("k_c", "k_c"),
                          ("k_d", "k_d"), ("cost", "q")):
            yield (f"controllers.{g}.{key}",
                   lambda s, g=g, attr=attr: getattr(s.controllers[g], attr))
        model, _ = cli._model_of(scn, g)
        for j, field in enumerate(cli._MODELS[model][1]):
            yield (f"generators.{g}.{field}",
                   lambda s, g=g, j=j: s.generators[g].built_by[1][j])


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

    def test_unwritable_member_fails_alone(self, two_gen_scenario, tmp_path):
        # each member's output directory is made when it is prepared; a file
        # put in the second one's place fails its writes, not the first's
        pack = [cli._prepare(two_gen_scenario,
                             RunFlags(out_dir=str(tmp_path / name)))
                for name in ("a", "b")]
        (tmp_path / "b").rmdir()
        (tmp_path / "b").write_text("")
        with pytest.raises(RuntimeError, match="^cannot write outputs: "):
            cli._conclude(pack[1], integrate(pack[1].scn))
        (first, first_text), (second, second_text) = cli._run_pack(pack)
        assert (first, first_text) == (0, "")
        assert (tmp_path / "a" / "trajectory.csv").exists()
        assert second == 2
        assert second_text.startswith("error: cannot write outputs: ")

    def test_swept_values_match_lone_runs(self, tmp_path, capsys):
        # eight k_d values on one grid integrate as two packs of four
        values = [0.43, 0.54, 0.59, 0.7, 0.74, 0.81, 0.88, 1.0]
        scn = load_scenario(fixture_path("two_gen.scn"))
        assert run_sweep(str(fixture_path("two_gen.scn")), "controllers.1.k_d",
                         values, str(tmp_path / "sweep"), RunFlags(t_end=5.0)) == 1
        lines = capsys.readouterr().out.splitlines()
        for v, line in zip(values, lines):
            lone = run(apply_param(scn, "controllers.1.k_d", v),
                       RunFlags(t_end=5.0, out_dir=str(tmp_path / "lone")))
            assert line == f"controllers.1.k_d={v!r}: exit {lone.exit_code}"
            swept = tmp_path / "sweep" / f"controllers_1_k_d={v!r}"
            a, b = (np.genfromtxt(d / "trajectory.csv", delimiter=",",
                                  skip_header=1)
                    for d in (swept, tmp_path / "lone"))
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_diverging_value_keeps_the_others(self, tmp_path, capsys):
        # 1e-6 diverges: its pack is integrated again one value at a time
        args = ["--skip-certify", "--t-end", "5"]
        code = main(["sweep", str(fixture_path("two_gen.scn")), *args,
                     "--param", "controllers.1.gamma",
                     "--values", "1.0,1e-6,0.8", "--out", str(tmp_path / "sweep")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("controllers.1.gamma=1e-06: error: "
                                "non-finite value in pc_1 at t=1.03\n")
        scn = load_scenario(fixture_path("two_gen.scn"))
        want = []
        for v in (1.0, 0.8):
            lone = tmp_path / f"lone{v}"
            report = run(apply_param(scn, "controllers.1.gamma", v),
                         RunFlags(skip_certify=True, t_end=5.0, out_dir=str(lone)))
            want.append(f"controllers.1.gamma={v!r}: exit {report.exit_code}")
            swept = tmp_path / "sweep" / f"controllers_1_gamma={v!r}"
            for f in ("report.txt", "trajectory.csv", "frequency.gnu",
                      "marginal_cost.gnu"):
                assert (swept / f).read_bytes() == (lone / f).read_bytes(), f
        assert captured.out.splitlines() == [
            want[0], "controllers.1.gamma=1e-06: exit 2", want[1]]

    def test_value_that_breaks_the_network_is_exit_2(self, tmp_path, capsys):
        code = main(["sweep", str(fixture_path("two_gen.scn")),
                     "--param", "lines.0.susceptance", "--values", "1.0,-1",
                     "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["lines.0.susceptance=1.0: exit 0",
                                             "lines.0.susceptance=-1.0: exit 2"]
        assert captured.err == ("lines.0.susceptance=-1.0: error: invalid scenario: "
                                "line 0-1 susceptance must be positive\n")
        assert (tmp_path / "lines_0_susceptance=1.0" / "trajectory.csv").exists()
        assert not (tmp_path / "lines_0_susceptance=-1.0").exists()

    def test_bad_path_is_exit_2_without_traceback(self, tmp_path, capsys):
        code = main(["sweep", str(fixture_path("two_gen.scn")),
                     "--param", "disturbance.9.delta", "--values", "0.1,0.2",
                     "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["disturbance.9.delta=0.1: exit 2",
                                             "disturbance.9.delta=0.2: exit 2"]
        assert captured.err.splitlines() == [
            f"disturbance.9.delta={v}: scenario error: cannot apply parameter "
            "path 'disturbance.9.delta': no bus 9" for v in ("0.1", "0.2")]

    def test_time_step_sweep_matches_simulate(self, tmp_path, capsys):
        # values on different grids integrate apart, each as simulate would
        fixture = str(fixture_path("two_gen.scn"))
        assert main(["sweep", fixture, "--t-end", "4", "--param", "sim.dt",
                     "--values", "0.002,0.004", "--out", str(tmp_path / "sweep")]) == 1
        for v in ("0.002", "0.004"):
            lone = tmp_path / f"lone{v}"
            main(["simulate", fixture, "--t-end", "4", "--dt", v,
                  "--out", str(lone)])
            swept = tmp_path / "sweep" / f"sim_dt={v}"
            for f in ("report.txt", "trajectory.csv", "frequency.gnu",
                      "marginal_cost.gnu"):
                assert (swept / f).read_bytes() == (lone / f).read_bytes(), f

    @pytest.mark.parametrize("flag, param, value", [
        (["--t-end", "7.0"], "sim.dt", "0.007"),
        (["--dt", "0.007"], "sim.t_end", "7.0"),
    ], ids=["step", "horizon"])
    def test_swept_step_may_divide_only_the_flagged_horizon(
            self, flag, param, value, tmp_path, capsys):
        # 0.007 does not divide the file's t_end of 30: a step of 0.007 and
        # a horizon of 7.0 fit only together, one from the flag and one
        # from the swept value
        fixture = str(fixture_path("two_gen.scn"))
        assert main(["sweep", fixture, "--skip-certify", *flag, "--param", param,
                     "--values", value, "--out", str(tmp_path / "sweep")]) != 2
        assert capsys.readouterr().err == ""
        lone = tmp_path / "lone"
        main(["simulate", fixture, "--skip-certify", "--dt", "0.007",
              "--t-end", "7.0", "--out", str(lone)])
        swept = tmp_path / "sweep" / f"{param.replace('.', '_')}={value}"
        for f in ("report.txt", "trajectory.csv", "frequency.gnu",
                  "marginal_cost.gnu"):
            assert (swept / f).read_bytes() == (lone / f).read_bytes(), f

    def test_swept_time_may_lie_only_before_the_flagged_horizon(self, tmp_path,
                                                                capsys):
        # 40.0 lies after the file's t_end of 30 but before --t-end 60
        fixture = fixture_path("two_gen.scn")
        args = ["--skip-certify", "--t-end", "60"]
        assert main(["sweep", str(fixture), *args, "--param", "disturbance.time",
                     "--values", "40.0", "--out", str(tmp_path / "sweep")]) != 2
        assert capsys.readouterr().err == ""
        edited = tmp_path / "edited" / "two_gen.scn"
        edited.parent.mkdir()
        edited.write_text(fixture.read_text().replace("time=1.0", "time=40.0")
                          .replace("t_end=30.0", "t_end=60.0"))
        lone = tmp_path / "lone"
        assert main(["simulate", str(edited), "--skip-certify",
                     "--out", str(lone)]) != 2
        for f in ("report.txt", "trajectory.csv"):
            assert (tmp_path / "sweep" / "disturbance_time=40.0" / f).read_bytes() \
                == (lone / f).read_bytes(), f

    @pytest.mark.parametrize("flags, param, values", [
        (["--t-end", "4"], "sim.t_end", ["3.0", "5.0"]),
        (["--t-end", "4", "--dt", "0.005"], "sim.dt", ["0.002", "0.004"]),
    ])
    def test_swept_value_overrides_its_flag(self, flags, param, values,
                                            tmp_path, capsys):
        main(["sweep", str(fixture_path("two_gen.scn")), "--skip-certify",
              *flags, "--param", param, "--values", ",".join(values),
              "--out", str(tmp_path)])
        name = param.split(".")[1]
        for v in values:
            report = (tmp_path / f"sim_{name}={v}" / "report.txt").read_text()
            line = next(x for x in report.splitlines() if x.startswith("t_end = "))
            assert f"{name} = {v} " in line

    def test_unwritable_value_dir_costs_only_that_value(self, tmp_path, capsys):
        (tmp_path / "controllers_1_k_d=0.8").write_text("")
        code = main(["sweep", str(fixture_path("two_gen.scn")), "--skip-certify",
                     "--t-end", "3", "--param", "controllers.1.k_d",
                     "--values", "0.6,0.8", "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["controllers.1.k_d=0.6: exit 1",
                                             "controllers.1.k_d=0.8: exit 2"]
        assert captured.err.startswith(
            "controllers.1.k_d=0.8: error: cannot write outputs: ")
        assert captured.err.count("\n") == 1
        assert (tmp_path / "controllers_1_k_d=0.6" / "trajectory.csv").exists()

    def test_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch,
                                                  capsys):
        # nine values on one grid are two packs: two usable CPUs run them
        # side by side in the pool, one CPU one after the other
        fixture = fixture_path("two_gen.scn")
        scn = load_scenario(fixture)
        path, values = "controllers.1.k_d", [0.4 + 0.1 * i for i in range(9)]
        assert len(sim.packs([apply_param(scn, path, v) for v in values])) == 2
        printed = []
        for cpus in ("pool", "serial"):
            _usable_cpus(monkeypatch, 2 if cpus == "pool" else 1)
            run_sweep(str(fixture), path, values, str(tmp_path / cpus),
                      RunFlags(t_end=2.0))
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        files = sorted(p.relative_to(tmp_path / "pool")
                       for p in (tmp_path / "pool").rglob("*") if p.is_file())
        assert len(files) == 4 * len(values)
        for f in files:
            assert (tmp_path / "pool" / f).read_bytes() == \
                (tmp_path / "serial" / f).read_bytes(), f
        for v in values:
            lone = tmp_path / f"lone{v!r}"
            run(apply_param(scn, path, v), RunFlags(t_end=2.0, out_dir=str(lone)))
            a, b = (np.genfromtxt(d / "trajectory.csv", delimiter=",",
                                  skip_header=1)
                    for d in (tmp_path / "pool" / f"controllers_1_k_d={v!r}", lone))
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_one_usable_cpu_runs_the_packs_here(self, tmp_path, monkeypatch,
                                                capsys):
        # the machine may have more CPUs than this process may run on
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        _usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "Pool", None)
        ran = []
        monkeypatch.setattr(cli, "_run_pack",
                            lambda pack, real=cli._run_pack:
                            ran.append(len(pack)) or real(pack))
        values = [0.4 + 0.1 * i for i in range(9)]
        run_sweep(str(fixture_path("two_gen.scn")), "controllers.1.k_d", values,
                  str(tmp_path), RunFlags(skip_certify=True, t_end=1.01))
        assert ran == [5, 4]
        assert len(capsys.readouterr().out.splitlines()) == len(values)

    def test_one_lyapunov_evaluation_per_value(self, tmp_path, monkeypatch,
                                               capsys):
        _usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "Pool", None)
        calls = _lyapunov_calls(monkeypatch)
        values = [0.4 + 0.1 * i for i in range(9)]
        run_sweep(str(fixture_path("two_gen.scn")), "controllers.1.k_d", values,
                  str(tmp_path), RunFlags(t_end=1.01))
        assert len(capsys.readouterr().out.splitlines()) == len(values)
        assert [scn.controllers[1].k_d for scn in calls] == values


def _usable_cpus(monkeypatch, count):
    """Pin the process's affinity mask, as sched_getaffinity reports it, to
    count CPUs; on a platform without one, the CPU count to count."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: count)


class TestMain:
    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.scn")]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_unparseable_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("nonsense\n")
        assert main(["simulate", str(bad)]) == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("bus=1 model=", "bus=5 model="),
         "every generator bus needs exactly one [generators] record; "
         "generator record references unknown bus 5"),
        (lambda text: "".join(line for line in text.splitlines(True)
                              if not line.startswith("bus=1 gamma=")),
         "every generator bus needs exactly one [controllers] record"),
    ], ids=["unknown-generator-bus", "missing-controller"])
    def test_invalid_scenario_is_exit_2(self, edit, message, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(edit(fixture_path("two_gen.scn").read_text(encoding="utf-8")),
                       encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scenario error: invalid scenario: {message}\n"

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["simulate", str(fixture_path("two_gen.scn")), "--skip-certify",
                     "--t-end", "1.01", "--out", str(blocker / "x")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write outputs: ")
        assert captured.err.count("\n") == 1

    def test_unwritable_out_fails_before_any_stage(self, tmp_path, monkeypatch,
                                                   capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        reached = []
        for module, name in [(cli, "search_certificate"),
                             (sim, "compute_equilibrium"), (sim, "integrate")]:
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, **k: reached.append(name))
        code = main(["simulate", str(fixture_path("ring9.scn")),
                     "--out", str(blocker / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write outputs: ")
        assert reached == []

    def test_step_that_does_not_divide_t_end_fails_before_any_stage(
            self, tmp_path, monkeypatch, capsys):
        reached = []
        for module, name in [(cli, "search_certificate"),
                             (sim, "compute_equilibrium"), (sim, "integrate")]:
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, **k: reached.append(name))
        code = main(["simulate", str(fixture_path("ring9.scn")), "--dt", "0.0007",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: t_end must be an integer multiple of dt\n")
        assert reached == []
        assert not (tmp_path / "out").exists()

    def test_negative_horizon_fails_before_any_stage(self, tmp_path, monkeypatch,
                                                     capsys):
        reached = []
        for module, name in [(cli, "search_certificate"),
                             (sim, "compute_equilibrium"), (sim, "integrate")]:
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, **k: reached.append(name))
        text = fixture_path("two_gen.scn").read_text(encoding="utf-8")
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace("time=1.0", "time=-2.0")
                       .replace("t_end=30.0", "t_end=-1.0"), encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "scenario error: t_end must not be negative\n")
        assert reached == []

    def test_overloaded_mesh_is_exit_2(self, tmp_path, capsys):
        scn = ring_with_chords(seed=3)
        scn = dataclasses.replace(scn, step_loads={
            b: 500.0 * delta for b, delta in scn.step_loads.items()})
        path = tmp_path / "overloaded.scn"
        path.write_text(serialize_scenario(scn), encoding="utf-8")
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: equilibrium Newton [^\n]*; "
                            r"try smaller loads or larger susceptances\n",
                            captured.err)

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

    def test_missing_lag_certificate_names_its_threshold(self, tmp_path,
                                                         capsys):
        scn = apply_param(load_scenario(fixture_path("two_gen.scn")),
                          "controllers.1.k_d", 2.0)
        # K = 1.25, k_c = 0.4: threshold K (k_c - k_d)^2 / (4 k_c)
        threshold = certify.first_order_min_damping(1.25, 0.4, 2.0)
        lambda_hat = 1.2 * (1.0 - certify.LAMBDA_SHAVE)
        want = (f"gen 1: no diagonal certificate found (first-order "
                f"threshold {threshold!r} > lambda_hat {lambda_hat!r})")
        report = run(scn, RunFlags(t_end=2.0))
        assert want in report.report_text.splitlines()
        assert report.checks["certification"][0] == "fail"
        path = tmp_path / "kd2.scn"
        path.write_text(serialize_scenario(scn))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[1] == want

    @staticmethod
    def _with_block(block, damping):
        """two_gen with block at generator bus 1 (k_c = 0.4, k_d = 0.8) and
        that bus's damping set to damping."""
        scn = apply_param(load_scenario(fixture_path("two_gen.scn")),
                          "buses.1.damping", damping)
        return dataclasses.replace(scn, generators={**scn.generators, 1: block})

    def test_scaled_lag_names_its_threshold(self):
        # A = -2, B = 3, C = 0.5: a lag up to a scaling of its state, with
        # K = 0.75 and the lag's threshold, which decides the search
        block = generation.LtiGenerator(((-2.0,),), (3.0,), (0.5,), 0.0, 1)
        threshold = certify.first_order_min_damping(0.75, 0.4, 0.8)
        lam = 0.99 * threshold / (1.0 - certify.LAMBDA_SHAVE)
        cert, line = cli._certify_bus(self._with_block(block, lam), 1)
        assert cert is None
        lambda_hat = lam * (1.0 - certify.LAMBDA_SHAVE)
        assert line == (f"gen 1: no diagonal certificate found (first-order "
                        f"threshold {threshold!r} > lambda_hat {lambda_hat!r})")
        lam = 1.01 * threshold / (1.0 - certify.LAMBDA_SHAVE)
        cert, _ = cli._certify_bus(self._with_block(block, lam), 1)
        assert cert is not None

    def test_negative_gain_order_one_block_names_no_threshold(self):
        # K = -0.75: first_order_min_damping would raise on it
        block = generation.LtiGenerator(((-2.0,),), (3.0,), (-0.5,), 0.0, 1)
        scn = self._with_block(block, 1.2)
        assert certify.first_order_shortfall(block, scn.controllers[1],
                                             1.2) is None
        assert cli._certify_bus(scn, 1) == (
            None, "gen 1: no diagonal certificate found")

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

    def test_equilibrium_takes_optimal_gains(self, tmp_path, capsys):
        scn = apply_param(load_scenario(fixture_path("two_gen.scn")),
                          "controllers.1.k_c", 0.3)
        path = tmp_path / "kc.scn"
        path.write_text(serialize_scenario(scn))
        assert main(["equilibrium", str(path), "--optimal-gains"]) == 0
        nu = capsys.readouterr().out.splitlines()[0]
        main(["simulate", str(path), "--optimal-gains", "--t-end", "1.01"])
        report = capsys.readouterr().out
        assert nu == report.split("[equilibrium]\n")[1].splitlines()[0]
        assert nu == "nu = 0.26666666666666666"

    @pytest.mark.parametrize("name", ["two_gen.scn", "ring9.scn"])
    @pytest.mark.parametrize("optimal", [False, True])
    def test_stage_subcommands_print_the_run_sections(self, name, optimal,
                                                      capsys):
        path = str(fixture_path(name))
        flag = ["--optimal-gains"] if optimal else []
        main(["simulate", path, *flag, "--t-end", "1.01"])
        sections = {}
        for block in capsys.readouterr().out.split("\n\n"):
            head, *body = block.splitlines()
            sections[head] = body
        assert main(["certify", path, *flag]) == 0
        assert capsys.readouterr().out.splitlines() == [
            line for line in sections["[certificates]"] if "adopting" not in line]
        assert main(["dispatch", path]) == 0
        assert capsys.readouterr().out.splitlines() == sections["[dispatch]"]
        assert main(["equilibrium", path, *flag]) == 0
        lines = capsys.readouterr().out.splitlines()
        detail = [line for line in lines if line.startswith(("bus ", "line "))]
        net = load_scenario(path).network
        assert len(detail) == len(net.buses) + len(net.lines)
        assert [line for line in lines if line not in detail] == \
            sections["[equilibrium]"]

    @pytest.mark.parametrize("argv", [["certify", "--out", "x"],
                                      ["dispatch", "--optimal-gains"],
                                      ["equilibrium", "--skip-certify"]])
    def test_stage_subcommands_take_only_their_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv[:1] + [str(fixture_path("two_gen.scn"))] + argv[1:])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gridfreq ")
        assert err.endswith("error: unrecognized arguments: "
                            + " ".join(argv[1:]) + "\n")

    @pytest.mark.parametrize("content", [None, "nonsense\n"])
    def test_bad_sweep_scenario_is_exit_2(self, content, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        if content is not None:
            path.write_text(content)
        code = main(["sweep", str(path), "--param", "controllers.1.k_d",
                     "--values", "0.6", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("scenario error: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_sweep_parses_its_scenario_once(self, tmp_path, monkeypatch, capsys):
        parsed = []
        real = cli.parse_scenario_text
        monkeypatch.setattr(cli, "parse_scenario_text", lambda *a, **k:
                            parsed.append(a) or real(*a, **k))
        code = main(["sweep", str(fixture_path("two_gen.scn")), "--skip-certify",
                     "--param", "controllers.1.k_d", "--values", "0.6,0.8",
                     "--t-end", "3", "--out", str(tmp_path)])
        assert code == 1  # too short a horizon to settle
        assert len(parsed) == 1
        assert capsys.readouterr().out.count(": exit 1\n") == 2

    def test_repeated_sweep_value_is_exit_2_before_any_run(self, tmp_path,
                                                           monkeypatch, capsys):
        prepared = []
        monkeypatch.setattr(cli, "_prepare", lambda *a: prepared.append(a))
        code = main(["sweep", str(fixture_path("two_gen.scn")), "--skip-certify",
                     "--t-end", "2", "--param", "controllers.1.k_d",
                     "--values", "0.6,0.8,0.6", "--out", str(tmp_path / "s")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --values: 0.6 is repeated\n"
        assert prepared == []
        assert not (tmp_path / "s").exists()

    def test_sweep_requires_values(self, capsys):
        code = main(["sweep", str(fixture_path("two_gen.scn")),
                     "--param", "sim.dt", "--values", ","])
        assert code == 2

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--dt", "inf"], "error: dt must be finite, got inf"),
        (["simulate", "--t-end", "nan"], "error: t_end must be finite, got nan"),
        (["sweep", "--param", "sim.dt", "--values", "0.01,inf"],
         "error: --values: 'inf' is not finite"),
        (["sweep", "--param", "controllers.1.k_d", "--values", "0.6,abc"],
         "error: --values: 'abc' is not a number"),
        (["sweep", "--param", "controllers.1.k_d", "--values", "0.6,0_5"],
         "error: --values: '0_5' is not a number"),
        (["sweep", "--param", "controllers.1.k_d", "--values", "0.6,\u0660.5"],
         "error: --values: '\u0660.5' is not a number"),
    ])
    def test_non_finite_option_is_exit_2(self, args, message, tmp_path, capsys):
        argv = args[:1] + [str(fixture_path("two_gen.scn"))] + args[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--dt", "--t-end"])
    def test_underscored_timing_flag_is_exit_2(self, flag, tmp_path, capsys):
        # float alone reads '0_01' as 1.0
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", str(fixture_path("two_gen.scn")), flag, "0_01",
                  "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid float value: '0_01'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [("cost=2.0", "cost=inf"),
                                          ("time=1.0", "time=-inf"),
                                          ("t_end=30.0", "t_end=inf")])
    def test_non_finite_scenario_field_is_exit_2(self, old, new, tmp_path,
                                                 capsys):
        text = fixture_path("two_gen.scn").read_text(encoding="utf-8")
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new, 1), encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2
        captured = capsys.readouterr()
        field, _, value = new.partition("=")
        assert captured.out == ""
        assert re.fullmatch(rf"scenario error: line \d+: field '{field}' is not "
                            rf"finite: '{re.escape(value)}'\n", captured.err)

    def test_marginal_tolerance_is_strict(self):
        assert MARGINAL_TOL == 1e-3


ROOT = Path(__file__).resolve().parents[1]


def _readme_commands():
    """The words of each command in the sh block under README's "Command
    line" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Command line\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    return [shlex.split(line) for line in block.replace("\\\n", "").splitlines()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_readme_commands_exit_0(argv, tmp_path, monkeypatch):
    # the scenario paths are relative to the repository, the outputs go
    # to tmp_path
    assert argv[0] == "gridfreq"
    args = argv[1:]
    args[1] = str(ROOT / args[1])
    for i, word in enumerate(args[:-1]):
        if word == "--out":
            args[i + 1] = str(tmp_path / args[i + 1])
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0


def test_readme_scenario_block_lists_the_format_table():
    """README's "Scenario format" block names every section's keys, and a
    [generators] line each model's fields, in the order of cli._FORMAT
    and cli._MODELS."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Scenario format\n")[1]
    block = section.split("```\n")[1]
    keys, models = {}, []
    for line in block.splitlines():
        if line.startswith("["):
            name = line[1:line.index("]")]
        found = re.findall(r"(\w+)=", line)
        if name == "generators":
            model = re.search(r"model=(\w+)", line).group(1)
            assert found == [*cli._FORMAT[name], *cli._MODELS[model][1]], model
            models.append(model)
        keys.setdefault(name, []).extend(found)
    assert list(keys) == list(cli._FORMAT)
    assert models == list(cli._MODELS)
    for name, table in cli._FORMAT.items():
        if name != "generators":
            assert keys[name] == list(table), name
