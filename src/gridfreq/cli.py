"""Scenario files, run orchestration, and the command-line interface.

The scenario format is a flat text file: [section] headers, one record
per line as whitespace-separated key=value pairs, comments with '#'.
Outputs of a run are a CSV trajectory, a plain-text report, and two
gnuplot scripts; all output bytes are deterministic functions of the
scenario so golden-file comparisons work.  A sweep integrates values on
one time grid together, in packs cut by a fixed matrix budget
(sim.DENSE_ENTRIES, so every pack runs on the dense kernel) and never by
the CPU count, so the same sweep command gives the same bytes on any
machine; a swept value may differ from ``simulate`` with the same
parameter in the last digits (at most 1e-12), because the block-diagonal
products sum in another order.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import multiprocessing
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import certify, control, generation, sim
from .certify import Certificate, search_certificate
from .control import ControllerGains
from .dispatch import DispatchProblem, marginal_costs, solve_dispatch
from .generation import (LtiGenerator, first_order_params, make_first_order,
                         make_second_order, second_order_params)
from .network import Bus, BusKind, CommEdge, Line, PowerNetwork, validate
from .sim import Scenario, Trajectory

SETTLING_TOL = 1e-4
MARGINAL_TOL = 1e-3

_SECTIONS = ("buses", "lines", "generators", "controllers", "comm",
             "disturbance", "sim")


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario files."""


# --- parsing ---------------------------------------------------------------

def _parse_records(lines_with_numbers) -> List[Tuple[int, Dict[str, str]]]:
    records = []
    for lineno, text in lines_with_numbers:
        rec: Dict[str, str] = {}
        for token in text.split():
            if "=" not in token:
                raise ScenarioError(
                    f"line {lineno}: expected key=value tokens, got {token!r}")
            key, _, value = token.partition("=")
            if not key or not value:
                raise ScenarioError(f"line {lineno}: malformed token {token!r}")
            if key in rec:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
            rec[key] = value
        records.append((lineno, rec))
    return records


def _need(rec: Dict[str, str], key: str, lineno: int, section: str) -> str:
    if key not in rec:
        raise ScenarioError(
            f"line {lineno}: [{section}] record missing required field {key!r}")
    return rec[key]


def _finite(text: str) -> float:
    """text as a finite float, or a ValueError that says why it is not."""
    try:
        number = float(text)
    except ValueError:
        raise ValueError("is not a number") from None
    if not math.isfinite(number):
        raise ValueError("is not finite")
    return number


def _to_float(value: str, key: str, lineno: int) -> float:
    try:
        return _finite(value)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: field {key!r} {exc}: {value!r}") from None


def _to_int(value: str, key: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"line {lineno}: field {key!r} is not an integer: {value!r}")


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario text into a validated Scenario."""
    sections: Dict[str, List[Tuple[int, str]]] = {s: [] for s in _SECTIONS}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in sections:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: content before any [section]")
        sections[current].append((lineno, line))

    buses: List[Bus] = []
    for lineno, rec in _parse_records(sections["buses"]):
        kind_text = _need(rec, "kind", lineno, "buses")
        if kind_text not in ("generator", "load"):
            raise ScenarioError(f"line {lineno}: unknown bus kind {kind_text!r}")
        kind = BusKind.GENERATOR if kind_text == "generator" else BusKind.LOAD
        buses.append(Bus(
            id=_to_int(_need(rec, "id", lineno, "buses"), "id", lineno),
            kind=kind,
            inertia=_to_float(rec.get("inertia", "0.0"), "inertia", lineno),
            damping=_to_float(_need(rec, "damping", lineno, "buses"), "damping", lineno),
        ))

    lines: List[Line] = []
    for lineno, rec in _parse_records(sections["lines"]):
        lines.append(Line(
            from_bus=_to_int(_need(rec, "from", lineno, "lines"), "from", lineno),
            to_bus=_to_int(_need(rec, "to", lineno, "lines"), "to", lineno),
            susceptance=_to_float(_need(rec, "susceptance", lineno, "lines"),
                                  "susceptance", lineno),
        ))

    comm: List[CommEdge] = []
    for lineno, rec in _parse_records(sections["comm"]):
        comm.append(CommEdge(
            a=_to_int(_need(rec, "a", lineno, "comm"), "a", lineno),
            b=_to_int(_need(rec, "b", lineno, "comm"), "b", lineno),
            weight=_to_float(rec.get("weight", "1.0"), "weight", lineno),
        ))

    generators: Dict[int, LtiGenerator] = {}
    for lineno, rec in _parse_records(sections["generators"]):
        bus = _to_int(_need(rec, "bus", lineno, "generators"), "bus", lineno)
        model = _need(rec, "model", lineno, "generators")
        try:
            if model == "first_order":
                gen = make_first_order(
                    tau=_to_float(_need(rec, "tau", lineno, "generators"), "tau", lineno),
                    k=_to_float(_need(rec, "gain", lineno, "generators"), "gain", lineno),
                )
            elif model == "second_order":
                gen = make_second_order(
                    tau_a=_to_float(_need(rec, "tau_a", lineno, "generators"), "tau_a", lineno),
                    tau_p=_to_float(_need(rec, "tau_p", lineno, "generators"), "tau_p", lineno),
                    k=_to_float(_need(rec, "gain", lineno, "generators"), "gain", lineno),
                )
            else:
                raise ScenarioError(f"line {lineno}: unknown generator model {model!r}")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc
        if bus in generators:
            raise ScenarioError(f"line {lineno}: duplicate generator for bus {bus}")
        generators[bus] = gen

    controllers: Dict[int, ControllerGains] = {}
    for lineno, rec in _parse_records(sections["controllers"]):
        bus = _to_int(_need(rec, "bus", lineno, "controllers"), "bus", lineno)
        try:
            controllers[bus] = ControllerGains(
                gamma=_to_float(_need(rec, "gamma", lineno, "controllers"), "gamma", lineno),
                k_f=_to_float(_need(rec, "k_f", lineno, "controllers"), "k_f", lineno),
                k_c=_to_float(_need(rec, "k_c", lineno, "controllers"), "k_c", lineno),
                k_d=_to_float(_need(rec, "k_d", lineno, "controllers"), "k_d", lineno),
                q=_to_float(_need(rec, "cost", lineno, "controllers"), "cost", lineno),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc

    disturbance_time: Optional[float] = None
    step_loads: Dict[int, float] = {}
    for lineno, rec in _parse_records(sections["disturbance"]):
        if "time" in rec:
            if len(rec) != 1:
                raise ScenarioError(f"line {lineno}: time= must be on its own line")
            disturbance_time = _to_float(rec["time"], "time", lineno)
        else:
            bus = _to_int(_need(rec, "bus", lineno, "disturbance"), "bus", lineno)
            step_loads[bus] = _to_float(_need(rec, "delta", lineno, "disturbance"),
                                        "delta", lineno)
    if disturbance_time is None:
        raise ScenarioError("disturbance section missing required field 'time'")

    sim_fields: Dict[str, str] = {}
    sim_lines: Dict[str, int] = {}
    for lineno, rec in _parse_records(sections["sim"]):
        sim_fields.update(rec)
        sim_lines.update(dict.fromkeys(rec, lineno))
    for key in ("dt", "t_end"):
        if key not in sim_fields:
            raise ScenarioError(f"sim section missing required field {key!r}")

    net = PowerNetwork(buses=buses, lines=lines, comm=comm)
    problems = validate(net)
    known = {b.id for b in buses}
    for bus in sorted(generators):
        if bus not in known:
            problems.append(f"generator record references unknown bus {bus}")
    for bus in sorted(step_loads):
        if bus not in known:
            problems.append(f"disturbance record references unknown bus {bus}")
    gen_ids = set(net.generator_ids)
    if set(generators) != gen_ids:
        problems.append("every generator bus needs exactly one [generators] record")
    if set(controllers) != gen_ids:
        problems.append("every generator bus needs exactly one [controllers] record")
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(sorted(problems)))

    try:
        return Scenario(
            network=net,
            generators=generators,
            controllers=controllers,
            disturbance_time=disturbance_time,
            step_loads=step_loads,
            t_end=_to_float(sim_fields["t_end"], "t_end", sim_lines["t_end"]),
            dt=_to_float(sim_fields["dt"], "dt", sim_lines["dt"]),
            output_stride=_to_int(sim_fields.get("output_stride", "10"),
                                  "output_stride",
                                  sim_lines.get("output_stride", 0)),
            name=name,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from exc
    return parse_scenario_text(text, name=p.stem)


def serialize_scenario(scn: Scenario) -> str:
    """Render a Scenario back into the text format (round-trip safe)."""
    out: List[str] = []
    out.append("[buses]")
    for b in scn.network.buses:
        kind = "generator" if b.kind is BusKind.GENERATOR else "load"
        if b.kind is BusKind.GENERATOR:
            out.append(f"id={b.id} kind={kind} inertia={b.inertia!r} damping={b.damping!r}")
        else:
            out.append(f"id={b.id} kind={kind} damping={b.damping!r}")
    out.append("[lines]")
    for ln in scn.network.lines:
        out.append(f"from={ln.from_bus} to={ln.to_bus} susceptance={ln.susceptance!r}")
    out.append("[generators]")
    for bus in sorted(scn.generators):
        gen = scn.generators[bus]
        fo = first_order_params(gen)
        so = second_order_params(gen)
        if fo is not None:
            out.append(f"bus={bus} model=first_order tau={fo[0]!r} gain={fo[1]!r}")
        elif so is not None:
            out.append(f"bus={bus} model=second_order tau_a={so[0]!r} "
                       f"tau_p={so[1]!r} gain={so[2]!r}")
        else:
            raise ValueError(
                f"generator at bus {bus} does not match a serializable model")
    out.append("[controllers]")
    for bus in sorted(scn.controllers):
        c = scn.controllers[bus]
        out.append(f"bus={bus} gamma={c.gamma!r} k_f={c.k_f!r} k_c={c.k_c!r} "
                   f"k_d={c.k_d!r} cost={c.q!r}")
    out.append("[comm]")
    for e in scn.network.comm:
        out.append(f"a={e.a} b={e.b} weight={e.weight!r}")
    out.append("[disturbance]")
    out.append(f"time={scn.disturbance_time!r}")
    for bus in sorted(scn.step_loads):
        out.append(f"bus={bus} delta={scn.step_loads[bus]!r}")
    out.append("[sim]")
    out.append(f"dt={scn.dt!r}")
    out.append(f"t_end={scn.t_end!r}")
    out.append(f"output_stride={scn.output_stride}")
    return "\n".join(out) + "\n"


# --- outputs ---------------------------------------------------------------

def _csv_columns(traj: Trajectory) -> List[str]:
    gen_ids = traj.layout.gen_ids
    cols = ["t"]
    cols += [f"omega_{b}" for b in range(traj.layout.n_bus)]
    cols += [f"pm_{g}" for g in gen_ids]
    cols += [f"pc_{g}" for g in gen_ids]
    cols += [f"mc_{g}" for g in gen_ids]
    cols.append("V")
    return cols


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Full-precision CSV export; the V column is blank without certificates."""
    series = [traj.times[:, None], traj.freqs, traj.p_m, traj.commands,
              traj.marginal_cost]
    if traj.lyapunov is not None:
        series.append(traj.lyapunov[:, None])
    end = "\n" if traj.lyapunov is not None else ",\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(_csv_columns(traj)) + "\n")
        # row by row, so that no whole table of Python floats and strings
        # is held: a sweep writes all its values from one process, whose
        # heap keeps such a high-water mark; tolist() yields Python floats,
        # whose repr is the shortest round trip
        for row in np.hstack(series):
            f.write(",".join(map(repr, row.tolist())) + end)


def emit_plots(traj: Trajectory, outdir) -> List[Path]:
    """Write gnuplot scripts for the frequency and marginal-cost figures.

    The scripts reference trajectory.csv next to them; running gnuplot on
    them is optional and external to this package.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if len(traj.times) == 0:
        raise ValueError("cannot plot an empty trajectory")
    cols = _csv_columns(traj)

    def script(title: str, ylabel: str, prefix: str, outfile: str) -> str:
        plots = []
        for i, col in enumerate(cols):
            if col.startswith(prefix):
                plots.append(f"    'trajectory.csv' using 1:{i + 1} with lines title '{col}'")
        body = ", \\\n".join(plots)
        return (
            f"# {title}\n"
            "set datafile separator ','\n"
            "set key outside\n"
            "set xlabel 'time [s]'\n"
            f"set ylabel '{ylabel}'\n"
            f"set terminal pngcairo size 900,540\n"
            f"set output '{outfile}'\n"
            f"plot \\\n{body}\n"
        )

    freq_path = outdir / "frequency.gnu"
    freq_path.write_text(script("Bus frequency deviations over time.",
                                "frequency deviation [rad/s]", "omega_",
                                "frequency.png"), encoding="utf-8")
    mc_path = outdir / "marginal_cost.gnu"
    mc_path.write_text(script("Generator marginal costs over time.",
                              "marginal cost", "mc_", "marginal_cost.png"),
                       encoding="utf-8")
    return [freq_path, mc_path]


# --- run orchestration -----------------------------------------------------

@dataclass
class RunFlags:
    optimal_gains: bool = False
    skip_certify: bool = False
    out_dir: Optional[str] = None
    seed: Optional[int] = None
    dt: Optional[float] = None
    t_end: Optional[float] = None


@dataclass
class RunReport:
    scenario: str
    checks: Dict[str, Tuple[str, str]]  # name -> (status, detail)
    report_text: str
    outputs: List[Path]
    exit_code: int


_GATED = ("validation", "certification", "security", "transient-security",
          "settling", "dissipation", "dispatch-optimality")


def with_optimal_gains(scn: Scenario) -> Scenario:
    """The scenario with k_c = 1/(q K) at every generator (--optimal-gains)."""
    return dataclasses.replace(scn, controllers={
        g: dataclasses.replace(
            prm, k_c=control.optimal_kc(prm.q,
                                        generation.dc_gain(scn.generators[g])))
        for g, prm in scn.controllers.items()})


@dataclass
class _Prepared:
    """A run up to its integration: the scenario as it will be simulated
    (overrides, --optimal-gains and adopted k_f applied), its flags, the
    checks and report lines so far, and what integration and the checks
    after it need.  eq is None when validation stopped the run."""

    scn: Scenario
    flags: RunFlags
    checks: Dict[str, Tuple[str, str]]
    lines: List[str]
    certs: Optional[Dict[int, Certificate]] = None
    eq: Optional[sim.Equilibrium] = None
    nu_opt: float = 0.0


def run(scn: Scenario, flags: RunFlags) -> RunReport:
    """Full pipeline: certify, equilibrium, integrate, check, write files.

    The exit code is 1 when any gating check fails (validation,
    certification unless skipped, the security constraint, transient
    angle security, settling, or dissipation when certificates exist, or
    dispatch optimality when --optimal-gains is on); hard errors raise.
    """
    prep = _prepare(scn, flags)
    if prep.eq is None:
        return _conclude(prep, None)
    traj = sim.integrate(prep.scn, certs=prep.certs,
                         equilibrium=prep.eq if prep.certs else None)
    return _conclude(prep, traj)


def _certify_bus(scn: Scenario, g: int) -> Tuple[Optional[Certificate], str]:
    """The certificate search at generator bus g and its report line; a
    lag's missing certificate names the closed-form threshold it misses."""
    gen, params = scn.generators[g], scn.controllers[g]
    lam = scn.network.bus(g).damping
    cert = search_certificate(gen, params, lam)
    if cert is not None:
        return cert, (f"gen {g}: found k_f={cert.k_f!r} "
                      f"lambda_hat={cert.lambda_hat!r} margin={cert.margin!r}")
    line = f"gen {g}: no diagonal certificate found"
    shortfall = certify.first_order_shortfall(gen, params, lam)
    if shortfall is not None:
        line += " (first-order threshold %r > lambda_hat %r)" % shortfall
    return None, line


def _prepare(scn: Scenario, flags: RunFlags) -> _Prepared:
    """Validation, --optimal-gains, certification, k_f adoption,
    equilibrium and dispatch: everything a run does before integrating."""
    checks: Dict[str, Tuple[str, str]] = {}
    lines: List[str] = []

    if flags.dt is not None or flags.t_end is not None:
        scn = dataclasses.replace(
            scn,
            dt=flags.dt if flags.dt is not None else scn.dt,
            t_end=flags.t_end if flags.t_end is not None else scn.t_end)

    problems = validate(scn.network)
    checks["validation"] = ("pass", "") if not problems else \
        ("fail", "; ".join(problems))

    lines.append(f"scenario: {scn.name}")
    n_gen = len(scn.network.generator_ids)
    lines.append(f"buses: {len(scn.network.buses)} "
                 f"(generators {n_gen}, loads {len(scn.network.load_ids)})")
    lines.append(f"lines: {len(scn.network.lines)}")
    lines.append(f"seed: {flags.seed if flags.seed is not None else 'none'}")
    lines.append(f"flags: optimal-gains={'yes' if flags.optimal_gains else 'no'} "
                 f"skip-certify={'yes' if flags.skip_certify else 'no'}")

    if problems:
        lines.append("")
        lines.append("[validation]")
        for p in problems:
            lines.append(f"problem: {p}")
        return _Prepared(scn, flags, checks, lines)

    if flags.optimal_gains:
        scn = with_optimal_gains(scn)

    certs: Optional[Dict[int, Certificate]] = None
    lines.append("")
    lines.append("[certificates]")
    if flags.skip_certify:
        checks["certification"] = ("skipped", "")
        for g in sorted(scn.network.generator_ids):
            lines.append(f"gen {g}: skipped")
    else:
        certs = {}
        missing = []
        for g in sorted(scn.network.generator_ids):
            cert, line = _certify_bus(scn, g)
            lines.append(line)
            if cert is None:
                missing.append(g)
            else:
                certs[g] = cert
        if missing:
            checks["certification"] = (
                "fail", "no diagonal certificate found for generator bus(es) "
                + ", ".join(str(g) for g in missing))
            certs = None
        else:
            checks["certification"] = ("pass", "")
            # The Lyapunov argument holds for the certified gains, so the
            # simulated k_f must match the certificate.
            adopted = {}
            for g, prm in scn.controllers.items():
                if certs[g].k_f != prm.k_f:
                    adopted[g] = certs[g].k_f
            if adopted:
                new_controllers = dict(scn.controllers)
                for g, kf in adopted.items():
                    new_controllers[g] = dataclasses.replace(
                        new_controllers[g], k_f=kf)
                    lines.append(f"gen {g}: adopting certified k_f={kf!r}")
                scn = dataclasses.replace(scn, controllers=new_controllers)

    eq = sim.compute_equilibrium(scn)
    lines.append("")
    lines.append("[equilibrium]")
    lines.append(f"nu = {eq.nu!r}")
    lines.append(f"max |angle difference| = {eq.max_abs_angle_diff!r}")
    lines.append("security constraint: " + ("pass" if eq.security_ok else
                                            "VIOLATED (some |eta*| >= pi/2)"))
    checks["security"] = ("pass", "") if eq.security_ok else \
        ("fail", f"max |angle difference| = {eq.max_abs_angle_diff!r}")

    prob = DispatchProblem(
        costs={g: scn.controllers[g].q for g in scn.network.generator_ids},
        total_load=sum(scn.step_loads.values()))
    allocation, nu_opt = solve_dispatch(prob)
    mc_opt = marginal_costs(allocation, prob.costs)
    lines.append("")
    lines.append("[dispatch]")
    lines.append(f"nu = {nu_opt!r}")
    for g in sorted(allocation):
        lines.append(f"gen {g}: p={allocation[g]!r} marginal={mc_opt[g]!r}")

    return _Prepared(scn, flags, checks, lines, certs, eq, nu_opt)


def _conclude(prep: _Prepared, traj: Optional[Trajectory]) -> RunReport:
    """The checks on the trajectory, the report and the output files."""
    scn, flags, checks, lines = prep.scn, prep.flags, prep.checks, prep.lines
    if traj is None:
        return _finish(scn, flags, checks, lines, None)
    certs, eq, nu_opt = prep.certs, prep.eq, prep.nu_opt
    lines.append("")
    lines.append("[simulation]")
    lines.append(f"t_end = {scn.t_end!r} dt = {scn.dt!r} samples = {len(traj.times)}")
    peak, at = sim.transient_angle_peak(scn, traj)
    secure = peak < math.pi / 2.0
    checks["transient-security"] = ("pass", "") if secure else \
        ("fail", f"max transient |angle difference| = {peak!r} at t={at!r}")
    lines.append(f"max transient |angle difference| = {peak!r} at t={at!r} -> "
                 + ("pass" if secure else "VIOLATED (>= pi/2)"))
    final_omega = float(np.max(np.abs(traj.freqs[-1])))
    settled = final_omega < SETTLING_TOL
    checks["settling"] = ("pass", "") if settled else \
        ("fail", f"final max |omega| = {final_omega!r}")
    lines.append(f"final max |omega| = {final_omega!r} -> settling "
                 + ("pass" if settled else "FAIL"))
    finals = zip(traj.layout.gen_ids, traj.p_m[-1].tolist(),
                 traj.commands[-1].tolist(), traj.marginal_cost[-1].tolist())
    for g, pm, pc, mc in finals:
        lines.append(f"gen {g}: final pm={pm!r} pc={pc!r} mc={mc!r}")
    if certs is not None:
        jump = sim.dissipation_check(scn, certs, eq, traj)
        ok = jump <= sim.EPSILON_V
        checks["dissipation"] = ("pass", "") if ok else \
            ("fail", f"max V jump = {jump!r}")
        lines.append(f"dissipation: max V jump = {jump!r} "
                     f"(tolerance {sim.EPSILON_V!r}) -> "
                     + ("pass" if ok else "EXCEEDED"))
    else:
        checks["dissipation"] = ("skipped", "")
        lines.append("dissipation: not evaluated (no certificates)")

    if flags.optimal_gains:
        finals = traj.marginal_cost[-1].tolist()
        spread = max(finals) - min(finals)
        rel = max(abs(v - nu_opt) for v in finals) / max(abs(nu_opt), 1e-12)
        ok = spread <= MARGINAL_TOL and rel <= MARGINAL_TOL
        checks["dispatch-optimality"] = ("pass", "") if ok else (
            "fail", f"marginal spread {spread!r}, relative offset {rel!r}")
        lines.append(f"marginal-cost spread = {spread!r}, "
                     f"relative offset from dispatch nu = {rel!r}")
    else:
        checks["dispatch-optimality"] = ("skipped", "")

    return _finish(scn, flags, checks, lines, traj)


def _finish(scn: Scenario, flags: RunFlags, checks, lines,
            traj: Optional[Trajectory]) -> RunReport:
    failed = [name for name in _GATED
              if checks.get(name, ("skipped", ""))[0] == "fail"]
    exit_code = 1 if failed else 0
    lines.append("")
    lines.append("[checks]")
    for name in _GATED:
        status, detail = checks.get(name, ("skipped", ""))
        lines.append(f"{name}: {status}" + (f" ({detail})" if detail else ""))
    lines.append(f"exit code: {exit_code}")
    report_text = "\n".join(lines) + "\n"

    outputs: List[Path] = []
    if flags.out_dir is not None:
        outdir = Path(flags.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        report_path = outdir / "report.txt"
        report_path.write_text(report_text, encoding="utf-8")
        outputs.append(report_path)
        if traj is not None:
            csv_path = outdir / "trajectory.csv"
            write_trajectory_csv(traj, csv_path)
            outputs.append(csv_path)
            outputs.extend(emit_plots(traj, outdir))
    return RunReport(scenario=scn.name, checks=checks, report_text=report_text,
                     outputs=outputs, exit_code=exit_code)


# --- parameter sweep -------------------------------------------------------

def apply_param(scn: Scenario, path: str, value: float) -> Scenario:
    """Set one scalar parameter addressed by a dotted path.

    Supported paths: sim.dt, sim.t_end, disturbance.time,
    disturbance.<bus>.delta, buses.<id>.damping, buses.<id>.inertia,
    lines.<index>.susceptance, comm.<index>.weight,
    controllers.<bus>.{gamma,k_f,k_c,k_d,cost},
    generators.<bus>.{tau,gain,tau_a,tau_p}.
    """
    parts = path.split(".")
    try:
        if parts == ["sim", "dt"]:
            return dataclasses.replace(scn, dt=value)
        if parts == ["sim", "t_end"]:
            return dataclasses.replace(scn, t_end=value)
        if parts == ["disturbance", "time"]:
            return dataclasses.replace(scn, disturbance_time=value)
        if len(parts) == 3 and parts[0] == "disturbance" and parts[2] == "delta":
            loads = dict(scn.step_loads)
            loads[int(parts[1])] = value
            return dataclasses.replace(scn, step_loads=loads)
        if len(parts) == 3 and parts[0] == "buses":
            bid = int(parts[1])
            buses = [dataclasses.replace(b, **{parts[2]: value})
                     if b.id == bid else b for b in scn.network.buses]
            net = PowerNetwork(buses=buses, lines=scn.network.lines,
                               comm=scn.network.comm)
            return dataclasses.replace(scn, network=net)
        if len(parts) == 3 and parts[0] == "lines" and parts[2] == "susceptance":
            idx = int(parts[1])
            lines = list(scn.network.lines)
            lines[idx] = dataclasses.replace(lines[idx], susceptance=value)
            net = PowerNetwork(buses=scn.network.buses, lines=lines,
                               comm=scn.network.comm)
            return dataclasses.replace(scn, network=net)
        if len(parts) == 3 and parts[0] == "comm" and parts[2] == "weight":
            idx = int(parts[1])
            comm = list(scn.network.comm)
            comm[idx] = dataclasses.replace(comm[idx], weight=value)
            net = PowerNetwork(buses=scn.network.buses, lines=scn.network.lines,
                               comm=comm)
            return dataclasses.replace(scn, network=net)
        if len(parts) == 3 and parts[0] == "controllers":
            bid = int(parts[1])
            fieldname = {"cost": "q"}.get(parts[2], parts[2])
            ctl = dict(scn.controllers)
            ctl[bid] = dataclasses.replace(ctl[bid], **{fieldname: value})
            return dataclasses.replace(scn, controllers=ctl)
        if len(parts) == 3 and parts[0] == "generators":
            bid = int(parts[1])
            gen = scn.generators[bid]
            fo = first_order_params(gen)
            so = second_order_params(gen)
            gens = dict(scn.generators)
            if fo is not None and parts[2] in ("tau", "gain"):
                tau, k = fo
                tau, k = (value, k) if parts[2] == "tau" else (tau, value)
                gens[bid] = make_first_order(tau, k)
            elif so is not None and parts[2] in ("tau_a", "tau_p", "gain"):
                tau_a, tau_p, k = so
                if parts[2] == "tau_a":
                    tau_a = value
                elif parts[2] == "tau_p":
                    tau_p = value
                else:
                    k = value
                gens[bid] = make_second_order(tau_a, tau_p, k)
            else:
                raise KeyError(path)
            return dataclasses.replace(scn, generators=gens)
    except (KeyError, IndexError, TypeError) as exc:
        raise ScenarioError(f"cannot apply parameter path {path!r}: {exc}") from exc
    raise ScenarioError(f"unknown parameter path {path!r}")


#: Errors that end a run with exit code 2: an unreadable or invalid
#: scenario or parameter, a diverging integration, an equilibrium failure.
_HARD_ERRORS = (RuntimeError, ArithmeticError, ValueError)


def _error_text(exc: Exception) -> str:
    kind = "scenario error" if isinstance(exc, ScenarioError) else "error"
    return f"{kind}: {exc}"


def _packs(sizes: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Cut members, given as (states, lines), into runs of consecutive
    indices whose union stays within sim.DENSE_ENTRIES, so that every pack
    of two or more runs on the dense kernel; a member over the budget
    alone makes a pack of one."""
    packs: List[List[int]] = []
    n = lines = 0
    for i, (dn, dl) in enumerate(sizes):
        n, lines = n + dn, lines + dl
        if not packs or sim.kernel_entries(n, lines) > sim.DENSE_ENTRIES:
            packs.append([])
            n, lines = dn, dl
        packs[-1].append(i)
    return packs


def _run_pack(pack: Sequence[_Prepared]) -> List[Tuple[int, str]]:
    """Integrate prepared runs on one time grid together and conclude each:
    every run's exit code and error text (empty unless it hit a hard
    error).  A non-finite union is integrated again one run at a time, so
    only a diverging run fails, with the message its lone run gives."""
    try:
        trajs = sim.integrate_many(
            [p.scn for p in pack], certs=[p.certs for p in pack],
            equilibria=[p.eq if p.certs else None for p in pack])
    except _HARD_ERRORS as exc:
        if len(pack) > 1 and isinstance(exc, ArithmeticError):
            return [r for p in pack for r in _run_pack([p])]
        return [(2, _error_text(exc))] * len(pack)
    return [(_conclude(p, traj).exit_code, "") for p, traj in zip(pack, trajs)]


def run_sweep(scn_path: str, param: str, values: Sequence[float],
              base_out: str, flags: RunFlags) -> int:
    """Run one isolated simulation per parameter value.

    The scenario is parsed once and every value prepared in order.
    Values on one time grid (dt, t_end, output_stride, disturbance time)
    are integrated together, in packs of consecutive values that fit
    sim.DENSE_ENTRIES, and the packs run in parallel.  Prints
    ``param=value: exit N`` for every value, and a value's error text on
    stderr, so one failing value costs only its own result.  Returns the
    worst exit code.
    """
    scn = load_scenario(scn_path)
    results: Dict[int, Tuple[int, str]] = {}
    prepared: Dict[int, _Prepared] = {}
    for i, v in enumerate(values):
        sub = Path(base_out) / f"{param.replace('.', '_')}={v!r}"
        try:
            prep = _prepare(apply_param(scn, param, v),
                            dataclasses.replace(flags, out_dir=str(sub)))
            if prep.eq is None:
                results[i] = (_conclude(prep, None).exit_code, "")
            else:
                prepared[i] = prep
        except _HARD_ERRORS as exc:
            results[i] = (2, _error_text(exc))
    grids: Dict[tuple, List[int]] = {}
    for i, prep in prepared.items():
        s = prep.scn
        grids.setdefault((s.dt, s.t_end, s.output_stride, s.disturbance_time),
                         []).append(i)
    packs = [[members[k] for k in pack] for members in grids.values()
             for pack in _packs([(sim.state_layout(prepared[i].scn).size,
                                  len(prepared[i].scn.network.lines))
                                 for i in members])]
    jobs = [[prepared[i] for i in pack] for pack in packs]
    workers = min(len(jobs), multiprocessing.cpu_count())
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            done = pool.map(_run_pack, jobs)
    else:
        done = [_run_pack(job) for job in jobs]
    for pack, codes in zip(packs, done):
        results.update(zip(pack, codes))
    worst = 0
    for i, v in enumerate(values):
        code, error = results[i]
        if error:
            print(f"{param}={v!r}: {error}", file=sys.stderr)
        print(f"{param}={v!r}: exit {code}")
        worst = max(worst, code)
    return worst


# --- entry point -----------------------------------------------------------

def _sweep_values(text: str) -> List[float]:
    """The numbers of a comma-separated --values list, all finite."""
    values = []
    for item in filter(str.strip, text.split(",")):
        try:
            values.append(_finite(item))
        except ValueError as exc:
            raise ValueError(f"--values: {item.strip()!r} {exc}") from None
    return values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="path to a .scn scenario file")
    p.add_argument("--optimal-gains", action="store_true",
                   help="recompute k_c = 1/(q*K) for every generator")
    p.add_argument("--skip-certify", action="store_true",
                   help="skip the certificate search")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded for test harnesses; the run is deterministic")
    p.add_argument("--dt", type=float, default=None, help="override time step")
    p.add_argument("--t-end", type=float, default=None, help="override horizon")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridfreq",
        description="Distributed secondary frequency control workbench")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "certify", "dispatch", "equilibrium"):
        _add_common(subs.add_parser(name))
    sweep = subs.add_parser("sweep")
    _add_common(sweep)
    sweep.add_argument("--param", required=True,
                       help="dotted parameter path, e.g. sim.dt")
    sweep.add_argument("--values", required=True,
                       help="comma-separated list of values")
    args = parser.parse_args(argv)
    flags = RunFlags(optimal_gains=args.optimal_gains,
                     skip_certify=args.skip_certify,
                     out_dir=args.out, seed=args.seed,
                     dt=args.dt, t_end=args.t_end)

    # a ScenarioError is a ValueError: an unreadable or invalid scenario
    # exits 2 with "scenario error: ..." like every other hard error
    try:
        if args.command == "sweep":
            values = _sweep_values(args.values)
            if not values:
                print("sweep needs at least one value", file=sys.stderr)
                return 2
            out = args.out if args.out is not None else "sweep_out"
            return run_sweep(args.scenario, args.param, values, out,
                             dataclasses.replace(flags, out_dir=None))

        scn = load_scenario(args.scenario)
        if args.command == "simulate":
            report = run(scn, flags)
            sys.stdout.write(report.report_text)
            return report.exit_code

        if args.command == "certify":
            if flags.optimal_gains:
                scn = with_optimal_gains(scn)
            all_found = True
            for g in sorted(scn.network.generator_ids):
                cert, line = _certify_bus(scn, g)
                print(line)
                all_found = all_found and cert is not None
            return 0 if all_found else 1

        if args.command == "dispatch":
            prob = DispatchProblem(
                costs={g: scn.controllers[g].q for g in scn.network.generator_ids},
                total_load=sum(scn.step_loads.values()))
            allocation, nu = solve_dispatch(prob)
            mc = marginal_costs(allocation, prob.costs)
            print(f"nu = {nu!r}")
            for g in sorted(allocation):
                print(f"gen {g}: p={allocation[g]!r} marginal={mc[g]!r}")
            return 0

        if args.command == "equilibrium":
            eq = sim.compute_equilibrium(scn)
            print(f"nu = {eq.nu!r}")
            for bid in sorted(eq.angles_star):
                print(f"bus {bid}: theta={eq.angles_star[bid]!r}")
            for (a, b), flow in sorted(eq.flows_star.items()):
                print(f"line {a}-{b}: flow={flow!r}")
            print(f"max |angle difference| = {eq.max_abs_angle_diff!r}")
            print("security constraint: " + ("pass" if eq.security_ok else "VIOLATED"))
            return 0 if eq.security_ok else 1
    except _HARD_ERRORS as exc:
        print(_error_text(exc), file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
