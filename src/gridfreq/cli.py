"""Scenario files, run orchestration, and the command-line interface.

The scenario format is a flat text file: [section] headers, one record
per line as whitespace-separated key=value pairs, comments with '#'.
One table, _MODELS, names each generator model's builder, shape
recogniser and record fields; parsing, serialization and apply_param
all read it, so a new model is one row.

A run goes through stages (certification, k_f adoption, equilibrium,
dispatch), each returning its report lines and its check if it has one;
the certify, dispatch and equilibrium subcommands print one stage's
lines.  Outputs of a run are a CSV trajectory, a plain-text report, and
two gnuplot scripts; all output bytes are deterministic functions of
the scenario so golden-file comparisons work.  A sweep integrates its
values in the packs sim.packs cuts from the scenarios alone, never from
the CPU count, so the same sweep command gives the same bytes on any
machine; a swept value may differ from ``simulate`` with the same
parameter in the last digits (at most 1e-12), because the block-diagonal
products sum in another order.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import multiprocessing
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

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


#: [generators] model name -> (builder, shape recogniser, the record's
#: fields in builder order); the recogniser returns the builder's
#: arguments for a block of the model's exact shape, else None.
_MODELS = {
    "first_order": (make_first_order, first_order_params, ("tau", "gain")),
    "second_order": (make_second_order, second_order_params,
                     ("tau_a", "tau_p", "gain")),
}

#: [controllers] record key -> ControllerGains attribute, in record order.
_CONTROLLER_FIELDS = {"gamma": "gamma", "k_f": "k_f", "k_c": "k_c",
                      "k_d": "k_d", "cost": "q"}


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario files."""


def _model_of(scn: Scenario, bus: int) -> Tuple[str, tuple]:
    """The _MODELS name of the generator at bus and builder arguments that
    rebuild it exactly.  The recogniser's arguments come out of divisions
    and miss that in about one block in a hundred; one of their float
    neighbours then hits it."""
    gen = scn.generators[bus]
    for model, (build, params_of, _) in _MODELS.items():
        params = params_of(gen)
        if params is not None:
            near = [(p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))
                    for p in params]
            return model, next((c for c in itertools.product(*near)
                                if build(*c) == gen), params)
    raise ValueError(f"generator at bus {bus} does not match a serializable model")


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
        if model not in _MODELS:
            raise ScenarioError(f"line {lineno}: unknown generator model {model!r}")
        build, _, fields = _MODELS[model]
        params = [_to_float(_need(rec, key, lineno, "generators"), key, lineno)
                  for key in fields]
        try:
            gen = build(*params)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc
        if bus in generators:
            raise ScenarioError(f"line {lineno}: duplicate generator for bus {bus}")
        generators[bus] = gen

    controllers: Dict[int, ControllerGains] = {}
    for lineno, rec in _parse_records(sections["controllers"]):
        bus = _to_int(_need(rec, "bus", lineno, "controllers"), "bus", lineno)
        gains = {attr: _to_float(_need(rec, key, lineno, "controllers"), key, lineno)
                 for key, attr in _CONTROLLER_FIELDS.items()}
        if bus in controllers:
            raise ScenarioError(f"line {lineno}: duplicate controller for bus {bus}")
        try:
            controllers[bus] = ControllerGains(**gains)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc

    disturbance_time: Optional[float] = None
    step_loads: Dict[int, float] = {}
    for lineno, rec in _parse_records(sections["disturbance"]):
        if "time" in rec:
            if len(rec) != 1:
                raise ScenarioError(f"line {lineno}: time= must be on its own line")
            if disturbance_time is not None:
                raise ScenarioError(f"line {lineno}: duplicate time= line")
            disturbance_time = _to_float(rec["time"], "time", lineno)
        else:
            bus = _to_int(_need(rec, "bus", lineno, "disturbance"), "bus", lineno)
            if bus in step_loads:
                raise ScenarioError(f"line {lineno}: duplicate step load for bus {bus}")
            step_loads[bus] = _to_float(_need(rec, "delta", lineno, "disturbance"),
                                        "delta", lineno)
    if disturbance_time is None:
        raise ScenarioError("disturbance section missing required field 'time'")

    sim_fields: Dict[str, str] = {}
    sim_lines: Dict[str, int] = {}
    for lineno, rec in _parse_records(sections["sim"]):
        for key, value in rec.items():
            if key in sim_fields:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
            sim_fields[key], sim_lines[key] = value, lineno
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
        model, params = _model_of(scn, bus)
        out.append(f"bus={bus} model={model} " + " ".join(
            f"{key}={v!r}" for key, v in zip(_MODELS[model][2], params)))
    out.append("[controllers]")
    for bus in sorted(scn.controllers):
        c = scn.controllers[bus]
        out.append(f"bus={bus} " + " ".join(
            f"{key}={getattr(c, attr)!r}" for key, attr in _CONTROLLER_FIELDS.items()))
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


#: A check's status ("pass", "fail" or "skipped") and its detail.
Check = Tuple[str, str]


@dataclass
class RunReport:
    scenario: str
    checks: Dict[str, Check]  # name -> (status, detail)
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
    checks: Dict[str, Check]
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


def _passes(ok: bool, detail: str) -> Check:
    """A gating check: pass, or fail with detail."""
    return ("pass", "") if ok else ("fail", detail)


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


def _certification(scn: Scenario, skip: bool
                   ) -> Tuple[Optional[Dict[int, Certificate]], Check, List[str]]:
    """Stage: the certificates (None unless every generator bus has one),
    the certification check and one report line per generator bus."""
    gens = sorted(scn.network.generator_ids)
    if skip:
        return None, ("skipped", ""), [f"gen {g}: skipped" for g in gens]
    certs: Dict[int, Certificate] = {}
    lines = []
    for g in gens:
        cert, line = _certify_bus(scn, g)
        lines.append(line)
        if cert is not None:
            certs[g] = cert
    missing = [str(g) for g in gens if g not in certs]
    if missing:
        return None, ("fail", "no diagonal certificate found for generator "
                      "bus(es) " + ", ".join(missing)), lines
    return certs, ("pass", ""), lines


def _adopt_kf(scn: Scenario, certs: Optional[Dict[int, Certificate]]
              ) -> Tuple[Scenario, List[str]]:
    """Stage: the scenario with each controller's k_f set to its
    certificate's, since the Lyapunov argument holds for the certified
    gains only, and a report line per changed gain."""
    if certs is None:
        return scn, []
    lines = [f"gen {g}: adopting certified k_f={certs[g].k_f!r}"
             for g, prm in scn.controllers.items() if certs[g].k_f != prm.k_f]
    if lines:
        scn = dataclasses.replace(scn, controllers={
            g: dataclasses.replace(prm, k_f=certs[g].k_f)
            for g, prm in scn.controllers.items()})
    return scn, lines


def _equilibrium(scn: Scenario) -> Tuple[sim.Equilibrium, Check, List[str]]:
    """Stage: the post-step equilibrium, the security check and the
    report lines."""
    eq = sim.compute_equilibrium(scn)
    spread = f"max |angle difference| = {eq.max_abs_angle_diff!r}"
    return eq, _passes(eq.security_ok, spread), [
        f"nu = {eq.nu!r}", spread, "security constraint: " + (
            "pass" if eq.security_ok else "VIOLATED (some |eta*| >= pi/2)")]


def _dispatch(scn: Scenario) -> Tuple[float, List[str]]:
    """Stage: the optimal dispatch price nu and the report lines."""
    prob = DispatchProblem(
        costs={g: scn.controllers[g].q for g in scn.network.generator_ids},
        total_load=sum(scn.step_loads.values()))
    allocation, nu = solve_dispatch(prob)
    mc = marginal_costs(allocation, prob.costs)
    return nu, [f"nu = {nu!r}"] + [
        f"gen {g}: p={allocation[g]!r} marginal={mc[g]!r}" for g in sorted(allocation)]


def _prepare(scn: Scenario, flags: RunFlags) -> _Prepared:
    """The time overrides, the output directory, validation,
    --optimal-gains and the stages: certification, k_f adoption,
    equilibrium and dispatch; everything a run does before integrating.
    The output directory is made before any stage, so an unwritable one
    fails the run before it spends time."""
    checks: Dict[str, Check] = {}
    lines: List[str] = []

    if flags.dt is not None or flags.t_end is not None:
        scn = dataclasses.replace(
            scn,
            dt=flags.dt if flags.dt is not None else scn.dt,
            t_end=flags.t_end if flags.t_end is not None else scn.t_end)
    if flags.out_dir is not None:
        try:
            Path(flags.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RuntimeError(f"cannot write outputs: {exc}") from exc

    problems = validate(scn.network)
    checks["validation"] = _passes(not problems, "; ".join(problems))

    lines.append(f"scenario: {scn.name}")
    n_gen = len(scn.network.generator_ids)
    lines.append(f"buses: {len(scn.network.buses)} "
                 f"(generators {n_gen}, loads {len(scn.network.load_ids)})")
    lines.append(f"lines: {len(scn.network.lines)}")
    lines.append(f"seed: {flags.seed if flags.seed is not None else 'none'}")
    lines.append(f"flags: optimal-gains={'yes' if flags.optimal_gains else 'no'} "
                 f"skip-certify={'yes' if flags.skip_certify else 'no'}")

    def section(name: str, body: List[str]) -> None:
        lines.extend(["", f"[{name}]", *body])

    if problems:
        section("validation", [f"problem: {p}" for p in problems])
        return _Prepared(scn, flags, checks, lines)

    if flags.optimal_gains:
        scn = with_optimal_gains(scn)
    certs, checks["certification"], body = _certification(scn, flags.skip_certify)
    scn, adopted = _adopt_kf(scn, certs)
    section("certificates", body + adopted)
    eq, checks["security"], body = _equilibrium(scn)
    section("equilibrium", body)
    nu_opt, body = _dispatch(scn)
    section("dispatch", body)
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
    excursion = f"max transient |angle difference| = {peak!r} at t={at!r}"
    checks["transient-security"] = _passes(secure, excursion)
    lines.append(excursion + " -> " + ("pass" if secure else "VIOLATED (>= pi/2)"))
    final_omega = float(np.max(np.abs(traj.freqs[-1])))
    settled = final_omega < SETTLING_TOL
    checks["settling"] = _passes(settled, f"final max |omega| = {final_omega!r}")
    lines.append(f"final max |omega| = {final_omega!r} -> settling "
                 + ("pass" if settled else "FAIL"))
    finals = zip(traj.layout.gen_ids, traj.p_m[-1].tolist(),
                 traj.commands[-1].tolist(), traj.marginal_cost[-1].tolist())
    for g, pm, pc, mc in finals:
        lines.append(f"gen {g}: final pm={pm!r} pc={pc!r} mc={mc!r}")
    if certs is not None:
        jump = sim.dissipation_check(scn, certs, eq, traj)
        ok = jump <= sim.EPSILON_V
        checks["dissipation"] = _passes(ok, f"max V jump = {jump!r}")
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
        checks["dispatch-optimality"] = _passes(
            ok, f"marginal spread {spread!r}, relative offset {rel!r}")
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
        try:
            report_path = outdir / "report.txt"
            report_path.write_text(report_text, encoding="utf-8")
            outputs.append(report_path)
            if traj is not None:
                csv_path = outdir / "trajectory.csv"
                write_trajectory_csv(traj, csv_path)
                outputs.append(csv_path)
                outputs.extend(emit_plots(traj, outdir))
        except OSError as exc:
            raise RuntimeError(f"cannot write outputs: {exc}") from exc
    return RunReport(scenario=scn.name, checks=checks, report_text=report_text,
                     outputs=outputs, exit_code=exit_code)


# --- parameter sweep -------------------------------------------------------

#: The scenario attribute behind each two-part sweep path.
_SCALARS = {"sim.dt": "dt", "sim.t_end": "t_end",
            "disturbance.time": "disturbance_time"}


def apply_param(scn: Scenario, path: str, value: float) -> Scenario:
    """Set one scalar parameter addressed by a dotted path.

    The paths are exactly: sim.dt, sim.t_end, disturbance.time,
    disturbance.<bus>.delta, buses.<bus>.damping,
    buses.<generator bus>.inertia, lines.<index>.susceptance,
    comm.<index>.weight, controllers.<generator bus>.<key> for every
    [controllers] key but bus, and generators.<generator bus>.<field>
    for every field of its model's _MODELS row.  <bus> is the id of a
    bus of the network, <index> counts that section's records from 0.
    Any other path raises ScenarioError; a value out of the parameter's
    range raises the ValueError of the record it would build.
    """
    if path in _SCALARS:
        return dataclasses.replace(scn, **{_SCALARS[path]: value})
    net = scn.network
    bus_ids = [b.id for b in net.buses]
    keys = {"disturbance": ("bus", bus_ids), "buses": ("bus", bus_ids),
            "lines": ("line", range(len(net.lines))),
            "comm": ("comm edge", range(len(net.comm))),
            "controllers": ("generator bus", scn.controllers),
            "generators": ("generator bus", scn.generators)}
    parts = path.split(".")
    if len(parts) != 3 or parts[0] not in keys:
        raise ScenarioError(f"unknown parameter path {path!r}")
    section, key, field = parts
    noun, valid = keys[section]
    if not (key.isdecimal() and int(key) in valid):
        raise ScenarioError(f"cannot apply parameter path {path!r}: no {noun} {key}")
    i = int(key)
    if section == "disturbance" and field == "delta":
        return dataclasses.replace(scn, step_loads={**scn.step_loads, i: value})
    if section == "buses" and (field == "damping" or
                               field == "inertia" and i in scn.generators):
        buses = [dataclasses.replace(b, **{field: value}) if b.id == i else b
                 for b in net.buses]
        return dataclasses.replace(scn, network=dataclasses.replace(net, buses=buses))
    if (section, field) in (("lines", "susceptance"), ("comm", "weight")):
        records = list(getattr(net, section))
        records[i] = dataclasses.replace(records[i], **{field: value})
        return dataclasses.replace(
            scn, network=dataclasses.replace(net, **{section: records}))
    if section == "controllers" and field in _CONTROLLER_FIELDS:
        gains = dataclasses.replace(scn.controllers[i],
                                    **{_CONTROLLER_FIELDS[field]: value})
        return dataclasses.replace(scn, controllers={**scn.controllers, i: gains})
    if section == "generators":
        model, params = _model_of(scn, i)
        build, _, fields = _MODELS[model]
        if field in fields:
            params = [value if f == field else v for f, v in zip(fields, params)]
            return dataclasses.replace(
                scn, generators={**scn.generators, i: build(*params)})
    raise ScenarioError(f"cannot apply parameter path {path!r}: "
                        f"{field!r} is not settable")


#: Errors that end a run with exit code 2: an unreadable or invalid
#: scenario or parameter, a diverging integration, an equilibrium failure,
#: an unwritable output directory.
_HARD_ERRORS = (RuntimeError, ArithmeticError, ValueError)


def _error_text(exc: Exception) -> str:
    kind = "scenario error" if isinstance(exc, ScenarioError) else "error"
    return f"{kind}: {exc}"


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
    return [_concluded(p, traj) for p, traj in zip(pack, trajs)]


def _concluded(prep: _Prepared, traj: Optional[Trajectory]) -> Tuple[int, str]:
    """_conclude's exit code and no error text, or exit 2 and the text of
    its hard error (an unwritable output directory)."""
    try:
        return _conclude(prep, traj).exit_code, ""
    except _HARD_ERRORS as exc:
        return 2, _error_text(exc)


def run_sweep(scn_path: str, param: str, values: Sequence[float],
              base_out: str, flags: RunFlags) -> int:
    """Run one isolated simulation per parameter value.

    The scenario is parsed once and every value prepared in order.
    --dt and --t-end override the scenario file and the swept path
    overrides them.  The prepared values are integrated in the packs
    sim.packs cuts, and the packs run in parallel.  Prints
    ``param=value: exit N`` for every value, and a value's error text on
    stderr, so one failing value costs only its own result.  Returns the
    worst exit code.  A repeated value would run twice into one
    directory, so it raises ValueError before any value runs.
    """
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"--values: {v!r} is repeated")
    scn = load_scenario(scn_path)
    if param in ("sim.dt", "sim.t_end"):
        flags = dataclasses.replace(flags, **{_SCALARS[param]: None})
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
    order = list(prepared)
    packs = [[order[k] for k in pack]
             for pack in sim.packs([prepared[i].scn for i in order])]
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridfreq",
        description="Distributed secondary frequency control workbench")
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes the flags it reads: dispatch none, certify and
    # equilibrium --optimal-gains, simulate and sweep every run flag
    for name in ("simulate", "certify", "dispatch", "equilibrium", "sweep"):
        p = subs.add_parser(name)
        p.add_argument("scenario", help="path to a .scn scenario file")
        if name != "dispatch":
            p.add_argument("--optimal-gains", action="store_true",
                           help="recompute k_c = 1/(q*K) for every generator")
        if name in ("simulate", "sweep"):
            p.add_argument("--skip-certify", action="store_true",
                           help="skip the certificate search")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--seed", type=int, default=None,
                           help="recorded for test harnesses; the run is deterministic")
            p.add_argument("--dt", type=float, default=None, help="override time step")
            p.add_argument("--t-end", type=float, default=None, help="override horizon")
    sweep = subs.choices["sweep"]
    sweep.add_argument("--param", required=True,
                       help="dotted parameter path, e.g. sim.dt")
    sweep.add_argument("--values", required=True,
                       help="comma-separated list of values")
    args = parser.parse_args(argv)

    # a ScenarioError is a ValueError: an unreadable or invalid scenario
    # exits 2 with "scenario error: ..." like every other hard error
    try:
        if args.command not in ("simulate", "sweep"):
            # one stage of the run: its report lines, and exit 1 when its
            # check fails
            scn = load_scenario(args.scenario)
            if getattr(args, "optimal_gains", False):
                scn = with_optimal_gains(scn)
            status = "pass"
            if args.command == "certify":
                _, (status, _), lines = _certification(scn, skip=False)
            elif args.command == "dispatch":
                _, lines = _dispatch(scn)
            else:
                eq, (status, _), lines = _equilibrium(scn)
                lines[1:1] = [f"bus {bid}: theta={eq.angles_star[bid]!r}"
                              for bid in sorted(eq.angles_star)] + [
                             f"line {a}-{b}: flow={flow!r}"
                             for (a, b), flow in sorted(eq.flows_star.items())]
            sys.stdout.write("".join(line + "\n" for line in lines))
            return 1 if status == "fail" else 0

        flags = RunFlags(optimal_gains=args.optimal_gains,
                         skip_certify=args.skip_certify,
                         out_dir=args.out, seed=args.seed,
                         dt=args.dt, t_end=args.t_end)
        if args.command == "sweep":
            values = _sweep_values(args.values)
            if not values:
                print("sweep needs at least one value", file=sys.stderr)
                return 2
            out = args.out if args.out is not None else "sweep_out"
            return run_sweep(args.scenario, args.param, values, out,
                             dataclasses.replace(flags, out_dir=None))
        report = run(load_scenario(args.scenario), flags)
        sys.stdout.write(report.report_text)
        return report.exit_code
    except _HARD_ERRORS as exc:
        print(_error_text(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
