"""Scenario files, run orchestration, and the command-line interface.

The scenario format is a flat text file: [section] headers, one record
per line as whitespace-separated key=value pairs, comments with '#'.
One table, _FORMAT, gives each section's keys in serialized order with
their attributes, types and defaults, and _MODELS each generator model's
builder and fields; parsing, serialization and apply_param read both, so
a new key or model is one entry.  A generator is serialized by the
builder and arguments its block records, so it is written with the
values it was parsed or built from.  The rules that span keys (time=
alone on its line, [sim] over several lines, load buses without inertia,
one generator, controller and step load per bus) are written where they
act.

A Scenario is valid by construction (sim.Scenario decides validity), so
an invalid file, override or swept value is a hard error, exit 2, before
any stage runs.  A run goes through stages (certification with k_f
adoption, equilibrium, dispatch, and simulation after integrating), each
returning its value and its report Section: its [name], its lines and
the gated checks it decides.  _conclude alone renders the report from
the sections, with [checks] in the order the stages made them and the
exit code they give; the certify, dispatch and equilibrium subcommands
print one stage's lines and exit 1 when one of its checks fails.
Outputs of a run are a CSV trajectory, a plain-text report, and two
gnuplot scripts; all output bytes are deterministic functions of the
scenario so golden-file comparisons work.  A sweep integrates its
values in the packs sim.packs cuts from the scenarios alone, never from
the CPU count, so the same sweep command gives the same bytes on any
machine; a swept value may differ from ``simulate`` with the same
parameter in the last digits (at most 1e-12), because the block-diagonal
products sum in another order.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import certify, control, sim
from .certify import Certificate, search_certificate
from .control import ControllerGains
from .dispatch import DispatchProblem, marginal_costs, solve_dispatch
from .generation import LtiGenerator, make_first_order, make_second_order
from .network import Bus, BusKind, CommEdge, Line, PowerNetwork
from .sim import Scenario, Trajectory

#: Settling passes when max |omega| over the buses at the final sample is
#: below this absolute bound, in rad/s.
SETTLING_TOL = 1e-4
#: Dispatch optimality passes when the final marginal costs spread by at
#: most this much (absolute: max minus min) and each lies within this
#: fraction of the dispatch nu (relative to |nu|, floored at 1e-12).
MARGINAL_TOL = 1e-3


#: [generators] model name -> (builder, the record's fields in builder
#: order).
_MODELS = {
    "first_order": (make_first_order, ("tau", "gain")),
    "second_order": (make_second_order, ("tau_a", "tau_p", "gain")),
}

#: The key types beside int and float: each text they take, and its value.
_NAMES = {"bus kind": {kind.value: kind for kind in BusKind},
          "generator model": {model: model for model in _MODELS}}

#: The scenario format: each section's keys in serialized order, each
#: mapped to (attribute, type) and, if it may be left out, its default.  A
#: [generators] record ends with its _MODELS row's fields, required floats.
#: time= and the [sim] keys set Scenario fields, the others their record's.
_FORMAT = {
    "buses": {"id": ("id", int), "kind": ("kind", "bus kind"),
              "inertia": ("inertia", float, 0.0), "damping": ("damping", float)},
    "lines": {"from": ("from_bus", int), "to": ("to_bus", int),
              "susceptance": ("susceptance", float)},
    "generators": {"bus": ("bus", int), "model": ("model", "generator model")},
    "controllers": {"bus": ("bus", int), "gamma": ("gamma", float),
                    "k_f": ("k_f", float), "k_c": ("k_c", float),
                    "k_d": ("k_d", float), "cost": ("q", float)},
    "comm": {"a": ("a", int), "b": ("b", int), "weight": ("weight", float, 1.0)},
    "disturbance": {"time": ("disturbance_time", float), "bus": ("bus", int),
                    "delta": ("delta", float)},
    "sim": {"dt": ("dt", float), "t_end": ("t_end", float),
            "output_stride": ("output_stride", int, 10)},
}


def _model_keys(model: str) -> dict:
    """The _FORMAT entries of the fields of a [generators] record of model."""
    return {f: (f, float) for f in _MODELS[model][1]}


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario files."""


def _model_of(scn: Scenario, bus: int) -> Tuple[str, tuple]:
    """The _MODELS name of the generator at bus and the arguments its
    builder made it from, as its block records them."""
    built, params = scn.generators[bus].built_by or (None, ())
    for model, (build, _) in _MODELS.items():
        if build is built:
            return model, params
    raise ValueError(f"generator at bus {bus} does not match a serializable model")


# --- parsing ---------------------------------------------------------------

def _only(rec, keys, lineno: int, section: str) -> None:
    """Raise unless every key of rec is one of keys."""
    for key in rec:
        if key not in keys:
            raise ScenarioError(
                f"line {lineno}: [{section}] record has unknown field {key!r}")


def _tokens(text: str, lineno: int, section: str) -> Dict[str, Tuple[int, str]]:
    """A record line's key=value tokens as key -> (line number, value), its
    section's keys only ([generators]: its model decides)."""
    rec: Dict[str, Tuple[int, str]] = {}
    for token in text.split():
        if "=" not in token:
            raise ScenarioError(
                f"line {lineno}: expected key=value tokens, got {token!r}")
        key, _, value = token.partition("=")
        if not key or not value:
            raise ScenarioError(f"line {lineno}: malformed token {token!r}")
        if key in rec:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        rec[key] = (lineno, value)
    if section != "generators":
        _only(rec, _FORMAT[section], lineno, section)
    return rec


def _plain(text: str, type_=float):
    """text read by type_ (int or float) if it is a plain ASCII numeral:
    int and float also read digit-group underscores and non-ASCII digits,
    so '5_0.0' would read as 50.0 and '\u0663' (Arabic-Indic three) as 3."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} is not a plain numeral")
    return type_(text)


def _finite(text: str) -> float:
    """text as a finite float, or a ValueError that says why it is not."""
    try:
        number = _plain(text)
    except ValueError:
        raise ValueError("is not a number") from None
    if not math.isfinite(number):
        raise ValueError("is not finite")
    return number


def _read(type_, key: str, text: str):
    """text as a value of type_ (int, float or a _NAMES type), or a
    ValueError that names the fault; a float must be finite."""
    if type_ in _NAMES:
        if text not in _NAMES[type_]:
            raise ValueError(f"unknown {type_} {text!r}")
        return _NAMES[type_][text]
    try:
        return _plain(text, int) if type_ is int else _finite(text)
    except ValueError as exc:
        fault = "is not an integer" if type_ is int else exc
        raise ValueError(f"field {key!r} {fault}: {text!r}") from None


def _values(keys: dict, rec, section: str,
            lineno: Optional[int] = None) -> Dict[str, object]:
    """The values of keys (_FORMAT entries) by attribute, read from rec or
    defaulted; a required key is missing from the record at lineno, or
    with none from the section."""
    values = {}
    for key, (attr, type_, *default) in keys.items():
        if key in rec:
            at, text = rec[key]
            try:
                values[attr] = _read(type_, key, text)
            except ValueError as exc:
                raise ScenarioError(f"line {at}: {exc}") from None
        elif default:
            values[attr] = default[0]
        else:
            where = (f"{section} section" if lineno is None
                     else f"line {lineno}: [{section}] record")
            raise ScenarioError(f"{where} missing required field {key!r}")
    return values


def _one_per_bus(records: dict, bus: int, noun: str, lineno: int,
                 build, *args, **kwargs) -> None:
    """Store build(*args, **kwargs) as the one record of noun at bus."""
    if bus in records:
        raise ScenarioError(f"line {lineno}: duplicate {noun} for bus {bus}")
    try:
        records[bus] = build(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from exc


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario text into a validated Scenario."""
    sections: Dict[str, List[Tuple[int, str]]] = {s: [] for s in _FORMAT}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in sections:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
        elif line:
            if current is None:
                raise ScenarioError(f"line {lineno}: content before any [section]")
            sections[current].append((lineno, line))

    # a section's records are all tokenized before any is read
    def tokens(section: str) -> List[Tuple[int, dict]]:
        return [(n, _tokens(line, n, section)) for n, line in sections[section]]

    def records(section: str) -> List[Tuple[int, dict, dict]]:
        return [(n, rec, _values(_FORMAT[section], rec, section, n))
                for n, rec in tokens(section)]

    buses = [Bus(**values) for _, _, values in records("buses")]
    lines = [Line(**values) for _, _, values in records("lines")]
    comm = [CommEdge(**values) for _, _, values in records("comm")]

    generators: Dict[int, LtiGenerator] = {}
    for lineno, rec, values in records("generators"):
        fields = _model_keys(values["model"])
        _only(rec, {**_FORMAT["generators"], **fields}, lineno, "generators")
        params = _values(fields, rec, "generators", lineno).values()
        _one_per_bus(generators, values["bus"], "generator", lineno,
                     _MODELS[values["model"]][0], *params)

    controllers: Dict[int, ControllerGains] = {}
    for lineno, _, values in records("controllers"):
        _one_per_bus(controllers, values.pop("bus"), "controller", lineno,
                     ControllerGains, **values)

    # time= stands on its own line, every other [disturbance] record is a
    # step load, and the [sim] keys may spread over several lines
    step_keys = dict(_FORMAT["disturbance"])
    time_keys = {"time": step_keys.pop("time")}
    time: Dict[str, Tuple[int, str]] = {}
    sim: Dict[str, Tuple[int, str]] = {}
    step_loads: Dict[int, float] = {}
    for lineno, rec in tokens("disturbance"):
        if "time" not in rec:
            values = _values(step_keys, rec, "disturbance", lineno)
            _one_per_bus(step_loads, values["bus"], "step load", lineno,
                         float, values["delta"])
        elif len(rec) != 1:
            raise ScenarioError(f"line {lineno}: time= must be on its own line")
        elif time:
            raise ScenarioError(f"line {lineno}: duplicate time= line")
        else:
            time = rec
    timing = _values(time_keys, time, "disturbance")
    for lineno, rec in tokens("sim"):
        for key in rec:
            if key in sim:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        sim.update(rec)
    timing.update(_values(_FORMAT["sim"], sim, "sim"))

    try:
        return Scenario(
            network=PowerNetwork(buses=buses, lines=lines, comm=comm),
            generators=generators, controllers=controllers,
            step_loads=step_loads, **timing, name=name)
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
    """Render a Scenario back into the text format (round-trip safe): each
    record's values by attribute, written in _FORMAT's order."""
    net = scn.network
    records = {
        # load buses are written without inertia
        "buses": [{attr: v for attr, v in vars(b).items()
                   if attr != "inertia" or b.kind is BusKind.GENERATOR}
                  for b in net.buses],
        "lines": [vars(ln) for ln in net.lines],
        "generators": [{"bus": bus, "model": model,
                        **dict(zip(_MODELS[model][1], params))}
                       for bus in sorted(scn.generators)
                       for model, params in [_model_of(scn, bus)]],
        "controllers": [{"bus": bus, **vars(scn.controllers[bus])}
                        for bus in sorted(scn.controllers)],
        "comm": [vars(e) for e in net.comm],
        # time= and each [sim] key stand on lines of their own
        "disturbance": [{"disturbance_time": scn.disturbance_time}] + [
            {"bus": bus, "delta": scn.step_loads[bus]}
            for bus in sorted(scn.step_loads)],
        "sim": [{attr: getattr(scn, attr)} for attr, *_ in _FORMAT["sim"].values()],
    }
    out: List[str] = []
    for section, keys in _FORMAT.items():
        out.append(f"[{section}]")
        for values in records[section]:
            if section == "generators":
                keys = {**_FORMAT[section], **_model_keys(values["model"])}
            # a bus kind is written by its name, any other value as its
            # str, which for a float is its shortest round trip
            shown = {attr: getattr(v, "value", v) for attr, v in values.items()}
            out.append(" ".join(f"{key}={shown[attr]}"
                                for key, (attr, *_) in keys.items()
                                if attr in shown))
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


def write_trajectory_csv(traj: Trajectory, path: Path,
                         lyapunov: Optional[np.ndarray] = None) -> None:
    """Full-precision CSV export; the V column holds the run's Lyapunov
    series over traj.states, blank without one (no certificates)."""
    series = [traj.times[:, None], traj.freqs, traj.p_m, traj.commands,
              traj.marginal_cost]
    if lyapunov is not None:
        series.append(lyapunov[:, None])
    end = "\n" if lyapunov is not None else ",\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(_csv_columns(traj)) + "\n")
        # a block of samples stacked at a time and written row by row, so
        # that neither a whole table of floats nor one of Python floats and
        # strings is held: a sweep writes all its values from one process,
        # whose heap keeps such a high-water mark; tolist() yields Python
        # floats, whose repr is the shortest round trip
        for block in sim._sample_blocks(len(traj.times)):
            for row in np.hstack([s[block] for s in series]):
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
    dt: Optional[float] = None
    t_end: Optional[float] = None


#: A check's status ("pass", "fail" or "skipped") and its detail.
Check = Tuple[str, str]


@dataclass
class Section:
    """A stage's part of the report: its [name], its lines and the gated
    checks it decides, name -> (status, detail), in the order it makes
    them."""

    name: str
    lines: List[str] = field(default_factory=list)
    checks: Dict[str, Check] = field(default_factory=dict)

    def gate(self, name: str, ok: bool, detail: str) -> bool:
        """Record the check name, pass or fail with detail, and return ok."""
        self.checks[name] = ("pass", "") if ok else ("fail", detail)
        return ok


def _exit_code(checks: Dict[str, Check]) -> int:
    """1 when any of checks failed, else 0."""
    return int(any(status == "fail" for status, _ in checks.values()))


@dataclass
class RunReport:
    checks: Dict[str, Check]  # name -> (status, detail), in [checks] order
    report_text: str
    outputs: List[Path]
    exit_code: int


def with_optimal_gains(scn: Scenario) -> Scenario:
    """The scenario with k_c = 1/(q K) at every generator (--optimal-gains)."""
    return dataclasses.replace(scn, controllers={
        g: dataclasses.replace(
            prm, k_c=control.optimal_kc(prm.q, scn.generators[g].dc_gain))
        for g, prm in scn.controllers.items()})


@dataclass
class _Prepared:
    """A run up to its integration: the scenario as it will be simulated
    (overrides, --optimal-gains and adopted k_f applied), its flags, the
    stages' sections so far, and what integration and the checks after it
    need."""

    scn: Scenario
    flags: RunFlags
    sections: List[Section]
    certs: Optional[Dict[int, Certificate]]
    eq: sim.Equilibrium
    nu_opt: float


def run(scn: Scenario, flags: RunFlags) -> RunReport:
    """Full pipeline: certify, equilibrium, integrate, check, write files.

    The exit code is 1 when any gating check fails (certification unless
    skipped, the security constraint, transient angle security, settling,
    or dissipation when certificates exist, or dispatch optimality when
    --optimal-gains is on); hard errors raise.
    """
    prep = _prepare(scn, flags)
    return _conclude(prep, sim.integrate(prep.scn))


def _certify_bus(scn: Scenario, g: int) -> Tuple[Optional[Certificate], str]:
    """The certificate search at generator bus g and its report line; an
    order-1 block without feedthrough and with a positive DC gain names
    the lag's closed-form threshold it misses."""
    gen, params = scn.generators[g], scn.controllers[g]
    lam = scn.network.bus(g).damping
    cert = search_certificate(gen, params, lam)
    if cert is not None:
        return cert, (f"gen {g}: found k_f={cert.k_f!r} "
                      f"lambda_hat={cert.lambda_hat!r} margin={cert.margin!r}")
    # "diagonal" though P need not be diagonal: perfbench's report
    # parser (checks._CERT_LINE) reads this wording.
    line = f"gen {g}: no diagonal certificate found"
    shortfall = certify.first_order_shortfall(gen, params, lam)
    if shortfall is not None:
        line += " (first-order threshold %r > lambda_hat %r)" % shortfall
    return None, line


def _certification(scn: Scenario, skip: bool
                   ) -> Tuple[Optional[Dict[int, Certificate]], Section]:
    """Stage: the certificates (None unless every generator bus has one)
    and the certificates section, a line per generator bus and the
    certification check."""
    gens = sorted(scn.network.generator_ids)
    if skip:
        return None, Section("certificates", [f"gen {g}: skipped" for g in gens],
                             {"certification": ("skipped", "")})
    section = Section("certificates")
    certs: Dict[int, Certificate] = {}
    for g in gens:
        cert, line = _certify_bus(scn, g)
        section.lines.append(line)
        if cert is not None:
            certs[g] = cert
    missing = ", ".join(str(g) for g in gens if g not in certs)
    certified = section.gate("certification", not missing, "no diagonal "
                             "certificate found for generator bus(es) " + missing)
    return (certs if certified else None), section


def _adopt_kf(scn: Scenario, certs: Optional[Dict[int, Certificate]],
              section: Section) -> Scenario:
    """Stage: the scenario with each controller's k_f set to its
    certificate's, since the Lyapunov argument holds for the certified
    gains only, and a line in the certificates section per changed gain."""
    if certs is None:
        return scn
    section.lines += [f"gen {g}: adopting certified k_f={certs[g].k_f!r}"
                      for g, prm in scn.controllers.items()
                      if certs[g].k_f != prm.k_f]
    return dataclasses.replace(scn, controllers={
        g: dataclasses.replace(prm, k_f=certs[g].k_f)
        for g, prm in scn.controllers.items()})


def _equilibrium(scn: Scenario) -> Tuple[sim.Equilibrium, Section]:
    """Stage: the post-step equilibrium and its section, with the security
    check: every line angle difference strictly inside (-pi/2, pi/2)."""
    eq = sim.compute_equilibrium(scn)
    spread = f"max |angle difference| = {eq.max_abs_angle_diff!r}"
    section = Section("equilibrium", [f"nu = {eq.nu!r}", spread])
    secure = section.gate("security", eq.max_abs_angle_diff < math.pi / 2.0, spread)
    section.lines.append("security constraint: " + (
        "pass" if secure else "VIOLATED (some |eta*| >= pi/2)"))
    return eq, section


def _dispatch(scn: Scenario) -> Tuple[float, Section]:
    """Stage: the optimal dispatch price nu and its section."""
    prob = DispatchProblem(
        costs={g: scn.controllers[g].q for g in scn.network.generator_ids},
        total_load=sum(scn.step_loads.values()))
    allocation, nu = solve_dispatch(prob)
    mc = marginal_costs(allocation, prob.costs)
    return nu, Section("dispatch", [f"nu = {nu!r}"] + [
        f"gen {g}: p={allocation[g]!r} marginal={mc[g]!r}" for g in sorted(allocation)])


def _prepare(scn: Scenario, flags: RunFlags,
             fields: Optional[Dict[str, object]] = None) -> _Prepared:
    """The time overrides and then a swept value's Scenario fields, both
    in one step, the output directory, --optimal-gains and the stages:
    certification, k_f adoption, equilibrium and dispatch; everything a
    run does before integrating.  An invalid result raises its ValueError.
    The output directory is made before any stage, so an unwritable one
    fails the run before it spends time."""
    changes = {attr: v for attr, v in (("dt", flags.dt), ("t_end", flags.t_end))
               if v is not None}
    changes.update(fields or {})
    if changes:
        scn = dataclasses.replace(scn, **changes)
    if flags.out_dir is not None:
        try:
            Path(flags.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RuntimeError(f"cannot write outputs: {exc}") from exc

    if flags.optimal_gains:
        scn = with_optimal_gains(scn)
    certs, certified = _certification(scn, flags.skip_certify)
    scn = _adopt_kf(scn, certs, certified)
    eq, balanced = _equilibrium(scn)
    nu_opt, dispatched = _dispatch(scn)
    return _Prepared(scn, flags, [certified, balanced, dispatched], certs, eq, nu_opt)


def _simulation(prep: _Prepared, traj: Trajectory
                ) -> Tuple[Optional[np.ndarray], Section]:
    """Stage: the checks on the trajectory and its section; with
    certificates, the one Lyapunov series the check and the CSV read."""
    scn = prep.scn
    section = Section("simulation", [
        f"t_end = {scn.t_end!r} dt = {scn.dt!r} samples = {len(traj.times)}"])
    peak, at = sim.transient_angle_peak(scn, traj)
    excursion = f"max transient |angle difference| = {peak!r} at t={at!r}"
    secure = section.gate("transient-security", peak < math.pi / 2.0, excursion)
    section.lines.append(excursion + " -> " + ("pass" if secure else "VIOLATED (>= pi/2)"))
    final_omega = float(np.max(np.abs(traj.freqs[-1])))
    settled = section.gate("settling", final_omega < SETTLING_TOL,
                           f"final max |omega| = {final_omega!r}")
    section.lines.append(f"final max |omega| = {final_omega!r} -> settling "
                         + ("pass" if settled else "FAIL"))
    finals = zip(traj.layout.gen_ids, traj.p_m[-1].tolist(),
                 traj.commands[-1].tolist(), traj.marginal_cost[-1].tolist())
    section.lines += [f"gen {g}: final pm={pm!r} pc={pc!r} mc={mc!r}"
                      for g, pm, pc, mc in finals]
    lyapunov = None
    if prep.certs is not None:
        lyapunov = sim.lyapunov_value(scn, prep.certs, prep.eq, traj.states)
        jump = sim.dissipation_check(lyapunov)
        ok = section.gate("dissipation", jump <= sim.EPSILON_V, f"max V jump = {jump!r}")
        section.lines.append(f"dissipation: max V jump = {jump!r} "
                             f"(tolerance {sim.EPSILON_V!r}) -> "
                             + ("pass" if ok else "EXCEEDED"))
    else:
        section.checks["dissipation"] = ("skipped", "")
        section.lines.append("dissipation: not evaluated (no certificates)")

    if prep.flags.optimal_gains:
        finals = traj.marginal_cost[-1].tolist()
        spread = max(finals) - min(finals)
        rel = max(abs(v - prep.nu_opt) for v in finals) / max(abs(prep.nu_opt), 1e-12)
        section.gate("dispatch-optimality", spread <= MARGINAL_TOL and rel <= MARGINAL_TOL,
                     f"marginal spread {spread!r}, relative offset {rel!r}")
        section.lines.append(f"marginal-cost spread = {spread!r}, "
                             f"relative offset from dispatch nu = {rel!r}")
    else:
        section.checks["dispatch-optimality"] = ("skipped", "")
    return lyapunov, section


def _conclude(prep: _Prepared, traj: Trajectory) -> RunReport:
    """The simulation stage, the report and the output files.  The report
    is the run's header, every stage's section, the checks in the order
    the stages made them, and the exit code they give.  prep is left as it
    was, so it can be concluded again."""
    net, flags = prep.scn.network, prep.flags
    lyapunov, simulated = _simulation(prep, traj)
    sections = prep.sections + [simulated]
    checks = {name: check for s in sections for name, check in s.checks.items()}
    exit_code = _exit_code(checks)
    lines = [f"scenario: {prep.scn.name}",
             f"buses: {len(net.buses)} (generators {len(net.generator_ids)}, "
             f"loads {len(net.load_ids)})",
             f"lines: {len(net.lines)}",
             f"flags: optimal-gains={'yes' if flags.optimal_gains else 'no'} "
             f"skip-certify={'yes' if flags.skip_certify else 'no'}"]
    for s in sections:
        lines += ["", f"[{s.name}]", *s.lines]
    lines += ["", "[checks]"] + [f"{name}: {status}" + (f" ({detail})" if detail else "")
                                 for name, (status, detail) in checks.items()]
    lines.append(f"exit code: {exit_code}")
    report_text = "\n".join(lines) + "\n"

    outputs: List[Path] = []
    if flags.out_dir is not None:
        outdir = Path(flags.out_dir)
        outputs = [outdir / "report.txt", outdir / "trajectory.csv"]
        try:
            outputs[0].write_text(report_text, encoding="utf-8")
            write_trajectory_csv(traj, outputs[1], lyapunov)
            outputs.extend(emit_plots(traj, outdir))
        except OSError as exc:
            raise RuntimeError(f"cannot write outputs: {exc}") from exc
    return RunReport(checks=checks, report_text=report_text,
                     outputs=outputs, exit_code=exit_code)


# --- parameter sweep -------------------------------------------------------

def apply_param(scn: Scenario, path: str, value: float) -> Scenario:
    """Set one scalar parameter addressed by a dotted path.

    The paths are the float keys of _FORMAT and _MODELS: sim.dt, sim.t_end
    and disturbance.time, and <section>.<record>.<key> for the float keys
    of a record of [buses] (but a load bus's inertia), [lines],
    [generators], [controllers], [comm] and the step loads of
    [disturbance].  <record> is a bus id, or the record's index from 0
    for [lines] and [comm].  Any other path raises ScenarioError; a value
    out of the parameter's range raises the ValueError of the record it
    would build, or of the Scenario when the value breaks its network
    (invalid scenario: ...).
    """
    return dataclasses.replace(scn, **_param_fields(scn, path, value))


def _param_fields(scn: Scenario, path: str, value: float) -> Dict[str, object]:
    """The Scenario fields that apply_param's path at value changes."""
    section, *where = path.split(".")
    keys = _FORMAT.get(section, {})
    scenario_fields = {f.name for f in dataclasses.fields(Scenario)}
    if len(where) == 1 and where[0] in keys:
        attr, type_, *_ = keys[where[0]]
        if type_ is float and attr in scenario_fields:
            return {attr: value}
    net = scn.network
    # each record section's records by the number a path names them with
    homes = {"buses": ("bus", {b.id: b for b in net.buses}),
             "lines": ("line", dict(enumerate(net.lines))),
             "comm": ("comm edge", dict(enumerate(net.comm))),
             "generators": ("generator bus", scn.generators),
             "controllers": ("generator bus", scn.controllers),
             "disturbance": ("bus", dict.fromkeys(b.id for b in net.buses))}
    if len(where) != 2 or section not in homes:
        raise ScenarioError(f"unknown parameter path {path!r}")
    (noun, records), (key, field) = homes[section], where
    if not (key.isascii() and key.isdecimal() and int(key) in records):
        raise ScenarioError(f"cannot apply parameter path {path!r}: no {noun} {key}")
    i = int(key)
    if section == "generators":
        model, params = _model_of(scn, i)
        keys = _model_keys(model)
    attr, type_, *_ = keys.get(field, (None, None))
    if (type_ is not float or attr in scenario_fields
            or field == "inertia" and i not in scn.generators):
        raise ScenarioError(f"cannot apply parameter path {path!r}: "
                            f"{field!r} is not settable")
    if section == "generators":
        params = [value if f == field else p for f, p in zip(keys, params)]
        return {"generators": {**scn.generators, i: _MODELS[model][0](*params)}}
    if section == "disturbance":
        return {"step_loads": {**scn.step_loads, i: value}}
    record = dataclasses.replace(records[i], **{attr: value})
    if section == "controllers":
        return {"controllers": {**scn.controllers, i: record}}
    return {"network": dataclasses.replace(net, **{section: [
        record if r is records[i] else r for r in getattr(net, section)]})}


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
        trajs = sim.integrate_many([p.scn for p in pack])
    except _HARD_ERRORS as exc:
        if len(pack) > 1 and isinstance(exc, ArithmeticError):
            return [r for p in pack for r in _run_pack([p])]
        return [(2, _error_text(exc))] * len(pack)
    return [_concluded(p, traj) for p, traj in zip(pack, trajs)]


def _concluded(prep: _Prepared, traj: Trajectory) -> Tuple[int, str]:
    """_conclude's exit code and no error text, or exit 2 and the text of
    its hard error (an unwritable output directory)."""
    try:
        return _conclude(prep, traj).exit_code, ""
    except _HARD_ERRORS as exc:
        return 2, _error_text(exc)


def run_sweep(scn_path: str, param: str, values: Sequence[float],
              base_out: str, flags: RunFlags) -> int:
    """Run one isolated simulation per parameter value.

    The scenario is parsed once and every value prepared in order, from
    the file with --dt and --t-end and then the swept path applied, all
    checked at once.  The prepared values are integrated in the packs
    sim.packs cuts: on each time grid the fewest unions within
    sim.PACK_ENTRIES, with member counts that differ by at most one (eight
    values of two_gen are two packs of four).  The packs run side by side
    in a pool of one worker per pack, at most one per CPU this process
    may run on (its affinity mask where the platform has one); a single
    pack, or a single usable CPU, runs them here one after the other.
    Prints ``param=value: exit N`` for every value, and a value's error
    text on stderr, so one failing value costs only its own result.
    Returns the worst exit code.  A repeated value would run twice into
    one directory, so it raises ValueError before any value runs.
    """
    # only a sweep runs a pool: importing multiprocessing here spares
    # every other command its import
    import multiprocessing

    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"--values: {v!r} is repeated")
    scn = load_scenario(scn_path)
    results: Dict[int, Tuple[int, str]] = {}
    prepared: Dict[int, _Prepared] = {}
    for i, v in enumerate(values):
        sub = Path(base_out) / f"{param.replace('.', '_')}={v!r}"
        try:
            prepared[i] = _prepare(
                scn, dataclasses.replace(flags, out_dir=str(sub)),
                _param_fields(scn, param, v))
        except _HARD_ERRORS as exc:
            results[i] = (2, _error_text(exc))
    order = list(prepared)
    packs = [[order[k] for k in pack]
             for pack in sim.packs([prepared[i].scn for i in order])]
    jobs = [[prepared[i] for i in pack] for pack in packs]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(jobs), cpus)
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


def _flag_number(text: str) -> float:
    """A --dt or --t-end value, read as _plain reads it; argparse reports a
    fault as it reports any bad float."""
    try:
        return _plain(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


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
            p.add_argument("--dt", type=_flag_number, default=None,
                           help="override time step")
            p.add_argument("--t-end", type=_flag_number, default=None,
                           help="override horizon")
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
            # one stage of the run: its section's lines, and exit 1 when
            # one of its checks fails
            scn = load_scenario(args.scenario)
            if getattr(args, "optimal_gains", False):
                scn = with_optimal_gains(scn)
            if args.command == "certify":
                _, section = _certification(scn, skip=False)
            elif args.command == "dispatch":
                _, section = _dispatch(scn)
            else:
                eq, section = _equilibrium(scn)
                section.lines[1:1] = [f"bus {bid}: theta={eq.angles_star[bid]!r}"
                                      for bid in sorted(eq.angles_star)] + [
                                     f"line {a}-{b}: flow={flow!r}"
                                     for (a, b), flow in sorted(eq.flows_star.items())]
            sys.stdout.write("".join(line + "\n" for line in section.lines))
            return _exit_code(section.checks)

        flags = RunFlags(optimal_gains=args.optimal_gains,
                         skip_certify=args.skip_certify,
                         out_dir=args.out,
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
