"""One measured run of one workload, in a process of its own.

    python3 perfbench/measure.py --workload W --input PATH --out DIR
                                 --seconds S --trace 0|1

run.py starts this after generating the inputs; it is not meant to be run
by hand.  The process runs the workload's operation once untimed, as a
warm-up that also records the equilibrium and the certified scenario the
checks need, then repeats it timed until the run length (warm-up
included) is used up, and checks the outputs.  The host-speed reference
runs before the first timed repetition and after each one.  It prints
one JSON line with every timed repetition's wall and CPU time,
the reference times, the peak resident set, the operation counts, the
problems the checks found and, with --trace 1, the per-layer figures of
the repetition whose scaled time is the median, scaled alike.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gridfreq import certify, cli, sim  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer, duration, self_time  # noqa: E402

#: Fewest timed repetitions, even when one takes longer than the run.
MIN_REPS = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call(args, kwargs, result):
    return {"args": args, "result": result}


def _steps(args, kwargs, result):
    scn = args[0]
    return {"steps": int(round(scn.t_end / scn.dt))}


def _found(args, kwargs, result):
    return {"found": result is not None}


#: The layers a cli.run passes through, wrapped in the traced run.  cli
#: imported search_certificate by name, so it is wrapped there.
RUN_LAYERS = [
    (cli, "run", "cli.run", None),
    (cli, "search_certificate", "certify.search_certificate", _found),
    (sim, "compute_equilibrium", "sim.compute_equilibrium", None),
    (sim, "integrate", "sim.integrate", _steps),
    (sim, "dissipation_check", "sim.dissipation_check", None),
    (cli, "write_trajectory_csv", "cli.write_trajectory_csv", None),
]


def run_layers(tracer: Tracer, root: dict) -> dict:
    """Per-layer figures of the cli.run spans below ``root``."""
    inside = tracer.descendants(root)
    out = dict.fromkeys(UNITS, 0.0)
    searches = [s for s in inside if s["name"] == "certify.search_certificate"]
    for rec in inside:
        own = self_time(rec, inside)
        if rec["name"] == "cli.run":
            out["cli.run_s"] += duration(rec)
            out["cli.run.self_s"] += own
        elif rec["name"] in ("cli.write_trajectory_csv", "sim.compute_equilibrium",
                             "sim.dissipation_check"):
            out[rec["name"] + "_s"] += own
        elif rec["name"] == "sim.integrate":
            out["sim.integrate_s"] += own
            out["sim.integrate.us_per_step"] = 1e6 * own / rec["attrs"]["steps"]
    out.update(search_layers(searches, inside))
    return out


def search_layers(searches, inside) -> dict:
    if not searches:
        return {}
    times = [self_time(s, inside) for s in searches]
    return {"certify.search_certificate_s": sum(times),
            "certify.search_certificate.max_s": max(times),
            "certify.certified_ratio":
                sum(s["attrs"]["found"] for s in searches) / len(searches)}


# --- workloads ----------------------------------------------------------------

class Workload:
    """One workload: op() runs one operation and returns (attempted,
    failed); problems() checks the outputs once the loop has ended."""

    #: pool worker processes alive during an operation
    workers = 0

    def first(self):
        """Context of the untimed warm-up operation."""
        return contextlib.nullcontext()


class ScenarioRun(Workload):
    """ring9 and mesh200: one full cli.run with an output directory."""

    def __init__(self, path: Path, out: Path, optimal_gains: bool):
        self.scn = cli.load_scenario(path)
        self.flags = cli.RunFlags(optimal_gains=optimal_gains,
                                  out_dir=str(out / "run"))
        # with --optimal-gains every gated check runs, so each must pass
        self.allowed = ("pass",) if optimal_gains else ("pass", "skipped")
        self.report = None
        self.seen = Tracer()  # the warm-up's calls, their arguments and results
        self.failures = []

    def op(self):
        try:
            self.report = cli.run(self.scn, self.flags)
        except (RuntimeError, ArithmeticError, ValueError) as exc:
            self.failures.append(repr(exc))
            return 1, 1
        bad = [name for name, (status, _) in self.report.checks.items()
               if status not in self.allowed]
        if self.report.exit_code != 0 or bad:
            self.failures.append(f"exit code {self.report.exit_code}, "
                                 f"checks not passed: {bad}")
            return 1, 1
        return 1, 0

    def first(self):
        return self.seen.patched([
            (sim, "integrate", "sim.integrate", _call),
            (sim, "compute_equilibrium", "sim.compute_equilibrium", _call)])

    def problems(self):
        calls = {}
        for rec in self.seen.spans:
            calls.setdefault(rec["name"], rec["attrs"])
        if len(calls) < 2 or self.report is None:
            return ["no completed run to check"]
        scn = calls["sim.integrate"]["args"][0]
        eq = calls["sim.compute_equilibrium"]["result"]
        text = self.report.report_text
        total = sum(scn.step_loads.values())
        costs = ({g: c.q for g, c in scn.controllers.items()}
                 if self.flags.optimal_gains else None)
        return (checks.verdict_problems(scn, text)
                + checks.equilibrium_problems(scn, eq, text)
                + checks.trajectory_problems(
                    Path(self.flags.out_dir) / "trajectory.csv", total,
                    checks.closed_form_nu(scn), costs))

    def traced_op(self, tracer: Tracer):
        with tracer.patched(RUN_LAYERS):
            return self.op()

    def layers(self, tracer: Tracer, root: dict) -> dict:
        return run_layers(tracer, root)


class CertifySearch(Workload):
    """certify_search: search_certificate over every block of the set."""

    def __init__(self, path: Path, out: Path):
        self.blocks = inputs.build_blocks(json.loads(path.read_text("utf-8")))
        self.results = []
        self.failures = []

    def op(self):
        self.results = []
        failed = 0
        for _rec, gen, gains, lam in self.blocks:
            try:
                self.results.append(certify.search_certificate(gen, gains, lam))
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                self.failures.append(repr(exc))
                self.results.append(exc)
                failed += 1
        return len(self.blocks), failed

    def problems(self):
        out = []
        for (rec, gen, gains, lam), res in zip(self.blocks, self.results):
            if isinstance(res, Exception):
                continue
            tag = f"{rec['kind']} block"
            if rec["kind"] == "lag_below" and res is not None:
                out.append(f"{tag} below its threshold got a certificate")
            if rec["kind"] == "lag_above" and res is None:
                out.append(f"{tag} above its threshold got no certificate")
            if res is not None:
                out += [f"{tag}: {p}" for p in
                        checks.certificate_problems(gen, gains, lam, res)]
        return out

    def traced_op(self, tracer: Tracer):
        with tracer.patched([(certify, "search_certificate",
                              "certify.search_certificate", _found)]):
            return self.op()

    def layers(self, tracer: Tracer, root: dict) -> dict:
        inside = tracer.descendants(root)
        out = dict.fromkeys(UNITS, 0.0)
        out.update(search_layers(inside, inside))
        return out


class SweepTwoGen(Workload):
    """sweep_two_gen: one cli.run_sweep over seeded k_d values."""

    def __init__(self, path: Path, out: Path):
        spec = json.loads((out / "inputs" / "sweep.json").read_text("utf-8"))
        self.path = str(path)
        self.param = spec["param"]
        self.values = spec["values"]
        self.base = out / "sweep"
        self.workers = min(len(self.values), os.cpu_count() or 1)
        self.code = None
        self.lines = []
        self.failures = []

    def op(self):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                self.code = cli.run_sweep(self.path, self.param, self.values,
                                          str(self.base), cli.RunFlags())
        except (RuntimeError, ArithmeticError, ValueError) as exc:
            self.failures.append(repr(exc))
            self.code = None
        self.lines = buf.getvalue().splitlines()
        failed = sum(1 for v in self.values
                     if f"{self.param}={v!r}: exit 0" not in self.lines)
        if failed:
            self.failures.append(f"run_sweep returned {self.code}: {self.lines}")
        return len(self.values), failed

    def value_dir(self, value) -> Path:
        # the per-value directory name that cli.run_sweep writes
        return self.base / f"{self.param.replace('.', '_')}={value!r}"

    def value_scenario(self, value):
        """two_gen.scn with generator 1's k_d set to ``value``."""
        scn = cli.load_scenario(self.path)
        ctl = dict(scn.controllers)
        ctl[1] = dataclasses.replace(ctl[1], k_d=value)
        return dataclasses.replace(scn, controllers=ctl)

    def problems(self):
        out = []
        if self.code != 0:
            out.append(f"run_sweep returned {self.code}")
        want = [f"{self.param}={v!r}: exit 0" for v in self.values]
        if self.lines != want:
            out.append(f"run_sweep printed {self.lines}, not one line per value")
        for v in self.values:
            scn = self.value_scenario(v)
            out += [f"k_d={v!r}: {p}" for p in checks.trajectory_problems(
                self.value_dir(v) / "trajectory.csv",
                sum(scn.step_loads.values()), checks.closed_form_nu(scn))]
        return out

    def traced_op(self, tracer: Tracer):
        # Pool workers are forked from here, so only the outside call is
        # wrapped while they run; the single run shows the layers inside.
        with tracer.patched([(cli, "run_sweep", "cli.run_sweep", None)]):
            attempted, failed = self.op()
        flags = cli.RunFlags(out_dir=str(self.base / "single"))
        scn = self.value_scenario(self.values[0])
        with tracer.span("single_value"), tracer.patched(RUN_LAYERS):
            report = cli.run(scn, flags)
        return attempted + 1, failed + (report.exit_code != 0)

    def layers(self, tracer: Tracer, root: dict) -> dict:
        out = run_layers(tracer, root)
        inside = tracer.descendants(root)
        sweep = next(s for s in inside if s["name"] == "cli.run_sweep")
        single = next(s for s in inside if s["name"] == "cli.run")
        n = len(self.values)
        out["cli.run_sweep_s"] = duration(sweep)
        out["sweep.s_per_value"] = duration(sweep) / n
        out["sweep.parallel_efficiency"] = (
            n * duration(single) / (self.workers * duration(sweep)))
        return out


def make_workload(name: str, path: Path, out: Path):
    if name == "ring9":
        return ScenarioRun(path, out, optimal_gains=False)
    if name == "mesh200":
        return ScenarioRun(path, out, optimal_gains=True)
    if name == "certify_search":
        return CertifySearch(path, out)
    if name == "sweep_two_gen":
        return SweepTwoGen(path, out)
    raise ValueError(f"unknown workload {name!r}")


# --- the measured loop ----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)

    work = make_workload(args.workload, Path(args.input), out)
    tracer = Tracer() if args.trace else None

    # Untimed warm-up: the first calls pay lazy imports, first numpy and
    # LAPACK calls and the creation of the output files.
    start = time.perf_counter()
    with work.first():
        attempted, failed = work.op()
    walls, cpus, roots = [], [], []
    refs = [hostspeed.reference_on(work.workers)]
    last = 0.0
    while len(walls) < MIN_REPS or time.perf_counter() - start + last <= args.seconds:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer is None:
            a, f = work.op()
        else:
            with tracer.span("op") as root:
                a, f = work.traced_op(tracer)
            roots.append(root)
        last = time.perf_counter() - t0
        cpus.append(cpu_seconds() - c0)
        walls.append(last)
        refs.append(hostspeed.reference_on(work.workers))
        attempted += a
        failed += f

    result = {
        "attempted": attempted, "failed": failed, "wall_s": walls,
        "cpu_s": cpus, "reference_s": refs, "problems": work.problems(),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + work.workers * resource.getrusage(
                            resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        # the repetition whose scaled time is the median, scaled alike
        scale = hostspeed.factors(refs)
        pick = hostspeed.median_index([w * f for w, f in zip(walls, scale)])
        layers = work.layers(tracer, roots[pick])
        result["layers"] = {name: value * scale[pick] if UNITS[name] in ("s", "us")
                            else value for name, value in layers.items()}
        tracer.write(out / "trace.json", {"workload": args.workload,
                                          "median_op": roots[pick]["id"],
                                          "scale": scale[pick]})
    for message in sorted(set(work.failures)):
        print(f"failed operation: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
