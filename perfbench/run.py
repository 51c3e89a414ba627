"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload ring9 --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times SETUP_PROBES fresh
interpreters that import gridfreq and load those inputs, then runs the
measured loop in a process of its own (measure.py) and checks its outputs.
Every time is scaled to the host's reference speed (hostspeed.py) and
summarised by the median over the run's repetitions.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics; the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Everything the run writes goes under perfbench/out/,
the raw times in result.json.  Exit code 0 when the outputs are correct,
1 when a check failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters timed per run for setup_s, half before and half
#: after the measured loop so that they meet more of the host's slow and
#: fast spells, after one untimed probe that warms the file cache (and
#: writes the bytecode caches where that is on).
SETUP_PROBES = 8

#: The measured process is killed after this long; a run must end within
#: 180 s.
MEASURE_TIMEOUT = 150.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{what} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_probe(path: Path) -> dict:
    """One fresh interpreter; adds setup_s, from start to ready."""
    start = time.monotonic()
    proc = run_child([sys.executable, str(HERE / "setup_probe.py"), str(path)],
                     timeout=60.0)
    probe = last_json(proc, "set-up probe")
    src = (ROOT / "src").resolve()
    if src not in Path(probe["gridfreq"]).resolve().parents:
        raise RuntimeError(f"gridfreq was imported from {probe['gridfreq']}, "
                           f"not from {src}")
    probe["setup_s"] = probe["ready"] - start
    return probe


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import inputs

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridfreq" / "__init__.py").is_file():
        print(f"error: no gridfreq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        path = inputs.write_inputs(args.workload, args.seed, out / "inputs")
        setup_probe(path)  # untimed warm-up
        probes = [setup_probe(path) for _ in range(SETUP_PROBES // 2)]
        proc = run_child([sys.executable, str(HERE / "measure.py"),
                          "--workload", args.workload, "--input", str(path),
                          "--out", str(out), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], timeout=MEASURE_TIMEOUT)
        sys.stderr.write(proc.stderr)
        measured = last_json(proc, "measured run")
        probes += [setup_probe(path) for _ in range(SETUP_PROBES // 2)]
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    probe_scale = [hostspeed.NOMINAL_S / p["reference_s"] for p in probes]
    op_scale = hostspeed.factors(measured["reference_s"])
    if args.trace:
        spec = SPEC["per_layer"]
        metrics = dict(measured["layers"])
        for name in ("import.gridfreq", "cli.load_scenario"):
            times = [f * (s["end"] - s["start"])
                     for p, f in zip(probes, probe_scale) for s in p["spans"]
                     if s["name"] == name]
            metrics[name + "_s"] = statistics.median(times) if times else 0.0
        trace_path = out / "trace.json"
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        doc["setup_probes"] = [p["spans"] for p in probes]
        trace_path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    else:
        spec = SPEC["end_to_end"]
        metrics = {
            "wall_s": statistics.median(
                w * f for w, f in zip(measured["wall_s"], op_scale)),
            "setup_s": statistics.median(
                p["setup_s"] * f for p, f in zip(probes, probe_scale)),
            "cpu_s": statistics.median(
                c * f for c, f in zip(measured["cpu_s"], op_scale)),
            "peak_rss_mb": measured["peak_rss_mb"],
        }

    problems = measured["problems"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = dict(measured, workload=args.workload, seed=args.seed,
                  setup_s=[p["setup_s"] for p in probes],
                  setup_reference_s=[p["reference_s"] for p in probes],
                  metrics=metrics)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                     encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {len(measured['wall_s'])} timed "
          f"repetitions, {len(problems)} check failures", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
