"""Do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steadiness.py                 # 2 sets x 10 runs
    python3 perfbench/steadiness.py --table perfbench/out/steadiness.jsonl

Runs every workload of BENCHMARK.json RUNS times per set, round-robin over
the workloads, set 1 on seeds 1..RUNS and set 2 on the next RUNS seeds,
with the command and run length of BENCHMARK.json.  Each run's result line
is appended to the record (perfbench/out/steadiness.jsonl by default) as
it arrives.  The table gives, per workload and end-to-end metric, each
set's median and quartiles, the spread (interquartile distance over the
median), the shift of the second median from the first, and whether both
spreads and the shift stay within the metric's bound.  --table reprints
it from a record of earlier runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Runs per workload in each of the two sets.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "result": result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def table(records) -> bool:
    """Print the comparison of set 1 with set 2; True when they agree."""
    ok = True
    print(f"{'workload':15} {'metric':12} "
          f"{'set 1 median [q1, q3] spread':>40} "
          f"{'set 2 median [q1, q3] spread':>40} {'shift':>7} {'bound':>6}  agree")
    for w in SPEC["workloads"]:
        runs = [[r for r in records if r["workload"] == w["name"] and r["set"] == s]
                for s in (1, 2)]
        if not all(runs):
            continue
        for bad in (r for rs in runs for r in rs
                    if r["exit"] != 0 or not r["result"].get("correct")):
            ok = False
            print(f"{w['name']}: seed {bad['seed']} exited {bad['exit']}, "
                  f"correct={bad['result'].get('correct')}")
        shares = [sorted({r["result"]["failed"] / r["result"]["attempted"]
                          for r in rs if r["result"]}) for rs in runs]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["result"]["metrics"][name]["value"] for r in rs
                     if r["result"]] for rs in runs]
            if min(len(v) for v in vals) < 2:
                ok = False
                print(f"{w['name']:15} {name:12} too few results")
                continue
            (a1, m1, a3, spread1), (b1, m2, b3, spread2) = map(spread, vals)
            shift = (m2 - m1) / m1
            agree = max(spread1, spread2, abs(shift)) <= bound
            ok = ok and agree
            print(f"{w['name']:15} {name:12} "
                  f"{m1:11.5g} [{a1:.5g}, {a3:.5g}] {spread1:6.1%} "
                  f"{m2:11.5g} [{b1:.5g}, {b3:.5g}] {spread2:6.1%} "
                  f"{shift:+7.1%} {bound:6.2f}  {'yes' if agree else 'NO'}")
        if shares[0] != shares[1]:
            ok = False
            print(f"{w['name']}: failed shares differ between sets: {shares}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", default=str(HERE / "out" / "steadiness.jsonl"))
    parser.add_argument("--table", metavar="JSONL",
                        help="only print the table of an earlier record")
    args = parser.parse_args(argv)

    if args.table:
        records = [json.loads(line) for line in
                   Path(args.table).read_text(encoding="utf-8").splitlines()]
        return 0 if table(records) else 1

    record = Path(args.record)
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text("", encoding="utf-8")
    records = []
    for s in (1, 2):
        for i in range(RUNS):
            for w in SPEC["workloads"]:
                rec = dict(run_once(w["name"], (s - 1) * RUNS + i + 1,
                                    SPEC["run_seconds"]), set=s)
                records.append(rec)
                with open(record, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
                metrics = rec["result"].get("metrics", {})
                print(f"set {s} {w['name']} seed {rec['seed']}: exit {rec['exit']} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in metrics.items()),
                      file=sys.stderr, flush=True)
    return 0 if table(records) else 1


if __name__ == "__main__":
    sys.exit(main())
