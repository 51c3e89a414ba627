"""Write the pinned sparse-kernel values in pinned_mesh_3df2dc7.json.

The references are what ``gridfreq simulate --optimal-gains --out`` gave at
commit 3df2dc7 on a seeded 200-bus ``tests/meshes.ring_with_chords``
network, which runs on the sparse kernel: the report's equilibrium nu,
settling value, max V jump and each generator's final pm, pc and mc, and
every 10th row of trajectory.csv.  The script reads them off the report
text and the CSV, so it runs against any commit that writes those.  To
regenerate them:

    mkdir OLD && git archive 3df2dc7 src | tar -x -C OLD
    PYTHONPATH=OLD/src:tests python3 tests/data/pin_mesh_values.py \
        > tests/data/pinned_mesh_3df2dc7.json
"""

import json
import re
import runpy
import tempfile
from pathlib import Path

from gridfreq.cli import RunFlags, run
from meshes import ring_with_chords

REPORT = runpy.run_path(str(Path(__file__).with_name("pin_report_values.py")))

#: The mesh: 200 buses, 50 generators, a ring and 60 chords, 1 000 steps.
SEED, BUSES, GENERATORS, CHORDS = 7, 200, 50, 60

EVERY = 10

_JUMP = re.compile(r"^dissipation: max V jump = (\S+) ", re.M)


def mesh_values() -> dict:
    """The report values, the max V jump, the CSV header and every
    EVERY-th CSV row (as floats) of one --optimal-gains run of the mesh."""
    scn = ring_with_chords(SEED, buses=BUSES, generators=GENERATORS,
                           chords=CHORDS)
    with tempfile.TemporaryDirectory() as out:
        report = run(scn, RunFlags(optimal_gains=True, out_dir=out)).report_text
        lines = (Path(out) / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    values = REPORT["report_values"](report)
    values["max_v_jump"] = float(_JUMP.search(report).group(1))
    values["columns"] = lines[0].split(",")
    values["rows"] = {str(i): [float(v) for v in lines[1 + i].split(",")]
                      for i in range(0, len(lines) - 1, EVERY)}
    return values


def dumps(values: dict) -> str:
    """JSON with one line per pinned CSV row."""
    head = {k: v for k, v in values.items() if k != "rows"}
    rows = ",\n  ".join(f"{json.dumps(i)}: {json.dumps(row)}"
                        for i, row in values["rows"].items())
    return f'{json.dumps(head)[:-1]},\n "rows": {{\n  {rows}}}}}'


if __name__ == "__main__":
    print(dumps(mesh_values()))
