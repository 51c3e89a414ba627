"""Write the pinned report values in pinned_report_18bf22c.json.

The references are the report-level values that ``gridfreq simulate
--optimal-gains`` printed at commit 18bf22c, the last commit before the
sparse kernel, for two_gen.scn and ring9.scn: the equilibrium nu, the
settling value (final max |omega|) and each generator's final pm, pc and
mc.  The script reads them off the report text, so it runs against any
commit whose report has those lines.  To regenerate them:

    mkdir OLD && git archive 18bf22c src | tar -x -C OLD
    PYTHONPATH=OLD/src python3 tests/data/pin_report_values.py \
        > tests/data/pinned_report_18bf22c.json
"""

import json
import re

from gridfreq.cli import RunFlags, load_scenario, run
from gridfreq.fixtures import fixture_path

NAMES = ("two_gen.scn", "ring9.scn")

_NU = re.compile(r"^\[equilibrium\]\nnu = (\S+)$", re.M)
_SETTLING = re.compile(r"^final max \|omega\| = (\S+) -> ", re.M)
_FINAL = re.compile(r"^gen (\d+): final pm=(\S+) pc=(\S+) mc=(\S+)$", re.M)


def report_values(report_text: str) -> dict:
    """The pinned values of one report: nu, settling and, per generator
    (keyed by its bus id as a string), the final pm, pc and mc."""
    return {
        "nu": float(_NU.search(report_text).group(1)),
        "settling": float(_SETTLING.search(report_text).group(1)),
        "final": {g: {"pm": float(pm), "pc": float(pc), "mc": float(mc)}
                  for g, pm, pc, mc in _FINAL.findall(report_text)},
    }


def optimal_gains_report(name: str) -> str:
    return run(load_scenario(fixture_path(name)),
               RunFlags(optimal_gains=True)).report_text


if __name__ == "__main__":
    print(json.dumps({name: report_values(optimal_gains_report(name))
                      for name in NAMES}, indent=1))
