"""Report values of ``simulate --optimal-gains`` against commit 18bf22c.

tests/data/pinned_report_18bf22c.json holds, for two_gen.scn and
ring9.scn, the equilibrium nu, the settling value and each generator's
final pm, pc and mc as the report printed them before the sparse kernel
existed; tests/data/pin_report_values.py wrote them and says how.  The
fixtures run on the dense kernel, so a change of kernel or of summation
order on them shows here.
"""

import json
import runpy
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "pinned_report_18bf22c.json").read_text(encoding="utf-8"))
SCRIPT = runpy.run_path(str(DATA / "pin_report_values.py"))

#: Absolute tolerance on every pinned value.
TOL = 1e-12


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_values_match_pin(name):
    pin = PINS[name]
    got = SCRIPT["report_values"](SCRIPT["optimal_gains_report"](name))
    assert got["nu"] == pytest.approx(pin["nu"], rel=0, abs=TOL)
    assert got["settling"] == pytest.approx(pin["settling"], rel=0, abs=TOL)
    assert sorted(got["final"]) == sorted(pin["final"])
    for g, finals in pin["final"].items():
        for key, value in finals.items():
            assert got["final"][g][key] == pytest.approx(value, rel=0, abs=TOL), \
                f"gen {g} final {key}"
