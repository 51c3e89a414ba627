"""The closed loop sim.assemble builds, against commit ba485bb bit for bit.

tests/data/pinned_loop_ba485bb.json holds, for two_gen.scn, ring9.scn and
a seeded 40-bus mesh with generic blocks and a generator bus of damping
0, J's and p_m's rows as (rows, cols, values), the step load, the line
ends and S, as commit ba485bb built them from a dense J;
tests/data/pin_loop.py wrote them and says how.  Every index and every
float must be equal: the kernels read these arrays as they are.
"""

import json
import runpy
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
PIN = json.loads((DATA / "pinned_loop_ba485bb.json").read_text(encoding="utf-8"))
SCRIPT = runpy.run_path(str(DATA / "pin_loop.py"))


@pytest.mark.parametrize("name", sorted(PIN))
def test_loop_matches_pin(name):
    got = SCRIPT["loop_values"](SCRIPT["cases"]()[name])
    assert sorted(got) == sorted(PIN[name])
    for key, want in PIN[name].items():
        assert got[key] == want, f"{name}: {key}"
