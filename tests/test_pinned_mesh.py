"""A sparse-kernel run of ``simulate --optimal-gains`` against commit 3df2dc7.

tests/data/pinned_mesh_3df2dc7.json holds, for a seeded 200-bus
ring_with_chords mesh, the report's nu, settling value, max V jump and
each generator's final pm, pc and mc, and every 10th row of
trajectory.csv; tests/data/pin_mesh_values.py wrote them and says how.
The mesh is far above DENSE_ENTRIES, so a change to the sparse kernel,
to the steps it runs or to the constants it is built from shows here.
"""

import json
import runpy
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
PIN = json.loads((DATA / "pinned_mesh_3df2dc7.json").read_text(encoding="utf-8"))
SCRIPT = runpy.run_path(str(DATA / "pin_mesh_values.py"))

#: Absolute tolerance on every pinned value.
TOL = 1e-12


@pytest.fixture(scope="module")
def got():
    return SCRIPT["mesh_values"]()


def test_report_values_match_pin(got):
    for key in ("nu", "settling", "max_v_jump"):
        assert got[key] == pytest.approx(PIN[key], rel=0, abs=TOL), key
    assert sorted(got["final"]) == sorted(PIN["final"])
    for g, finals in PIN["final"].items():
        for key, value in finals.items():
            assert got["final"][g][key] == pytest.approx(value, rel=0, abs=TOL), \
                f"gen {g} final {key}"


def test_csv_rows_match_pin(got):
    assert got["columns"] == PIN["columns"]
    assert sorted(got["rows"], key=int) == sorted(PIN["rows"], key=int)
    for i, row in PIN["rows"].items():
        assert got["rows"][i] == pytest.approx(row, rel=0, abs=TOL), f"row {i}"
