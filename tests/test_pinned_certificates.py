"""Search certificates against commit 3667bee.

tests/data/pinned_certificates_3667bee.json holds the P entries and k_f
that ``search_certificate`` returned for reheat and cascade blocks, which
take the grid and the coordinate descent;
tests/data/pin_certificates.py wrote them and says how.  A change to the
descent that feeds the eigenvalue solver different floats shows here.
"""

import json
import runpy
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "pinned_certificates_3667bee.json")
                  .read_text(encoding="utf-8"))
SCRIPT = runpy.run_path(str(DATA / "pin_certificates.py"))

#: Relative tolerance on every pinned entry; on the pinning host the
#: search reproduces the pin bit for bit.
REL = 1e-12


def test_pin_covers_the_script_cases():
    assert [c["name"] for c in SCRIPT["cases"]()] == [c["name"] for c in PINS]


@pytest.mark.parametrize("case", PINS, ids=[c["name"] for c in PINS])
def test_certificate_matches_pin(case):
    pin = case["certificate"]
    got = SCRIPT["certificate"](case)
    assert pin is not None and got is not None
    assert got["k_f"] == pytest.approx(pin["k_f"], rel=REL, abs=0)
    for row_got, row_pin in zip(got["p"], pin["p"], strict=True):
        assert row_got == pytest.approx(row_pin, rel=REL, abs=0)
