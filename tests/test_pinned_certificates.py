"""Search verdicts against commit e3464c2.

tests/data/pinned_verdicts_e3464c2.json holds whether
``search_certificate`` found a certificate at e3464c2, whose search over
diagonal P was a grid and a coordinate descent, for reheat and cascade
blocks at four bus dampings and for worked turbine-governor blocks around
their closed-form threshold; tests/data/pin_verdicts.py wrote them and
says how.  The solve over full P returns other certificates, so the pin
is on verdicts: every case found there is still found, and every
certificate passes the secondary matrix assembled apart from the program
(tests/reference.py).
"""

import json
import runpy
from pathlib import Path

import pytest

from gridfreq.certify import search_certificate
from reference import check_secondary

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "pinned_verdicts_e3464c2.json")
                  .read_text(encoding="utf-8"))
SCRIPT = runpy.run_path(str(DATA / "pin_verdicts.py"))


def _block_name(case):
    """search_paths_reheat_x0.3 -> search_paths_reheat, worked_2_at_0.9 ->
    worked_2: the block a pinned case scales the damping of."""
    return case["name"].rsplit("_x", 1)[0].rsplit("_at_", 1)[0]


BLOCKS = list(dict.fromkeys(_block_name(c) for c in PINS))


def test_pin_covers_the_script_cases():
    assert SCRIPT["cases"]() == [{k: v for k, v in c.items() if k != "found"}
                                 for c in PINS]


@pytest.mark.parametrize("block", BLOCKS)
def test_certificate_matches_pin(block):
    cases = [c for c in PINS if _block_name(c) == block]
    assert len(cases) == 4
    for case in cases:
        gen = SCRIPT["generator"](case["block"])
        params = SCRIPT["controller"](case["gains"])
        cert = search_certificate(gen, params, case["lambda_bus"])
        if case["found"]:
            assert cert is not None, case["name"]
        if cert is not None:
            assert check_secondary(gen, params, cert, case["lambda_bus"]), \
                case["name"]
