"""Search verdicts against commits e3464c2, bfb9e3d and c7a7149.

tests/data/pinned_verdicts_e3464c2.json holds whether
``search_certificate`` found a certificate at e3464c2, whose search over
diagonal P was a grid and a coordinate descent, for reheat and cascade
blocks at four bus dampings and for worked turbine-governor blocks around
their closed-form threshold; tests/data/pin_verdicts.py wrote them and
says how.  tests/data/pinned_verdicts_bfb9e3d.json holds the verdicts at
bfb9e3d, whose solve ran over full P and a free k_f, for seeded chain
blocks of order 2 to 5 at five bus dampings;
tests/data/pin_chain_verdicts.py wrote them and says how.
tests/data/pinned_verdicts_c7a7149.json holds the verdicts at c7a7149,
whose last step was a log-barrier solve over the face, for 14 840 random
and chain blocks at seven bus dampings; tests/data/pin_face_verdicts.py
wrote them and says how.  Later searches
return other certificates, so the pins are on verdicts: every case found
there is still found, apart from the blocks with a DC gain K <= 0, which
the search now refuses, and every certificate passes the secondary matrix
assembled apart from the program (tests/reference.py).
"""

import json
import runpy
from pathlib import Path

import pytest

from gridfreq import certify
from gridfreq.certify import search_certificate
from reference import check_secondary

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "pinned_verdicts_e3464c2.json")
                  .read_text(encoding="utf-8"))
SCRIPT = runpy.run_path(str(DATA / "pin_verdicts.py"))
CHAIN_PINS = json.loads((DATA / "pinned_verdicts_bfb9e3d.json")
                        .read_text(encoding="utf-8"))
CHAIN_SCRIPT = runpy.run_path(str(DATA / "pin_chain_verdicts.py"))
FACE_PINS = json.loads((DATA / "pinned_verdicts_c7a7149.json")
                       .read_text(encoding="utf-8"))
FACE_SCRIPT = runpy.run_path(str(DATA / "pin_face_verdicts.py"))


def _block_name(case):
    """search_paths_reheat_x0.3 -> search_paths_reheat, worked_2_at_0.9 ->
    worked_2: the block a pinned case scales the damping of."""
    return case["name"].rsplit("_x", 1)[0].rsplit("_at_", 1)[0]


BLOCKS = list(dict.fromkeys(_block_name(c) for c in PINS))
CHAIN_ORDERS = sorted({len(c["block"]["b"]) for c in CHAIN_PINS})


def _check_verdict(script, case):
    """The case is found if the pin found it, and any certificate passes
    the reference check."""
    gen = script["generator"](case["block"])
    params = script["controller"](case["gains"])
    cert = search_certificate(gen, params, case["lambda_bus"])
    if case["found"]:
        assert cert is not None, case["name"]
    if cert is not None:
        assert check_secondary(gen, params, cert, case["lambda_bus"]), \
            case["name"]


def _inputs(pins):
    return [{k: v for k, v in c.items() if k != "found"} for c in pins]


def test_pin_covers_the_script_cases():
    assert SCRIPT["cases"]() == _inputs(PINS)


def test_chain_pin_covers_the_script_cases():
    assert CHAIN_SCRIPT["cases"]() == _inputs(CHAIN_PINS)


@pytest.mark.parametrize("block", BLOCKS)
def test_certificate_matches_pin(block):
    cases = [c for c in PINS if _block_name(c) == block]
    assert len(cases) == 4
    for case in cases:
        _check_verdict(SCRIPT, case)


@pytest.mark.parametrize("order", CHAIN_ORDERS)
def test_chain_certificate_matches_pin(order):
    cases = [c for c in CHAIN_PINS if len(c["block"]["b"]) == order]
    assert len(cases) == 75
    for case in cases:
        _check_verdict(CHAIN_SCRIPT, case)


def test_face_pin_covers_the_script_cases():
    groups = FACE_SCRIPT["groups"]()
    assert list(groups) == list(FACE_PINS)
    assert [len(v) for v in FACE_PINS.values()] == \
        [len(pairs) * len(FACE_SCRIPT["DAMPINGS"]) for pairs in groups.values()]
    assert sum(map(len, FACE_PINS.values())) == 14840


def test_face_certificates_match_pin():
    # every search certified at c7a7149 of a block whose DC gain K is
    # positive is still certified; every search of a block with K <= 0 is
    # refused, since its k_f = K k_c would not be a gain
    lost, kept, pinned, refused = [], 0, "", ""
    for name, pairs in FACE_SCRIPT["groups"]().items():
        got = FACE_SCRIPT["verdicts"](pairs)
        positive = [gen.dc_gain > 0.0 for gen, _ in pairs
                    for _ in FACE_SCRIPT["DAMPINGS"]]
        for i, (want, have, k) in enumerate(zip(FACE_PINS[name], got,
                                                positive)):
            if not k:
                pinned += want
                refused += have
            elif want == "1":
                kept += 1
                if have == "0":
                    lost.append((name, i))
    assert sum(v.count("1") for v in FACE_PINS.values()) == 4660
    assert kept == 4256
    assert lost == []
    assert (len(pinned), pinned.count("1")) == (6482, 404)
    assert "1" not in refused


def test_pinned_cases_make_few_face_solves(monkeypatch):
    # The diagonal face point is checked before the Riccati step, whose
    # Hamiltonian face_hamiltonian builds: 87 of the 360 cases reach it.
    solved = []
    build = certify.face_hamiltonian

    def spy(*args):
        solved.append(args)
        return build(*args)
    monkeypatch.setattr(certify, "face_hamiltonian", spy)
    for script, pins in ((SCRIPT, PINS), (CHAIN_SCRIPT, CHAIN_PINS)):
        for case in pins:
            _check_verdict(script, case)
    assert len(PINS) + len(CHAIN_PINS) == 360
    assert len(solved) <= 87
