"""Write the pinned chain-block verdicts in pinned_verdicts_bfb9e3d.json.

The references are the verdicts, certificate found or not, that
``certify.search_certificate`` returned at commit bfb9e3d, whose solve
ran over full symmetric P and a free k_f.  The cases are seeded chains
of lags of order 2 to 5, read out through a mix of their states plus a
feedthrough, so never one of the worked shapes, each at its bus damping
scaled by 1, 0.5, 0.2, 0.05 and 0.01.  Each record holds the block, its
gains, the bus damping and ``found``.  A later search may certify more
of them, never fewer.  To regenerate them:

    mkdir OLD && git archive bfb9e3d src | tar -x -C OLD
    PYTHONPATH=OLD/src python3 tests/data/pin_chain_verdicts.py \
        > tests/data/pinned_verdicts_bfb9e3d.json
"""

import json
import runpy
from pathlib import Path

import numpy as np

from gridfreq.certify import search_certificate

SEARCH = runpy.run_path(str(Path(__file__).with_name("search_cases.py")))
generator = SEARCH["generator"]
controller = SEARCH["controller"]

#: Chain blocks per order.
PER_ORDER = 15

#: Bus damping scales applied to each block.
DAMPING_SCALES = (1.0, 0.5, 0.2, 0.05, 0.01)


def chain(rng: np.random.Generator, order: int) -> dict:
    """A chain of lags, DC gain k, read out as p_m = (1 - f) w x / sum(w)
    + f k u."""
    t = rng.uniform(0.15, 1.5, order)
    k = rng.uniform(0.8, 1.2)
    f = rng.uniform(0.1, 0.3)
    a = np.diag(-1.0 / t) + np.diag(1.0 / t[1:], -1)
    b = np.zeros(order)
    b[0] = k / t[0]
    w = rng.uniform(0.2, 1.0, order)
    return {"a": a.tolist(), "b": b.tolist(),
            "c": ((1.0 - f) * w / w.sum()).tolist(), "d": float(f * k)}


def cases() -> list:
    """The pinned inputs: name, block, gains and bus damping."""
    rng = np.random.default_rng(2602)
    out = []
    for order in (2, 3, 4, 5):
        for i in range(PER_ORDER):
            block = chain(rng, order)
            k = generator(block).dc_gain
            k_c = float(rng.uniform(0.8, 1.2))
            k_d = k_c * float(rng.uniform(0.8, 1.2))
            gains = {"k_f": k * (k_c + k_d) / 2.0, "k_c": k_c, "k_d": k_d}
            lambda_bus = float(rng.uniform(0.8, 1.2))
            out += [dict(name=f"chain_{order}_{i}_x{scale}", block=block,
                         gains=gains, lambda_bus=lambda_bus * scale)
                    for scale in DAMPING_SCALES]
    return out


def found(case: dict) -> bool:
    """Does the search certify the case?"""
    return search_certificate(generator(case["block"]),
                              controller(case["gains"]),
                              case["lambda_bus"]) is not None


if __name__ == "__main__":
    print(json.dumps([dict(case, found=found(case)) for case in cases()],
                     indent=1))
