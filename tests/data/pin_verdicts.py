"""Write the pinned search verdicts in pinned_verdicts_e3464c2.json.

The references are the verdicts, certificate found or not, that
``certify.search_certificate`` returned at commit e3464c2, whose search
over diagonal P was a grid and a coordinate descent.  The cases are the
blocks of search_cases.py at their bus damping scaled by 1, 0.3, 0.1
and 0.02, and worked turbine-governor blocks
(``generation.make_second_order``) with their bus damping at 1.01, 0.9,
0.75 and 0.5 of ``certify.second_order_min_damping`` (as lambda_hat).
Each record holds the block, its gains, the bus damping and ``found``.
A later search may certify more of them, never fewer.  To regenerate
them:

    mkdir OLD && git archive e3464c2 src | tar -x -C OLD
    PYTHONPATH=OLD/src python3 tests/data/pin_verdicts.py \
        > tests/data/pinned_verdicts_e3464c2.json
"""

import json
import runpy
from pathlib import Path

from gridfreq.certify import (LAMBDA_SHAVE, search_certificate,
                              second_order_min_damping)
from gridfreq.generation import make_second_order

SEARCH = runpy.run_path(str(Path(__file__).with_name("search_cases.py")))
generator = SEARCH["generator"]
controller = SEARCH["controller"]

#: Bus damping scales applied to the search_cases.py cases.
DAMPING_SCALES = (1.0, 0.3, 0.1, 0.02)

#: lambda_hat as a share of the closed-form threshold, for worked blocks.
THRESHOLD_SHARES = (1.01, 0.9, 0.75, 0.5)

#: Worked turbine-governor blocks (tau_a, tau_p, K) and gains (k_c, k_d).
WORKED = (((0.3, 1.1, 1.0), (1.0, 1.0)),
          ((0.35, 1.2, 1.2), (0.6, 0.8)),
          ((0.5, 2.0, 0.8), (1.5, 0.9)),
          ((0.2, 0.9, 1.1), (0.7, 0.35)),
          ((1.0, 1.0, 1.0), (0.8, 1.6)))


def cases() -> list:
    """The pinned inputs: name, block, gains and bus damping."""
    out = [dict(case, name=f"{case['name']}_x{scale}",
                lambda_bus=case["lambda_bus"] * scale)
           for case in SEARCH["cases"]()
           for scale in DAMPING_SCALES]
    for i, ((tau_a, tau_p, k), (k_c, k_d)) in enumerate(WORKED):
        gen = make_second_order(tau_a, tau_p, k)
        block = {"a": [list(r) for r in gen.a_matrix],
                 "b": list(gen.b_vector), "c": list(gen.c_vector),
                 "d": gen.d_scalar}
        gains = {"k_f": k * (k_c + k_d) / 2.0, "k_c": k_c, "k_d": k_d}
        threshold = second_order_min_damping(gen.dc_gain, k_c, k_d)
        for share in THRESHOLD_SHARES:
            out.append(dict(name=f"worked_{i}_at_{share}", block=block,
                            gains=gains,
                            lambda_bus=share * threshold / (1.0 - LAMBDA_SHAVE)))
    return out


def found(case: dict) -> bool:
    """Does the search certify the case?"""
    return search_certificate(generator(case["block"]),
                              controller(case["gains"]),
                              case["lambda_bus"]) is not None


if __name__ == "__main__":
    print(json.dumps([dict(case, found=found(case)) for case in cases()],
                     indent=1))
