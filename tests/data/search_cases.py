"""The search cases: blocks outside the worked shapes, with their gains
and bus damping.

The reheat governor and the feedthrough cascade of
tests/test_certify.py::TestSearchPaths, plus seeded reheat and cascade
blocks built here.  pin_verdicts.py pins the search's verdicts on them at
several bus dampings, and tests/test_certify.py searches them.
"""

import random

from gridfreq.control import ControllerGains
from gridfreq.generation import LtiGenerator

#: Seeded blocks per kind.
SEEDED = 4


def reheat(t_g, t_ch, t_rh, f_hp, k):
    """Governor lag -> steam chest -> reheater, p_m = F x_ch + (1 - F) x_rh."""
    return {"a": [[-1.0 / t_g, 0.0, 0.0], [1.0 / t_ch, -1.0 / t_ch, 0.0],
                  [0.0, 1.0 / t_rh, -1.0 / t_rh]],
            "b": [k / t_g, 0.0, 0.0], "c": [0.0, f_hp, 1.0 - f_hp], "d": 0.0}


def cascade(t_a, t_p, f, k):
    """Two-lag cascade with feedthrough, p_m = (1 - f) x_2 + f K u."""
    return {"a": [[-1.0 / t_a, 0.0], [1.0 / t_p, -1.0 / t_p]],
            "b": [k / t_a, 0.0], "c": [0.0, 1.0 - f], "d": f * k}


def cases() -> list:
    """The pinned inputs: name, block, gains and bus damping."""
    unit = {"k_f": 1.0, "k_c": 1.0, "k_d": 1.0}
    out = [dict(name="search_paths_reheat", block=reheat(0.2, 0.3, 6.0, 0.3, 1.0),
                gains=unit, lambda_bus=1.0),
           dict(name="search_paths_cascade", block=cascade(0.3, 1.1, 0.2, 1.0),
                gains=unit, lambda_bus=1.0)]
    # The seed of the script's first name, which fixes the seeded blocks.
    rng = random.Random("pin_certificates")
    u = rng.uniform
    for i in range(SEEDED):
        k = u(0.8, 1.2)
        out.append(dict(name=f"reheat_{i}",
                        block=reheat(u(0.15, 0.25), u(0.25, 0.35), u(4.0, 8.0),
                                     u(0.25, 0.35), k),
                        gains=_gains(rng, k), lambda_bus=u(0.8, 1.2)))
        k = u(0.8, 1.2)
        out.append(dict(name=f"cascade_{i}",
                        block=cascade(u(0.25, 0.35), u(0.9, 1.3), u(0.15, 0.25), k),
                        gains=_gains(rng, k), lambda_bus=u(0.8, 1.2)))
    return out


def _gains(rng: random.Random, k: float) -> dict:
    k_c = rng.uniform(0.8, 1.2)
    k_d = k_c * rng.uniform(0.8, 1.2)
    return {"k_f": k * (k_c + k_d) / 2.0, "k_c": k_c, "k_d": k_d}


def generator(block: dict) -> LtiGenerator:
    return LtiGenerator(a_matrix=tuple(tuple(r) for r in block["a"]),
                        b_vector=tuple(block["b"]), c_vector=tuple(block["c"]),
                        d_scalar=block["d"], order=len(block["b"]))


def controller(gains: dict) -> ControllerGains:
    return ControllerGains(gamma=1.0, q=1.0, **gains)
