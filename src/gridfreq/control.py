"""Distributed averaging controller for secondary frequency regulation.

Each generator integrates a local power command driven by its own
generation mismatch, a frequency feedback, and averaging terms that pull
neighboring commands together over the communication graph.  The command
and the measured frequency combine into the generation input u.  The
controller itself is stateless; the command lives in the simulator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ControllerGains:
    """Per-generator gains and the quadratic cost coefficient.

    gamma scales the command integration rate, k_f the frequency feedback
    inside the command dynamics, k_c the command-to-input coupling, k_d the
    droop feedback, and q the generation cost coefficient used for
    dispatch.  All strictly positive and finite.
    """

    gamma: float
    k_f: float
    k_c: float
    k_d: float
    q: float

    def __post_init__(self):
        for name in ("gamma", "k_f", "k_c", "k_d", "q"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def optimal_kc(q: float, k_gain: float) -> float:
    """Command gain that makes the converged dispatch cost-optimal.

    With k_c = 1/(q*K) the stationary generation satisfies q*p_m = p_c, so
    synchronized commands mean equalized marginal costs.
    """
    if not q > 0.0 or not k_gain > 0.0:
        raise ValueError("q and k_gain must be strictly positive")
    return 1.0 / (q * k_gain)
