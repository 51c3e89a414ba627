"""Distributed averaging controller for secondary frequency regulation.

Each generator integrates a local power command driven by its own
generation mismatch, a frequency feedback, and averaging terms that pull
neighboring commands together over the communication graph.  The command
and the measured frequency combine into the generation input u.  The
controller itself is stateless; the command lives in the simulator state.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ControllerGains:
    """Per-generator gains and the quadratic cost coefficient.

    gamma scales the command integration rate, k_f the frequency feedback
    inside the command dynamics, k_c the command-to-input coupling, k_d the
    droop feedback, and q the generation cost coefficient used for
    dispatch.  All strictly positive.
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


def optimal_kc(q: float, k_gain: float) -> float:
    """Command gain that makes the converged dispatch cost-optimal.

    With k_c = 1/(q*K) the stationary generation satisfies q*p_m = p_c, so
    synchronized commands mean equalized marginal costs.
    """
    if not q > 0.0 or not k_gain > 0.0:
        raise ValueError("q and k_gain must be strictly positive")
    return 1.0 / (q * k_gain)


def default_kf(k_gain: float, k_c: float, k_d: float) -> float:
    """Default frequency-feedback gain K*(k_c + k_d)/2.

    A reasonable center for the certificate search grid; the certifier is
    free to return a different k_f (and for first-order blocks it must:
    only k_f = K*k_c is certifiable there).
    """
    if not (k_gain > 0.0 and k_c > 0.0 and k_d > 0.0):
        raise ValueError("k_gain, k_c and k_d must be strictly positive")
    return k_gain * (k_c + k_d) / 2.0
