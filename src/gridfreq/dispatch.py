"""Cost-optimal static dispatch of a total load across generators.

Minimizes sum_j q_j p_j^2 / 2 subject to sum_j p_j = total load.  The
KKT system is two lines of algebra: a common marginal price nu with
p_j = nu / q_j.  The simulator's converged power commands reproduce nu
when the command gains follow optimal_kc, which is what the acceptance
runs verify end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple


@dataclass(frozen=True)
class DispatchProblem:
    """Quadratic cost coefficients per generator id, and the load to cover."""

    costs: Mapping[int, float]
    total_load: float

    def __post_init__(self):
        if not self.costs:
            raise ValueError("dispatch needs at least one generator")
        for gid, q in self.costs.items():
            if not q > 0.0:
                raise ValueError(f"cost coefficient for generator {gid} must be positive")


def solve_dispatch(prob: DispatchProblem) -> Tuple[Dict[int, float], float]:
    """Closed-form optimum: nu = load / sum(1/q_j), p_j = nu / q_j."""
    inv_sum = sum(1.0 / q for q in prob.costs.values())
    nu = prob.total_load / inv_sum
    allocation = {gid: nu / q for gid, q in prob.costs.items()}
    return allocation, nu


def marginal_costs(allocation: Mapping[int, float],
                   costs: Mapping[int, float]) -> Dict[int, float]:
    """Per-generator marginal cost q_j * p_j."""
    if set(allocation) != set(costs):
        raise ValueError("allocation and costs must cover the same generators")
    return {gid: costs[gid] * allocation[gid] for gid in allocation}
