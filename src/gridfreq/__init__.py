"""gridfreq: a desk-scale workbench for distributed secondary frequency
control in power networks.

Simulates swing-equation network dynamics under a distributed averaging
controller, certifies controller gains through passivity-style matrix
conditions, computes cost-optimal dispatch, and monitors a Lyapunov
function along trajectories.
"""

from .certify import (Certificate, SymmetricMatrix, check_secondary_lmi,
                      first_order_min_damping, is_positive_definite,
                      search_certificate, second_order_min_damping,
                      secondary_lmi_matrix, sym_eigenvalues)
from .control import ControllerGains, default_kf, optimal_kc
from .dispatch import DispatchProblem, marginal_costs, solve_dispatch
from .generation import (LtiGenerator, dc_gain, is_hurwitz, make_first_order,
                         make_second_order)
from .network import Bus, BusKind, CommEdge, Line, PowerNetwork, validate
from .sim import (Equilibrium, Scenario, Trajectory, compute_equilibrium,
                  dissipation_check, integrate, lyapunov_value)

__version__ = "0.1.0"

__all__ = [
    "Bus", "BusKind", "Certificate", "CommEdge", "ControllerGains",
    "DispatchProblem", "Equilibrium", "Line", "LtiGenerator", "PowerNetwork",
    "Scenario", "SymmetricMatrix", "Trajectory",
    "check_secondary_lmi", "compute_equilibrium", "dc_gain", "default_kf",
    "dissipation_check", "first_order_min_damping", "integrate", "is_hurwitz",
    "is_positive_definite", "lyapunov_value", "make_first_order",
    "make_second_order", "marginal_costs", "optimal_kc", "search_certificate",
    "second_order_min_damping", "secondary_lmi_matrix", "solve_dispatch",
    "sym_eigenvalues", "validate",
]
