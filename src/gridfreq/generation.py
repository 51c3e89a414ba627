"""LTI generation-side dynamics.

Each generator bus carries a small state-space block (A, B, C, D) mapping
the control input u to mechanical power output.  The two workhorse models
are a first-order lag and a second-order turbine-governor cascade; both
are built here with their DC gain forced to a requested value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Eigenvalues with real part in (-TOL_HURWITZ, 0] are rejected: marginal
#: stability would break the steady-state analysis downstream.
TOL_HURWITZ = 1e-9

#: Largest accepted block order. Realistic governor models stop well below
#: this; the cap keeps the certificate search space bounded.
MAX_ORDER = 10


@dataclass(frozen=True)
class LtiGenerator:
    """State-space block  x' = A x + B u,  p_m = C x + D u.

    Attributes:
        a_matrix: n x n system matrix, stored as a tuple of row tuples.
        b_vector: length-n input column.
        c_vector: length-n output row.
        d_scalar: direct feedthrough.
        order: n.
    """

    a_matrix: Tuple[Tuple[float, ...], ...]
    b_vector: Tuple[float, ...]
    c_vector: Tuple[float, ...]
    d_scalar: float
    order: int

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise ValueError("generator order must be at least 1")
        if len(self.a_matrix) != n or any(len(r) != n for r in self.a_matrix):
            raise ValueError("a_matrix shape does not match order")
        if len(self.b_vector) != n or len(self.c_vector) != n:
            raise ValueError("b/c vector length does not match order")
        if not np.isfinite([*np.ravel(self.a_matrix), *self.b_vector,
                            *self.c_vector, self.d_scalar]).all():
            raise ValueError("generator block entries must be finite")
        if not is_hurwitz([list(r) for r in self.a_matrix]):
            raise ValueError("a_matrix must be Hurwitz")


def _as_square(a_matrix) -> np.ndarray:
    m = np.asarray(a_matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return m


def is_hurwitz(a_matrix) -> bool:
    """True iff every eigenvalue has real part below -TOL_HURWITZ.

    Orders above MAX_ORDER are rejected outright rather than classified.
    """
    m = _as_square(a_matrix)
    if m.shape[0] > MAX_ORDER:
        raise ValueError(f"matrix order {m.shape[0]} exceeds supported maximum {MAX_ORDER}")
    eigs = np.linalg.eigvals(m)
    return bool(np.all(eigs.real < -TOL_HURWITZ))


def dc_gain(gen: LtiGenerator) -> float:
    """Steady-state output per unit of constant input: -C A^{-1} B + D."""
    a = np.array(gen.a_matrix, dtype=float)
    b = np.array(gen.b_vector, dtype=float)
    c = np.array(gen.c_vector, dtype=float)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("a_matrix is singular; block is not Hurwitz") from exc
    return float(-c @ x + gen.d_scalar)


def equilibrium_state(gen: LtiGenerator, u: float) -> Tuple[float, ...]:
    """The unique rest state for a constant input: solves A x + B u = 0."""
    a = np.array(gen.a_matrix, dtype=float)
    b = np.array(gen.b_vector, dtype=float)
    x = np.linalg.solve(a, -b * u)
    return tuple(float(v) for v in x)


def make_first_order(tau: float, k: float) -> LtiGenerator:
    """First-order lag: tau * p_m' = -p_m + k*u."""
    if not tau > 0.0 or not k > 0.0:
        raise ValueError("tau and k must be positive")
    return LtiGenerator(
        a_matrix=((-1.0 / tau,),),
        b_vector=(k / tau,),
        c_vector=(1.0,),
        d_scalar=0.0,
        order=1,
    )


def make_second_order(tau_a: float, tau_p: float, k: float) -> LtiGenerator:
    """Turbine-governor cascade of two lags with DC gain ``k``.

    State 1 is the governor valve output, state 2 the delivered power:
    tau_a * x1' = -x1 + k*u,  tau_p * x2' = x1 - x2.
    """
    if not (tau_a > 0.0 and tau_p > 0.0 and k > 0.0):
        raise ValueError("tau_a, tau_p and k must be positive")
    return LtiGenerator(
        a_matrix=((-1.0 / tau_a, 0.0), (1.0 / tau_p, -1.0 / tau_p)),
        b_vector=(k / tau_a, 0.0),
        c_vector=(0.0, 1.0),
        d_scalar=0.0,
        order=2,
    )


def first_order_params(gen: LtiGenerator):
    """Recover (tau, k) if the block has the exact first-order-lag shape,
    else None."""
    if gen.order != 1 or gen.d_scalar != 0.0 or gen.c_vector != (1.0,):
        return None
    a = gen.a_matrix[0][0]
    if not a < 0.0:
        return None
    tau = -1.0 / a
    k = gen.b_vector[0] * tau
    if not k > 0.0:
        return None
    return tau, k


def second_order_params(gen: LtiGenerator):
    """Recover (tau_a, tau_p, k) if the block has the exact turbine-governor
    shape, else None."""
    if gen.order != 2 or gen.d_scalar != 0.0 or gen.c_vector != (0.0, 1.0):
        return None
    (a11, a12), (a21, a22) = gen.a_matrix
    if a12 != 0.0 or gen.b_vector[1] != 0.0:
        return None
    if not (a11 < 0.0 and a22 < 0.0) or a21 != -a22:
        return None
    tau_a = -1.0 / a11
    tau_p = -1.0 / a22
    k = gen.b_vector[0] * tau_a
    if not k > 0.0:
        return None
    return tau_a, tau_p, k
