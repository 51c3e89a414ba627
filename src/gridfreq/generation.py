"""LTI generation-side dynamics.

Each generator bus carries a small state-space block (A, B, C, D) mapping
the control input u to mechanical power output.  The two workhorse models
are a first-order lag and a second-order turbine-governor cascade; both
are built here with their DC gain forced to a requested value, and the
block each builder returns records the builder and its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

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
        a_array, b_array, c_array: A, B and C as read-only float arrays,
            made once when the block is made.
        a_inv_b: A^{-1} B as a read-only array, solved once when the block
            is made (a Hurwitz A is invertible). The block's rest state
            under a constant input u is -u A^{-1} B; the equilibrium state
            and the certificate search both read it from here.
        a_inv_t_c: A^{-T} C^T, solved and kept the same way.
        dc_gain: -C A^{-1} B + D.
        built_by: (builder, arguments) for a block that make_first_order
            or make_second_order returned, with builder(*arguments) equal
            to the block; None for a block built any other way,
            dataclasses.replace included, so a changed block never keeps
            the model of the one it came from.
        The last seven are derived, so out of repr, == and hash.
    """

    a_matrix: Tuple[Tuple[float, ...], ...]
    b_vector: Tuple[float, ...]
    c_vector: Tuple[float, ...]
    d_scalar: float
    order: int
    a_array: np.ndarray = field(init=False, repr=False, compare=False)
    b_array: np.ndarray = field(init=False, repr=False, compare=False)
    c_array: np.ndarray = field(init=False, repr=False, compare=False)
    a_inv_b: np.ndarray = field(init=False, repr=False, compare=False)
    a_inv_t_c: np.ndarray = field(init=False, repr=False, compare=False)
    dc_gain: float = field(init=False, repr=False, compare=False)
    built_by: Optional[Tuple[Callable[..., "LtiGenerator"], tuple]] = field(
        default=None, init=False, repr=False, compare=False)

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
        a, b, c = (np.array(v, dtype=float)
                   for v in (self.a_matrix, self.b_vector, self.c_vector))
        if not is_hurwitz(a):
            raise ValueError("a_matrix must be Hurwitz")
        a_inv_b = np.linalg.solve(a, b)
        self.__setstate__(dict(a_array=a, b_array=b, c_array=c,
                               a_inv_b=a_inv_b,
                               a_inv_t_c=np.linalg.solve(a.T, c),
                               dc_gain=float(-c @ a_inv_b + self.d_scalar)))

    def __setstate__(self, state):
        """Set fields past the frozen guard, the derived arrays read-only;
        pickle calls it too, since below protocol 5 it restores arrays
        writeable."""
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


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


def _finite(**params: float) -> None:
    """Raise a ValueError naming the first of params that is not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def make_first_order(tau: float, k: float) -> LtiGenerator:
    """First-order lag: tau * p_m' = -p_m + k*u."""
    if not tau > 0.0 or not k > 0.0:
        raise ValueError("tau and k must be positive")
    _finite(tau=tau, k=k)
    gen = LtiGenerator(
        a_matrix=((-1.0 / tau,),),
        b_vector=(k / tau,),
        c_vector=(1.0,),
        d_scalar=0.0,
        order=1,
    )
    gen.__setstate__({"built_by": (make_first_order, (tau, k))})
    return gen


def make_second_order(tau_a: float, tau_p: float, k: float) -> LtiGenerator:
    """Turbine-governor cascade of two lags with DC gain ``k``.

    State 1 is the governor valve output, state 2 the delivered power:
    tau_a * x1' = -x1 + k*u,  tau_p * x2' = x1 - x2.
    """
    if not (tau_a > 0.0 and tau_p > 0.0 and k > 0.0):
        raise ValueError("tau_a, tau_p and k must be positive")
    _finite(tau_a=tau_a, tau_p=tau_p, k=k)
    gen = LtiGenerator(
        a_matrix=((-1.0 / tau_a, 0.0), (1.0 / tau_p, -1.0 / tau_p)),
        b_vector=(k / tau_a, 0.0),
        c_vector=(0.0, 1.0),
        d_scalar=0.0,
        order=2,
    )
    gen.__setstate__({"built_by": (make_second_order, (tau_a, tau_p, k))})
    return gen

