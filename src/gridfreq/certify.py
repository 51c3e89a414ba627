"""Stability certificates for the closed loop.

Two nested matrix conditions stand behind a certificate.  The primary
condition is a passivity certificate for a generation block under droop
feedback: a positive definite P and a damping allowance lambda_hat <
Lambda such that an (n+1)-dimensional symmetric matrix is negative
semidefinite.  The secondary condition extends that matrix by one
row/column carrying the command-coupling gains; it is what the averaging
controller needs, and the one checked here.  The primary matrix is the
trailing principal submatrix of the secondary one, so a secondary pass
implies a primary pass with the same (P, k_d, lambda_hat).

The secondary condition fixes part of its own answer.  With x_s = -A^-1
B k_c, the block's steady state under a unit command, and v = [1, x_s,
0], v^T M v = 0 for every P and k_f, so a negative semidefinite M has M
v = 0: k_f = K k_c and A^T P x_s = -C^T.  That k_f is a gain only when
the DC gain K is positive, so a block with K <= 0 is refused.  The
search works on that face alone, in two steps.  It first checks the
face's one diagonal point, diag(p) with p * x_s = w for w = -A^-T C^T,
read off the block's stored A^-1 B and A^-T C^T with no linear solve.
For the two worked generator models that point is, to rounding, their
analytic diagonal certificate, whose thresholds on the bus damping are
in closed form here.  The lag's is the block's exact certification
boundary.  The cascade's, second_order_min_damping, is exact only at
tau_a = tau_p; for other time constants the face holds certificates down
to the lower Lambda_0 = K [rho (k_c + k_d)^2 / (4 k_c) - k_d], with rho
= (tau_a + tau_p)^2 / (tau_a^2 + tau_a tau_p + tau_p^2) <= 4/3, which
the second step finds.  An order-1 face is that single point, so this
check decides an order-1 block: for an order-1 block without feedthrough
and with a positive DC gain, a first-order lag up to a scaling of its
state, no certificate means infeasible by the lag's closed form.  A
block of higher order whose diagonal point fails is checked at the
face's solutions of a Riccati equation, built from the eigenvectors of
one 2n x 2n Hamiltonian (face_hamiltonian): the matrix inequality's
closed form by the KYP lemma (Rantzer, Syst. Control Lett. 28(1), 1996),
with no iterative solver.  Every certificate is then checked by the
eigenvalues of its full matrices, from numpy.linalg.eigvalsh on plain
arrays, and its P is then held as one read-only array, a SymmetricMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .control import ControllerGains
from .generation import LtiGenerator

#: "<= 0" for the certificate matrices means max eigenvalue <= TOL_PSD.
TOL_PSD = 1e-9

#: "> 0" for P means min eigenvalue > TOL_PD_PER_DIM * dim.
TOL_PD_PER_DIM = 1e-12

#: Default relative shave applied to the bus damping when picking
#: lambda_hat inside the search: lambda_hat = Lambda * (1 - LAMBDA_SHAVE).
LAMBDA_SHAVE = 1e-3


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Exactly symmetric matrix, held as one read-only float array.

    The array is mirrored from the upper triangle of the rows it is made
    from, so entry(i, j) == entry(j, i) holds identically, not just up to
    rounding, and the lower triangle of those rows is ignored.  Matrices
    compare and hash by value.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("rows must form a square matrix")
        # row by row, which for a block's few states is cheaper than a mask
        for i in range(1, len(a)):
            a[i, :i] = a[:i, i]
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    def __reduce__(self):
        # made again through __post_init__, so pickle keeps it read-only
        return type(self), (self.array,)

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.array, other.array)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.array + 0.0).tobytes())

    def entry(self, i: int, j: int) -> float:
        # numpy raises IndexError past n - 1 but counts back from n below 0
        if min(i, j) < 0:
            raise IndexError("index out of range")
        return float(self.array[i, j])

    @classmethod
    def from_rows(cls, rows) -> "SymmetricMatrix":
        """Build from a full square array, reading only the upper triangle."""
        return cls(rows)

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def to_array(self) -> np.ndarray:
        """A writable copy of the array."""
        return self.array.copy()


@dataclass(frozen=True)
class Certificate:
    """Witness for the secondary condition at one generator bus.

    p_matrix is the positive definite block, k_f the certified frequency
    feedback gain, lambda_hat the damping allowance consumed by the
    matrix, and margin the strict slack Lambda - lambda_hat kept against
    the actual bus damping.
    """

    p_matrix: SymmetricMatrix
    k_f: float
    lambda_hat: float
    margin: float = 0.0


def _secondary_array(gen: LtiGenerator, params: ControllerGains,
                     p: np.ndarray, lambda_hat: float, k_f: float) -> np.ndarray:
    """secondary_lmi_matrix as an array, for a symmetric array P."""
    n = gen.order
    if p.shape != (n, n):
        raise ValueError(f"P has dim {len(p)}, generator has order {n}")
    k_gain = gen.dc_gain
    d = gen.d_scalar
    pa = p @ gen.a_array
    m = np.empty((n + 2, n + 2))
    m[0, 0] = -k_gain * params.k_c + d * params.k_c
    m[0, 1:n + 1] = m[1:n + 1, 0] = (
        params.k_c * (gen.b_array @ p) + gen.c_array) / 2.0
    m[0, n + 1] = m[n + 1, 0] = (
        k_f - params.k_d * k_gain + d * params.k_d - d * params.k_c) / 2.0
    m[1:n + 1, 1:n + 1] = (pa + pa.T) / 2.0
    m[1:n + 1, n + 1] = m[n + 1, 1:n + 1] = (
        params.k_d * (p @ gen.b_array) - gen.c_array) / 2.0
    m[n + 1, n + 1] = -lambda_hat - d * params.k_d
    return m


def secondary_lmi_matrix(gen: LtiGenerator, params: ControllerGains,
                         p: SymmetricMatrix, lambda_hat: float,
                         k_f: Optional[float] = None) -> SymmetricMatrix:
    """The (n+2)-dimensional matrix for the averaging controller.

    Row/column 0 carries the command coupling: corner -K k_c + D k_c and
    border r = [(k_c B^T P + C)/2, (k_f - k_d K + D k_d - D k_c)/2].  The
    trailing (n+1) block is the primary (droop) matrix: leading n x n
    block sym(P A), coupling column (k_d P B - C^T)/2 and corner
    -lambda_hat - D k_d.  ``k_f`` overrides params.k_f when given; a
    certificate's k_f is always K k_c, which may differ from params.k_f.
    """
    kf = params.k_f if k_f is None else k_f
    return SymmetricMatrix.from_rows(
        _secondary_array(gen, params, p.array, lambda_hat, kf))


def check_secondary_lmi(gen: LtiGenerator, params: ControllerGains,
                        cert: Certificate, lambda_bus: float) -> bool:
    """Does the certificate witness the secondary (averaging) condition?"""
    if not cert.lambda_hat < lambda_bus:
        raise ValueError("certificate lambda_hat must be below the bus damping")
    return _witnesses(gen, params, cert.p_matrix.array, cert.lambda_hat,
                      cert.k_f)


def _witnesses(gen: LtiGenerator, params: ControllerGains, p: np.ndarray,
               lambda_hat: float, k_f: float) -> bool:
    """check_secondary_lmi on a symmetric array P, with no lambda_hat test."""
    if not np.linalg.eigvalsh(p)[0] > TOL_PD_PER_DIM * len(p):
        return False
    m = _secondary_array(gen, params, p, lambda_hat, k_f)
    return np.linalg.eigvalsh(m)[-1] <= TOL_PSD


def second_order_min_damping(k_gain: float, k_c: float, k_d: float) -> float:
    """Damping threshold of the turbine-governor model's analytic
    certificate, the face's diagonal point.

    Above K/(3 k_c) * (k_c^2 - k_c k_d + k_d^2) the analytic certificate
    passes the secondary condition for every pair of time constants; below
    it, no choice of lambda_hat saves that certificate.  Minimized over
    k_d at k_d = k_c/2, where it equals K * k_c / 4.  It is the block's
    exact certification boundary only when tau_a = tau_p: for other time
    constants other points of the face certify down to Lambda_0 =
    K [rho (k_c + k_d)^2 / (4 k_c) - k_d], rho = (tau_a + tau_p)^2 /
    (tau_a^2 + tau_a tau_p + tau_p^2) < 4/3, which lies below it.
    """
    if not (k_gain > 0.0 and k_c > 0.0 and k_d > 0.0):
        raise ValueError("gains must be strictly positive")
    return k_gain / (3.0 * k_c) * (k_c * k_c - k_c * k_d + k_d * k_d)


def first_order_min_damping(k_gain: float, k_c: float, k_d: float) -> float:
    """Exact damping threshold for the first-order lag model.

    The first-order secondary matrix is feasible only at the single point
    P = tau/(K k_c), k_f = K k_c, where it needs
    Lambda >= K (k_c - k_d)^2 / (4 k_c).  Zero when k_c = k_d.
    """
    if not (k_gain > 0.0 and k_c > 0.0 and k_d > 0.0):
        raise ValueError("gains must be strictly positive")
    return k_gain * (k_c - k_d) ** 2 / (4.0 * k_c)


def first_order_shortfall(gen: LtiGenerator, params: ControllerGains,
                          lambda_bus: float) -> Optional[Tuple[float, float]]:
    """(threshold, lambda_hat) when gen is an order-1 block without
    feedthrough and with a positive DC gain K whose closed-form threshold
    lies above the lambda_hat that search_certificate uses at this bus
    damping, else None.  Such a block is a first-order lag up to a scaling
    of its state, which scales P alone, so first_order_min_damping(K, k_c,
    k_d) is its exact threshold and this is why the search finds no
    certificate for it."""
    if gen.order != 1 or gen.d_scalar != 0.0 or not gen.dc_gain > 0.0:
        return None
    threshold = first_order_min_damping(gen.dc_gain, params.k_c, params.k_d)
    lambda_hat = lambda_bus * (1.0 - LAMBDA_SHAVE)
    return (threshold, lambda_hat) if threshold > lambda_hat else None


def search_certificate(gen: LtiGenerator, params: ControllerGains,
                       lambda_bus: float) -> Optional[Certificate]:
    """Deterministic search for a certificate at lambda_hat = Lambda (1 -
    LAMBDA_SHAVE), on the face of the secondary condition.

    With x_s = -A^-1 B k_c, the block's steady state under a unit
    command, and v = [1, x_s, 0], v^T M v = 0 for every P and k_f, so M
    <= 0 forces M v = 0: k_f = K k_c and A^T P x_s = -C^T, that is P x_s
    = w with w = -A^-T C^T.  Every certificate has that k_f, and its P is
    sought on that face (facial reduction; Borwein and Wolkowicz, J.
    Austral. Math. Soc. A 30(3), 1981).  x_s and w are read off the
    block's stored A^-1 B and A^-T C^T, so no linear solve comes before
    step 2.  The points are checked in this order:

    1. the face's one diagonal point, diag(p) with p * x_s = w, so p = w /
       x_s, when no entry of x_s is zero; for a worked lag it is the
       analytic certificate tau / (K k_c) bit for bit, and for a worked
       cascade diag(tau_a, tau_p) / (K k_c) to rounding;
    2. the face's solutions of the Riccati equation P F + F^T P + P G P +
       Q + 2 eps Pi = 0, for eps = 1, 0.1, ..., 1e-9 and then 0, where
       [[F, G], [-Q, -F^T]] is face_hamiltonian's and Pi = I - x^ x^T
       for x^ = x_s / |x_s|.  The perturbed Hamiltonian keeps [x_s; w]
       in its kernel, since Pi x_s = 0; its two eigenvalues of least
       modulus, that zero pair, are dropped, and P = sym(X2 X1^-1) for
       [X1; X2] = [x_s; w] beside a real basis of the n - 1 eigenvectors
       with Re lambda < 0.  The first such P that passes is returned.
       eps > 0 leaves the Schur complement of M at -eps Pi, a margin off
       the face's direction; eps = 0 is the equation's own stabilising
       solution.

    The face holds a positive definite P only if w^T x_s > 0, and its
    k_f is a gain, as ControllerGains requires, only if K > 0, so
    otherwise None comes before step 1.  An order-1 face is its diagonal
    point alone, so the verdict is that check: for an order-1 block
    without feedthrough and with K > 0 None means lambda_hat is below
    first_order_min_damping (to within TOL_PSD).  For a higher order,
    step 2 gives None at once when M's (xi, omega) block is not negative
    definite, which no P changes; an eigendecomposition or solve that
    fails, or a P that is not finite, skips that eps, so no exception
    escapes.  Every certificate returned has passed check_secondary_lmi's
    test on the full matrix, run on P as an array: each candidate is
    exactly symmetric, so its SymmetricMatrix holds the same values, as
    one read-only array.
    """
    if not lambda_bus > 0.0:
        return None
    lambda_hat = lambda_bus * (1.0 - LAMBDA_SHAVE)
    margin = lambda_bus - lambda_hat
    k_f = gen.dc_gain * params.k_c

    def finish(p: np.ndarray) -> Optional[Certificate]:
        if not _witnesses(gen, params, p, lambda_hat, k_f):
            return None
        return Certificate(SymmetricMatrix(p), k_f, lambda_hat, margin)

    x_s = -params.k_c * gen.a_inv_b
    w = -gen.a_inv_t_c
    if not (gen.dc_gain > 0.0 and w @ x_s > 0.0):
        return None
    # The face's one diagonal point, diag(p) with p * x_s = w.  An order-1
    # face is that point alone (x_s != 0 since w^T x_s > 0).
    if x_s.all():
        cert = finish(np.diag(w / x_s))
        if cert is not None or gen.order == 1:
            return cert
    h = face_hamiltonian(gen, params, lambda_hat)
    if h is None:
        return None
    n = gen.order
    pi = np.eye(n) - np.outer(x_s, x_s) / (x_s @ x_s)
    for eps in [10.0 ** -k for k in range(10)] + [0.0]:
        h_eps = h.copy()
        h_eps[n:, :n] -= 2.0 * eps * pi
        try:
            lam, vec = np.linalg.eig(h_eps)
            # the face's zero pair dropped, then beside [x_s; w] a real
            # basis of the stable eigenvectors: each real one, and the real
            # and imaginary parts of one of each conjugate pair
            keep = np.argsort(np.abs(lam))[2:]
            keep = keep[lam[keep].real < 0.0]
            x = np.column_stack([np.concatenate([x_s, w]),
                                 vec[:, keep[lam[keep].imag >= 0.0]].real,
                                 vec[:, keep[lam[keep].imag > 0.0]].imag])
            # P^T = X1^-T X2^T; eigenvalues on the imaginary axis leave
            # X1 not square, and the solve raises
            p = np.linalg.solve(x[:n].T, x[n:].T)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(p).all() and (cert := finish((p + p.T) / 2.0)):
            return cert
    return None


def face_hamiltonian(gen: LtiGenerator, params: ControllerGains,
                     lambda_hat: float) -> Optional[np.ndarray]:
    """The 2n x 2n Hamiltonian [[F, G], [-Q, -F^T]] of the secondary
    condition at k_f = K k_c, or None unless M's (xi, omega) block R is
    negative definite.

    R does not depend on P.  With N, the x rows of M at P = 0 in R's two
    columns, and R < 0, M(P) <= 0 is the Schur complement S(P) = sym(P A)
    + (N + P B~ / 2) W (N + P B~ / 2)^T <= 0, for B~ = B [k_c, k_d] and W
    = (-R)^-1; and 2 S(P) = P F + F^T P + P G P + Q with F = A + B~ W
    N^T, G = B~ W B~^T / 2 and Q = 2 N W N^T.  A solution of that Riccati
    equation is an invariant subspace [I; P] of the Hamiltonian (Willems,
    IEEE TAC 16(6), 1971); on the face, [x_s; w] lies in its kernel.
    """
    n = gen.order
    m = _secondary_array(gen, params, np.zeros((n, n)), lambda_hat,
                         gen.dc_gain * params.k_c)
    ends = [0, n + 1]
    r = m[np.ix_(ends, ends)]
    if not (r[0, 0] < 0.0 and np.linalg.det(r) > 0.0):
        return None
    n_rows = m[1:n + 1, ends]
    b_gain = np.outer(gen.b_array, [params.k_c, params.k_d])
    w = np.linalg.inv(-r)
    f = gen.a_array + b_gain @ w @ n_rows.T
    return np.block([[f, b_gain @ w @ b_gain.T / 2.0],
                     [-2.0 * n_rows @ w @ n_rows.T, -f.T]])
