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
v = 0: k_f = K k_c and A^T P x_s = -C^T.  The search works on that face
alone, in three steps.  It first checks the face's one diagonal point,
diag(p) with p * x_s = w for w = -A^-T C^T, read off the block's stored
A^-1 B and A^-T C^T with no linear solve.  For the two worked generator
models that point is, to rounding, their analytic diagonal certificate,
whose thresholds on the bus damping are in closed form here.  The lag's
is the block's exact certification boundary.  The cascade's,
second_order_min_damping, is exact only at tau_a = tau_p; for other time
constants the face holds certificates down to the lower Lambda_0 =
K [rho (k_c + k_d)^2 / (4 k_c) - k_d], with rho = (tau_a + tau_p)^2 /
(tau_a^2 + tau_a tau_p + tau_p^2) <= 4/3, which the later steps find.
An order-1 face is that single point, so this check decides an order-1
block: for an order-1 block without feedthrough and with a positive DC
gain, a first-order lag up to a scaling of its state, no certificate
means infeasible by the lag's closed form.  A block of higher order
whose diagonal point fails is checked at a closed-form point P0 of the
face, and if P0 fails too it goes to a log-barrier Newton solve of the
matrix inequality over the face's P.
Every certificate is then checked by the eigenvalues of its full
matrices, from numpy.linalg.eigvalsh on plain arrays, before it is
packed into a SymmetricMatrix.
"""

from __future__ import annotations

import functools
import math
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

#: The box _face_search keeps P in, _EPS_P I <= P <= _R_P I.  The floor
#: keeps P positive definite far above check_secondary_lmi's TOL_PD_PER_DIM
#: test.  The ceiling bounds the feasible set, so every barrier problem has
#: a minimiser, and keeps M's rounding (about 1e-16 times P) well below
#: TOL_PSD.  On the 360 cases of tests/data/pinned_verdicts_*.json the
#: certificates' P had eigenvalues from 0.026 to 3.4e3, and every verdict
#: was the same with a ceiling of 1e4 or 1e8.
_EPS_P = 1e-6
_R_P = 1e6

#: _face_search's first barrier weight.  Measured at commit c0ecb6a, which
#: checked P0 but not the diagonal point before the solve: on 1 500 seeded
#: chain blocks (orders 2 to 6, five bus damping scales) 1e-4 to 10 gave
#: the same verdicts.  1e-4, 1e-3 and 0.1 took 1.4, 1.1 and 2.5 s (python
#: 3.11, numpy 2.4, 2 CPUs), and at 1e-3 the certificates' P had a largest
#: condition number of 8.8e4 against 4.4e6 at 0.1.
_MU_START = 1e-3

#: A centring ends once the Newton decrement is below _CENTRED, where
#: damped Newton converges quadratically and the duality gap mu * dim is
#: as good as exact, or after _NEWTON_STEPS steps, which ends the search
#: undecided.  Measured on tests/test_certify._random_blocks(seed, 60) for
#: seeds 601 to 640, orders 2 to 5 and seven bus dampings from 0.05 to 5
#: (13 440 searches): a cap of 50, when an uncentred point could still be
#: refused by the gap test, refused 49 searches that certify; caps of 500
#: and 5 000 gave the same 3 479 certificates, with 141 and 10 searches
#: ending uncentred, all in their first centring.
_CENTRED = 1e-3
_NEWTON_STEPS = 500


@functools.lru_cache(maxsize=None)
def _upper(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(dim), made once per dimension; read-only, since
    every SymmetricMatrix of that dimension shares them."""
    upper = np.triu_indices(dim)
    for index in upper:
        index.flags.writeable = False
    return upper


@dataclass(frozen=True)
class SymmetricMatrix:
    """Exactly symmetric matrix; only the upper triangle is stored.

    entries holds the upper triangle row-major: (0,0), (0,1), ...,
    (0,dim-1), (1,1), ...  Reads below the diagonal mirror the stored
    value, so entry(i, j) == entry(j, i) holds identically, not just up
    to rounding.
    """

    dim: int
    entries: Tuple[float, ...]

    def __post_init__(self):
        want = self.dim * (self.dim + 1) // 2
        if len(self.entries) != want:
            raise ValueError(f"expected {want} packed entries for dim {self.dim}")

    @staticmethod
    def _index(i: int, j: int, dim: int) -> int:
        if i > j:
            i, j = j, i
        # offset of row i's diagonal in the packed upper triangle
        return i * dim - i * (i - 1) // 2 + (j - i)

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("index out of range")
        return self.entries[self._index(i, j, self.dim)]

    @classmethod
    def from_rows(cls, rows) -> "SymmetricMatrix":
        """Build from a full square array, reading only the upper triangle."""
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("rows must form a square matrix")
        return cls(dim=len(a), entries=tuple(a[_upper(len(a))].tolist()))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "SymmetricMatrix":
        return cls.from_rows(np.diag(np.asarray(values, dtype=float)))

    def to_array(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        upper = _upper(self.dim)
        a[upper] = self.entries
        a.T[upper] = self.entries
        return a


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
        _secondary_array(gen, params, p.to_array(), lambda_hat, kf))


def check_secondary_lmi(gen: LtiGenerator, params: ControllerGains,
                        cert: Certificate, lambda_bus: float) -> bool:
    """Does the certificate witness the secondary (averaging) condition?"""
    if not cert.lambda_hat < lambda_bus:
        raise ValueError("certificate lambda_hat must be below the bus damping")
    return _witnesses(gen, params, cert.p_matrix.to_array(), cert.lambda_hat,
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
    step 3.  The points are checked in this order:

    1. the face's one diagonal point, diag(p) with p * x_s = w, so p = w /
       x_s, when no entry of x_s is zero; for a worked lag it is the
       analytic certificate tau / (K k_c) bit for bit, and for a worked
       cascade diag(tau_a, tau_p) / (K k_c) to rounding;
    2. P0 = w w^T / (w^T x_s) + c (I - x^ x^T), with x^ = x_s / |x_s| and
       c = w^T x_s / |x_s|^2;
    3. the barrier solve _face_search, started at P0.

    The face holds a positive definite P only if w^T x_s > 0, so
    otherwise None comes before step 1.  An order-1 face is its diagonal
    point alone, so the verdict is that check: for an order-1 block
    without feedthrough and with K > 0 None means lambda_hat is below
    first_order_min_damping (to within TOL_PSD).  For a higher order
    whose steps 1 and 2 fail, _face_search minimises U^T M U's largest
    eigenvalue over the face's P with _EPS_P I <= P <= _R_P I, where the
    columns of U span v's complement.  There None means that no such P
    brings it down to TOL_PSD / 2, or that a centring of the barrier
    solve did not converge in _NEWTON_STEPS steps.  The box keeps P clear of check_secondary_lmi's positive
    definiteness test and keeps the problem bounded.  Every certificate
    returned has passed check_secondary_lmi's test on the full matrix, run
    on P as an array: each candidate is exactly symmetric, so it is the
    array its SymmetricMatrix gives back.
    """
    if not lambda_bus > 0.0:
        return None
    lambda_hat = lambda_bus * (1.0 - LAMBDA_SHAVE)
    margin = lambda_bus - lambda_hat
    k_f = gen.dc_gain * params.k_c

    def finish(p: np.ndarray) -> Optional[Certificate]:
        if not _witnesses(gen, params, p, lambda_hat, k_f):
            return None
        return Certificate(p_matrix=SymmetricMatrix.from_rows(p), k_f=k_f,
                           lambda_hat=lambda_hat, margin=margin)

    x_s = -params.k_c * gen.a_inv_b
    w = -gen.a_inv_t_c
    if not w @ x_s > 0.0:
        return None
    # The face's one diagonal point, diag(p) with p * x_s = w.  An order-1
    # face is that point alone (x_s != 0 since w^T x_s > 0).
    if x_s.all():
        cert = finish(np.diag(w / x_s))
        if cert is not None or gen.order == 1:
            return cert
    xx = x_s @ x_s
    p0 = (np.outer(w, w) / (w @ x_s)
          + (w @ x_s) / xx * (np.eye(gen.order) - np.outer(x_s, x_s) / xx))
    if (cert := finish(p0)) is not None:
        return cert
    p = _face_search(gen, params, lambda_hat, x_s, p0)
    return None if p is None else finish(p)


def _complement(x: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the vectors orthogonal to x, as columns."""
    return np.linalg.qr(x[:, None], mode="complete")[0][:, 1:]


def _face_templates(gen: LtiGenerator, params: ControllerGains,
                    lambda_hat: float, x_s: np.ndarray, p0: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """(templates, basis): G as a product, G(z) = (z @ templates).reshape(
    dim, dim) for z = [y, t, 1], and the symmetric N_i with N_i x_s = 0
    that P = p0 + sum y_i N_i spans the face with.  G is the block
    diagonal of t I - U^T M(P) U, P - _EPS_P I and _R_P I - P, where M is
    the secondary matrix at k_f = K k_c and U = _complement(v) for v =
    [1, x_s, 0].  M(P) is affine in P, and its linear part L(N) places
    sym(N A), k_d N B / 2 and k_c B^T N / 2 in M's layout, so y_i's slope
    is -U^T L(N_i) U, N_i and -N_i, t's is I in the top block, and the
    constant is G at P = p0."""
    n = gen.order
    dim = 3 * n + 1
    top, low, high = (slice(0, n + 1), slice(n + 1, 2 * n + 1),
                      slice(2 * n + 1, dim))
    u = _complement(np.concatenate([[1.0], x_s, [0.0]]))
    q = _complement(x_s)
    basis = np.array([np.outer(q[:, i], q[:, j]) + np.outer(q[:, j], q[:, i])
                      for i, j in zip(*_upper(n - 1))])
    size = len(basis)
    na = basis @ gen.a_array
    nb = basis @ gen.b_array
    linear = np.zeros((size, n + 2, n + 2))
    linear[:, 1:n + 1, 1:n + 1] = (na + np.swapaxes(na, 1, 2)) / 2.0
    linear[:, 1:n + 1, 0] = linear[:, 0, 1:n + 1] = params.k_c * nb / 2.0
    linear[:, 1:n + 1, n + 1] = linear[:, n + 1, 1:n + 1] = params.k_d * nb / 2.0
    g = np.zeros((size + 2, dim, dim))
    g[:size, top, top] = -(u.T @ linear @ u)
    g[:size, low, low] = basis
    g[:size, high, high] = -basis
    g[size, top, top] = np.eye(n + 1)
    g[size + 1, top, top] = -u.T @ _secondary_array(
        gen, params, p0, lambda_hat, gen.dc_gain * params.k_c) @ u
    g[size + 1, low, low] = p0 - _EPS_P * np.eye(n)
    g[size + 1, high, high] = _R_P * np.eye(n) - p0
    return g.reshape(size + 2, -1), basis


def _face_search(gen: LtiGenerator, params: ControllerGains,
                 lambda_hat: float, x_s: np.ndarray, p0: np.ndarray
                 ) -> Optional[np.ndarray]:
    """Minimise t subject to U^T M(P) U <= t I and _EPS_P I <= P <= _R_P I
    over the face's P = p0 + sum y_i N_i and t, with U, M and N_i those of
    _face_templates: P as an array once t <= TOL_PSD / 2, else None.
    None too when p0 lies outside the box.

    Barrier method (Boyd and Vandenberghe, Convex Optimization, 11.3):
    damped Newton on t / mu - log det G, with G the block diagonal of
    _face_templates, from p0, with mu cut tenfold after each centring.
    At a centre, t exceeds the least t in the box by at most mu times G's
    dimension (the duality gap).  So once t minus that gap is above
    TOL_PSD / 2, or the gap is below TOL_PSD / 2 with t still above it,
    no point of the box brings U^T M U's largest eigenvalue down to
    TOL_PSD / 2, and the answer is None.  Only a centre bounds the least
    t, so a centring that does not end within _NEWTON_STEPS steps ends
    the search undecided, with None too: the search makes at most
    _NEWTON_STEPS steps for each of its at most nine values of mu.  The
    Newton step is a least-squares solve, since rounding can leave the
    Hessian W W^T singular.
    """
    n = gen.order
    dim = 3 * n + 1
    templates, basis = _face_templates(gen, params, lambda_hat, x_s, p0)
    size = len(basis)
    slopes = templates[:-1].reshape(size + 1, dim, dim)

    def whitened(z: np.ndarray) -> Optional[np.ndarray]:
        """The slopes as L^-1 slope L^-T for G(z) = L L^T, one row each,
        or None where G(z) is not positive definite."""
        try:
            root = np.linalg.inv(np.linalg.cholesky(
                (z @ templates).reshape(dim, dim)))
        except np.linalg.LinAlgError:
            return None
        return (root @ slopes @ root.T).reshape(size + 1, -1)

    t = 1.0 - np.linalg.eigvalsh(templates[-1].reshape(dim, dim)[:n + 1, :n + 1])[0]
    z = np.concatenate([np.zeros(size), [t, 1.0]])
    w = whitened(z)
    if w is None:
        return None
    mu = _MU_START
    while True:
        for _ in range(_NEWTON_STEPS):
            # The barrier's gradient is -tr(W_k) and its Hessian W W^T; the
            # objective t adds 1/mu to the last.
            grad = -w[:, ::dim + 1].sum(axis=1)
            grad[-1] += 1.0 / mu
            step = np.linalg.lstsq(w @ w.T, -grad, rcond=None)[0]
            decrement = math.sqrt(max(-(grad @ step), 0.0))
            # The damped step stays inside G's domain in exact arithmetic;
            # it is halved where rounding takes it out.
            step = np.append(step, 0.0) / (1.0 + decrement)
            while (w_next := whitened(z + step)) is None:
                step /= 2.0
            z, w = z + step, w_next
            if z[-2] <= TOL_PSD / 2.0:
                # the upper triangle mirrored, as its SymmetricMatrix is
                p = p0 + np.tensordot(z[:size], basis, axes=1)
                lower = np.tril_indices(n, -1)
                p[lower] = p.T[lower]
                return p
            if decrement < _CENTRED:
                break
        else:
            return None
        if z[-2] - mu * dim > TOL_PSD / 2.0 or mu * dim < TOL_PSD / 2.0:
            return None
        mu /= 10.0
