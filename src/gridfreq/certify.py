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

For the two worked generator models there are exact diagonal certificates
with closed-form feasibility thresholds on the bus damping; for anything
else a deterministic diagonal search runs.  A first-order lag is feasible
only at its analytic point, so for a lag the search ends there, and no
certificate means infeasible by the closed form.  Eigenvalues of the
symmetric matrices come from one helper, _eigvalsh, which calls the LAPACK
gufunc behind numpy.linalg.eigvalsh on the caller's array without the
wrapper's per-call checks, so every eigenvalue, and so every certificate,
is bitwise what numpy.linalg.eigvalsh gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
# The gufunc that numpy.linalg.eigvalsh(a) (UPLO="L") calls, and has since
# numpy 1.8; its wrapper's argument checks and errstate block cost more
# than the LAPACK call on the search's 3x3 to 8x8 matrices.
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo

from .control import ControllerGains, default_kf
from .generation import LtiGenerator, first_order_params, second_order_params

#: "<= 0" for the certificate matrices means max eigenvalue <= TOL_PSD.
TOL_PSD = 1e-9

#: "> 0" for P means min eigenvalue > TOL_PD_PER_DIM * dim.
TOL_PD_PER_DIM = 1e-12

#: Default relative shave applied to the bus damping when picking
#: lambda_hat inside the search: lambda_hat = Lambda * (1 - LAMBDA_SHAVE).
LAMBDA_SHAVE = 1e-3


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
    def from_upper(cls, dim: int, upper: Sequence[float]) -> "SymmetricMatrix":
        return cls(dim=dim, entries=tuple(float(v) for v in upper))

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

    def to_lists(self) -> List[List[float]]:
        return self.to_array().tolist()

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


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh(a) for a float64 symmetric matrix or a stack
    of them: the same LAPACK call on the same lower triangle, so the same
    floats, without the wrapper.

    A non-finite eigenvalue raises LinAlgError, as a LAPACK failure does in
    eigvalsh.  The gufunc also raises floating-point flags (invalid on a
    LAPACK failure, divide or overflow on some non-finite input) that
    numpy would report as RuntimeWarnings and eigvalsh suppresses, so
    callers hold np.errstate(all="ignore"): once per search on the hot
    path.
    """
    w = _eigvalsh_lo(a)
    # A sum of squares: NaN or inf exactly when some eigenvalue is, unless
    # it overflows, which the second test tells apart.
    if not math.isfinite(np.vdot(w, w)) and not np.isfinite(w).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def sym_eigenvalues(m: SymmetricMatrix) -> List[float]:
    """All eigenvalues, ascending."""
    with np.errstate(all="ignore"):
        return _eigvalsh(m.to_array()).tolist()


def is_positive_definite(m: SymmetricMatrix) -> bool:
    return sym_eigenvalues(m)[0] > TOL_PD_PER_DIM * m.dim


def _primary_array(gen: LtiGenerator, k_d: float, p: np.ndarray,
                   lambda_hat: float) -> np.ndarray:
    """The (n+1)-dimensional passivity matrix for droop feedback.

    Layout: leading n x n block sym(P A), coupling column
    (k_d P B - C^T)/2, corner -lambda_hat - D k_d.  Negative
    semidefiniteness of this matrix (with P positive definite and
    lambda_hat < Lambda) is the primary-control stability condition.
    """
    n = gen.order
    if p.shape != (n, n):
        raise ValueError(f"P has dim {len(p)}, generator has order {n}")
    b = np.array(gen.b_vector, dtype=float)
    c = np.array(gen.c_vector, dtype=float)
    pa = p @ np.array(gen.a_matrix, dtype=float)
    m = np.empty((n + 1, n + 1))
    m[:n, :n] = (pa + pa.T) / 2.0
    m[:n, n] = m[n, :n] = (k_d * (p @ b) - c) / 2.0
    m[n, n] = -lambda_hat - gen.d_scalar * k_d
    return m


def _secondary_array(gen: LtiGenerator, params: ControllerGains,
                     p: np.ndarray, lambda_hat: float, k_f: float) -> np.ndarray:
    n = gen.order
    k_gain = gen.dc_gain
    d = gen.d_scalar
    m = np.empty((n + 2, n + 2))
    m[1:, 1:] = _primary_array(gen, params.k_d, p, lambda_hat)
    m[0, 0] = -k_gain * params.k_c + d * params.k_c
    m[0, 1:n + 1] = m[1:n + 1, 0] = (
        params.k_c * (np.array(gen.b_vector, dtype=float) @ p)
        + np.array(gen.c_vector, dtype=float)) / 2.0
    m[0, n + 1] = m[n + 1, 0] = (
        k_f - params.k_d * k_gain + d * params.k_d - d * params.k_c) / 2.0
    return m


def secondary_lmi_matrix(gen: LtiGenerator, params: ControllerGains,
                         p: SymmetricMatrix, lambda_hat: float,
                         k_f: Optional[float] = None) -> SymmetricMatrix:
    """The (n+2)-dimensional matrix for the averaging controller.

    Row/column 0 carries the command coupling: corner -K k_c + D k_c and
    border r = [(k_c B^T P + C)/2, (k_f - k_d K + D k_d - D k_c)/2].  The
    trailing (n+1) block is exactly the primary matrix (same floats, same
    construction).  ``k_f`` overrides params.k_f when given, since the
    certifier treats it as a free variable.
    """
    kf = params.k_f if k_f is None else k_f
    return SymmetricMatrix.from_rows(
        _secondary_array(gen, params, p.to_array(), lambda_hat, kf))


def _diagonal_secondary(gen: LtiGenerator, params: ControllerGains,
                        lambda_hat: float):
    """The secondary matrices for diagonal P, as one product.

    With P = diag(d) the matrix is affine in (d, k_f):
    M = M0 + sum_i d_i T_i + k_f E.  The templates are read off the
    assembled matrix at P = 0 and P = e_i e_i^T, k_f = 0 and 1.  Returns
    a function from a (candidates, n+2) array of rows [d_1..d_n, k_f, 1]
    to the (candidates, n+2, n+2) stack of matrices; its ``templates``
    attribute is the (n+2, (n+2)**2) array of the product, so one row's
    matrix can be written into a buffer of the caller's with
    row.dot(templates, out).
    """
    n = gen.order
    m0 = _secondary_array(gen, params, np.zeros((n, n)), lambda_hat, 0.0)
    probes = [_secondary_array(gen, params, np.diag(e), lambda_hat, 0.0)
              for e in np.eye(n)]
    probes.append(_secondary_array(gen, params, np.zeros((n, n)),
                                   lambda_hat, 1.0))
    templates = np.stack([m - m0 for m in probes] + [m0]).reshape(n + 2, -1)

    def matrices(rows: np.ndarray) -> np.ndarray:
        return (rows @ templates).reshape(-1, n + 2, n + 2)
    matrices.templates = templates
    return matrices


def check_secondary_lmi(gen: LtiGenerator, params: ControllerGains,
                        cert: Certificate, lambda_bus: float) -> bool:
    """Does the certificate witness the secondary (averaging) condition?"""
    if not cert.lambda_hat < lambda_bus:
        raise ValueError("certificate lambda_hat must be below the bus damping")
    if not is_positive_definite(cert.p_matrix):
        return False
    m = secondary_lmi_matrix(gen, params, cert.p_matrix, cert.lambda_hat,
                             k_f=cert.k_f)
    return sym_eigenvalues(m)[-1] <= TOL_PSD


def second_order_min_damping(k_gain: float, k_c: float, k_d: float) -> float:
    """Exact damping threshold for the turbine-governor model.

    Above K/(3 k_c) * (k_c^2 - k_c k_d + k_d^2) the analytic certificate
    passes the secondary condition for every pair of time constants; below
    it, no choice of lambda_hat saves that certificate.  Minimized over
    k_d at k_d = k_c/2, where it equals K * k_c / 4.
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
    """(threshold, lambda_hat) when gen is a first-order lag whose
    closed-form threshold lies above the lambda_hat that search_certificate
    uses at this bus damping, else None.  This is why the search finds no
    certificate for such a lag."""
    if first_order_params(gen) is None:
        return None
    threshold = first_order_min_damping(gen.dc_gain, params.k_c, params.k_d)
    lambda_hat = lambda_bus * (1.0 - LAMBDA_SHAVE)
    return (threshold, lambda_hat) if threshold > lambda_hat else None


def _golden_min(f, lo: float, hi: float,
                iters: int = 32) -> Tuple[float, float]:
    """Golden-section minimizer; returns the best argument found and its
    value."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def search_certificate(gen: LtiGenerator, params: ControllerGains,
                       lambda_bus: float) -> Optional[Certificate]:
    """Deterministic search for a diagonal-P certificate.

    Tries the exact analytic certificates first when the block matches one
    of the worked model structures.  A first-order lag is certifiable only
    at its analytic point, so for a lag None means the condition is
    infeasible: lambda_hat is below first_order_min_damping (to within
    TOL_PSD).  Any other block then goes through a log-spaced grid over
    diagonal P with a handful of k_f candidates, then cyclic coordinate
    descent on (log diag P, k_f) minimizing the max eigenvalue; there None
    is a statement about this search family, not infeasibility of the
    condition.  Each descent step writes its candidate matrix into one
    preallocated buffer (row.dot with _diagonal_secondary's templates) and
    takes its eigenvalues from _eigvalsh, the LAPACK gufunc behind
    numpy.linalg.eigvalsh, so the certificates are bitwise those of
    numpy.linalg.eigvalsh on freshly built matrices.
    """
    if not lambda_bus > 0.0:
        return None
    lambda_hat = lambda_bus * (1.0 - LAMBDA_SHAVE)
    margin = lambda_bus - lambda_hat
    k_gain = gen.dc_gain
    n = gen.order

    def finish(diag: Sequence[float], k_f: float) -> Optional[Certificate]:
        cert = Certificate(p_matrix=SymmetricMatrix.diagonal(diag), k_f=k_f,
                           lambda_hat=lambda_hat, margin=margin)
        if check_secondary_lmi(gen, params, cert, lambda_bus):
            return cert
        return None

    kf_candidates = []
    for kf in (params.k_f, k_gain * params.k_c,
               default_kf(k_gain, params.k_c, params.k_d)):
        if kf > 0.0 and kf not in kf_candidates:
            kf_candidates.append(kf)

    # Exact analytic candidates for the worked model structures.
    analytic_diags: List[Tuple[float, ...]] = []
    fo = first_order_params(gen)
    if fo is not None:
        tau, _k = fo
        analytic_diags.append((tau / (k_gain * params.k_c),))
    so = second_order_params(gen)
    if so is not None:
        tau_a, tau_p, _k = so
        scale = 1.0 / (k_gain * params.k_c)
        analytic_diags.append((tau_a * scale, tau_p * scale))
    for diag in analytic_diags:
        for kf in kf_candidates:
            cert = finish(diag, kf)
            if cert is not None:
                return cert
    if fo is not None:
        # The analytic point is the lag's only feasible one; a search
        # beyond it could only find tolerance artifacts.
        return None

    # Coarse grid over diagonal P, with extra k_f points around the default.
    base_kf = default_kf(k_gain, params.k_c, params.k_d)
    for mult in (0.25, 0.5, 2.0, 4.0):
        kf = base_kf * mult
        if kf not in kf_candidates:
            kf_candidates.append(kf)
    grid = [10.0 ** (-3.0 + 0.5 * i) for i in range(13)]  # 1e-3 .. 1e3
    if n == 2:
        diag_candidates = [(g1, g2) for g1 in grid for g2 in grid]
    else:
        diag_candidates = [(g,) * n for g in grid]

    matrices = _diagonal_secondary(gen, params, lambda_hat)
    # The floating-point flags of _eigvalsh's gufunc, quieted once per
    # search, not at every evaluation.  This also quiets the grid's matmul,
    # whose overflow or invalid result would make _eigvalsh raise anyway.
    with np.errstate(all="ignore"):
        point = _diagonal_search(matrices, analytic_diags + diag_candidates,
                                 kf_candidates)
    return None if point is None else finish(*point)


def _diagonal_search(matrices, diags: Sequence[Tuple[float, ...]],
                     kf_candidates: Sequence[float]
                     ) -> Optional[Tuple[List[float], float]]:
    """The grid, then the descent, over (diag P, k_f) for the matrices of
    _diagonal_secondary: the first point whose max eigenvalue is at most
    TOL_PSD, or None.  Callers hold np.errstate(all="ignore")."""
    n = len(diags[0])

    # The whole grid in one batch: the first passing candidate in loop
    # order wins, else the descent starts from the first minimum.
    pairs = [(diag, kf) for diag in diags for kf in kf_candidates]
    rows = np.array([[*diag, kf, 1.0] for diag, kf in pairs])
    vals = _eigvalsh(matrices(rows))[:, -1]
    passing = np.flatnonzero(vals <= TOL_PSD)
    if len(passing):
        return pairs[passing[0]]

    # Coordinate descent from the best grid point.  Every evaluation
    # rewrites one entry of the row [diag P, k_f, 1] in place and writes
    # its matrix into one buffer.
    best = int(np.argmin(vals))
    diag, kf = pairs[best]
    logd = [math.log10(v) for v in diag]
    val = float(vals[best])
    row = np.empty(n + 2)
    row[:n] = [10.0 ** v for v in logd]
    row[n:] = kf, 1.0
    flat = np.empty((n + 2) ** 2)
    candidate = flat.reshape(n + 2, n + 2)

    def top_eig(j: int, x: float) -> float:
        row[j] = x
        row.dot(matrices.templates, flat)
        return float(_eigvalsh(candidate)[-1])

    for _ in range(200):
        improved = False
        for i in range(n):
            xi, vi = _golden_min(lambda x, i=i: top_eig(i, 10.0 ** x),
                                 logd[i] - 1.0, logd[i] + 1.0)
            if vi < val - 1e-15:
                logd[i] = xi
                val = vi
                improved = True
            row[i] = 10.0 ** logd[i]

        xk, vk = _golden_min(lambda x: top_eig(n, x), kf * 0.25, kf * 4.0)
        if vk < val - 1e-15:
            kf = xk
            val = vk
            improved = True
        row[n] = kf
        if val <= TOL_PSD:
            return [10.0 ** v for v in logd], kf
        if not improved:
            break
    return None
