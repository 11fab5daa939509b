"""Dense factorization kernels: thin SVD, pivoted and strong rank-revealing
QR, spectral norms, canonical angles, and the row-streamed per-column
residuals every error sweep, bound and residual check is built on.

Everything operates on plain float64 ndarrays; canonical_angles also takes
an OrthonormalBasis, whose columns it does not check again. The thin SVD
is a Householder QR (LAPACK ``geqrf``) followed by numpy's SVD of the
small R factor, and the column-pivoted QR is LAPACK ``geqp3``,
whose greedy largest-residual pivot rule is the documented contract. The
strong rank-revealing swap refinement on top of it is written out here.
selection.pqr_select takes its points from the ``geqp3`` pivots and
selection.srrqr_select from ``geqp3`` plus those swaps; the greedy DEIM
selector is LAPACK ``getrf`` and lives in selection.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import get_lapack_funcs

from ._util import SWEEP_BLOCK, as_matrix, check_at_least, orthonormal_basis
from .exceptions import ConvergenceError, RankDeficiencyError


@dataclass(frozen=True)
class ThinSVD:
    """Thin singular value decomposition ``A = U @ diag(s) @ V.T``.

    U is m-by-r and V is n-by-r for the r kept singular vectors; all
    k = min(m, n) singular values are kept, sorted nonincreasing.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class SRRQRFactors:
    """Strong rank-revealing QR of ``M[:, perm]``.

    ``Q @ [[R11, R12]]`` (padded with the trailing rows of R) reconstructs
    the permuted matrix; R11 is rank-by-rank upper triangular with strictly
    positive diagonal, and every entry of ``inv(R11) @ R12`` is bounded by
    eta in absolute value.
    """

    Q: np.ndarray
    R11: np.ndarray
    R12: np.ndarray
    perm: np.ndarray
    eta: float


@dataclass(frozen=True)
class CanonicalAngles:
    """Principal angles between two equally sized subspaces.

    cosines are sorted nonincreasing; sin_theta_max is the sine of the
    largest angle.
    """

    cosines: np.ndarray
    sin_theta_max: float


def thin_svd(A, rank=None):
    """Thin SVD of a dense matrix by the R-SVD: a Householder QR of A, the
    SVD of the small triangular factor, and Q applied to the kept columns.

    A = Q R is one LAPACK ``geqrf`` call; R (k-by-n with k = min(m, n)) is
    decomposed as U_R diag(s) V'; U = Q [U_R[:, :rank]; 0] is one ``ormqr``
    call, so only the rank kept left singular vectors are ever formed
    (Chan, ACM TOMS 1982). A itself is never handed to an SVD. Both LAPACK
    calls run with their queried optimal (blocked) workspace.

    Parameters
    ----------
    A : ndarray, shape (m, n)
        Matrix with finite entries.
    rank : int, optional
        Singular vectors to keep, 1 <= rank <= min(m, n); None keeps all
        k = min(m, n).

    Returns
    -------
    ThinSVD
        U (m-by-rank) and V (n-by-rank), and all k singular values,
        nonincreasing, so sigma_(rank+1) is there too.

    Raises
    ------
    ConvergenceError
        If LAPACK reports a failure or the SVD of R does not converge. The
        failure is explicit; no silently truncated factorization is
        returned.
    """
    A = np.array(as_matrix(A, "A"), order="F")  # owned, so geqrf may overwrite it
    m, n = A.shape
    k = min(m, n)
    if k == 0:  # LAPACK rejects a zero leading dimension
        raise ValueError(f"A has no singular values ({m} x {n})")
    r = k if rank is None else int(rank)
    if not 1 <= r <= k:
        raise ValueError(f"rank must be in [1, {k}], got {rank}")
    geqrf, geqrf_lwork, ormqr = get_lapack_funcs(("geqrf", "geqrf_lwork", "ormqr"), (A,))
    # the default workspace of the scipy wrapper runs geqrf unblocked
    work, info = geqrf_lwork(m, n)
    if info != 0:
        raise ConvergenceError(f"geqrf workspace query failed on {A.shape} input (info={info})")
    qr, tau, _, info = geqrf(A, lwork=int(work), overwrite_a=True)
    if info != 0:
        raise ConvergenceError(f"geqrf failed on {A.shape} input (info={info})")
    try:
        Ur, s, Vt = np.linalg.svd(np.triu(qr[:k]), full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"SVD of the R factor did not converge on {A.shape} input: {err}") from err
    C = np.zeros((m, r), order="F")
    C[:k] = Ur[:, :r]
    reflectors = qr[:, :k]
    _, work, info = ormqr("L", "N", reflectors, tau, C, -1)
    if info != 0:
        raise ConvergenceError(f"ormqr workspace query failed on {A.shape} input (info={info})")
    U, _, info = ormqr("L", "N", reflectors, tau, C, int(work[0]), overwrite_c=True)
    if info != 0:
        raise ConvergenceError(f"ormqr failed on {A.shape} input (info={info})")
    return ThinSVD(U=U, singular_values=s, V=Vt[:r].T)


def pivoted_qr(M):
    """Column-pivoted Householder QR, one LAPACK ``geqp3`` call.

    At each step the pivot is the trailing column of largest residual norm,
    first (lowest) position on exact ties, which makes the pivot sequence
    deterministic. The residual norms are downdated from step to step
    (and recomputed where the downdate loses accuracy), so columns whose
    norms tie to within roundoff may resolve either way.

    Parameters
    ----------
    M : ndarray, shape (m, n)

    Returns
    -------
    Q : ndarray, shape (m, k) with k = min(m, n)
    R : ndarray, shape (k, n)
        ``Q @ R = M[:, perm]``; the diagonal magnitudes |R[i, i]| are
        nonincreasing.
    perm : ndarray of intp, shape (n,)
        Pivot order applied to the columns of M.

    Raises
    ------
    ConvergenceError
        If LAPACK reports a failure (nonzero info).
    """
    A = np.array(as_matrix(M, "M"), order="F")  # owned, so geqp3 may overwrite it
    m, n = A.shape
    k = min(m, n)
    if k == 0:  # LAPACK rejects a zero leading dimension
        return np.zeros((m, 0)), np.zeros((0, n)), np.arange(n, dtype=np.intp)
    geqp3, orgqr = get_lapack_funcs(("geqp3", "orgqr"), (A,))
    qr, jpvt, tau, _, info = geqp3(A, overwrite_a=True)
    if info != 0:
        raise ConvergenceError(f"geqp3 failed on {A.shape} input (info={info})")
    # orgqr copies its input, so Q does not keep the n-wide geqp3 buffer alive
    Q, _, info = orgqr(qr[:, :k], tau)
    if info != 0:
        raise ConvergenceError(f"orgqr failed on {A.shape} input (info={info})")
    return Q, np.triu(qr[:k]), (jpvt - 1).astype(np.intp)


def srrqr(M, rank, eta=2.0, max_swaps=None):
    """Strong rank-revealing QR (pivoted QR plus pairwise swap refinement).

    Starting from column-pivoted QR, columns of the leading block are
    swapped against trailing columns while any entry of ``inv(R11) @ R12``
    exceeds eta; each swap strictly grows the volume of the selected
    column set, so the loop terminates for eta > 1. On exit the entrywise
    bound guarantees
    ``sigma_min(R11) >= sigma_rank(M) / sqrt(1 + eta^2 rank (n - rank))``.

    Parameters
    ----------
    M : ndarray, shape (m, n)
    rank : int
        Number of leading columns to reveal, 1 <= rank <= min(m, n).
    eta : float, >= 1
        Entrywise interaction bound. 2.0 keeps the swap count low while
        staying within a constant factor of the optimal volume.
    max_swaps : int, optional
        Swap budget; defaults to 50 * n.

    Returns
    -------
    SRRQRFactors

    Raises
    ------
    RankDeficiencyError
        If the leading block is numerically singular (matrix rank below
        the requested rank).
    ConvergenceError
        If the swap budget is exhausted (only reachable for eta at the
        degenerate limit 1 with adversarial near-ties); the message names
        the cap.
    """
    A = as_matrix(M, "M")
    m, n = A.shape
    r = int(rank)
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank must be in [1, {min(m, n)}], got {rank}")
    check_at_least(eta, 1, "eta")
    cap = 50 * n if max_swaps is None else int(max_swaps)

    Q, R, perm = pivoted_qr(A)
    swaps = 0
    while True:
        R11 = R[:r, :r]
        dmin = np.min(np.abs(np.diag(R11)))
        if dmin <= max(m, n) * np.finfo(np.float64).eps * abs(R[0, 0]) or R[0, 0] == 0.0:
            raise RankDeficiencyError(
                f"leading {r} x {r} block is numerically singular "
                f"(matrix rank below {r})"
            )
        if r == n:
            break
        T = solve_triangular(R11, R[:r, r:], lower=False)
        i, j = np.unravel_index(np.argmax(np.abs(T)), T.shape)
        if abs(T[i, j]) <= eta:
            break
        if swaps == cap:
            raise ConvergenceError(
                f"srrqr swap cap of {cap} (50 per column) exceeded at eta={eta}"
            )
        perm[[i, r + j]] = perm[[r + j, i]]
        Q, R = np.linalg.qr(A[:, perm], mode="reduced")  # wide input: R is min(m, n)-by-n
        swaps += 1

    # normalize signs so the leading diagonal is strictly positive
    Q = Q.copy()
    R = R.copy()
    for i in range(r):
        if R[i, i] < 0:
            R[i, :] *= -1.0
            Q[:, i] *= -1.0
    return SRRQRFactors(Q=Q, R11=R[:r, :r], R12=R[:r, r:], perm=perm, eta=float(eta))


def spectral_norm(M):
    """Largest singular value of M (0.0 for an all-zero matrix)."""
    M = as_matrix(M, "M")
    if M.size == 0 or not M.any():
        return 0.0
    try:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"SVD did not converge computing a norm: {err}") from err


def canonical_angles(W, Wh):
    """Canonical (principal) angles between two orthonormal column spans.

    Cosines are the singular values of ``W.T @ Wh`` clamped into [0, 1].
    The largest-angle sine is ``||Wh - W (W.T @ Wh)||_2`` clamped into
    [0, 1] (Bjorck & Golub, Math. Comp. 1973), accurate to roundoff at
    every angle; sqrt(1 - min(cos)^2) would sit on a grid of about
    sqrt(k * 2.2e-16), so a sine below about 1e-7 would be noise. When the
    two arrays are identical the angles are returned as exact zeros, so
    the degenerate case does not pick up SVD round-off.

    Parameters
    ----------
    W, Wh : OrthonormalBasis or ndarray, shape (n, r)
        Orthonormal columns of equal shapes; a raw array is checked once
        with check_orthonormal, an OrthonormalBasis is trusted.

    Returns
    -------
    CanonicalAngles
    """
    W = orthonormal_basis(W, "W").matrix
    Wh = orthonormal_basis(Wh, "Wh").matrix
    if W.shape != Wh.shape:
        raise ValueError(f"subspace dimensions differ: {W.shape} vs {Wh.shape}")
    if np.array_equal(W, Wh):
        return CanonicalAngles(cosines=np.ones(W.shape[1]), sin_theta_max=0.0)
    M = W.T @ Wh
    cos = np.clip(np.linalg.svd(M, compute_uv=False), 0.0, 1.0)
    sin_max = min(1.0, spectral_norm(Wh - W @ M))
    return CanonicalAngles(cosines=cos, sin_theta_max=sin_max)


def column_residuals(A, pairs):
    """Per-column squared norms ||a_j||^2 and, for each (W, C) in pairs,
    ||a_j - W C[:, j]||^2, in one read of A.

    A is (n, n_s); each W is (n, r_k) and each C (r_k, n_s). A is read
    SWEEP_BLOCK rows at a time, contiguous for a C-ordered A, and every
    residual block W[rows] @ C is formed in one reused SWEEP_BLOCK x n_s
    buffer, so no n x n_s temporary is formed.

    Returns
    -------
    (norms, residuals) : ndarray of shape (n_s,) and a list of them, one
        per pair, in order.
    """
    n, n_s = A.shape
    norms = np.zeros(n_s)
    residuals = [np.zeros(n_s) for _ in pairs]
    E = np.empty((min(SWEEP_BLOCK, n), n_s))
    for lo in range(0, n, SWEEP_BLOCK):
        A_rows = A[lo : lo + SWEEP_BLOCK]
        E_rows = E[: A_rows.shape[0]]
        for (W, C), acc in zip(pairs, residuals):
            np.matmul(W[lo : lo + SWEEP_BLOCK], C, out=E_rows)
            np.subtract(A_rows, E_rows, out=E_rows)
            acc += np.einsum("ij,ij->j", E_rows, E_rows)
        # after the first subtraction the rows are in cache
        norms += np.einsum("ij,ij->j", A_rows, A_rows)
    return norms, residuals
