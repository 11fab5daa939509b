"""Dense factorization kernels: thin SVD, pivoted and strong rank-revealing
QR, spectral norms, canonical angles, and the row-streamed per-column
residuals every error sweep, bound and residual check is built on.

Everything operates on plain float64 ndarrays; canonical_angles also takes
an OrthonormalBasis, whose columns it does not check again. The thin SVD
is a Householder QR (LAPACK ``geqrf``) followed by numpy's SVD of the
small R factor, the thin QR of the range finders is ``geqrf`` plus
``orgqr``, and the column-pivoted QR is LAPACK ``geqp3``,
whose greedy largest-residual pivot rule is the documented contract. The
strong rank-revealing swap refinement on top of it is written out here,
refactoring after each swap with one ``geqrf``. The pivoted
factorizations return R and the permutation only: no Q is formed.
selection.pqr_select takes its points from the ``geqp3`` pivots and
selection.srrqr_select from ``geqp3`` plus those swaps; the greedy DEIM
selector is LAPACK ``getrf`` and lives in selection. Every SVD of the
library runs through _svd and every LAPACK routine here through _lapack,
so a failure is a ConvergenceError naming its operand and shape.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import get_lapack_funcs

from ._util import (
    FINITE_BLOCK,
    SWEEP_BLOCK,
    as_2d,
    as_matrix,
    check_at_least,
    finite_product,
    orthonormal_basis,
)
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
    """The leading rank rows ``[R11, R12]`` of the R factor of a strong
    rank-revealing QR of ``M[:, perm]``.

    R11 is rank-by-rank upper triangular with strictly
    positive diagonal, and every entry of ``inv(R11) @ R12`` is bounded by
    srrqr's eta in absolute value. swaps counts the column swaps made after
    the pivoted QR, and max_interaction is the final max |inv(R11) @ R12|
    (0.0 when rank == n).
    """

    R11: np.ndarray
    R12: np.ndarray
    perm: np.ndarray
    swaps: int
    max_interaction: float


@dataclass(frozen=True)
class CanonicalAngles:
    """Principal angles between two equally sized subspaces: sin_theta_max
    is the sine of the largest angle."""

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
        Matrix with finite entries; it is read for finiteness only when R
        is not finite.
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
    OverflowingProductError
        If R overflows on a finite A.
    ConvergenceError
        If LAPACK reports a failure or the SVD of R does not converge. The
        failure is explicit; no silently truncated factorization is
        returned.
    """
    A = as_2d(A, "A")
    m, n = A.shape
    k = min(m, n)
    if k == 0:  # LAPACK rejects a zero leading dimension
        raise ValueError(f"A has no singular values ({m} x {n})")
    r = k if rank is None else int(rank)
    if not 1 <= r <= k:
        raise ValueError(f"rank must be in [1, {k}], got {rank}")
    qr, tau, ormqr = _householder_qr(A, "ormqr")
    # A, which geqrf factored a copy of, is read only if R is not finite
    R = finite_product(np.triu(qr[:k]), A, "A", "the QR of A")
    Ur, s, Vt = _svd(R, "the R factor", full_matrices=False)
    C = np.zeros((m, r), order="F")
    C[:k] = Ur[:, :r]
    reflectors = qr[:, :k]
    _, work, _ = _lapack(ormqr, A.shape, "L", "N", reflectors, tau, C, -1)
    U, _, _ = _lapack(ormqr, A.shape, "L", "N", reflectors, tau, C, int(work[0]), overwrite_c=True)
    return ThinSVD(U=U, singular_values=s, V=Vt[:r].T)


def _svd(M, operand, **kwargs):
    """np.linalg.svd(M, **kwargs), with a LinAlgError raised as a
    ConvergenceError naming the operand and its shape. The library's one
    SVD call: every dense SVD goes through here."""
    try:
        return np.linalg.svd(M, **kwargs)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"SVD of {operand} {M.shape} did not converge: {err}") from err


def _lapack(routine, shape, *args, **kwargs):
    """routine(*args, **kwargs) for a routine get_lapack_funcs returned, its
    outputs with info last; a nonzero info raises a ConvergenceError naming
    the routine and the shape of its operand."""
    out = routine(*args, **kwargs)
    info = out[-1]
    if info != 0:
        raise ConvergenceError(f"LAPACK {routine.__name__} failed on {shape} input (info={info})")
    return out


def _householder_qr(A, *then):
    """LAPACK ``geqrf`` of an owned Fortran-order copy of A, run with its
    queried optimal (blocked) workspace: (qr, tau, *routines), with the
    reflectors below the diagonal of qr and R on and above it, and the
    LAPACK routines named in then, which apply or form Q."""
    A = np.array(A, dtype=np.float64, order="F")  # owned, so geqrf may overwrite it
    geqrf, geqrf_lwork, *routines = get_lapack_funcs(("geqrf", "geqrf_lwork", *then), (A,))
    # the default workspace of the scipy wrapper runs geqrf unblocked
    work, _ = _lapack(geqrf_lwork, A.shape, *A.shape)
    qr, tau, _, _ = _lapack(geqrf, A.shape, A, lwork=int(work), overwrite_a=True)
    return (qr, tau, *routines)


def thin_qr(A):
    """Thin Householder QR ``A = Q @ R`` of a tall matrix: one LAPACK
    ``geqrf`` and one ``orgqr``, both with their queried optimal
    workspace.

    numpy's reduced QR runs the same two routines, but numpy and scipy
    link separate BLAS builds: the factors are bit for bit numpy's on the
    range finders' sketches, the shapes the tests pin, and not in general
    (on a 500 x 200 input even R differed). Q comes back in Fortran
    order. The range finders orthonormalize every sketch through this.

    Parameters
    ----------
    A : ndarray, shape (m, n), m >= n >= 1
        Float64 matrix with finite entries; it is not checked again.

    Returns
    -------
    Q : ndarray, shape (m, n), orthonormal columns
    R : ndarray, shape (n, n), upper triangular

    Raises
    ------
    ConvergenceError
        If LAPACK reports a failure (nonzero info).
    """
    m, n = A.shape
    if not m >= n >= 1:
        raise ValueError(f"thin_qr needs a tall matrix with columns, got {m} x {n}")
    qr, tau, orgqr = _householder_qr(A, "orgqr")
    R = np.triu(qr[:n])
    # a workspace query reads nothing, so it need not copy qr
    _, work, _ = _lapack(orgqr, qr.shape, qr, tau, lwork=-1, overwrite_a=True)
    Q, _, _ = _lapack(orgqr, qr.shape, qr, tau, lwork=int(work[0]), overwrite_a=True)
    return Q, R


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
    R : ndarray, shape (k, n) with k = min(m, n)
        ``Q @ R = M[:, perm]`` for an orthonormal Q that is not formed; the
        diagonal magnitudes |R[i, i]| are nonincreasing. For a wide M
        (m <= n), R is the array ``geqp3`` factored in place, so no k-by-n
        copy is made.
    perm : ndarray of intp, shape (n,)
        Pivot order applied to the columns of M.

    Raises
    ------
    OverflowingProductError
        If R overflows on a finite M. M is read for finiteness only then.
    ConvergenceError
        If LAPACK reports a failure (nonzero info).
    """
    A = np.array(as_2d(M, "M"), order="F")  # owned, so geqp3 may overwrite it
    m, n = A.shape
    k = min(m, n)
    if k == 0:  # LAPACK rejects a zero leading dimension
        return np.zeros((0, n)), np.arange(n, dtype=np.intp)
    geqp3 = get_lapack_funcs("geqp3", (A,))
    qr, jpvt, _, _, _ = _lapack(geqp3, A.shape, A, overwrite_a=True)
    # M, which geqp3 left intact, is read only if R is not finite
    R = finite_product(_upper_factor(qr), M, "M", "the pivoted QR of M")
    return R, (jpvt - 1).astype(np.intp)


def _upper_factor(qr):
    """R (k-by-n), k = min(m, n), from the m-by-n output qr of a
    Householder QR (``geqp3`` or ``geqrf``). qr must be owned by the
    caller: for a wide input (m <= n) it becomes R in place."""
    k = min(qr.shape)
    # the reflectors sit below the diagonal of the leading k x k block only;
    # a wide qr is R once they are zeroed, a tall one has rows below R
    R = qr if k == qr.shape[0] else qr[:k].copy(order="F")
    R[:, :k] = np.triu(R[:, :k])
    return R


# srrqr's swap budget, per column of its input
_SWAPS_PER_COLUMN = 50


def srrqr(M, rank, eta=2.0):
    """Strong rank-revealing QR (pivoted QR plus pairwise swap refinement).

    Starting from column-pivoted QR, columns of the leading block are
    swapped against trailing columns while any entry of ``inv(R11) @ R12``
    exceeds eta. Each swap takes the largest entry, the first in row order
    on ties, and refactors the permuted matrix with one ``geqrf`` through
    _lapack, of which only R is kept. Each swap strictly grows the
    volume of the selected column set, so the loop terminates for
    eta > 1; it is capped at 50 swaps per column of M. On exit the
    entrywise bound guarantees
    ``sigma_min(R11) >= sigma_rank(M) / sqrt(1 + eta^2 rank (n - rank))``.

    ``inv(R11) @ R12`` is never formed whole: its largest entry is found
    a block of R12's columns at a time (_max_interaction), so beyond the
    copy of M that the QR factors in place (and which becomes R for a wide
    M), the working memory is one block of at most
    max(FINITE_BLOCK, rank * SWEEP_BLOCK) entries.

    Parameters
    ----------
    M : ndarray, shape (m, n)
    rank : int
        Number of leading columns to reveal, 1 <= rank <= min(m, n).
    eta : float, >= 1
        Entrywise interaction bound. 2.0 keeps the swap count low while
        staying within a constant factor of the optimal volume.

    Returns
    -------
    SRRQRFactors
        With the swap count and the final max |inv(R11) @ R12|.

    Raises
    ------
    OverflowingProductError
        If the pivoted QR of a finite M overflows.
    RankDeficiencyError
        If the leading block is numerically singular (matrix rank below
        the requested rank).
    ConvergenceError
        If LAPACK reports a failure, or the swap budget is exhausted (only
        reachable for eta at the degenerate limit 1 with adversarial
        near-ties); the message names the cap.
    """
    A = as_2d(M, "M")  # pivoted_qr checks it for finiteness
    m, n = A.shape
    r = int(rank)
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank must be in [1, {min(m, n)}], got {rank}")
    check_at_least(eta, 1, "eta")
    cap = _SWAPS_PER_COLUMN * n

    R, perm = pivoted_qr(A)
    swaps = 0
    while True:
        dmin = np.min(np.abs(np.diag(R[:r, :r])))
        if dmin <= max(m, n) * np.finfo(np.float64).eps * abs(R[0, 0]) or R[0, 0] == 0.0:
            raise RankDeficiencyError(
                f"leading {r} x {r} block is numerically singular "
                f"(matrix rank below {r})"
            )
        t_max, i, j = _max_interaction(R, r)
        if t_max <= eta:
            break
        if swaps == cap:
            raise ConvergenceError(
                f"srrqr swap cap of {cap} ({_SWAPS_PER_COLUMN} per column) exceeded at eta={eta}"
            )
        perm[[i, r + j]] = perm[[r + j, i]]
        R = _upper_factor(_householder_qr(A[:, perm])[0])
        swaps += 1

    # normalize signs so the leading diagonal is strictly positive; R is
    # this call's own array, so it is flipped in place
    R[:r] *= np.where(np.diag(R)[:r] < 0, -1.0, 1.0)[:, None]
    return SRRQRFactors(
        R11=R[:r, :r], R12=R[:r, r:], perm=perm, swaps=swaps, max_interaction=float(t_max),
    )


def _max_interaction(R, r):
    """(t, i, j): the largest |entry| t of inv(R11) @ R12, with R11 =
    R[:r, :r] and R12 = R[:r, r:], and its position, the first in row
    order on ties; (0.0, 0, 0) when R12 has no columns.

    R12 is solved a block of columns at a time, as as_matrix checks
    lines: SWEEP_BLOCK columns, or more when r is small, up to
    FINITE_BLOCK entries, so no r x (n - r) temporary is formed and few
    solves are made. A block's np.argmax is its first maximal entry in
    row order; across blocks, a tie goes to the lower row, and in one row
    to the earlier block. The solves skip scipy's finiteness check:
    pivoted_qr checked R, and a swap refactors the same columns.
    """
    R11 = R[:r, :r]
    step = max(SWEEP_BLOCK, FINITE_BLOCK // r)
    t, i, j = 0.0, 0, 0
    for lo in range(r, R.shape[1], step):
        T = solve_triangular(R11, R[:r, lo : lo + step], lower=False, check_finite=False)
        np.abs(T, out=T)
        bi, bj = np.unravel_index(np.argmax(T), T.shape)
        if T[bi, bj] > t or (T[bi, bj] == t and bi < i):
            t, i, j = T[bi, bj], bi, lo - r + bj
    return t, i, j


def spectral_norm(M):
    """Largest singular value of M (0.0 for an all-zero matrix)."""
    M = as_matrix(M, "M")
    if M.size == 0 or not M.any():
        return 0.0
    return float(_svd(M, "a norm operand", compute_uv=False)[0])


def canonical_angles(W, Wh):
    """The largest canonical (principal) angle between two orthonormal
    column spans.

    Its sine is ``||Wh - W (W.T @ Wh)||_2`` clamped into [0, 1] (Bjorck &
    Golub, Math. Comp. 1973), one SVD, accurate to roundoff at every
    angle; sqrt(1 - min(cos)^2) from the singular values of ``W.T @ Wh``
    would sit on a grid of about sqrt(k * 2.2e-16), so a sine below about
    1e-7 would be noise. When the two arrays are identical the sine is an
    exact zero, so the degenerate case does not pick up SVD round-off.

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
        return CanonicalAngles(sin_theta_max=0.0)
    return CanonicalAngles(sin_theta_max=min(1.0, spectral_norm(Wh - W @ (W.T @ Wh))))


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
