"""Dense factorization kernels: thin SVD, thin QR, the column pivot order
and the strong rank-revealing QR, spectral norms, canonical angles, and
the row-streamed per-column residuals every error sweep, bound and
residual check is built on.

Everything operates on plain float64 ndarrays; canonical_angles also takes
an OrthonormalBasis, whose columns it does not check again. The thin SVD
is a Householder QR (LAPACK ``geqrf``) followed by numpy's SVD of the
small R factor, and the thin QR of the range finders is ``geqrf`` plus
``orgqr``. The column pivots come from a lazy search (_pivot_order), which
gives the pivots of LAPACK ``geqp3`` and forms no factor;
selection.pqr_select takes its points from it alone. srrqr starts from
that order and factors only its pivot columns: no Q or R of the whole M
is formed. The greedy DEIM selector is LAPACK ``getrf`` and lives in
selection. Every SVD of the library runs through _svd and every LAPACK
routine here through _lapack, so a failure is a ConvergenceError naming
its operand and shape.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from ._util import (
    FINITE_BLOCK,
    SWEEP_BLOCK,
    _part_count,
    _unit_scaled,
    _work_parts,
    as_2d,
    as_matrix,
    block_lines,
    check_at_least,
    check_count,
    fill_in_parts,
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
    """A strong rank-revealing QR of ``M[:, perm]``: ``Q1 @ R11 =
    M[:, perm[:rank]]`` for an orthonormal Q1, with R11 rank-by-rank upper
    triangular with strictly positive diagonal. Every entry of
    ``inv(R11) @ R12``, R12 = Q1' M[:, perm[rank:]], is at most srrqr's
    eta in absolute value. swaps counts the column swaps made after the
    pivot search, and max_interaction is the final max |inv(R11) @ R12|
    (0.0 when rank == n).
    """

    R11: np.ndarray
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
    r = k if rank is None else check_count(rank, 1, "rank", k)
    qr, tau, ormqr = _householder_qr(A, "ormqr")
    # A, which geqrf factored a copy of, is read only if R is not finite
    R = finite_product(np.triu(qr[:k]), A, "A", "the QR of A")
    Ur, s, Vt = _svd(R, "the R factor", full_matrices=False)
    C = np.zeros((m, r), order="F")
    C[:k] = Ur[:, :r]
    U = _with_workspace(ormqr, A.shape, "L", "N", qr[:, :k], tau, C, overwrite_c=True)
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


def _with_workspace(routine, shape, *args, **kwargs):
    """The first output of routine(*args, **kwargs) run through _lapack
    with its queried optimal workspace (lwork). The query reads and writes
    no array, so an overwrite flag in kwargs makes neither call copy."""
    work = _lapack(routine, shape, *args, lwork=-1, **kwargs)[1]
    return _lapack(routine, shape, *args, lwork=int(work[0]), **kwargs)[0]


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
    return _with_workspace(orgqr, qr.shape, qr, tau, overwrite_a=True), R


# two squared residuals tie when they differ by at most this fraction of
# the squared norm the larger was downdated from: the roundoff of the
# downdate
_TIE = 64 * np.finfo(np.float64).eps
# a downdated squared residual below this fraction of the last one computed
# explicitly is computed explicitly again (the tol3z guard of LAPACK geqp3)
_RECOMPUTE = np.sqrt(np.finfo(np.float64).eps)
# a squared residual at most this fraction of its column's squared norm is
# roundoff: the column lies in the span of the pivots to 2^-40 (about 5000
# eps) of its norm
_NEGLIGIBLE = 2.0**-80


def _pivot_order(M):
    """The column pivot order of M (m-by-n), an intp permutation, without
    forming R or calling LAPACK.

    At each step the pivot is the trailing column whose residual off the
    span of the pivots before it is largest. Squared residuals within
    64 eps of the largest, measured against the squared norm the largest
    was downdated from (their roundoff), tie, and a tie goes to the first
    position. Positions swap as LAPACK ``geqp3`` swaps its pivots, so where
    no two residuals tie to roundoff the whole order is ``geqp3``'s. Once
    every residual left is roundoff, at most 2^-40 of its column's norm,
    the rest of the order stays as the swaps left it.

    The search works on squared residuals ||m_j||^2 - ||Q'm_j||^2, Q the
    directions of the pivots so far, each made by Gram-Schmidt of its pivot
    column, with a second pass when the first takes off more than half of
    the column's squared norm. A squared residual
    only shrinks from step to step, so one computed at an earlier step
    bounds it from above, and only the columns that can still lead are
    brought up to date at each step. The search runs in blocks of steps. A
    block starts with every residual brought up to date: one product of the
    directions added since the last block with M, a block of M's columns
    at a time, in parts for a large M (_downdate). It copies the columns of
    the largest residuals, FINITE_BLOCK entries of them, as its pool, and
    keeps the largest residual outside the pool as a bound. At each step
    only the pool is downdated, by one matrix-vector product with the
    newest direction, and its largest residual leads; once that falls
    within a tie of the bound, a column outside the pool could lead, and a
    new block starts. A downdated
    residual below _RECOMPUTE of the last one computed explicitly has lost
    its accuracy: when one would lead or tie, a new block starts too, and
    its update computes every such residual explicitly again, as
    ||m_j - Q Q'm_j||^2, SWEEP_BLOCK columns at a time, as geqp3
    recomputes a column norm that lost its accuracy. The search stops
    early, leaving the trailing order as it is, when a pivot's residual is
    exactly zero, or when a block starts with every residual left at most
    _NEGLIGIBLE of its column's squared norm: past the numerical rank each
    step would otherwise compute nearly every residual explicitly again.

    M is read as stored, C- or F-ordered: the pool and the recomputed
    columns are gathered from M.T, and each block update is the product
    of the new directions with blocks of M's own columns (_downdate), so
    beyond the pool and SWEEP_BLOCK recomputed columns no copy of M is
    made. Measurements: CHANGES, "The pivot search reads M as stored".
    When a squared column norm overflows, or the square of a nonzero
    column underflows to a subnormal or to zero, the search runs on M
    scaled by an exact power of two (_unit_scaled), which scales every
    residual alike. A non-finite entry raises as_matrix's ValueError.
    """
    m, n = M.shape
    k = min(m, n)
    if k == 0:
        return np.arange(n, dtype=np.intp)
    Mt = M.T
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.einsum("ij,ij->i", Mt, Mt)
    tiny = np.finfo(np.float64).tiny
    # a square overflows, or underflows to a subnormal or to 0 on a nonzero
    # column
    if not res.max() < math.inf or (res.min() < tiny and Mt[res < tiny].any()):
        as_matrix(M, "M")
        M = _unit_scaled(M)
        Mt = M.T
        res = np.einsum("ij,ij->i", Mt, Mt)
    order = np.arange(n, dtype=np.intp)  # the column at each position
    where = order.copy()  # the position of each column
    base = res.copy()  # each column's last explicit squared residual
    norms = res.copy()  # each column's squared norm
    Qt = np.empty((k, m))
    size = max(1, FINITE_BLOCK // m)
    start = i = 0
    while i < k:
        if i > start:
            # bring every residual to step i; the pool's are there already.
            # Each temporary is dropped once read, so that the search holds
            # at most one pool or one block of products a part at a time
            del G, g  # g is a row of G
            _downdate(res, M, Qt[start:i])
            res[cols] = pool
            low = np.flatnonzero(res < _RECOMPUTE * base)
            Q = Qt[:i]
            for lo in range(0, low.size, SWEEP_BLOCK):
                rows = low[lo : lo + SWEEP_BLOCK]
                E = Mt[rows]
                E -= (E @ Q.T) @ Q
                res[rows] = base[rows] = np.einsum("ij,ij->i", E, E)
                del E
            if not (res > _NEGLIGIBLE * norms).any():
                return order  # every residual left is roundoff: the rest stays
            start = i
        if n - i > size:
            # the pool: the size largest residuals and any within a tie of
            # them, so that no column outside it ties with its leader
            top = np.partition(res, n - size)[n - size] - _TIE * base.max()
            cols = np.flatnonzero(res >= top)
            bound = res[res < top].max(initial=-np.inf)
        else:
            cols = np.flatnonzero(res > -np.inf)
            bound = -np.inf
        G = Mt if cols.size == n else Mt[cols]  # a copy, unless it is all of M
        pool = res[cols]
        scale = base[cols]
        while i < k:
            # scalars are read with item(): a numpy scalar costs more than
            # the step's small products
            c = int(pool.argmax())
            lead = pool.item(c)
            cut = lead - _TIE * scale.item(c)
            if cut <= bound:
                break  # a column outside the pool may tie or lead
            pool[c] = -math.inf
            if pool.max() >= cut:  # the first position among the ties leads
                pool[c] = lead
                ties = np.flatnonzero(pool >= cut)
                if (pool[ties] < _RECOMPUTE * scale[ties]).any():
                    break  # a downdate that lost its accuracy would decide
                c = int(ties[np.argmin(where[cols[ties]])])
                pool[c] = -math.inf
            elif lead < _RECOMPUTE * scale.item(c):
                pool[c] = lead
                break  # as above
            j = cols.item(c)
            res[j] = base[j] = -math.inf
            # swap positions i and where[j], as geqp3 swaps its pivots
            other, w = order.item(i), where.item(j)
            order[i], order[w] = j, other
            where[other], where[j] = w, i
            # the pivot's direction by Gram-Schmidt, once more when the
            # first pass takes off more than half of the column's squared
            # norm ("twice is enough": Giraud, Langou & Rozloznik, 2005)
            Q, g = Qt[:i], G[c]
            e = g - Q.T.dot(Q.dot(g))
            sq = e.dot(e)
            if 2.0 * sq < g.dot(g):
                e -= Q.T.dot(Q.dot(e))
                sq = e.dot(e)
            if sq == 0.0:
                return order  # every residual left is zero: the rest stays
            q = np.divide(e, math.sqrt(sq), out=Qt[i])
            i += 1
            d = G.dot(q)
            d *= d
            pool -= d
    return order


def _downdate(res, M, Qt):
    """res -= the squared column norms of Qt @ M, in blocks of
    block_lines(width) of M's own columns, in _work_parts parts through
    fill_in_parts. Each part forms its blocks' products and sums in its own
    two buffers, so no worker allocates; the block bounds follow from the
    shape alone, so the part count never enters the bits."""
    width, n = Qt.shape[0], M.shape[1]
    step = min(block_lines(width), n)
    n_blocks = -(-n // step)

    def fill(lo, hi, P, sums):
        for b in range(lo, hi):
            cols = slice(b * step, (b + 1) * step)
            block = M[:, cols]
            w = block.shape[1]
            product = np.matmul(Qt, block, out=P[: width * w].reshape(width, w))
            res[cols] -= np.einsum("ij,ij->j", product, product, out=sums[:w])

    fill_in_parts(fill, n_blocks, lambda: (np.empty(width * step), np.empty(step)),
                  parts=_work_parts(M.size * width))


# srrqr's swap budget, per column of its input
_SWAPS_PER_COLUMN = 50


def srrqr(M, rank, eta=2.0):
    """Strong rank-revealing QR: the pivot order of _pivot_order, then
    swaps of a leading column with a trailing one while an entry of
    ``inv(R11) @ R12`` exceeds eta (Gu & Eisenstat, SISC 1996).

    Each check factors only the rank pivot columns M1 = M[:, perm[:rank]]
    (``geqrf`` and ``orgqr``: M1 = Q1 R11) and reads the interactions as
    ``X @ M`` with ``X = inv(R11) @ Q1.T``, since
    ``inv(R11) @ R12 = X @ M[:, perm[rank:]]`` (_max_interaction); no
    R12 is formed: beyond the pivot search's memory, srrqr holds X
    (rank-by-m) and one block of products per part. A swap takes the
    largest entry: the lowest row on
    ties, then the earliest position in perm. Each swap strictly grows
    the volume of the selected column set, so the loop ends for eta > 1;
    it is capped at 50 swaps per column of M. On exit
    ``sigma_min(R11) >= sigma_rank(M) / sqrt(1 + eta^2 rank (n - rank))``.
    Measurements: CHANGES, "srrqr from its pivot block alone".

    Parameters
    ----------
    M : ndarray, shape (m, n)
    rank : int
        Number of leading columns to reveal, 1 <= rank <= min(m, n).
    eta : float, >= 1
        Entrywise interaction bound.

    Returns
    -------
    SRRQRFactors

    Raises
    ------
    ValueError
        If M has a non-finite entry.
    OverflowingProductError
        If R11 overflows on a finite M.
    RankDeficiencyError
        If R11 is numerically singular (matrix rank below the requested
        rank), or too near singular for inv(R11) @ R12 to be finite.
    ConvergenceError
        If LAPACK reports a failure, or the swap budget is exhausted (only
        reachable for eta at the degenerate limit 1 with adversarial
        near-ties); the message names the cap.
    """
    A = as_2d(M, "M")  # the pivot search checks it for finiteness
    m, n = A.shape
    r = check_count(rank, 1, "rank", min(m, n))
    check_at_least(eta, 1, "eta")
    cap = _SWAPS_PER_COLUMN * n

    perm = _pivot_order(A)
    swaps = 0
    while True:
        qr, tau, orgqr = _householder_qr(A[:, perm[:r]], "orgqr")
        # the search checked M; a non-finite R11 is an overflow
        R11 = finite_product(np.triu(qr[:r]), M, "M", "the pivoted QR of M")
        dmin = np.min(np.abs(np.diag(R11)))
        if dmin <= max(m, n) * np.finfo(np.float64).eps * abs(R11[0, 0]) or R11[0, 0] == 0.0:
            raise RankDeficiencyError(
                f"leading {r} x {r} block is numerically singular "
                f"(matrix rank below {r})"
            )
        if n == r:
            t_max = 0.0
            break
        (trtri,) = get_lapack_funcs(("trtri",), (R11,))
        Q1 = _with_workspace(orgqr, qr.shape, qr, tau, overwrite_a=True)
        with np.errstate(over="ignore", invalid="ignore"):  # _max_interaction raises
            X = _lapack(trtri, R11.shape, R11)[0] @ Q1.T
        t_max, swap = _max_interaction(X, A, perm, r, eta)
        if swap is None:
            break
        if swaps == cap:
            raise ConvergenceError(
                f"srrqr swap cap of {cap} ({_SWAPS_PER_COLUMN} per column) exceeded at eta={eta}"
            )
        i, p = swap
        perm[[i, p]] = perm[[p, i]]
        swaps += 1

    # normalize signs so the diagonal is strictly positive
    R11 *= np.where(np.diag(R11) < 0, -1.0, 1.0)[:, None]
    return SRRQRFactors(R11=R11, perm=perm, swaps=swaps, max_interaction=float(t_max))


def _max_interaction(X, A, perm, r, eta=0.0):
    """(t, swap): t the largest |entry| of X @ A off the pivot columns
    perm[:r], and swap None, or, when t > eta, the positions (i, p) in
    perm that its entry swaps: row i, and p the position of its column.
    On ties the lowest row wins, then the earliest position in perm.

    X @ A is formed a block of block_lines(r) of A's own columns at a
    time, in _work_parts parts through fill_in_parts, each part into its
    own buffer; a block's pivot columns are set to 0 after abs, and each
    block keeps its maximum. Only when t > eta are the blocks whose
    maximum is t formed again (the same calls, so the same bits) to find
    the entry.

    Raises
    ------
    RankDeficiencyError
        If an entry is not finite: R11 is too near singular to invert.
    """
    n = A.shape[1]
    step = min(block_lines(r), n)
    n_blocks = -(-n // step)
    lead = np.sort(perm[:r])
    # the pivot columns of block b are lead[cuts[b]:cuts[b + 1]]
    cuts = np.searchsorted(lead, np.arange(n_blocks + 1) * step)

    def block(b, T):
        """|X @ A[:, block b]| with its pivot columns 0, in T."""
        lo = b * step
        cols = A[:, lo : lo + step]
        P = np.matmul(X, cols, out=T[: r * cols.shape[1]].reshape(r, -1))
        np.abs(P, out=P)
        # times 0 keeps an infinity or a NaN there a NaN
        P[:, lead[cuts[b] : cuts[b + 1]] - lo] *= 0.0
        return P

    best = np.empty(n_blocks)

    def fill(lo, hi, T):
        for b in range(lo, hi):
            best[b] = block(b, T).max()

    # an overflow or a NaN raises here, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        fill_in_parts(fill, n_blocks, lambda: (np.empty(r * step),),
                      parts=_work_parts(r * A.shape[0] * n))
        t = best.max()
        if not t < math.inf:
            raise RankDeficiencyError(
                f"inv(R11) @ R12 is not finite: the leading {r} x {r} block R11 is numerically singular"
            )
        if not t > eta:
            return t, None
        where = np.argsort(perm)  # the position of each column
        T = np.empty(r * step)
        ties = []
        for b in np.flatnonzero(best == t):
            rows, cols = np.nonzero(block(b, T) == t)
            ties += zip(rows.tolist(), where[b * step + cols].tolist())
    return t, min(ties)


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
    residual block W[rows] @ C is formed in a reused SWEEP_BLOCK x n_s
    buffer, so no n x n_s temporary is formed. The blocks are summed in
    _part_count parts of consecutive blocks (one per usable CPU on one
    BLAS thread, for a large A), through fill_in_parts, each part with its
    own buffer. A part writes each block's column sums into its own rows
    of one (n_blocks, len(pairs) + 1, n_s) array, 1/64 of A's size per
    pair and one more for the norms, which the calling thread then adds up
    in block order: the additions of a serial loop, so the part count
    never enters the bits.

    Returns
    -------
    (norms, residuals) : ndarray of shape (n_s,) and a list of them, one
        per pair, in order.
    """
    n, n_s = A.shape
    n_blocks = -(-n // SWEEP_BLOCK)
    sums = np.empty((n_blocks, len(pairs) + 1, n_s))

    def fill(lo, hi, E):
        for b in range(lo, hi):
            rows = slice(b * SWEEP_BLOCK, (b + 1) * SWEEP_BLOCK)
            A_rows = A[rows]
            E_rows = E[: A_rows.shape[0]]
            for (W, C), out in zip(pairs, sums[b]):
                np.matmul(W[rows], C, out=E_rows)
                np.subtract(A_rows, E_rows, out=E_rows)
                np.einsum("ij,ij->j", E_rows, E_rows, out=out)
            # after the first subtraction the rows are in cache
            np.einsum("ij,ij->j", A_rows, A_rows, out=sums[b, -1])

    fill_in_parts(fill, n_blocks, lambda: (np.empty((min(SWEEP_BLOCK, n), n_s)),),
                  parts=_part_count(A, n))
    totals = np.zeros((len(pairs) + 1, n_s))
    for block_sums in sums:
        totals += block_sums
    return totals[-1], list(totals[:-1])
