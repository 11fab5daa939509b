"""Dense factorization kernels: thin SVD, pivoted and strong rank-revealing
QR, spectral norms, canonical angles, and the row-streamed per-column
residuals every error sweep, bound and residual check is built on.

Everything operates on plain float64 ndarrays; canonical_angles also takes
an OrthonormalBasis, whose columns it does not check again. The thin SVD
is a Householder QR (LAPACK ``geqrf``) followed by numpy's SVD of the
small R factor, and the thin QR of the range finders is ``geqrf`` plus
``orgqr``. The column pivots are a lazy search written out here
(_pivot_order): the greedy largest-residual rule, the first position on
ties to roundoff, which is the documented contract and gives the pivots
of LAPACK ``geqp3``, while it brings up to date only the residuals that
can still lead. pivoted_qr adds R from the pivot block (``geqrf`` and
``orgqr`` of those columns, applied to the rest), and the strong
rank-revealing swap refinement on top of it refactors after each swap
with one ``geqrf``. The pivoted factorizations return R and the
permutation only: no Q of M is formed. selection.pqr_select takes its
points from the search alone, with no R and no LAPACK call, and
selection.srrqr_select from pivoted_qr plus those swaps; the greedy DEIM
selector is LAPACK ``getrf`` and lives in selection. Every SVD of the
library runs through _svd and every LAPACK routine here through _lapack,
so a failure is a ConvergenceError naming its operand and shape.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
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


def pivoted_qr(M):
    """Column-pivoted QR: the pivot order of _pivot_order and the R factor
    of the pivoted columns, with no Q returned.

    At each step the pivot is the trailing column whose residual off the
    span of the pivots before it is largest, as recomputed by the search.
    Squared residuals within 64 eps of the largest, measured against the
    squared norm the largest was downdated from (their roundoff), tie, and
    a tie goes to the first (lowest) position, which makes the pivot
    sequence deterministic. Positions swap as LAPACK ``geqp3`` swaps its
    pivots, so where no two residuals tie to roundoff the whole order is
    ``geqp3``'s. Once every residual left is roundoff, at most 2^-40 of its
    column's norm, the rest of the order stays as the swaps left it, where
    ``geqp3`` would go on pivoting by that roundoff.

    R is formed from the pivot block: one ``geqrf`` of M[:, perm[:k]] and,
    for a wide M, the ``orgqr`` Q of that block applied to the trailing
    columns a block at a time (as _max_interaction solves them), each
    product written into the one k-by-n R.

    Parameters
    ----------
    M : ndarray, shape (m, n)

    Returns
    -------
    R : ndarray, shape (k, n) with k = min(m, n)
        ``Q @ R = M[:, perm]`` for an orthonormal Q; R[:, :k] is upper
        triangular and its diagonal magnitudes are nonincreasing. R is
        the only k-by-n array formed, in Fortran order; the search's
        row-major copy of a large column-major M' is freed before R is
        allocated, so the two are never held together.
    perm : ndarray of intp, shape (n,)
        Pivot order applied to the columns of M.

    Raises
    ------
    ValueError
        If M has a non-finite entry. M is read for finiteness only when a
        squared column norm is not finite.
    OverflowingProductError
        If R overflows on a finite M.
    ConvergenceError
        If LAPACK reports a failure (nonzero info).
    """
    A = as_2d(M, "M")
    perm = _pivot_order(A)
    m, n = A.shape
    k = min(m, n)
    if k == 0:
        return np.zeros((0, n)), perm
    qr, tau, orgqr = _householder_qr(A[:, perm[:k]], "orgqr")
    if n == k:
        R = _upper_factor(qr)
    else:
        # the pivot block is square: R takes it whole, reflectors included,
        # and orgqr forms its Q in place of qr
        R = np.empty((k, n), order="F")
        R[:, :k] = qr
        Q = _with_workspace(orgqr, qr.shape, qr, tau, overwrite_a=True)
        step = block_lines(k)
        for lo in range(k, n, step):
            # R[:, lo:hi]' is C-ordered: the product is written in place
            np.matmul(A.T[perm[lo : lo + step]], Q, out=R[:, lo : lo + step].T)
        R = _upper_factor(R)
    # the search checked M; a non-finite R is an overflow
    return finite_product(R, M, "M", "the pivoted QR of M"), perm


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
    """The column pivot order of M (m-by-n) by the greedy largest-residual
    rule, as pivoted_qr describes it, without forming R or calling LAPACK.

    The search works on squared residuals ||m_j||^2 - ||Q'm_j||^2, Q the
    directions of the pivots so far, each made by Gram-Schmidt of its pivot
    column, with a second pass when the first takes off more than half of
    the column's squared norm. A squared residual
    only shrinks from step to step, so one computed at an earlier step
    bounds it from above, and only the columns that can still lead are
    brought up to date at each step. The search runs in blocks of steps. A
    block starts with every residual brought up to date: one product of M'
    with the directions added since the last block, a block of rows at a
    time, in parts for a large M (_downdate). It copies the columns of the
    largest residuals, FINITE_BLOCK entries of them, as its pool, and keeps
    the largest residual outside the pool as a bound. At each step only the pool is downdated, by one
    matrix-vector product with the newest direction, and its largest
    residual leads; once that falls within a tie of the bound, a column
    outside the pool could lead, and a new block starts. A downdated
    residual below _RECOMPUTE of the last one computed explicitly has lost
    its accuracy: when one would lead or tie, a new block starts too, and
    its update computes every such residual explicitly again, as
    ||m_j - Q Q'm_j||^2, SWEEP_BLOCK columns at a time, as geqp3
    recomputes a column norm that lost its accuracy. The search stops
    early, leaving the trailing order as it is, when a pivot's residual is
    exactly zero, or when a block starts with every residual left at most
    _NEGLIGIBLE of its column's squared norm: past the numerical rank each
    step would otherwise compute nearly every residual explicitly again.

    M is read through M', a row per column: the pool and the recomputed
    columns are gathered rows of M'. A column-major M' of at least
    _COPY_ENTRIES entries is first copied to row-major, once, after the
    squared column norms are read from M itself; that is the W' that
    pqr_select and srrqr_select pass for a W in Fortran order, as
    read_matrix returns it to every rdeim select. A row-major or small M'
    is read in place. Beyond the copy, the pool and SWEEP_BLOCK recomputed
    columns no copy of M is made, and the copy is freed on return. The
    copy holds M's values, so every gather reads the same numbers and a
    block update is the same product on the same values: on the
    select-cli bases OpenBLAS gave it the bits of the product on M'
    itself, though a one-column update (a matrix-vector call) or a short
    last block on its small-matrix kernels may differ in the last bits.
    When a squared column norm
    overflows, or the square of a nonzero column underflows to a subnormal
    or to zero, the search runs on M scaled by an exact power of two
    (_unit_scaled), which scales every residual alike. A non-finite entry
    raises as_matrix's ValueError.
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
        Mt = _unit_scaled(M).T
        res = np.einsum("ij,ij->i", Mt, Mt)
    # a pool of every column reads M' as it is laid out: a matrix-vector
    # product's bits depend on the layout
    whole = Mt
    if Mt.size >= _COPY_ENTRIES and not Mt.flags.c_contiguous:
        # a row of M' per column, so that the pool and the recomputed
        # columns are gathered from contiguous rows
        Mt = np.ascontiguousarray(Mt)
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
            _downdate(res, Mt, Qt[start:i].T)
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
        G = whole if cols.size == n else Mt[cols]  # a copy, unless it is all of M
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


# the search copies a column-major M' of at least this many entries (4 MB)
# to row-major. Paired calls at one BLAS thread on orthonormal W', the copy
# included, medians of 40, without / with it (ms): 24 x 10000 2.8 / 3.2,
# 48 x 10000 7.1 / 7.8, 64 x 3000 3.5 / 3.8 and 96 x 3000 7.4 / 7.5 (below
# the floor); 64 x 10000 13.0 / 12.4, 80 x 10000 18.5 / 16.8, 96 x 10000
# 25.0 / 24.8 and 128 x 10000 40.5 / 34.0 (above it)
_COPY_ENTRIES = 1 << 19


def _downdate(res, Mt, Q):
    """res -= the squared row norms of Mt @ Q, in blocks of block_lines
    rows, in _work_parts parts through fill_in_parts. Each part forms its
    blocks' products and sums in its own two buffers, so no worker
    allocates; the block bounds do not depend on the part count."""
    n, width = Mt.shape[0], Q.shape[1]
    step = block_lines(width)
    n_blocks = -(-n // step)

    def fill(lo, hi, P, sums):
        for b in range(lo, hi):
            rows = slice(b * step, (b + 1) * step)
            block = Mt[rows]
            product = np.matmul(block, Q, out=P[: block.shape[0]])
            res[rows] -= np.einsum("ij,ij->i", product, product, out=sums[: block.shape[0]])

    fill_in_parts(fill, n_blocks,
                  lambda: (np.empty((min(step, n), width)), np.empty(min(step, n))),
                  parts=_work_parts(Mt.size * width))


def _upper_factor(qr):
    """R (k-by-n), k = min(m, n), from the m-by-n output qr of a
    Householder QR (``geqrf``). qr must be owned by the
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
    one k-by-n R that pivoted_qr forms, the working memory is the pivot
    search's: a row-major copy of a large column-major M', freed before R
    is allocated, its pool or one block of products and of sums per part
    (FINITE_BLOCK entries each) and its few arrays of one entry per
    column; then one gathered block of M's columns for R and one block of
    at most max(FINITE_BLOCK, rank * SWEEP_BLOCK) interactions.
    A swap refactors a copy of M[:, perm], which becomes the new R.

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
    r = check_count(rank, 1, "rank", min(m, n))
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
    lines (block_lines), so no r x (n - r) temporary is formed and few
    solves are made. A block's np.argmax is its first maximal entry in
    row order; across blocks, a tie goes to the lower row, and in one row
    to the earlier block. The solves skip scipy's finiteness check:
    pivoted_qr checked R, and a swap refactors the same columns.
    """
    R11 = R[:r, :r]
    step = block_lines(r)
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
