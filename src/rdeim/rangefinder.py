"""Randomized range finders for snapshot matrices.

Two constructions of an orthonormal basis approximating the dominant
column span of A (n-by-n_s): a Gaussian sketch driven through q power
(subspace) iterations, where q = 0 is the single sketch that
``--basis basic`` names (its provenance is 'subspace-iteration'), and an
adaptive block variant that grows the basis until a Frobenius-norm
criterion holds, reading A twice per group of sketch blocks, for the
sketch and for the group's rows of W'A, from which every residual check
is taken without another read. Every sketch is orthonormalized by
linalg.thin_qr, and every sketch product A X is formed as (X' A')', with
A's rows as BLAS's M operand. Every product with A (A X, the power step's
A'Q, Q'A and the adaptive rows of W'A) goes through _util._over_lines:
on one BLAS thread, for a large A, in one part per usable CPU, and
otherwise in one part, which is the one call; either way with the bits
of one call (see _util._part_count). Both end with the same step: a QB pair
(Q, B = Q'A) is rotated onto the leading left singular directions of B
and truncated to r columns. Each returns an OrthonormalBasis, whose
constructor runs the library's one orthonormality check at its one
tolerance, 1e-8.
"""

import math

import numpy as np

from ._util import (
    OrthonormalBasis,
    _gram,
    _over_lines,
    _unit_scaled,
    as_2d,
    as_matrix,
    as_singular_values,
    check_count,
    check_open_unit,
    finite_product,
)
from .exceptions import AdaptiveRangeError, OverflowingProductError
from .linalg import _svd, column_residuals, thin_qr, thin_svd

# sketch blocks the adaptive range finder draws and applies to A together
SKETCH_GROUP = 4

# the adaptive finder rescales A when tol^2 ||A||_F^2 lies below this,
# 2^-970: at or above it, the n n_s squares a residual at the tolerance is
# made of are normal numbers for any n n_s below 2^52
_TARGET_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def gaussian_matrix(rows, cols, seed):
    """Standard Gaussian test matrix from a seeded counter-based stream.

    The draw is deterministic for a given seed, and distinct seeds yield
    statistically independent streams.
    """
    rows, cols = check_count(rows, 1, "rows"), check_count(cols, 1, "cols")
    rng = np.random.default_rng(check_count(seed, 0, "seed"))
    return rng.standard_normal((rows, cols))


def _sketch_basis(A, rank, oversample, power, seed):
    """Sketch, optionally power-iterate, rotate to the leading r."""
    n, n_s = A.shape
    ell = rank + oversample
    if ell > n_s:
        raise ValueError(
            f"rank + oversample = {ell} exceeds the column count {n_s}"
        )
    omega = gaussian_matrix(n_s, ell, seed)
    # a NaN or an infinity in A leaves the sketch non-finite, and so does an
    # overflow, in a product or in the QR of one; each is checked where it
    # is formed, finite_product tells the two causes apart and names the
    # first step that overflowed, and no product warns
    with np.errstate(over="ignore", invalid="ignore"):
        Q = _checked_qr(_times(A, omega), A, "the sketch A Omega")
        for _ in range(power):
            # re-orthonormalize after every half-iteration to keep the
            # powered sketch numerically full rank
            Q = _checked_qr(_transposed_times(A, Q), A, "the power product A'Q")
            Q = _checked_qr(_times(A, Q), A, "the power product AQ")
        B = finite_product(_left_times(Q.T, A), A, "A", "the projected matrix Q'A")
    return _rotate_qb(Q, B, rank)


def _checked_qr(Y, A, what):
    """The Q factor of thin_qr(Y) for a product Y of A named what, each
    checked for finiteness by finite_product."""
    Q, _ = thin_qr(finite_product(Y, A, "A", what))
    return finite_product(Q, A, "A", f"the QR of {what}")


def _times(A, X):
    """A @ X for a tall A and a thin X, formed as (X' A')' so that A's
    rows are BLAS's M operand. On one BLAS thread that is faster (19.7 ->
    13.0 ms for the paper source matrix times 10 columns, 2.7 -> 0.9 ms
    for a 10000 x 110 basis times 10 columns), and the subspace finder's
    sketches of the paper matrices keep the bits of A @ X. It is
    _left_times on A', whose columns are A's rows."""
    return _left_times(X.T, A.T).T


def _transposed_times(A, Q):
    """A' Q, the power step's product, in parts over A's columns (see
    _util._over_lines), each writing the rows [lo, hi) as A[:, lo:hi]' Q,
    with the bits of the one call."""
    out = np.empty((A.shape[1], Q.shape[1]))
    _over_lines(lambda lo, hi: np.matmul(A[:, lo:hi].T, Q, out=out[lo:hi]), A, A.shape[1])
    return out


def _left_times(X, A, out=None):
    """X @ A for a short X, into out if given: Q'A, the adaptive finder's
    rows of W'A, written into a row slice of C, and (X' A')' for _times.
    In parts over A's columns (see _util._over_lines), each writing the
    columns [lo, hi) as X A[:, lo:hi], with the bits of the one call."""
    if out is None:
        out = np.empty((X.shape[0], A.shape[1]))
    _over_lines(lambda lo, hi: np.matmul(X, A[:, lo:hi], out=out[:, lo:hi]), A, A.shape[1])
    return out


def _rotate_qb(Q, B, rank):
    """Rotate a QB pair (Q, B = Q'A) onto the leading left singular
    directions of B and keep rank of them: Q @ U_B[:, :rank]."""
    Ub, _, _ = _svd(B, "the projected matrix Q'A", full_matrices=False)
    return Q @ Ub[:, :rank]


def subspace_range_finder(A, rank, oversample=10, power=1, seed=0):
    """Randomized basis with q power (subspace) iterations.

    Mathematically the sketch is (A A')^q A Omega, but it is computed
    stably with a thin QR after every application of A and of A'. With
    power=0 it is the single-sketch basis: A @ Omega is orthonormalized
    and the leading r directions of the projected matrix are rotated back
    into the ambient space.

    Cost: A is read 2 + 2q times, once per product; its finiteness is
    tested on the products and QR factors the finder forms, not by a read
    of its own. Where a product of a finite A overflows, the finder runs
    again on a copy of A scaled by an exact power of two to max|a_ij| in
    [1/2, 1), as the adaptive finder does, and returns that copy's basis;
    a run whose products stay finite reads A no more and keeps its bits.

    Parameters
    ----------
    A : ndarray, shape (n, n_s)
    rank : int >= 1
        Target basis size r.
    oversample : int >= 1
        Sketch excess p: the sketch has r + p <= n_s columns.
    power : int >= 0
        Number of subspace iterations q.
    seed : nonnegative int
        Drives the Gaussian draw.

    Returns
    -------
    OrthonormalBasis with provenance 'subspace-iteration'.

    Raises
    ------
    ValueError
        If A has a non-finite entry.
    """
    rank = check_count(rank, 1, "rank")
    oversample = check_count(oversample, 1, "oversample")
    power = check_count(power, 0, "power")
    check_count(seed, 0, "seed")
    A = as_2d(A, "A")
    try:
        W = _sketch_basis(A, rank, oversample, power, seed)
    except OverflowingProductError:
        W = _sketch_basis(_unit_scaled(A), rank, oversample, power, seed)
    return OrthonormalBasis(W, "subspace-iteration")


def adaptive_range_finder(A, tol, block=10, max_blocks=40, seed=0, rank=None):
    """Grow a basis block-by-block until a Frobenius criterion holds.

    The basis grows one sketch group at a time, with the exact rows of
    C = W'A as in randQB_EI (Martinsson & Voronin, SISC 2016). A group's
    Gaussian draws are made together (the same stream as one draw per
    block, never past max_blocks). Its sketch G = A Omega is projected off
    the basis W by W'G = C Omega, then explicitly, a third time if
    max|W'Q| > 1e-12, with one thin QR of the group's columns each time;
    the leading columns of a QR keep the nested span of each leading run
    of blocks. The group's rows of C are then one product. Blocks are
    judged one at a time: once the accumulated ||C_i||_F^2 is within its
    rounding of (1 - tol^2) ||A||_F^2 (so a tol whose square lies below
    the unit roundoff is still checked), the criterion is checked from
    the C formed so far, and W and C are cut at the first block that
    meets it, so ``||A - W W' A||_F^2 <= tol^2 ||A||_F^2`` always holds on
    success. With a rank below the grown width, W is then rotated onto
    the leading left singular directions of C and cut to rank columns.

    ||A||_F^2 is the sum of A's column dots, rounded once by math.fsum;
    a non-finite dot is A's finiteness check. If a dot or the sum
    overflows, or tol^2 ||A||_F^2 lies below 2^-970 (so that squares at
    the tolerance would underflow; ||A||_F^2 rounding to 0 included), the
    finder works on a copy of A scaled by an exact power of two to
    max|a_ij| in [1/2, 1). The basis is that of the scaled copy; its bits
    may differ from those of an unscaled run.

    Cost: A is read twice per group of SKETCH_GROUP blocks (G and the
    group's rows of C), and once for ||A||_F^2. A residual check forms
    W'W (_util._gram) and takes ||A - W C||_F^2 as ||A||_F^2 - ||C||_F^2
    + tr(C'(W'W - I)C) (see _gram_residual). Only when that value lies
    within its rounding margin of the target, where it cannot decide, does
    one linalg.column_residuals call read A again, in blocks of
    SWEEP_BLOCK rows; either way the decision is the explicit residual's,
    and the error a failed run reports is always explicit. W' and C are
    allocated for max_blocks blocks, of which only the rows written become
    resident, and G is freed before the group's rows of C are formed. No
    n x n_s temporary is formed, and the truncation reads A no more.

    Parameters
    ----------
    A : ndarray, shape (n, n_s)
    tol : float in (0, 1)
        Relative Frobenius tolerance eps: the returned basis W satisfies
        ||A - W W' A||_F^2 <= tol^2 ||A||_F^2.
    block : int >= 1
        Columns added per step.
    max_blocks : int >= 1
        Steps allowed; block * max_blocks <= n.
    seed : nonnegative int
        Drives the Gaussian draws.
    rank : int >= 1, optional
        Columns to keep; None (the default) keeps the grown basis as is.

    Returns
    -------
    OrthonormalBasis with provenance 'adaptive'; the basis dimension is a
    multiple of block, or rank if that is smaller.

    Raises
    ------
    ValueError
        If A has a non-finite entry or is identically zero.
    AdaptiveRangeError
        If max_blocks blocks do not reach the tolerance. The exception
        carries the partial basis and the relative residual it achieves.
    """
    check_open_unit(tol, "tol")
    block = check_count(block, 1, "block")
    max_blocks = check_count(max_blocks, 1, "max_blocks")
    check_count(seed, 0, "seed")
    A = as_2d(A, "A")
    n, n_s = A.shape
    if block * max_blocks > n:
        raise ValueError(
            f"block * max_blocks = {block * max_blocks} exceeds the ambient "
            f"dimension {n}; the basis cannot outgrow its space"
        )
    if rank is not None:
        rank = check_count(rank, 1, "rank")
    rng = np.random.default_rng(seed)
    alpha = _squared_norm(A)
    if not _TARGET_FLOOR <= tol * tol * alpha < math.inf:
        A = _unit_scaled(A)
        alpha = _squared_norm(A)
    target = tol * tol * alpha

    # beta sums k n_s rounded squares and tol^2 may lie below the unit
    # roundoff u: the check runs once beta is within (n + k n_s) u alpha of
    # alpha (1 - tol^2)
    u = np.finfo(np.float64).eps / 2

    # W' and C = W'A have room for every block, but a row becomes resident
    # only once it is written
    Wt = np.empty((block * max_blocks, n))
    C = np.empty((block * max_blocks, n_s))
    k = 0
    beta = 0.0
    met = False
    while not met:
        W = Wt[:k].T
        if k == block * max_blocks:
            rel = float(np.sqrt(_explicit_residual(A, W, C[:k]) / alpha))
            raise AdaptiveRangeError(
                f"tolerance {tol} not reached after {max_blocks} blocks "
                f"(relative residual {rel:.3e})",
                partial_basis=W,
                residual=rel,
            )
        omega = np.concatenate(
            rng.standard_normal((min(SKETCH_GROUP, max_blocks - k // block), n_s, block)), axis=1
        )
        G = _times(A, omega)
        if k:
            # W'G = C omega, so the first projection reads A no more
            G -= _times(W, C[:k] @ omega)
        Q, _ = thin_qr(G)
        del G
        # then off W explicitly, a third time if W'Q is not yet negligible
        for again in (False, True) if k else ():
            S = W.T @ Q
            if again and np.max(np.abs(S)) <= 1e-12:
                break
            Q -= _times(W, S)
            Q, _ = thin_qr(Q)
        end = k + Q.shape[1]
        Wt[k:end] = Q.T
        del Q
        _left_times(Wt[k:end], A, out=C[k:end])
        # k runs over the group's block ends, and stops at the first that
        # meets the tolerance
        for k in range(k + block, end + 1, block):
            beta += float(np.vdot(C[k - block : k], C[k - block : k]))
            if beta > alpha * (1.0 - tol * tol) - (n + k * n_s) * u * alpha:
                W = Wt[:k].T
                res, margin = _gram_residual(W, C[:k], alpha)
                if abs(res - target) <= margin:
                    res = _explicit_residual(A, W, C[:k])
                met = res <= target
                if met:
                    break

    W = Wt[:k].T
    if rank is not None and rank < k:
        W = _rotate_qb(W, C[:k], rank)
    else:
        W = W.copy(order="F")  # holds none of the unused rows of W'
    return OrthonormalBasis(W, "adaptive")


def _squared_norm(A):
    """||A||_F^2 as the math.fsum of A's column dots; inf if a dot or the
    sum overflows. A NaN or an infinity in A leaves a dot non-finite, and
    then as_matrix raises its non-finite-entries ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.einsum("ij,ij->j", A, A)
    if not np.isfinite(dots).all():
        as_matrix(A, "A")
        return math.inf
    try:
        return math.fsum(dots)
    except OverflowError:
        return math.inf


def _gram_residual(W, C, norm2):
    """(g, margin): the Gram value g of ||A - W C||_F^2 for C = W'A as
    formed, and a margin such that g and the explicit residual lie on the
    same side of any target farther than margin from g.

    For any W and C the residual R = ||A - W C||_F^2, which the explicit
    kernel evaluates, equals ||A||_F^2 - ||C||_F^2 + 2<C, D> +
    tr(C'(W'W - I)C), where D = C - W'A is the rounding of the product
    C. The Gram value g = norm2 - ||C||_F^2 + tr(C'(W'W - I)C), with
    norm2 the accurately summed ||A||_F^2, omits <C, D> and rounds the
    rest. With u the unit roundoff, g_m = m u / (1 - m u), A n x n_s and
    k = W.shape[1], |g - R| <= e_gram, the sum of
      - norm2, a correctly rounded sum of n-term column dots: g_(n+2) norm2;
      - ||C||_F^2, one dot of k n_s terms: g_(k n_s) ||C||_F^2;
      - 2|<C, D>| with |D| <= g_n |W|'|A|, which holds for every row of C
        formed as an n-term dot product: 2 g_n ||W||_F ||A||_F ||C||_F;
      - fl(W'W) - W'W, entrywise below g_n |W|'|W|, as a sum of the Grams
        of two row halves (_util._gram) is too, so of spectral norm below
        g_n ||W||_F^2: g_n ||W||_F^2 ||C||_F^2;
      - E = fl(W'W) - I times C and dotted with C:
        g_(k + k n_s + 1) ||E||_F ||C||_F^2;
      - the two final additions: g_2 (norm2 + ||C||_F^2).
    The explicit kernel forms W[rows] C off by H, ||H||_F <= h =
    g_k ||W||_F ||C||_F, then subtracts, squares and sums n n_s terms,
    each through at most n + n_s additions. So it returns R' with
    |R' - R| <= e_explicit = g_(n+n_s+3) (sqrt(R) + h)^2 + 2 sqrt(R) h + h^2,
    increasing in R, and R <= |g| + e_gram. Once |g - target| exceeds
    e_gram + e_explicit, g and R' lie on the same side of target. The
    margin is 1.01 (e_gram + e_explicit): taking the norms from their
    computed squares and evaluating the bounds in floating point moves
    them by a relative O((n + k n_s) u), which the slack covers.
    """
    n, k = W.shape
    n_s = C.shape[1]
    E = _gram(W)
    w2 = float(np.trace(E))
    E[np.diag_indices(k)] -= 1.0
    c2 = float(np.vdot(C, C))
    gram = norm2 - c2 + float(np.vdot(C, E @ C))

    u = np.finfo(np.float64).eps / 2

    def g(m):
        return m * u / (1.0 - m * u)

    a, c, w = math.sqrt(norm2), math.sqrt(c2), math.sqrt(w2)
    e_gram = (
        g(n + 2) * norm2
        + g(k * n_s) * c2
        + 2.0 * g(n) * w * a * c
        + g(n) * w2 * c2
        + g(k + k * n_s + 1) * float(np.linalg.norm(E)) * c2
        + g(2) * (norm2 + c2)
    )
    h = g(k) * w * c
    r = math.sqrt(abs(gram) + e_gram)
    e_explicit = g(n + n_s + 3) * (r + h) ** 2 + 2.0 * r * h + h * h
    return gram, 1.01 * (e_gram + e_explicit)


def _explicit_residual(A, W, C):
    """||A - W C||_F^2 as the column sum of one column_residuals call."""
    _, (res,) = column_residuals(A, [(W, C)])
    return float(res.sum())


def svd_basis(A, rank):
    """Leading left singular vectors of A as an OrthonormalBasis; only the
    rank kept vectors are formed (see thin_svd)."""
    return OrthonormalBasis(thin_svd(A, check_count(rank, 1, "rank")).U, "exact-svd")


def truncation_rank(sv, eps):
    """Smallest r whose discarded tail energy is at most eps of the total.

    Parameters
    ----------
    sv : ndarray
        Singular values, nonincreasing and nonnegative, not all zero.
    eps : float, > 0
        Energy-ratio tolerance: the result is the smallest r with
        ``sum(sv[r:]**2) <= eps * sum(sv**2)``.
    """
    sv = as_singular_values(sv)
    if sv.size == 0 or np.all(sv == 0.0):
        raise ValueError("sv must contain at least one nonzero singular value")
    if not eps > 0.0:  # a NaN fails this too
        raise ValueError(f"eps must be positive, got {eps}")
    energy = sv * sv
    total = float(energy.sum())
    # suffix sums avoid the cancellation of total - cumsum for tiny tails
    tails = np.concatenate([np.cumsum(energy[::-1])[::-1], [0.0]])
    # tails[r] = sum(energy[r:]); find the smallest r with tails[r] <= eps * total
    ok = tails <= eps * total
    return int(np.argmax(ok))
