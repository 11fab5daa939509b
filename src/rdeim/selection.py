"""Interpolation-point selection: deterministic pivoting and randomized
leverage-score sampling, plus the hybrid two-stage scheme.

A selection is represented sparsely by row indices and positive column
weights; the dense operator S has columns weights[k] * e_indices[k].
Deterministic selectors produce distinct indices with unit weights;
sampled selectors may repeat indices and carry the usual 1/sqrt(s * pi)
scaling that makes E[S S'] the identity.

Each deterministic selector reads its points from pivots: greedy from the
row pivots of LAPACK ``getrf`` (LU with partial pivoting) on W, pqr from
the column pivots of linalg's pivot search on W' (the greedy
largest-residual rule of column-pivoted QR, with no factor formed), and
srrqr from those pivots plus the swaps of linalg.srrqr.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from ._util import check_count, check_open_unit, orthonormal_basis
from .exceptions import (
    ConvergenceError,
    DegenerateBasisError,
    DegenerateSelectionError,
    RankDeficiencyError,
)
from .linalg import _pivot_order, srrqr


@dataclass(frozen=True)
class SelectionOperator:
    """Sparse n-by-s selection-and-scaling operator.

    Column k of the dense operator is weights[k] times the indices[k]-th
    standard basis vector, so S' x picks and scales entries
    ``(S' x)[k] = weights[k] * x[indices[k]]``. indices must be of an
    integer dtype and n an integer: a float is rejected, not truncated.
    """

    indices: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        w = np.asarray(self.weights, dtype=np.float64)
        if idx.ndim != 1 or w.ndim != 1 or idx.size != w.size:
            raise ValueError("indices and weights must be 1-d and equally long")
        if idx.size == 0:
            raise ValueError("selection must contain at least one point")
        if idx.dtype.kind not in "iu":  # a float would be truncated; a bool is no index
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        check_count(self.n, 1, "n")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ValueError(f"indices must lie in [0, {self.n})")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "indices", idx.astype(np.intp, copy=False))
        object.__setattr__(self, "weights", w)

    @property
    def s(self):
        return self.indices.size

    def restrict(self, x):
        """Apply S': pick and scale the selected entries of a vector x, or
        the selected rows of a matrix x (then a C-ordered s x k array)."""
        x = np.asarray(x, dtype=np.float64)
        return self.weights * x[self.indices] if x.ndim == 1 else self.weights[:, None] * x[self.indices]

    def two_norm(self):
        """||S||_2; S S' is diagonal, so this is a max over accumulated weights."""
        acc = np.zeros(self.n)
        np.add.at(acc, self.indices, self.weights**2)
        return float(np.sqrt(acc.max()))


def leverage_scores(W):
    """Row leverage scores of an orthonormal basis: l_j = ||W[j, :]||^2.

    They sum to the basis rank; their maximum is the coherence. Each is
    one dot product of a row with itself, so no n x r temporary is formed.
    """
    W = orthonormal_basis(W, "W").matrix
    return np.einsum("ij,ij->i", W, W)


def mixed_pmf(leverage, rank, beta):
    """Mix the normalized leverage scores with the uniform distribution.

    probs[j] = beta * leverage[j] / rank + (1 - beta) / n, which keeps
    every probability at least (1 - beta) / n.

    Parameters
    ----------
    leverage : ndarray
        Row leverage scores; they must sum to rank within rank * 1e-8,
        which admits every basis that check_orthonormal accepts (each Gram
        entry within 1e-8 of the identity).
    rank : int
    beta : float in (0, 1), exclusive at both ends.

    Returns
    -------
    ndarray
        The probabilities, one per row.
    """
    lev = np.asarray(leverage, dtype=np.float64)
    if lev.ndim != 1 or lev.size == 0:
        raise ValueError("leverage must be a nonempty 1-d array")
    if not (lev >= 0).all():  # a NaN fails this too
        raise ValueError("leverage scores must be nonnegative")
    check_open_unit(beta, "beta")
    r = check_count(rank, 1, "rank")
    if abs(lev.sum() - r) > 1e-8 * r:
        raise ValueError(f"leverage scores sum to {lev.sum()!r}, expected rank {r}")
    return beta * lev / r + (1.0 - beta) / lev.size


def sample_count_bound(rank, beta, eps, delta, n=None):
    """Sample count for the leverage sampling guarantee (natural log).

    ceil((2 r / (beta eps^2)) * log(r / delta)). When n is given and the
    count exceeds it, the count is capped at n with a warning (sampling
    more rows than exist brings nothing).
    """
    r = check_count(rank, 1, "rank")
    if n is not None:
        n = check_count(n, 1, "n")
    for name, val in (("beta", beta), ("eps", eps), ("delta", delta)):
        check_open_unit(val, name)
    count = int(np.ceil(2.0 * r / (beta * eps * eps) * np.log(r / delta)))
    if n is not None and count > n:
        warnings.warn(
            f"leverage sample count {count} exceeds the row count {n}; capping at {n}",
            RuntimeWarning,
        )
        count = n
    return count


def practical_sample_count(rank):
    """The cheaper working rule ceil(3 r ln r) used when no tail guarantee is needed.

    The rule gives no sample below rank 2, so a sampled selection on such
    a basis needs its count given explicitly.
    """
    r = check_count(rank, 1, "rank")
    if r == 1:
        raise ValueError(
            "the practical sample count is 0 at rank 1: "
            "pass samples= (--samples on the command line)"
        )
    return int(np.ceil(3.0 * r * np.log(r)))


def leverage_select(W, s, beta, seed):
    """Sample s rows of W with replacement and scale for unbiasedness.

    Rows are drawn from mixed_pmf(leverage_scores(W), r, beta). Column k
    of S is e_{t_k} / sqrt(s * probs[t_k]), which makes E[S S'] = I.
    Duplicate draws are kept.
    """
    W = orthonormal_basis(W, "W")
    n, r = W.matrix.shape
    probs = mixed_pmf(leverage_scores(W), r, beta)
    s = check_count(s, 1, "samples")
    rng = np.random.default_rng(check_count(seed, 0, "seed"))
    idx = rng.choice(n, size=s, replace=True, p=probs)
    weights = 1.0 / np.sqrt(s * probs[idx])
    return SelectionOperator(indices=idx, weights=weights, n=n)


def hybrid_select(W, c_ls, beta, eta=2.0, seed=0):
    """Two-stage selection: leverage sampling, then a strong RRQR prune.

    Stage one draws c_ls weighted rows from
    mixed_pmf(leverage_scores(W), r, beta); stage two runs the strong
    rank-revealing QR on W' S1 and keeps the r revealed columns, yielding
    exactly r weighted points.

    Returns
    -------
    (S1, S2, S) : SelectionOperator triple
        The sampling stage (n -> c_ls), the pruning stage expressed inside
        the sampled coordinates (c_ls -> r), and their composition
        (n -> r).

    Raises
    ------
    DegenerateSelectionError
        If the strong RRQR stage finds the sampled rows rank deficient
        against the basis. The rank of the final S' W is not checked here:
        the projector module's rank test (build_projector and
        check_full_rank) is the one check of it.
    """
    W = orthonormal_basis(W, "W")
    Wm = W.matrix
    n, r = Wm.shape
    c_ls = check_count(c_ls, r, "c_ls")
    S1 = leverage_select(W, c_ls, beta, seed)
    M = S1.restrict(Wm).T  # r x c_ls: W' S1
    try:
        fac = srrqr(M, r, eta)
    except RankDeficiencyError as err:
        raise DegenerateSelectionError(
            f"sampled rows span only a deficient subspace: {err}"
        ) from err
    keep = fac.perm[:r]
    S2 = SelectionOperator(indices=keep, weights=np.ones(r), n=c_ls)
    S = SelectionOperator(indices=S1.indices[keep], weights=S1.weights[keep], n=n)
    return S1, S2, S


def pqr_select(W):
    """Deterministic selection from the column-pivoted QR of W': the first
    r pivots of linalg's pivot search, which forms no R."""
    Wm = orthonormal_basis(W, "W").matrix
    r = Wm.shape[1]
    perm = _pivot_order(Wm.T)
    return SelectionOperator(indices=perm[:r], weights=np.ones(r), n=Wm.shape[0])


def srrqr_select(W, eta=2.0):
    """Deterministic selection from the strong rank-revealing QR of W'.

    The revealed pivots guarantee
    ``||inv(S' W)||_2 <= sqrt(1 + eta^2 r (n - r))``.
    """
    Wm = orthonormal_basis(W, "W").matrix
    n, r = Wm.shape
    fac = srrqr(Wm.T, r, eta)
    return SelectionOperator(indices=fac.perm[:r], weights=np.ones(r), n=n)


def deim_greedy_select(W):
    """Classic greedy selection: walk the basis columns in order, placing
    each new point at the largest interpolation residual of the next column.

    That is the row-pivot order of LU with partial pivoting on W (Sorensen
    & Embree, SISC 2016), so the points are the first r rows of the
    permutation of one LAPACK ``getrf``. Expects the columns of W ordered
    by importance (e.g. singular vectors). An exact zero pivot raises
    DegenerateBasisError, a LAPACK argument error ConvergenceError.
    """
    Wm = orthonormal_basis(W, "W").matrix
    n, r = Wm.shape
    _, piv, info = get_lapack_funcs("getrf", (Wm,))(Wm)
    if info > 0:
        raise DegenerateBasisError(f"zero pivot at greedy step {info - 1} of {r}")
    if info < 0:
        raise ConvergenceError(f"getrf failed on {Wm.shape} input (info={info})")
    perm = np.arange(n, dtype=np.intp)
    for k, p in enumerate(piv):  # row k was swapped with row p (0-based)
        perm[k], perm[p] = perm[p], perm[k]
    return SelectionOperator(indices=perm[:r], weights=np.ones(r), n=n)
