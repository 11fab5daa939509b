"""Randomized range finders for snapshot matrices.

Two constructions of an orthonormal basis approximating the dominant
column span of A (n-by-n_s): a Gaussian sketch driven through q power
(subspace) iterations, where q = 0 is the single sketch that
``--basis basic`` names (its provenance is 'subspace-iteration'), and an
adaptive block variant that grows the basis until a Frobenius-norm
criterion holds. Each returns an OrthonormalBasis, whose constructor runs
the library's one orthonormality check at its one tolerance, 1e-8. A
streaming rank-one sketch accumulator supports single-pass and
column-replacement workflows.
"""

from dataclasses import dataclass, field

import numpy as np

from ._util import SWEEP_BLOCK, OrthonormalBasis, as_matrix, as_vector, check_seed
from .exceptions import AdaptiveRangeError, ConvergenceError
from .linalg import thin_svd

# sketch blocks the adaptive range finder draws and applies to A together
SKETCH_GROUP = 4


@dataclass(frozen=True)
class RangeConfig:
    """Sketch geometry for the fixed-rank range finders.

    rank is the target basis size r, oversample the sketch excess p (the
    sketch has r + p columns), power the number of subspace iterations q,
    and seed drives the Gaussian draw.
    """

    rank: int
    oversample: int = 10
    power: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power}")
        check_seed(self.seed)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Block geometry for the adaptive range finder.

    tol is the relative Frobenius tolerance eps in (0, 1): the returned
    basis W satisfies ||A - W W' A||_F^2 <= tol^2 ||A||_F^2. block columns
    are added per step, at most max_blocks times.
    """

    tol: float
    block: int = 10
    max_blocks: int = 40
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {self.block}")
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {self.max_blocks}")
        check_seed(self.seed)


def gaussian_matrix(rows, cols, seed):
    """Standard Gaussian test matrix from a seeded counter-based stream.

    The draw is deterministic for a given seed, and distinct seeds yield
    statistically independent streams.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"gaussian_matrix dimensions must be positive, got {rows} x {cols}")
    rng = np.random.default_rng(check_seed(seed))
    return rng.standard_normal((rows, cols))


def _sketch_basis(A, cfg):
    """Shared core: sketch, optionally power-iterate, rotate to leading r."""
    n, n_s = A.shape
    ell = cfg.rank + cfg.oversample
    if ell > n_s:
        raise ValueError(
            f"rank + oversample = {ell} exceeds the column count {n_s}"
        )
    omega = gaussian_matrix(n_s, ell, cfg.seed)
    Q, _ = np.linalg.qr(A @ omega)
    for _ in range(cfg.power):
        # re-orthonormalize after every half-iteration to keep the
        # powered sketch numerically full rank
        Q, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    B = Q.T @ A
    try:
        Ub, _, _ = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"SVD of the projected sketch failed: {err}") from err
    return Q @ Ub[:, : cfg.rank]


def subspace_range_finder(A, cfg):
    """Randomized basis with q power (subspace) iterations.

    Mathematically the sketch is (A A')^q A Omega, but it is computed
    stably with a thin QR after every application of A and of A'. With
    power=0 it is the single-sketch basis: A @ Omega is orthonormalized
    and the leading r directions of the projected matrix are rotated back
    into the ambient space.

    Parameters
    ----------
    A : ndarray, shape (n, n_s)
    cfg : RangeConfig

    Returns
    -------
    OrthonormalBasis with provenance 'subspace-iteration'.
    """
    A = as_matrix(A, "A")
    W = _sketch_basis(A, cfg)
    return OrthonormalBasis(W, "subspace-iteration", cfg)


def adaptive_range_finder(A, cfg):
    """Grow a basis block-by-block until a Frobenius criterion holds.

    Blocks of `cfg.block` Gaussian sketch columns are absorbed, each one
    orthogonalized against the current basis; the captured energy is
    tracked through the accumulated ||B'||_F^2 (equal to ||Q'A||_F^2 up to
    the orthogonalization residual), as in randQB_EI (Martinsson & Voronin,
    SISC 2016). Before returning, the criterion is re-verified with an
    explicit residual computation, and extra blocks are absorbed if the
    accumulator was optimistic, so the postcondition
    ``||A - W W' A||_F^2 <= tol^2 ||A||_F^2`` always holds on success.

    Cost: A is read once per SKETCH_GROUP sketch blocks, whose Gaussian
    draws are made together (the same stream as one draw per block, never
    past max_blocks) and applied to A in one product; each absorbed block
    then reads A once more for its rows of B. ||A||_F^2 is one dot product
    and the explicit residual a sum over blocks of SWEEP_BLOCK rows, so no
    n x n_s temporary is formed.

    Parameters
    ----------
    A : ndarray, shape (n, n_s)
    cfg : AdaptiveConfig with cfg.block * cfg.max_blocks <= n

    Returns
    -------
    OrthonormalBasis with provenance 'adaptive'; the basis dimension is a
    multiple of cfg.block.

    Raises
    ------
    AdaptiveRangeError
        If max_blocks blocks do not reach the tolerance. The exception
        carries the partial basis and the relative residual it achieves.
    """
    A = as_matrix(A, "A")
    n, n_s = A.shape
    if cfg.block * cfg.max_blocks > n:
        raise ValueError(
            f"block * max_blocks = {cfg.block * cfg.max_blocks} exceeds the ambient "
            f"dimension {n}; the basis cannot outgrow its space"
        )
    rng = np.random.default_rng(cfg.seed)
    alpha = float(np.vdot(A, A))
    if alpha == 0.0:
        raise ValueError("A is identically zero; no basis to find")
    target = cfg.tol * cfg.tol * alpha

    W = None
    B = None
    beta = 0.0
    blocks = 0
    drawn = []  # (omega, A @ omega) of the drawn blocks not yet absorbed
    # the accumulator can drift, so the loop ends only once the explicit
    # residual confirms it
    while beta <= alpha * (1.0 - cfg.tol * cfg.tol) or _explicit_residual(A, W) > target:
        if blocks == cfg.max_blocks:
            res = float(np.sqrt(_explicit_residual(A, W) / alpha))
            raise AdaptiveRangeError(
                f"tolerance {cfg.tol} not reached after {cfg.max_blocks} blocks "
                f"(relative residual {res:.3e})",
                partial_basis=W,
                residual=res,
            )
        if not drawn:
            omegas = rng.standard_normal((min(SKETCH_GROUP, cfg.max_blocks - blocks), n_s, cfg.block))
            Y = A @ np.concatenate(omegas, axis=1)
            drawn = [(om, Y[:, i * cfg.block : (i + 1) * cfg.block]) for i, om in enumerate(omegas)]
        omega, A_omega = drawn.pop(0)
        if W is None:
            Q, _ = np.linalg.qr(A_omega)
            Bp = Q.T @ A
        else:
            Q, _ = np.linalg.qr(A_omega - W @ (B @ omega))
            Q, _ = np.linalg.qr(Q - W @ (W.T @ Q))
            if np.max(np.abs(W.T @ Q)) > 1e-12:
                Q, _ = np.linalg.qr(Q - W @ (W.T @ Q))
            Bp = Q.T @ A - (Q.T @ W) @ B
        W = Q if W is None else np.hstack([W, Q])
        B = Bp if B is None else np.vstack([B, Bp])
        beta += float(np.sum(Bp * Bp))
        blocks += 1

    return OrthonormalBasis(W, "adaptive", cfg)


def _explicit_residual(A, W):
    """||A - W W'A||_F^2: W'A is formed once, then the residual is summed
    over SWEEP_BLOCK rows of A at a time."""
    C = W.T @ A
    E = np.empty((min(SWEEP_BLOCK, A.shape[0]), A.shape[1]))
    total = 0.0
    for lo in range(0, A.shape[0], SWEEP_BLOCK):
        A_rows = A[lo : lo + SWEEP_BLOCK]
        E_rows = np.matmul(W[lo : lo + SWEEP_BLOCK], C, out=E[: A_rows.shape[0]])
        np.subtract(A_rows, E_rows, out=E_rows)
        total += float(np.vdot(E_rows, E_rows))
    return total


def svd_basis(A, rank):
    """Leading left singular vectors of A as an OrthonormalBasis."""
    A = as_matrix(A, "A")
    r = int(rank)
    if not 1 <= r <= min(A.shape):
        raise ValueError(f"rank must be in [1, {min(A.shape)}], got {rank}")
    f = thin_svd(A)
    return OrthonormalBasis(f.U[:, :r].copy(), "exact-svd", {"rank": r})


def truncate_basis(basis, A, rank):
    """Rotate a basis onto the leading directions of W'A and truncate to rank.

    Useful after adaptive range finding, whose output dimension is a block
    multiple rather than a chosen r.
    """
    A = as_matrix(A, "A")
    W = basis.matrix
    r = int(rank)
    if not 1 <= r <= W.shape[1]:
        raise ValueError(f"rank must be in [1, {W.shape[1]}], got {rank}")
    B = W.T @ A
    Ub, _, _ = np.linalg.svd(B, full_matrices=False)
    return OrthonormalBasis(W @ Ub[:, :r], basis.provenance, basis.config)


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
    sv = as_vector(sv, "sv")
    if sv.size == 0 or np.all(sv == 0.0):
        raise ValueError("sv must contain at least one nonzero singular value")
    if np.any(sv < 0.0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(sv) > 1e-12 * sv[0]):
        raise ValueError("singular values must be sorted nonincreasing")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    energy = sv * sv
    total = float(energy.sum())
    # suffix sums avoid the cancellation of total - cumsum for tiny tails
    tails = np.concatenate([np.cumsum(energy[::-1])[::-1], [0.0]])
    # tails[r] = sum(energy[r:]); find the smallest r with tails[r] <= eps * total
    ok = tails <= eps * total
    return int(np.argmax(ok))


@dataclass
class SketchState:
    """Accumulator for the streaming sketch Y = A @ Omega.

    Omega is frozen at initialization; columns of A are absorbed one at a
    time as rank-one updates, and absorbed columns may later be replaced.
    Mutation is single-writer: concurrent absorbs into one state are not
    supported.
    """

    omega: np.ndarray
    Y: np.ndarray
    absorbed: np.ndarray = field(repr=False)

    @property
    def columns_absorbed(self):
        return int(self.absorbed.sum())


def sketch_init(n, n_s, ell, seed):
    """Fresh sketch state for an n-by-n_s matrix with an n_s-by-ell Omega."""
    if n < 1 or n_s < 1 or ell < 1:
        raise ValueError(f"sketch dimensions must be positive, got n={n}, n_s={n_s}, ell={ell}")
    return SketchState(
        omega=gaussian_matrix(n_s, ell, seed),
        Y=np.zeros((n, ell)),
        absorbed=np.zeros(n_s, dtype=bool),
    )


def sketch_absorb(st, j, col):
    """Absorb column j of A into the sketch: Y += a_j outer omega_j."""
    if not 0 <= j < st.absorbed.size:
        raise ValueError(f"column index {j} out of range [0, {st.absorbed.size})")
    if st.absorbed[j]:
        raise ValueError(f"column {j} was already absorbed; use sketch_replace")
    col = as_vector(col, "col")
    if col.size != st.Y.shape[0]:
        raise ValueError(f"column length {col.size} does not match sketch rows {st.Y.shape[0]}")
    st.Y += np.outer(col, st.omega[j])
    st.absorbed[j] = True
    return st


def sketch_replace(st, j, old_col, new_col):
    """Replace an absorbed column: Y += (a_j_new - a_j_old) outer omega_j."""
    if not 0 <= j < st.absorbed.size:
        raise ValueError(f"column index {j} out of range [0, {st.absorbed.size})")
    if not st.absorbed[j]:
        raise ValueError(f"column {j} was never absorbed; use sketch_absorb")
    old_col = as_vector(old_col, "old_col")
    new_col = as_vector(new_col, "new_col")
    if old_col.size != st.Y.shape[0] or new_col.size != st.Y.shape[0]:
        raise ValueError("column length does not match sketch rows")
    st.Y += np.outer(new_col - old_col, st.omega[j])
    return st
