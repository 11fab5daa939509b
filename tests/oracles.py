"""Independent reference implementations used purely as test oracles.

Nothing here calls into the package's factorization code: singular values
come from a hand-written one-sided Jacobi sweep, pivot orders from an
exhaustive greedy projection search and from a step-by-step Householder
loop, and the greedy point sequence from a straight-line pseudoinverse
form. Agreement between these and the library is evidence, not tautology.
The exceptions are the adaptive finder's two references:
reference_grouped_qb, its loop written straight through, which pins the
library's basis bit for bit, and reference_adaptive_range_finder, its
earlier block-by-block randQB_EI loop, which the library must match in
block count, subspace and residual. Both share the library's residual
kernel and sketch grouping on purpose. reference_srrqr, the strong RRQR
swap loop with every R from np.linalg.qr of the whole M[:, perm] and its
interactions from triangular solves, starts from the library's pivot
search (_pivot_order), which test_pivot_search_keeps_the_geqp3_pivots
pins to LAPACK geqp3; no R of the library enters it.
"""

import itertools
import math

import numpy as np
from scipy.linalg import solve_triangular

from rdeim._util import SWEEP_BLOCK
from rdeim.linalg import _pivot_order, column_residuals
from rdeim.rangefinder import SKETCH_GROUP


def jacobi_singular_values(A, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi SVD: rotate column pairs until orthogonal."""
    U = np.array(A, dtype=np.float64, copy=True)
    m, n = U.shape
    if m < n:
        return jacobi_singular_values(U.T, tol=tol, max_sweeps=max_sweeps)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = U[:, p] @ U[:, p]
                beta = U[:, q] @ U[:, q]
                gamma = U[:, p] @ U[:, q]
                off = max(off, abs(gamma) / np.sqrt(alpha * beta) if alpha * beta > 0 else 0.0)
                if gamma == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up = U[:, p].copy()
                U[:, p] = c * up - s * U[:, q]
                U[:, q] = s * up + c * U[:, q]
        if off < tol:
            break
    sv = np.sqrt(np.sum(U * U, axis=0))
    return np.sort(sv)[::-1]


def greedy_pivot_sequence(M):
    """Exhaustive greedy pivot oracle: at each step project every remaining
    column onto the chosen ones (via lstsq) and take the largest residual,
    first index on ties. Returns the min(m, n) actual pivot choices; the
    order of never-pivoted trailing columns is not part of the contract."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[1]
    k = min(M.shape)
    chosen = []
    remaining = list(range(n))
    for _ in range(k):
        best_norm = -1.0
        best_col = None
        for j in remaining:
            if chosen:
                sol, *_ = np.linalg.lstsq(M[:, chosen], M[:, j], rcond=None)
                res = np.linalg.norm(M[:, j] - M[:, chosen] @ sol)
            else:
                res = np.linalg.norm(M[:, j])
            if res > best_norm + 1e-12 * max(1.0, best_norm):
                best_norm = res
                best_col = j
        chosen.append(best_col)
        remaining.remove(best_col)
    return chosen


def householder_pivoted_qr(M):
    """Column-pivoted Householder QR, one pivot at a time.

    Every step recomputes the trailing residual norms from the updated
    block (no downdating) and takes the largest, first index on ties, then
    applies a rank-one Householder update. Returns (R, perm), R being the
    R factor of M[:, perm].
    """
    A = np.array(M, dtype=np.float64, copy=True)
    m, n = A.shape
    k = min(m, n)
    perm = np.arange(n)
    for j in range(k):
        norms = np.linalg.norm(A[j:, j:], axis=0)
        pivot = j + int(np.argmax(norms))
        if pivot != j:
            A[:, [j, pivot]] = A[:, [pivot, j]]
            perm[[j, pivot]] = perm[[pivot, j]]
        x = A[j:, j]
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += nx if x[0] >= 0 else -nx
        v /= np.linalg.norm(v)
        A[j:, j:] -= 2.0 * np.outer(v, v @ A[j:, j:])
    return np.triu(A[:k, :]), perm


def reference_srrqr(M, rank, eta):
    """Strong RRQR with every R from np.linalg.qr of the whole M[:, perm].

    From the pivot order of _pivot_order(M), while max |inv(R11) R12|
    (triangular solves) exceeds eta, swap the leading and trailing columns
    of its first largest entry in row order and factor M[:, perm] again;
    then flip signs so diag(R11) is positive. Returns (R11, R12, perm,
    swaps).
    """
    M = np.asarray(M, dtype=np.float64)
    r = rank
    perm = _pivot_order(M)
    swaps = 0
    while True:
        R = np.linalg.qr(M[:, perm], mode="r")
        T = np.abs(solve_triangular(R[:r, :r], R[:r, r:]))
        if T.size == 0 or T.max() <= eta:
            break
        i, j = np.unravel_index(np.argmax(T), T.shape)
        perm[[i, r + j]] = perm[[r + j, i]]
        swaps += 1
    R[:r] *= np.where(np.diag(R)[:r] < 0, -1.0, 1.0)[:, None]
    return R[:r, :r], R[:r, r:], perm, swaps


def best_volume_pair(M):
    """Enumerate all column pairs and return the set with maximal volume
    (product of singular values)."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[1]
    best = None
    best_vol = -1.0
    for pair in itertools.combinations(range(n), 2):
        sv = np.linalg.svd(M[:, pair], compute_uv=False)
        vol = float(np.prod(sv))
        if vol > best_vol:
            best_vol = vol
            best = set(pair)
    return best


def reference_greedy_points(W):
    """Straight-line greedy interpolation points via explicit pseudoinverse."""
    W = np.asarray(W, dtype=np.float64)
    n, r = W.shape
    pts = [int(np.argmax(np.abs(W[:, 0])))]
    for k in range(1, r):
        U = W[:, :k]
        P = np.array(pts)
        coeff = np.linalg.pinv(U[P, :]) @ W[P, k]
        residual = W[:, k] - U @ coeff
        pts.append(int(np.argmax(np.abs(residual))))
    return pts


def dense_selection(S):
    """The n-by-s array of a SelectionOperator: column k is weights[k]
    times the indices[k]-th standard basis vector."""
    D = np.zeros((S.n, S.s))
    D[S.indices, np.arange(S.s)] = S.weights
    return D


def dense_oblique_projector(W, indices, weights=None):
    """Assemble D = W (S'W)^+ S' densely via numpy.linalg.pinv."""
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    s = len(indices)
    S = np.zeros((n, s))
    w = np.ones(s) if weights is None else np.asarray(weights, dtype=np.float64)
    S[np.asarray(indices), np.arange(s)] = w
    return W @ np.linalg.pinv(S.T @ W) @ S.T


def blockwise_adaptive_basis(A, tol, block, max_blocks, seed):
    """randQB_EI one sketch block at a time, with whole-matrix temporaries.

    Each block draws its own (n_s, block) Gaussian sketch and forms
    A @ omega on its own; ||A||_F^2 and the explicit residual are formed
    from n x n_s products. Returns (W, blocks, residual): the basis, the
    number of blocks absorbed and, when max_blocks blocks did not reach
    the tolerance, the relative residual of that partial basis (None on
    success).
    """
    A = np.asarray(A, dtype=np.float64)
    n_s = A.shape[1]
    rng = np.random.default_rng(seed)
    alpha = float(np.sum(A * A))

    def residual(W):
        E = A - W @ (W.T @ A)
        return float(np.sum(E * E))

    W = None
    B = None
    beta = 0.0
    blocks = 0
    while beta <= alpha * (1.0 - tol * tol) or residual(W) > tol * tol * alpha:
        if blocks == max_blocks:
            return W, blocks, float(np.sqrt(residual(W) / alpha))
        omega = rng.standard_normal((n_s, block))
        if W is None:
            Q, _ = np.linalg.qr(A @ omega)
            Bp = Q.T @ A
        else:
            Q, _ = np.linalg.qr(A @ omega - W @ (B @ omega))
            Q, _ = np.linalg.qr(Q - W @ (W.T @ Q))
            if np.max(np.abs(W.T @ Q)) > 1e-12:
                Q, _ = np.linalg.qr(Q - W @ (W.T @ Q))
            Bp = Q.T @ A - (Q.T @ W) @ B
        W = Q if W is None else np.hstack([W, Q])
        B = Bp if B is None else np.vstack([B, Bp])
        beta += float(np.sum(Bp * Bp))
        blocks += 1
    return W, blocks, None


def reference_adaptive_range_finder(A, tol, block, max_blocks, seed, rank=None):
    """The adaptive finder as randQB_EI (Martinsson & Voronin, SISC 2016),
    before its check took the residual from W'A: each block's rows of B
    are Q'A - (Q'W)B, and every check forms W'A and reads A again in one
    column_residuals call.

    It draws the same sketch groups and makes the same rotation as
    rangefinder.adaptive_range_finder and decides with the same residual
    kernel, so the library's grouped basis must grow by the same blocks,
    leave the same residual and, cut to a rank inside the captured
    spectrum, span the same subspace to roundoff. Returns (W, rel): the
    basis, rotated and truncated when rank is below its width, and None;
    or, when max_blocks blocks do not reach tol, the partial basis and its
    relative residual.
    """
    A = np.asarray(A, dtype=np.float64)
    n_s = A.shape[1]
    rng = np.random.default_rng(seed)
    alpha = float(np.vdot(A, A))
    target = tol * tol * alpha

    def explicit(W):
        C = W.T @ A
        _, (res,) = column_residuals(A, [(W, C)])
        return float(res.sum()), C

    W = None
    B = None
    beta = 0.0
    blocks = 0
    drawn = []
    while True:
        res = None
        if beta > alpha * (1.0 - tol * tol):
            res, WtA = explicit(W)
            if res <= target:
                break
        if blocks == max_blocks:
            if res is None:
                res, _ = explicit(W)
            return W, float(np.sqrt(res / alpha))
        if not drawn:
            omegas = rng.standard_normal((min(SKETCH_GROUP, max_blocks - blocks), n_s, block))
            Y = A @ np.concatenate(omegas, axis=1)
            drawn = [(om, Y[:, i * block : (i + 1) * block]) for i, om in enumerate(omegas)]
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
    if rank is not None and rank < W.shape[1]:
        Ub, _, _ = np.linalg.svd(WtA, full_matrices=False)
        W = W @ Ub[:, :rank]
    return W, None


def reference_grouped_qb(A, tol, block, max_blocks, seed, rank=None):
    """The adaptive finder's loop written straight through: per sketch
    group G = A Omega, projected off the basis by C Omega and then
    explicitly (a third time when max|W'Q| > 1e-12), one QR of the
    group's columns each time, and the group's rows of C = W'A as one
    product; the blocks are then judged one at a time.

    Like reference_adaptive_range_finder it draws the library's sketch
    groups, forms the same products and decides every check with the
    explicit residual kernel, and it rotates with the C of the accepting
    check, so the library's basis must equal it bit for bit. Returns
    (W, rel): the basis, rotated and truncated when rank is below its
    width, and None; or, when max_blocks blocks do not reach tol, the
    partial basis and its relative residual.
    """
    A = np.asarray(A, dtype=np.float64)
    n, n_s = A.shape
    rng = np.random.default_rng(seed)
    alpha = math.fsum(np.einsum("ij,ij->j", A, A))
    target = tol * tol * alpha
    u = np.finfo(np.float64).eps / 2

    def explicit(W, C):
        _, (res,) = column_residuals(A, [(W, C)])
        return float(res.sum())

    def qr(M):
        # Q in Fortran order, as LAPACK's orgqr writes it: the layout
        # decides the bits of the products W'Q that follow
        return np.asfortranarray(np.linalg.qr(M)[0])

    def times(M, X):
        return (X.T @ M.T).T

    W = np.zeros((n, 0), order="F")
    C = np.zeros((0, n_s))
    beta = 0.0
    while W.shape[1] < block * max_blocks:
        k = W.shape[1]
        groups = min(SKETCH_GROUP, max_blocks - k // block)
        omega = np.concatenate(rng.standard_normal((groups, n_s, block)), axis=1)
        G = times(A, omega)
        if k == 0:
            Q = qr(G)
        else:
            Q = qr(G - times(W, C @ omega))
            Q = qr(Q - times(W, W.T @ Q))
            S = W.T @ Q
            if np.max(np.abs(S)) > 1e-12:
                Q = qr(Q - times(W, S))
        C_group = Q.T @ A
        for i in range(1, groups + 1):
            C_i = C_group[(i - 1) * block : i * block]
            beta += float(np.vdot(C_i, C_i))
            W_cut = np.asfortranarray(np.hstack([W, Q[:, : i * block]]))
            C_cut = np.vstack([C, C_group[: i * block]])
            cut = k + i * block
            if beta > alpha * (1.0 - tol * tol) - (n + cut * n_s) * u * alpha:
                if explicit(W_cut, C_cut) <= target:
                    if rank is not None and rank < cut:
                        Ub, _, _ = np.linalg.svd(C_cut, full_matrices=False)
                        W_cut = W_cut @ Ub[:, :rank]
                    return W_cut, None
        W, C = W_cut, C_cut
    return W, float(np.sqrt(explicit(W, C) / alpha))


def reference_subspace_basis(A, rank, oversample, power, seed):
    """The subspace range finder in its plain form: np.linalg.qr after
    every A @ X and A.T @ Q, then the rotation onto the leading left
    singular directions of Q'A."""
    A = np.asarray(A, dtype=np.float64)
    omega = np.random.default_rng(seed).standard_normal((A.shape[1], rank + oversample))
    Q, _ = np.linalg.qr(A @ omega)
    for _ in range(power):
        Q, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    Ub, _, _ = np.linalg.svd(Q.T @ A, full_matrices=False)
    return Q @ Ub[:, :rank]


def truncated_basis(basis, C, rank):
    """Rotate a basis onto the leading left singular directions of a given
    C = W'A and truncate to rank: the adaptive finder's truncation as a
    separate step. Returns the n x rank matrix."""
    Ub, _, _ = np.linalg.svd(C, full_matrices=False)
    return basis.matrix @ Ub[:, :rank]


def columnwise_source_columns(x, params):
    """The Gaussian source in its separable form, one parameter row at a
    time: the outer product of exp(-(x - mu3)^2 / mu5^2) over x1 and
    exp(-(x - mu4)^2 / mu5^2) over x2, flattened with x1 varying fastest."""
    cols = np.empty((x.size * x.size, params.shape[0]))
    for k, (m3, m4, m5) in enumerate(params):
        e1 = np.exp((x - m3) ** 2 / -(m5 * m5))
        e2 = np.exp((x - m4) ** 2 / -(m5 * m5))
        cols[:, k] = np.outer(e1, e2).ravel(order="F")
    return cols


def columnwise_corner_peak(grid, param_grid):
    """The four reflected corner-peak terms summed one (mu1, mu2) column at
    a time, mu1 varying fastest. Returns (matrix, params)."""
    x = np.linspace(0.0, 1.0, grid)
    mus = np.linspace(0.0, 1.0, param_grid)

    def h(z, mu):
        return ((1.0 - z) - (0.99 * mu - 1.0)) ** 2

    def g(x1_h, x2_h):
        return 1.0 / np.sqrt(x1_h[:, None] + x2_h[None, :] + 0.01)

    F = np.empty((grid * grid, param_grid * param_grid))
    params = np.empty((param_grid * param_grid, 2))
    col = 0
    for m2 in mus:
        for m1 in mus:
            term = (
                g(h(x, m1), h(x, m2))
                + g(h(1.0 - x, 1.0 - m1), h(1.0 - x, 1.0 - m2))
                + g(h(1.0 - x, 1.0 - m1), h(x, m2))
                + g(h(x, m1), h(1.0 - x, 1.0 - m2))
            )
            F[:, col] = term.ravel(order="F")
            params[col] = (m1, m2)
            col += 1
    return F, params


def oscillator_formula(n_t, n_mu):
    """The decaying oscillator 10 e^(-mu t)(cos 4mu t + sin 4mu t) as one
    whole-array expression over the (t, mu) grid."""
    t = np.linspace(1.0, 6.0, n_t)
    mu = np.linspace(0.0, np.pi, n_mu)
    tm = t[:, None] * mu[None, :]
    return 10.0 * np.exp(-tm) * (np.cos(4.0 * tm) + np.sin(4.0 * tm))


def serial_oscillator(n_t, n_mu, block):
    """The oscillator filled in place one block of rows at a time on one
    thread, each block's temporaries allocated afresh."""
    t = np.linspace(1.0, 6.0, n_t)
    mu = np.linspace(0.0, np.pi, n_mu)
    F = np.multiply.outer(t, mu)
    for lo in range(0, n_t, block):
        tm = F[lo : lo + block]
        arg = 4.0 * tm
        wave = np.cos(arg)
        wave += np.sin(arg, out=arg)
        np.negative(tm, out=tm)
        np.exp(tm, out=tm)
        tm *= 10.0
        tm *= wave
    return F


def serial_corner_peak(grid, param_grid):
    """The corner peak filled in place one x2 grid line at a time on one
    thread, with one scratch block for every line."""
    x = np.linspace(0.0, 1.0, grid)
    mus = np.linspace(0.0, 1.0, param_grid)
    h = ((1.0 - x)[:, None] - (0.99 * mus - 1.0)[None, :]) ** 2
    h_r = ((1.0 - (1.0 - x))[:, None] - (0.99 * (1.0 - mus) - 1.0)[None, :]) ** 2
    F = np.empty((grid * grid, param_grid * param_grid))
    g = np.empty((grid, param_grid, param_grid))
    for j in range(grid):
        block = F[j * grid : (j + 1) * grid].reshape(grid, param_grid, param_grid)
        for k, (h1, h2) in enumerate(((h, h), (h_r, h_r), (h_r, h), (h, h_r))):
            out = g if k else block
            np.add(h1[:, None, :], h2[j][None, :, None], out=out)
            np.add(out, 0.01, out=out)
            np.sqrt(out, out=out)
            np.divide(1.0, out, out=out)
            if k:
                block += g
    return F


def serial_source_columns(x, params):
    """The separable Gaussian source filled one x2 grid line at a time on
    one thread."""
    grid = x.size
    neg_width = -(params[:, 2] * params[:, 2])
    e1 = np.exp((x[:, None] - params[None, :, 0]) ** 2 / neg_width)
    e2 = np.exp((x[:, None] - params[None, :, 1]) ** 2 / neg_width)
    cols = np.empty((grid * grid, params.shape[0]))
    for j in range(grid):
        np.multiply(e1, e2[j], out=cols[j * grid : (j + 1) * grid])
    return cols


def serial_column_residuals(A, pairs):
    """linalg.column_residuals as one loop over A's SWEEP_BLOCK-row blocks
    on the calling thread, each block's column sums added straight into
    the totals: the sums the parted kernel must match byte for byte."""
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
        norms += np.einsum("ij,ij->j", A_rows, A_rows)
    return norms, residuals
