"""Independent reference implementations used purely as test oracles.

Nothing here calls into the package's factorization code: singular values
come from a hand-written one-sided Jacobi sweep, pivot orders from an
exhaustive greedy projection search and from a step-by-step Householder
loop, and the greedy point sequence from a straight-line pseudoinverse
form. Agreement between these and the library is evidence, not tautology.
"""

import itertools

import numpy as np


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
    applies a rank-one Householder update. Returns (Q, R, perm) with
    Q @ R = M[:, perm], the same contract as the library's pivoted_qr.
    """
    A = np.array(M, dtype=np.float64, copy=True)
    m, n = A.shape
    k = min(m, n)
    perm = np.arange(n)
    Q = np.eye(m)
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
        Q[:, j:] -= 2.0 * np.outer(Q[:, j:] @ v, v)
    return Q[:, :k], np.triu(A[:k, :]), perm


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


def batch_sketch(A, omega):
    """The plain batch product the streaming sketch must reproduce."""
    return np.asarray(A, dtype=np.float64) @ np.asarray(omega, dtype=np.float64)


def gram_schmidt_qr(Y):
    """Classical Gram-Schmidt with re-orthogonalization; R diagonal >= 0."""
    Y = np.asarray(Y, dtype=np.float64)
    m, n = Y.shape
    Q = np.zeros((m, n))
    R = np.zeros((n, n))
    for j in range(n):
        v = Y[:, j].copy()
        for _ in range(2):
            for i in range(j):
                h = Q[:, i] @ v
                R[i, j] += h
                v -= h * Q[:, i]
        R[j, j] = np.linalg.norm(v)
        if R[j, j] > 0:
            Q[:, j] = v / R[j, j]
    return Q, R


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


def columnwise_source_columns(x, params):
    """The Gaussian source formula evaluated one parameter row at a time
    on the full (grid, grid) mesh, flattened with x1 varying fastest."""
    grid = x.size
    X1 = np.broadcast_to(x[:, None], (grid, grid))
    X2 = np.broadcast_to(x[None, :], (grid, grid))
    cols = np.empty((grid * grid, params.shape[0]))
    for k, (m3, m4, m5) in enumerate(params):
        f = np.exp(-(((X1 - m3) ** 2) + ((X2 - m4) ** 2)) / (m5 * m5))
        cols[:, k] = f.ravel(order="F")
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
