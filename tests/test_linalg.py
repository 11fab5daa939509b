import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rdeim.experiments
import rdeim.linalg
import rdeim.selection
from rdeim.bounds import wedin_angle_bound
from rdeim.exceptions import ConvergenceError, RankDeficiencyError
from rdeim._util import FINITE_BLOCK, SWEEP_BLOCK, as_matrix
from rdeim.experiments import SELECTORS, ExperimentSpec, run_experiment
from rdeim.linalg import (
    canonical_angles,
    column_residuals,
    pivoted_qr,
    spectral_norm,
    srrqr,
    thin_qr,
    thin_svd,
)
from rdeim.projector import build_projector, check_full_rank
from rdeim.selection import SelectionOperator

from conftest import random_matrix, random_orthonormal, spectrum_matrix
from oracles import (
    best_volume_pair,
    greedy_pivot_sequence,
    householder_pivoted_qr,
    jacobi_singular_values,
    reference_srrqr,
)


# --------------------------------------------------------------- as_matrix


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_as_matrix_finds_a_non_finite_entry_in_any_block(layout):
    # rows and columns on both sides of every block edge: SWEEP_BLOCK rows
    # of 1024 columns, or FINITE_BLOCK entries of 197 rows
    n, n_s = 3 * SWEEP_BLOCK + 5, FINITE_BLOCK // SWEEP_BLOCK
    base = random_matrix(n, 2 * n_s, seed=4)
    A = base[:, ::2] if layout == "strided" else base[:, :n_s].copy(order=layout)
    assert as_matrix(A) is A
    rows = [0, SWEEP_BLOCK - 1, SWEEP_BLOCK, 2 * SWEEP_BLOCK, n - 1]
    per_block = FINITE_BLOCK // n
    cols = [0, per_block - 1, per_block, 3 * per_block, n_s - 1]
    for i in rows:
        for j in cols:
            for bad in (np.nan, np.inf, -np.inf):
                keep, A[i, j] = A[i, j], bad
                with pytest.raises(ValueError, match="^A contains non-finite entries$"):
                    as_matrix(A, "A")
                A[i, j] = keep
    assert as_matrix(A) is A


@pytest.mark.parametrize("order", ["C", "F"])
def test_as_matrix_checks_without_a_matrix_sized_temporary(order):
    A = np.asarray(random_matrix(2000, 300, seed=5), order=order)
    tracemalloc.start()
    try:
        as_matrix(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-matrix bool mask would take A.nbytes / 8
    assert peak < A.nbytes / 32


# ---------------------------------------------------------------- thin_svd


def test_thin_svd_identity():
    f = thin_svd(np.eye(4))
    assert np.allclose(f.singular_values, 1.0)
    assert np.allclose(f.U @ np.diag(f.singular_values) @ f.V.T, np.eye(4))


def test_thin_svd_matches_jacobi_oracle():
    A = random_matrix(10, 6, seed=42)
    f = thin_svd(A)
    sv_oracle = jacobi_singular_values(A)
    assert np.max(np.abs(f.singular_values - sv_oracle)) < 1e-10


def test_thin_svd_rank_one():
    u = np.arange(1.0, 6.0)
    v = np.array([2.0, -1.0, 0.5])
    f = thin_svd(np.outer(u, v))
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(f.singular_values[0] - expected) < 1e-12 * expected
    assert np.all(f.singular_values[1:] < 1e-12 * expected)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(8, 5), (5, 8), (7, 7)])
def test_thin_svd_contracts(shape, seed):
    A = random_matrix(*shape, seed=seed)
    f = thin_svd(A)
    k = min(shape)
    assert f.U.shape == (shape[0], k) and f.V.shape == (shape[1], k)
    assert np.all(np.diff(f.singular_values) <= 0)
    assert np.max(np.abs(f.U.T @ f.U - np.eye(k))) < 1e-12
    assert np.max(np.abs(f.V.T @ f.V - np.eye(k))) < 1e-12
    recon = f.U @ np.diag(f.singular_values) @ f.V.T
    assert np.max(np.abs(recon - A)) < 1e-10 * f.singular_values[0]


def test_thin_svd_eckart_young():
    A = random_matrix(12, 9, seed=3)
    f = thin_svd(A)
    for r in (2, 5):
        Ar = f.U[:, :r] @ np.diag(f.singular_values[:r]) @ f.V[:, :r].T
        gap = abs(spectral_norm(A - Ar) - f.singular_values[r])
        assert gap < 1e-10


def test_thin_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("rank", [0, 7])
def test_thin_svd_rejects_rank_out_of_range(rank):
    with pytest.raises(ValueError, match=r"rank must be in \[1, 6\]"):
        thin_svd(random_matrix(8, 6, seed=0), rank)


@pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
def test_thin_svd_decomposes_only_the_r_factor(monkeypatch, shape):
    A = random_matrix(*shape, seed=5)
    real = np.linalg.svd
    seen = []

    def recording(M, *args, **kwargs):
        seen.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(rdeim.linalg.np.linalg, "svd", recording)
    thin_svd(A, 3)
    assert len(seen) == 1
    assert seen[0].shape == (min(shape), shape[1])
    assert not np.shares_memory(seen[0], A)
    assert np.array_equal(seen[0], np.triu(seen[0]))


def test_thin_svd_rejects_empty():
    with pytest.raises(ValueError, match="no singular values"):
        thin_svd(np.zeros((0, 3)))


def test_thin_svd_svd_failure_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(rdeim.linalg.np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="R factor"):
        thin_svd(random_matrix(8, 5, seed=1), 2)


def _break_routine(monkeypatch, routine, info):
    """Make the LAPACK routine named routine, as get_lapack_funcs returns
    it in rdeim.linalg, report info after doing its work."""
    real = rdeim.linalg.get_lapack_funcs

    def failing(names, arrays):
        funcs = dict(zip(names, real(names, arrays)))
        good = funcs[routine]

        @functools.wraps(good)
        def broken(*args, **kwargs):
            return (*good(*args, **kwargs)[:-1], info)

        funcs[routine] = broken
        return tuple(funcs[name] for name in names)

    monkeypatch.setattr(rdeim.linalg, "get_lapack_funcs", failing)


@pytest.mark.parametrize("routine", ["geqrf", "ormqr"])
def test_thin_svd_lapack_failure_is_typed(monkeypatch, routine):
    _break_routine(monkeypatch, routine, -5)
    with pytest.raises(ConvergenceError, match=routine):
        thin_svd(random_matrix(8, 5, seed=2), 2)


# the range finders' sketch shapes: paper sketches of 10, 34 and 40
# columns, and desk osc, corner and source sketches and blocks
@pytest.mark.parametrize(
    "shape",
    [(10000, 10), (10000, 34), (10000, 40), (2000, 20), (2500, 34), (1600, 34), (2500, 10), (1600, 10)],
)
def test_thin_qr_equals_numpy_qr(shape):
    A = random_matrix(*shape, seed=shape[1])
    Q, R = thin_qr(A)
    Q_np, R_np = np.linalg.qr(A)
    assert np.array_equal(Q, Q_np) and np.array_equal(R, R_np)
    assert Q.flags.f_contiguous


def test_thin_qr_rejects_a_wide_matrix():
    with pytest.raises(ValueError, match="tall matrix"):
        thin_qr(random_matrix(3, 5, seed=0))


@pytest.mark.parametrize("routine", ["geqrf", "orgqr"])
def test_thin_qr_lapack_failure_is_typed(monkeypatch, routine):
    _break_routine(monkeypatch, routine, -3)
    with pytest.raises(ConvergenceError, match=routine):
        thin_qr(random_matrix(12, 4, seed=2))


@st.composite
def _svd_inputs(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    A = draw(arrays(np.float64, (m, n), elements=st.floats(-4.0, 4.0, allow_subnormal=False)))
    A = A * 10.0 ** draw(arrays(np.int64, (n,), elements=st.integers(-6, 6)))
    return A, draw(st.integers(1, min(m, n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_svd_inputs())
def test_thin_svd_factor_property(case):
    A, r = case
    f = thin_svd(A, r)
    s = f.singular_values
    assert f.U.shape == (A.shape[0], r) and f.V.shape == (A.shape[1], r)
    assert s.shape == (min(A.shape),) and np.all(np.diff(s) <= 0)
    assert np.max(np.abs(f.U.T @ f.U - np.eye(r))) < 1e-12
    assert np.max(np.abs(f.V.T @ f.V - np.eye(r))) < 1e-12
    assert np.max(np.abs(A @ f.V - f.U * s[:r])) <= 1e-12 * s[0]


# -------------------------------------------------------------- pivoted_qr


def test_pivoted_qr_identity_first_max_ties():
    Q, R, perm = pivoted_qr(np.eye(5))
    # all residual norms tie at every step; first index must win
    assert list(perm) == [0, 1, 2, 3, 4]
    assert np.allclose(np.abs(np.diag(R)), 1.0)


def test_pivoted_qr_matches_greedy_oracle():
    M = random_matrix(4, 6, seed=7)
    _, _, perm = pivoted_qr(M)
    assert list(perm[:4]) == greedy_pivot_sequence(M)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape", [(6, 10), (10, 6), (7, 7)])
def test_pivoted_qr_contracts(shape, seed):
    M = random_matrix(*shape, seed=seed)
    Q, R, perm = pivoted_qr(M)
    k = min(shape)
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) < 1e-12
    assert np.max(np.abs(Q @ R - M[:, perm])) < 1e-12
    diag = np.abs(np.diag(R[:, :k]))
    assert np.all(np.diff(diag) <= 1e-12 * diag[0])
    assert sorted(perm) == list(range(shape[1]))
    # no reflector entry is left below the diagonal
    assert not np.tril(R, -1).any()


@pytest.mark.parametrize("seed", range(4))
def test_pivoted_qr_oracle_sweep(seed):
    M = random_matrix(5, 9, seed=100 + seed)
    _, _, perm = pivoted_qr(M)
    assert list(perm[:5]) == greedy_pivot_sequence(M)


def test_pivoted_qr_zero_matrix():
    Q, R, perm = pivoted_qr(np.zeros((3, 4)))
    assert np.max(np.abs(R)) == 0.0
    assert sorted(perm) == [0, 1, 2, 3]


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_pivoted_qr_empty(shape):
    Q, R, perm = pivoted_qr(np.zeros(shape))
    assert Q.shape == (shape[0], 0) and R.shape == (0, shape[1])
    assert list(perm) == list(range(shape[1]))


def test_pivoted_qr_repeated_columns_first_wins():
    rng = np.random.default_rng(3)
    a = 3.0 * rng.standard_normal(6)
    b, c = rng.standard_normal(6), rng.standard_normal(6)
    M = np.column_stack([b, a, c, a])
    Q, R, perm = pivoted_qr(M)
    # the two copies of a tie exactly; the first must win, and once it is
    # chosen its copy has no residual left, so it comes last
    assert perm[0] == 1
    assert perm[-1] == 3
    assert abs(R[-1, -1]) <= 1e-14 * abs(R[0, 0])


def test_pivoted_qr_matches_householder_oracle():
    # W' of an orthonormal basis with n > r, the shape every selector
    # factors; the first r pivots must be the step-by-step loop's
    mismatches = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 31))
        n = int(rng.integers(r + 1, 401))
        M = random_orthonormal(n, r, seed).T
        got = pivoted_qr(M)[2][:r]
        want = householder_pivoted_qr(M)[2][:r]
        if not np.array_equal(got, want):
            mismatches.append((seed, n, r))
    assert mismatches == []


@st.composite
def _pivot_matrices(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    M = draw(arrays(np.float64, (m, n), elements=st.floats(-4.0, 4.0)))
    # copied columns give exact ties and rank deficiency
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        M[:, dst] = M[:, src]
    return M * 10.0 ** draw(arrays(np.int64, (n,), elements=st.integers(-6, 6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pivot_matrices())
def test_pivoted_qr_greedy_pivot_property(M):
    Q, R, perm = pivoted_qr(M)
    m, n = M.shape
    k = min(m, n)
    scale = max(np.linalg.norm(M), 1.0)
    assert perm.dtype == np.intp
    assert sorted(perm) == list(range(n))
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) < 1e-12
    assert np.max(np.abs(Q @ R - M[:, perm])) < 1e-12 * scale
    diag = np.abs(np.diag(R))
    assert np.all(np.diff(diag) <= 1e-12 * scale)
    P = M[:, perm]
    for j in range(k):
        # residual norms of the not yet chosen columns after step j - 1;
        # the absolute term is the roundoff floor of computing them
        Qj = Q[:, :j]
        res = np.linalg.norm(P[:, j:] - Qj @ (Qj.T @ P[:, j:]), axis=0)
        assert res[0] >= res.max() * (1.0 - 1e-12) - 1e-13 * scale


# ------------------------------------------------------------------- srrqr


def test_srrqr_identity_any_rank():
    for r in (1, 3, 6):
        fac = srrqr(np.eye(6), r, eta=2.0)
        assert sorted(fac.perm) == list(range(6))
        assert np.allclose(np.diag(fac.R11), 1.0)
        T = np.linalg.solve(fac.R11, fac.R12)
        assert T.size == 0 or np.max(np.abs(T)) <= 2.0
        assert fac.swaps == 0
        # no trailing columns at rank 6, and exact zeros before it
        assert fac.max_interaction == 0.0


def _kahan(n, c=0.285):
    s = np.sqrt(1.0 - c * c)
    K = -c * np.triu(np.ones((n, n)), 1) + np.eye(n)
    return (s ** np.arange(n))[:, None] * K


def test_srrqr_kahan_interaction_bound():
    K = _kahan(8)
    fac = srrqr(K, 4, eta=2.0)
    T = np.linalg.solve(fac.R11, fac.R12)
    assert np.max(np.abs(T)) <= 2.0 + 1e-12
    assert np.all(np.diag(fac.R11) > 0)


def test_srrqr_kahan_requires_and_performs_swaps():
    # plain pivoting leaves max |inv(R11) R12| = 3.80 on this Kahan matrix;
    # the swap loop must bring it under eta
    K = _kahan(12, c=0.5)
    fac = srrqr(K, 6, eta=2.0)
    T = np.linalg.solve(fac.R11, fac.R12)
    assert np.max(np.abs(T)) <= 2.0 + 1e-12
    assert list(fac.perm[:6]) != [0, 1, 2, 3, 4, 5]


def test_srrqr_swaps_the_first_largest_entry_in_row_order(monkeypatch):
    # |T| ties at (0, 2), (1, 0) and (1, 2): the swap takes (0, 2), the
    # entry np.argmax picks, though (1, 0) comes first in the column-major
    # layout solve_triangular returns
    T = np.asfortranarray([[0.5, 1.0, 3.0], [3.0, 0.0, -3.0]])
    solves = []

    def crafted(R11, R12, lower):
        solves.append(R12.shape)
        return T if len(solves) == 1 else np.zeros(R12.shape)

    M = random_matrix(2, 5, seed=0)
    perm = pivoted_qr(M)[2]
    monkeypatch.setattr(rdeim.linalg, "solve_triangular", crafted)
    fac = srrqr(M, 2, eta=2.0)
    perm[[0, 4]] = perm[[4, 0]]
    assert solves == [(2, 3), (2, 3)]
    assert list(fac.perm) == list(perm)


@pytest.mark.parametrize(
    "T, swap",
    [
        # ties at (1, 0) in the first block and (0, 2) in the second: the
        # lower row wins though its block is solved later
        ([[0.5, 1.0, 3.0, 0.0], [3.0, 0.0, -3.0, 1.0]], 2),
        # ties at (0, 1) and (0, 2) in one row: the earlier block wins
        ([[0.5, 3.0, 3.0, 0.0], [3.0, 0.0, -3.0, 1.0]], 1),
    ],
)
def test_srrqr_ties_across_column_blocks_swap_the_first_in_row_order(monkeypatch, T, swap):
    # R12's four columns are solved two at a time; the first check sees T,
    # the check after the swap sees zeros
    T = np.asarray(T)
    solves = []

    def crafted(R11, R12, lower):
        solves.append(R12.shape)
        lo = 2 * (len(solves) - 1)
        return T[:, lo : lo + 2].copy() if lo < T.shape[1] else np.zeros(R12.shape)

    M = random_matrix(2, 6, seed=0)
    perm = pivoted_qr(M)[2]
    monkeypatch.setattr(rdeim.linalg, "SWEEP_BLOCK", 2)
    monkeypatch.setattr(rdeim.linalg, "FINITE_BLOCK", 2)
    monkeypatch.setattr(rdeim.linalg, "solve_triangular", crafted)
    fac = srrqr(M, 2, eta=2.0)
    perm[[0, 2 + swap]] = perm[[2 + swap, 0]]
    assert solves == [(2, 2)] * 4
    assert list(fac.perm) == list(perm)
    assert fac.swaps == 1 and fac.max_interaction == 0.0


@pytest.mark.parametrize("factor", ["pivoted_qr", "srrqr"])
def test_wide_factorizations_keep_r_in_place(factor):
    # R is the array geqp3 factors in place, and srrqr finds its largest
    # interaction a block of columns at a time: about one copy of M. A
    # k x n copy of R, or the whole inv(R11) R12 and its absolute value,
    # would each add another M.nbytes
    M = random_matrix(64, 20000, seed=1)
    call = {"pivoted_qr": lambda: pivoted_qr(M), "srrqr": lambda: srrqr(M, 64)}[factor]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * M.nbytes


def _wide_kahan():
    # Kahan(8, c=0.6) ahead of 32 small columns: an 8 x 40 input that swaps
    tail = 1e-3 * random_matrix(8, 32, seed=0)
    return np.hstack([_kahan(8, c=0.6), tail])


# every input swaps at least once: the Kahan matrices at eta = 2, and a
# random wide matrix at eta = 1.05
_SWAPPING = {
    "kahan12": (lambda: _kahan(12, c=0.5), 6, 2.0),
    "kahan20": (lambda: _kahan(20, c=0.5), 10, 2.0),
    "kahan30": (lambda: _kahan(30, c=0.5), 15, 2.0),
    "wide-kahan-8x40": (_wide_kahan, 5, 2.0),
    "random-8x40": (lambda: random_matrix(8, 40, seed=0), 5, 1.05),
}


@pytest.mark.parametrize("make, rank, eta", list(_SWAPPING.values()), ids=list(_SWAPPING))
def test_srrqr_matches_the_numpy_qr_oracle(make, rank, eta):
    # the swap refactoring runs geqrf and orgqr through the gateway; it
    # gives the bits np.linalg.qr gives
    M = make()
    Q, R11, R12, perm, swaps = reference_srrqr(M, rank, eta)
    fac = srrqr(M, rank, eta)
    assert swaps > 0 and fac.swaps == swaps
    assert np.array_equal(fac.perm, perm)
    assert np.array_equal(fac.Q, Q)
    assert np.array_equal(fac.R11, R11) and np.array_equal(fac.R12, R12)
    assert fac.max_interaction <= eta
    assert fac.max_interaction == pytest.approx(np.abs(np.linalg.solve(R11, R12)).max(), rel=1e-12)


def test_srrqr_selects_best_volume_pair():
    eps = 1e-3
    M = np.array([[1.0, 0.0, eps], [0.0, 1.0, eps]])
    fac = srrqr(M, 2, eta=2.0)
    assert set(fac.perm[:2]) == best_volume_pair(M)


@pytest.mark.parametrize("seed", range(6))
def test_srrqr_contracts(seed):
    M = random_matrix(9, 14, seed=seed)
    r = 5
    fac = srrqr(M, r, eta=2.0)
    # reconstruction: Q R = M[:, perm] with R reassembled
    k = fac.Q.shape[1]
    R = np.zeros((k, 14))
    R[:r, :r] = fac.R11
    R[:r, r:] = fac.R12
    resid = fac.Q[:, :r] @ R[:r] - M[:, fac.perm]
    # rows beyond r live in the trailing factor; compare projected parts
    proj = fac.Q[:, :r].T @ M[:, fac.perm]
    assert np.max(np.abs(np.hstack([fac.R11, fac.R12]) - proj)) < 1e-10
    assert np.all(np.diag(fac.R11) > 0)
    T = np.linalg.solve(fac.R11, fac.R12)
    assert np.max(np.abs(T)) <= 2.0 + 1e-12
    # the reported interaction is the one the swap loop stopped at
    assert fac.max_interaction <= 2.0
    assert fac.max_interaction == pytest.approx(np.max(np.abs(T)), rel=1e-12)
    # spectral guarantee
    sv = np.linalg.svd(M, compute_uv=False)
    smin = np.linalg.svd(fac.R11, compute_uv=False)[-1]
    bound = sv[r - 1] / np.sqrt(1.0 + 4.0 * r * (14 - r))
    assert smin >= bound * (1.0 - 1e-12)


def test_srrqr_rank_deficient_raises():
    M = np.outer(np.arange(1.0, 5.0), np.ones(6))
    with pytest.raises(RankDeficiencyError):
        srrqr(M, 2, eta=2.0)


def test_srrqr_swap_cap_names_cap(monkeypatch):
    K = _kahan(12, c=0.5)  # needs at least one swap at eta = 2
    monkeypatch.setattr(rdeim.linalg, "_SWAPS_PER_COLUMN", 0)
    with pytest.raises(ConvergenceError, match="cap"):
        srrqr(K, 6, eta=2.0)


def test_srrqr_parameter_errors():
    M = random_matrix(5, 5, seed=1)
    with pytest.raises(ValueError):
        srrqr(M, 0, eta=2.0)
    with pytest.raises(ValueError):
        srrqr(M, 6, eta=2.0)
    with pytest.raises(ValueError):
        srrqr(M, 2, eta=0.5)


# ----------------------------------------------------------- spectral_norm


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((4, 3))) == 0.0


def test_spectral_norm_diag():
    assert abs(spectral_norm(np.diag([3.0, -7.0, 2.0])) - 7.0) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_spectral_norm_matches_jacobi(seed):
    A = random_matrix(8, 6, seed=seed)
    assert abs(spectral_norm(A) - jacobi_singular_values(A)[0]) < 1e-10


# -------------------------------------------------------- canonical_angles


def test_canonical_angles_identical_is_exact_zero():
    W = random_orthonormal(9, 3, seed=5)
    ang = canonical_angles(W, W)
    assert ang.sin_theta_max == 0.0
    assert np.all(ang.cosines == 1.0)


def test_canonical_angles_known_rotation():
    W = np.zeros((4, 2))
    W[0, 0] = 1.0
    W[1, 1] = 1.0
    Wh = np.zeros((4, 2))
    Wh[0, 0] = 1.0
    Wh[1, 1] = Wh[2, 1] = 1.0 / np.sqrt(2.0)
    ang = canonical_angles(W, Wh)
    assert np.max(np.abs(ang.cosines - np.array([1.0, 1.0 / np.sqrt(2.0)]))) < 1e-14
    assert abs(ang.sin_theta_max - 1.0 / np.sqrt(2.0)) < 1e-14


def test_canonical_angles_resolve_a_tiny_angle():
    # a cosine within roundoff of 1 carries no sine below about 1e-7; the
    # residual ||Wh - W W'Wh||_2 resolves an angle of 1e-9
    t = 1e-9
    Q, _ = np.linalg.qr(random_matrix(50, 50, seed=3))
    W = Q[:, :3]
    Wh = W.copy()
    Wh[:, 2] = np.cos(t) * Q[:, 2] + np.sin(t) * Q[:, 3]
    ang = canonical_angles(W, Wh)
    assert ang.sin_theta_max == pytest.approx(np.sin(t), rel=1e-6)
    assert ang.sin_theta_max == pytest.approx(canonical_angles(Wh, W).sin_theta_max, rel=1e-6)


def test_canonical_angles_orthogonal_subspaces():
    W = np.eye(6)[:, :2]
    Wh = np.eye(6)[:, 3:5]
    ang = canonical_angles(W, Wh)
    assert abs(ang.sin_theta_max - 1.0) < 1e-14
    assert np.max(np.abs(ang.cosines)) < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_canonical_angles_symmetry_and_projector_identity(seed):
    W = random_orthonormal(12, 4, seed=seed)
    Wh = random_orthonormal(12, 4, seed=seed + 50)
    a = canonical_angles(W, Wh)
    b = canonical_angles(Wh, W)
    assert np.max(np.abs(a.cosines - b.cosines)) < 1e-12
    assert abs(a.sin_theta_max - b.sin_theta_max) < 1e-12
    # sin theta_max equals the projector-difference norm and the
    # one-sided projected norm
    Pw = W @ W.T
    Ph = Wh @ Wh.T
    assert abs(a.sin_theta_max - spectral_norm(Pw - Ph)) < 1e-10
    assert abs(a.sin_theta_max - spectral_norm((np.eye(12) - Pw) @ Ph)) < 1e-10
    assert np.all(np.diff(a.cosines) <= 0)
    assert abs(a.sin_theta_max - np.sqrt(1.0 - a.cosines[-1] ** 2)) < 1e-12


def test_canonical_angles_validates():
    W = random_orthonormal(8, 3, seed=0)
    with pytest.raises(ValueError):
        canonical_angles(W, random_orthonormal(8, 4, seed=1))
    with pytest.raises(ValueError):
        canonical_angles(W, random_matrix(8, 3, seed=2))


# -------------------------------------------------------- column_residuals


@pytest.mark.parametrize("n", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 3 * SWEEP_BLOCK + 5])
@pytest.mark.parametrize("order", ["C", "F"])
def test_column_residuals_match_dense(n, order):
    A = np.asarray(random_matrix(n, 9, seed=n), order=order)
    A[:, 4] = 0.0
    W1 = random_orthonormal(n, 1, seed=1)
    W2 = random_matrix(n, 3, seed=2)
    C2 = random_matrix(3, 9, seed=3)
    pairs = [(W1, W1.T @ A), (W2, C2)]
    norms, res = column_residuals(A, pairs)
    assert norms.shape == (9,) and len(res) == 2
    assert np.allclose(norms, np.sum(A * A, axis=0), rtol=1e-13, atol=0)
    assert norms[4] == 0.0
    for (W, C), got in zip(pairs, res):
        E = A - W @ C
        assert np.allclose(got, np.sum(E * E, axis=0), rtol=1e-12, atol=1e-13)


def test_column_residuals_without_pairs_or_columns():
    A = random_matrix(70, 5, seed=0)
    norms, res = column_residuals(A, [])
    assert res == [] and np.allclose(norms, np.sum(A * A, axis=0), rtol=1e-13)
    norms, (r0,) = column_residuals(A[:, :0], [(A[:, :2], np.zeros((2, 0)))])
    assert norms.shape == r0.shape == (0,)


# --------------------------------------------------------- failure gateway


def _fail_one_call(monkeypatch):
    """Count every np.linalg.svd call and every call of a routine that
    get_lapack_funcs returns in rdeim.linalg and rdeim.selection.

    Once state["fail_at"] is k, call k (from 0) fails: the SVD raises
    LinAlgError, the routine returns info = -1. state["expect"] is then
    what the error must name: the SVD operand's shape or the routine.
    """
    state = {"calls": 0, "fail_at": None, "expect": None}

    def fails(expect):
        state["calls"] += 1
        if state["calls"] - 1 != state["fail_at"]:
            return False
        state["expect"] = expect
        return True

    real_svd = np.linalg.svd

    def svd(M, *args, **kwargs):
        if fails(str(M.shape)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(M, *args, **kwargs)

    def counted(name, routine):
        @functools.wraps(routine)
        def call(*args, **kwargs):
            out = routine(*args, **kwargs)
            return (*out[:-1], -1) if fails(name) else out

        return call

    def lookup(real):
        def get_lapack_funcs(names, arrays):
            if isinstance(names, str):
                return counted(names, real(names, arrays))
            return tuple(map(counted, names, real(names, arrays)))

        return get_lapack_funcs

    monkeypatch.setattr(np.linalg, "svd", svd)
    for module in (rdeim.linalg, rdeim.selection):
        monkeypatch.setattr(module, "get_lapack_funcs", lookup(module.get_lapack_funcs))
    return state


def _wedin_case():
    A = spectrum_matrix(10, 8, [8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05], seed=9)
    return wedin_angle_bound(A, A + 1e-3 * random_matrix(10, 8, seed=10), 3)


_FAULT_CASES = {
    f"osc-{basis}-{selector}-{'bounds' if bounds else 'plain'}": functools.partial(
        run_experiment,
        ExperimentSpec(
            example="osc", rank=8, basis=basis, selector=selector, samples=30,
            with_bounds=bounds, overrides={"n_t": 500, "n_mu": 40},
        ),
    )
    for basis in ("svd", "basic", "adaptive")
    for selector in SELECTORS
    for bounds in (False, True)
}
_FAULT_CASES.update(
    thin_svd=lambda: thin_svd(random_matrix(8, 5, seed=1), 2),
    thin_qr=lambda: thin_qr(random_matrix(12, 4, seed=2)),
    pivoted_qr=lambda: pivoted_qr(random_matrix(6, 9, seed=3)),
    srrqr=lambda: srrqr(random_matrix(6, 9, seed=4), 3),
    # one swap: the geqrf and orgqr of the refactoring fail in turn too
    srrqr_swap=lambda: srrqr(_kahan(12, c=0.5), 6),
    spectral_norm=lambda: spectral_norm(random_matrix(7, 5, seed=5)),
    canonical_angles=lambda: canonical_angles(
        random_orthonormal(12, 3, seed=6), random_orthonormal(12, 3, seed=7)
    ),
    build_projector=lambda: build_projector(
        random_orthonormal(12, 3, seed=8), SelectionOperator(np.arange(3), np.ones(3), 12)
    ),
    check_full_rank=lambda: check_full_rank(
        random_orthonormal(12, 3, seed=8), SelectionOperator(np.arange(3), np.ones(3), 12)
    ),
    wedin_angle_bound=_wedin_case,
)


@pytest.mark.parametrize("call", list(_FAULT_CASES.values()), ids=list(_FAULT_CASES))
def test_every_factorization_failure_is_a_typed_error(monkeypatch, call):
    # a run on a fresh snapshot set makes the same calls each time, so
    # call k is the same SVD or routine in every run
    state = _fail_one_call(monkeypatch)
    monkeypatch.setattr(rdeim.experiments, "_last_set", None)
    call()
    reached = state["calls"]
    assert reached > 0
    for k in range(reached):
        monkeypatch.setattr(rdeim.experiments, "_last_set", None)
        state.update(calls=0, fail_at=k)
        with pytest.raises(ConvergenceError) as err:
            call()
        assert state["expect"] in str(err.value), (k, str(err.value))
