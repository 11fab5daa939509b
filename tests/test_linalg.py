import functools
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular

import rdeim.experiments
import rdeim.linalg
import rdeim.selection
from rdeim.bounds import wedin_angle_bound
from rdeim.exceptions import ConvergenceError, OverflowingProductError, RankDeficiencyError
from rdeim import _util
from rdeim._util import FINITE_BLOCK, SWEEP_BLOCK, as_matrix
from rdeim.experiments import SELECTORS, ExperimentSpec, build_basis, generate, run_experiment
from rdeim.linalg import (
    canonical_angles,
    column_residuals,
    spectral_norm,
    srrqr,
    thin_qr,
    thin_svd,
)
from rdeim.projector import build_projector, check_full_rank
from rdeim.selection import (
    SelectionOperator,
    leverage_select,
    practical_sample_count,
    pqr_select,
    srrqr_select,
)

from conftest import patch_cpus, random_matrix, random_orthonormal, spectrum_matrix
from oracles import (
    best_volume_pair,
    greedy_pivot_sequence,
    householder_pivoted_qr,
    jacobi_singular_values,
    reference_srrqr,
    serial_column_residuals,
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


@pytest.mark.parametrize("shape, order", [((128, 10000), "F"), ((10000, 40), "C")], ids=["wide-F", "tall-C"])
def test_finite_product_checks_without_a_product_sized_temporary(shape, order):
    # a wide Fortran-ordered product and a tall sketch of the range
    # finders: a whole-product bool mask would take P.nbytes / 8
    P = np.asarray(random_matrix(*shape, seed=6), order=order)
    tracemalloc.start()
    try:
        assert _util.finite_product(P, P, "P", "the product") is P
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < P.nbytes / 32


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


def test_thin_svd_rejects_a_vector():
    with pytest.raises(ValueError, match="^A must be 2-dimensional, got ndim=1$"):
        thin_svd(np.ones(3))


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


# ------------------------------------------------- pivoted QR: _pivot_order


def _pivoted_qr(M):
    """(R, perm): the library's column pivot order (_pivot_order) and the R
    factor of M[:, perm] by numpy's QR, so that R's properties test the
    order and not a factorization of the library."""
    perm = rdeim.linalg._pivot_order(M)
    return np.linalg.qr(M[:, perm], mode="r"), perm


def test_pivoted_qr_identity_first_max_ties():
    R, perm = _pivoted_qr(np.eye(5))
    # all residual norms tie at every step; first index must win
    assert list(perm) == [0, 1, 2, 3, 4]
    assert np.allclose(np.abs(np.diag(R)), 1.0)


def test_pivoted_qr_matches_greedy_oracle():
    M = random_matrix(4, 6, seed=7)
    perm = rdeim.linalg._pivot_order(M)
    assert list(perm[:4]) == greedy_pivot_sequence(M)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape", [(6, 10), (10, 6), (7, 7)])
def test_pivoted_qr_contracts(shape, seed):
    M = random_matrix(*shape, seed=seed)
    R, perm = _pivoted_qr(M)
    k = min(shape)
    assert perm.dtype == np.intp and sorted(perm) == list(range(shape[1]))
    diag = np.abs(np.diag(R[:, :k]))
    assert np.all(np.diff(diag) <= 1e-12 * diag[0])
    # srrqr at rank k factors its k pivot columns alone: Q R11 = M[:, perm[:k]]
    # with orthonormal Q, so R11'R11 is their Gram matrix, and R11 is upper
    # triangular with a positive diagonal. With no trailing columns it keeps
    # the search's order, and its diagonal decays as R's
    fac = srrqr(M, k)
    P = M[:, fac.perm[:k]]
    assert np.max(np.abs(fac.R11.T @ fac.R11 - P.T @ P)) < 1e-12
    assert not np.tril(fac.R11, -1).any() and np.all(np.diag(fac.R11) > 0)
    if shape[1] == k:
        assert np.array_equal(fac.perm, perm)
        assert np.all(np.diff(np.diag(fac.R11)) <= 1e-12 * diag[0])


@pytest.mark.parametrize("seed", range(4))
def test_pivoted_qr_oracle_sweep(seed):
    M = random_matrix(5, 9, seed=100 + seed)
    perm = rdeim.linalg._pivot_order(M)
    assert list(perm[:5]) == greedy_pivot_sequence(M)


def test_pivoted_qr_zero_matrix():
    perm = rdeim.linalg._pivot_order(np.zeros((3, 4)))
    assert sorted(perm) == [0, 1, 2, 3]


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_pivoted_qr_empty(shape):
    perm = rdeim.linalg._pivot_order(np.zeros(shape))
    assert perm.dtype == np.intp
    assert list(perm) == list(range(shape[1]))


def test_pivoted_qr_repeated_columns_first_wins():
    rng = np.random.default_rng(3)
    a = 3.0 * rng.standard_normal(6)
    b, c = rng.standard_normal(6), rng.standard_normal(6)
    M = np.column_stack([b, a, c, a])
    R, perm = _pivoted_qr(M)
    # the two copies of a tie exactly; the first must win, and once it is
    # chosen its copy has no residual left, so it comes last
    assert perm[0] == 1
    assert perm[-1] == 3
    assert abs(R[-1, -1]) <= 1e-14 * abs(R[0, 0])


def _random_wide_orthonormal():
    """W' of 200 random orthonormal bases, r in [1, 30] and n in (r, 400]:
    the shape every selector factors."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 31))
        n = int(rng.integers(r + 1, 401))
        yield random_orthonormal(n, r, seed).T


def test_pivoted_qr_matches_householder_oracle():
    # the first r pivots must be the step-by-step loop's
    mismatches = []
    for case, M in enumerate(_random_wide_orthonormal()):
        r = M.shape[0]
        if not np.array_equal(rdeim.linalg._pivot_order(M)[:r], householder_pivoted_qr(M)[1][:r]):
            mismatches.append((case, M.shape))
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
    R, perm = _pivoted_qr(M)
    m, n = M.shape
    k = min(m, n)
    scale = max(np.linalg.norm(M), 1.0)
    assert perm.dtype == np.intp
    assert sorted(perm) == list(range(n))
    diag = np.abs(np.diag(R))
    assert np.all(np.diff(diag) <= 1e-12 * scale)
    for j in range(k):
        # residual norms of the not yet chosen columns after step j - 1,
        # ||P[:, j'] - Q_j Q_j' P[:, j']|| = ||R[j:, j']||; the absolute
        # term is the roundoff floor of computing them
        res = np.linalg.norm(R[j:, j:], axis=0)
        assert res[0] >= res.max() * (1.0 - 1e-12) - 1e-13 * scale


# ------------------------------------------------------------------- srrqr


def test_srrqr_identity_any_rank():
    for r in (1, 3, 6):
        fac = srrqr(np.eye(6), r, eta=2.0)
        assert sorted(fac.perm) == list(range(6))
        assert np.allclose(np.diag(fac.R11), 1.0)
        assert np.max(np.abs(_interactions(np.eye(6), fac)), initial=0.0) <= 2.0
        assert fac.swaps == 0
        # no trailing columns at rank 6, and exact zeros before it
        assert fac.max_interaction == 0.0


def _interactions(M, fac):
    """inv(R11) R12 of M[:, fac.perm] at fac's rank, from numpy's QR of the
    whole M[:, fac.perm] and a triangular solve: none of srrqr's own
    factors enters it."""
    r = fac.R11.shape[0]
    R = np.linalg.qr(M[:, fac.perm], mode="r")
    return solve_triangular(R[:r, :r], R[:r, r:])


def _kahan(n, c=0.285):
    s = np.sqrt(1.0 - c * c)
    K = -c * np.triu(np.ones((n, n)), 1) + np.eye(n)
    return (s ** np.arange(n))[:, None] * K


def test_srrqr_kahan_interaction_bound():
    K = _kahan(8)
    fac = srrqr(K, 4, eta=2.0)
    assert np.max(np.abs(_interactions(K, fac))) <= 2.0 + 1e-12
    assert np.all(np.diag(fac.R11) > 0)


def test_srrqr_kahan_requires_and_performs_swaps():
    # plain pivoting leaves max |inv(R11) R12| = 3.80 on this Kahan matrix;
    # the swap loop must bring it under eta
    K = _kahan(12, c=0.5)
    fac = srrqr(K, 6, eta=2.0)
    assert np.max(np.abs(_interactions(K, fac))) <= 2.0 + 1e-12
    assert list(fac.perm[:6]) != [0, 1, 2, 3, 4, 5]


class _Numpy(types.ModuleType):
    """numpy as rdeim.linalg sees it in a test that sets its own matmul."""

    def __getattr__(self, name):
        return getattr(np, name)


def _craft_interactions(monkeypatch, M, T):
    """Make srrqr on M see |T| as inv(R11) R12 at its first check and zeros
    at every later one. T is r x (n - r), over the trailing positions of
    M's pivot order. srrqr forms X @ M a block of M's own columns at a
    time: each such product writes T's entries in its trailing columns and
    9 in its pivot columns, which the search must pass over. The pivot
    search's updates multiply blocks of M's columns too; their left factor
    is a view of its directions, where srrqr's X is an array of its own.
    Returns the log of srrqr's products: (the check, from 0, the block's
    first column, its width, its thread)."""
    perm = rdeim.linalg._pivot_order(M)
    r = T.shape[0]
    first = np.full((r, M.shape[1]), 9.0)
    first[:, perm[r:]] = T
    checks, products = [], []

    def matmul(a, b, out):
        if a.base is not None:  # the pivot search's products
            return np.matmul(a, b, out=out)
        # a is the X of one check, the same array for all its blocks
        if not any(a is x for x in checks):
            checks.append(a)
        check = next(k for k, x in enumerate(checks) if a is x)
        lo = (b.ctypes.data - M.ctypes.data) // M.strides[1]
        products.append((check, lo, b.shape[1], threading.get_ident()))
        out[...] = first[:, lo : lo + b.shape[1]] if check == 0 else 0.0
        return out

    numpy = _Numpy("numpy")
    numpy.matmul = matmul
    monkeypatch.setattr(rdeim.linalg, "np", numpy)
    return products


def test_srrqr_swaps_the_first_largest_entry_in_row_order(monkeypatch):
    # |T| ties at (0, 2), (1, 0) and (1, 2): the swap takes (0, 2), the
    # lowest row, though (1, 0) comes first in column-major order
    T = np.array([[0.5, 1.0, 3.0], [3.0, 0.0, -3.0]])
    M = random_matrix(2, 5, seed=0)
    perm = rdeim.linalg._pivot_order(M)
    products = _craft_interactions(monkeypatch, M, T)
    fac = srrqr(M, 2, eta=2.0)
    perm[[0, 4]] = perm[[4, 0]]
    # one block of M's five columns: formed at the first check, formed
    # again to find the entry, and formed at the check after the swap
    assert [p[:3] for p in products] == [(0, 0, 5), (0, 0, 5), (1, 0, 5)]
    assert list(fac.perm) == list(perm)


def test_srrqr_ties_in_one_row_swap_the_earliest_position_in_perm(monkeypatch):
    # M's pivot order is [4, 1, 2, 3, 0], so positions 2 and 4 hold columns
    # 2 and 0. |T| ties in row 0 at those two positions: position 2 wins,
    # though its column comes later in M, and so in the block
    M = random_matrix(2, 5, seed=0)
    perm = rdeim.linalg._pivot_order(M)
    assert list(perm) == [4, 1, 2, 3, 0]
    _craft_interactions(monkeypatch, M, np.array([[3.0, 1.0, 3.0], [0.0, 0.0, 0.0]]))
    fac = srrqr(M, 2, eta=2.0)
    perm[[0, 2]] = perm[[2, 0]]
    assert list(fac.perm) == list(perm)


# M = random_matrix(2, 6, seed=4) has the pivot order [2, 5, 0, 3, 4, 1]:
# positions 2-5 hold columns 0, 3, 4 and 1, and in blocks of two of M's
# columns, columns 0 and 1 are in the first block, 2 (a pivot) and 3 in
# the second, 4 and 5 (a pivot) in the third
_BLOCK_TIES = [
    # ties at (1, 0) in the first block and (0, 2) in the third: the
    # lower row wins though its block comes later
    ([[0.5, 1.0, 3.0, 0.0], [3.0, 0.0, -3.0, 1.0]], 2, [0, 4]),
    # ties in every block, at (0, 1) and (0, 2) in row 0: the earlier
    # position wins
    ([[0.5, 3.0, 3.0, 0.0], [3.0, 0.0, -3.0, 1.0]], 1, [0, 2, 4]),
    # ties at (0, 1) in the second block and (0, 3) in the first: the
    # earlier position wins though its block comes later
    ([[0.5, 3.0, 1.0, 3.0], [1.0, 0.0, 0.0, 1.0]], 1, [0, 2]),
]


@pytest.mark.parametrize(
    "T, swap, tied, parts",
    [(T, swap, tied, parts) for parts in (1, 2) for T, swap, tied in _BLOCK_TIES],
    ids=["T0-2", "T1-1", "T2-1", "T0-2-parts", "T1-1-parts", "T2-1-parts"],
)
def test_srrqr_ties_across_column_blocks_swap_the_first_in_row_order(
    request, monkeypatch, T, swap, tied, parts
):
    # M's six columns are formed two at a time, in one part or, with the
    # work floor lowered, in two parts on two CPUs; the first check sees T,
    # the check after the swap sees zeros
    if parts == 2:
        request.getfixturevalue("one_blas_thread")
        monkeypatch.setattr(_util, "PART_WORK", 1)
    patch_cpus(monkeypatch, parts)
    M = random_matrix(2, 6, seed=4)
    perm = rdeim.linalg._pivot_order(M)
    assert list(perm) == [2, 5, 0, 3, 4, 1]
    monkeypatch.setattr(rdeim.linalg, "block_lines", lambda width: 2)
    monkeypatch.setattr(rdeim.linalg, "FINITE_BLOCK", 2)
    products = _craft_interactions(monkeypatch, M, np.asarray(T))
    fac = srrqr(M, 2, eta=2.0)
    perm[[0, 2 + swap]] = perm[[2 + swap, 0]]
    every = [(0, 0, 2), (0, 2, 2), (0, 4, 2)]
    assert sorted(p[:3] for p in products[:3]) == every
    # only the blocks whose largest entry is the tie are formed again
    assert [p[1] for p in products[3:-3]] == tied
    assert sorted(p[:3] for p in products[-3:]) == [(1, 0, 2), (1, 2, 2), (1, 4, 2)]
    # the first pass over the blocks ran on one thread per part
    assert len({p[3] for p in products[:3]}) == parts
    assert list(fac.perm) == list(perm)
    assert fac.swaps == 1 and fac.max_interaction == 0.0


@pytest.mark.parametrize("factor", ["pivot_order", "srrqr"])
def test_wide_factorizations_make_no_copy_of_m(monkeypatch, factor):
    # the pivot search reads M as stored, in either layout: at its peak it
    # holds its per-column arrays (at most 8 of n entries), its directions
    # Qt (k x m) and either its pool or its update's product buffer, each
    # FINITE_BLOCK entries on one CPU. srrqr adds rank x m arrays and one
    # block of its products X @ M. A copy of M would add M.nbytes, 5.6 times
    # this bound on these shapes; the measured peaks are 0.79-0.82 of it.
    # At rank 10 the search computes nearly every residual again
    # explicitly once it passes the rank, a block of columns at a time
    patch_cpus(monkeypatch, 1)
    low_rank = random_matrix(64, 10, seed=2) @ random_matrix(10, 20000, seed=3)
    for M, rank in ((random_matrix(64, 20000, seed=1), 64), (low_rank, 10)):
        (m, n), k = M.shape, min(M.shape)
        bound = 8 * (8 * n + k * m + FINITE_BLOCK)
        for order in ("C", "F"):
            layout = np.asarray(M, order=order)
            call = {"pivot_order": lambda: rdeim.linalg._pivot_order(layout),
                    "srrqr": lambda: srrqr(layout, rank)}[factor]
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (rank, order, peak)


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
    # the oracle factors the whole M[:, perm] with numpy after each swap and
    # solves for inv(R11) R12; srrqr factors its pivot columns alone and
    # forms inv(R11) Q1' M. They swap the same columns, and their largest
    # interactions differ by rounding: at most 0.28 cond(R11) eps on these
    # inputs and 1.35 cond(R11) eps on the inputs of
    # test_max_interaction_matches_the_solves, against 4 allowed. Both R11
    # are the Householder R of the same columns, equal to 1 eps of R11's
    # largest entry here, against 16 allowed
    M = make()
    R11, R12, perm, swaps = reference_srrqr(M, rank, eta)
    fac = srrqr(M, rank, eta)
    eps = np.finfo(np.float64).eps
    assert swaps > 0 and fac.swaps == swaps
    assert np.array_equal(fac.perm, perm)
    assert np.abs(fac.R11 - R11).max() <= 16 * eps * np.abs(R11).max()
    assert fac.max_interaction <= eta
    expected = np.abs(solve_triangular(R11, R12)).max()
    assert fac.max_interaction == pytest.approx(expected, rel=4 * np.linalg.cond(R11) * eps, abs=0.0)


def _desk_pivot_inputs():
    """W' and hybrid's sampled W'S1 of the desk osc, corner and source bases
    of every randomized kind, at seeds 0 and 3."""
    for example in ("osc", "corner", "source"):
        rank = 10 if example == "osc" else 24
        for basis in ("basic", "subspace", "adaptive"):
            for seed in (0, 3):
                spec = ExperimentSpec(example=example, rank=rank, basis=basis, seed=seed)
                W = build_basis(generate(spec).matrix, spec)
                S1 = leverage_select(W, practical_sample_count(rank), spec.beta, seed)
                yield W.matrix.T
                yield (W.matrix[S1.indices] * S1.weights[:, None]).T


_GEQP3_INPUTS = {
    "random-orthonormal": _random_wide_orthonormal,
    "kahan": lambda: (make() for make, _, _ in _SWAPPING.values()),
    "desk-bases": _desk_pivot_inputs,
}


@pytest.mark.parametrize("family", list(_GEQP3_INPUTS))
def test_pivot_search_keeps_the_geqp3_pivots(family):
    # the pivot search keeps the pivots of LAPACK geqp3, which it replaced:
    # on these inputs no two residuals tie to roundoff, except on the Kahan
    # matrices, whose columns tie exactly and where both keep the first
    # position. The pivots fix every swap, so the whole order agrees
    mismatches = []
    for case, M in enumerate(_GEQP3_INPUTS[family]()):
        perm = rdeim.linalg._pivot_order(M)
        if not np.array_equal(perm, scipy.linalg.qr(M, pivoting=True, mode="r")[1]):
            mismatches.append((case, M.shape))
    assert mismatches == []


def _kernel_outputs(M, rank, eta):
    """The arrays and values of the pivot search and srrqr on M."""
    fac = srrqr(M, rank, eta)
    return [rdeim.linalg._pivot_order(M), fac.perm, fac.R11, np.float64(fac.max_interaction)]


def test_selection_kernels_keep_their_bits_in_parts_and_layouts(monkeypatch, one_blas_thread):
    # the pivot search's residual updates and srrqr's products X @ M run in
    # two parts once the floor is lowered and two CPUs are seen; the blocks
    # stay where they are, so every output keeps the bits of one part. The
    # search's updates and srrqr's products read blocks of M's own columns
    # in either layout, the 96 x 10000 M as well
    wide = random_orthonormal(10000, 96, seed=7).T
    cases = [(wide, 96, 2.0)]
    cases += [(make(), rank, eta) for make, rank, eta in _SWAPPING.values()]
    cases += [(M, M.shape[0], 2.0) for M in _desk_pivot_inputs()]
    monkeypatch.setattr(_util, "PART_WORK", 1)
    mismatches = []
    for case, (M, rank, eta) in enumerate(cases):
        expected = None
        for order in ("C", "F"):
            layout = np.asarray(M, order=order)
            for cpus in (1, 2):
                patch_cpus(monkeypatch, cpus)
                got = _kernel_outputs(layout, rank, eta)
                if expected is None:
                    expected = got
                elif not all(np.array_equal(a, b) for a, b in zip(got, expected)):
                    mismatches.append((case, M.shape, order, cpus))
    assert mismatches == []


def test_max_interaction_matches_the_solves():
    # X = inv(R11) Q1' from numpy's QR of the pivot columns, and its block
    # products with M, find the entry that triangular solves find on the R
    # of numpy's QR of the whole M[:, perm], on the swapping inputs, the
    # desk bases and a wide orthonormal W': at the same position, and equal
    # to 4 cond(R11) eps (the largest difference seen was 1.35 cond(R11)
    # eps). srrqr swaps as the oracle does
    wide = random_orthonormal(10000, 96, seed=7).T
    cases = [(make(), rank) for make, rank, _ in _SWAPPING.values()]
    cases += [(M, M.shape[0]) for M in _desk_pivot_inputs()] + [(wide, 96)]
    eps = np.finfo(np.float64).eps
    for case, (M, rank) in enumerate(cases):
        perm = rdeim.linalg._pivot_order(M)
        R = np.linalg.qr(M[:, perm], mode="r")
        T = np.abs(solve_triangular(R[:rank, :rank], R[:rank, rank:]))
        i, j = np.unravel_index(np.argmax(T), T.shape)
        Q1, R11 = np.linalg.qr(M[:, perm[:rank]])
        t, where = rdeim.linalg._max_interaction(solve_triangular(R11, Q1.T), M, perm, rank)
        assert where == (i, rank + j), case
        assert t == pytest.approx(T[i, j], rel=4 * np.linalg.cond(R11) * eps, abs=0.0), case
    for make, rank, eta in _SWAPPING.values():
        M = make()
        assert srrqr(M, rank, eta).swaps == reference_srrqr(M, rank, eta)[3]


# (X, A) with X = inv(R11) for R11 = A[:, :2], the pivot columns
_NOT_FINITE = {
    # R11 = diag(1e-300, 1): X is finite, and times the 1e300 of the
    # trailing column it overflows
    "overflow": ([[1e300, 0.0], [0.0, 1.0]], [[1e-300, 0.0, 1e300], [0.0, 1.0, 1.0]]),
    # R11 = diag(1e-320, 1): X is infinite, and times the 0 of the trailing
    # column it is a NaN, which a comparison would skip
    "nan": ([[np.inf, 0.0], [0.0, 1.0]], [[1e-320, 0.0, 0.0], [0.0, 1.0, 1.0]]),
    # the product overflows in the pivot column 0 alone, whose entries the
    # search sets to 0
    "pivot": ([[1e300, 0.0], [0.0, 1.0]], [[1e300, 0.0, 0.0], [0.0, 1.0, 1.0]]),
}


@pytest.mark.parametrize("X, A", list(_NOT_FINITE.values()), ids=list(_NOT_FINITE))
def test_max_interaction_raises_when_an_interaction_is_not_finite(X, A):
    with pytest.raises(RankDeficiencyError, match="R11"):
        rdeim.linalg._max_interaction(np.array(X), np.array(A), np.arange(3), 2)


def test_pivot_search_rescales_squares_that_underflow():
    # 2^k B across the edge where the squares of its entries turn
    # subnormal (k about -511) and then 0 (k about -538): the pivots stay
    # geqp3's, whose column norms are scaled, and srrqr's order stays that
    # of B
    B = random_matrix(20, 60, seed=1)
    order = srrqr(B, 20).perm
    for k in range(-560, -500):
        M = np.ldexp(B, k)
        perm = rdeim.linalg._pivot_order(M)
        assert np.array_equal(perm, scipy.linalg.qr(M, pivoting=True, mode="r")[1]), k
        assert np.array_equal(srrqr(M, 20).perm, order), k


def test_pivot_search_stops_only_when_every_column_is_in_the_span():
    # a rank-3 block of columns of norm about 5e8 and a column of norm
    # about 3e-6 outside its span: after three pivots the block's
    # residuals are roundoff, about 1e-7, and the small column's is its
    # whole norm.
    # geqp3 takes it fourth, and so must the search, which stops only when
    # every residual is roundoff against its own column's norm
    big = 1e8 * random_matrix(8, 3, seed=4) @ random_matrix(3, 40, seed=5)
    M = np.hstack([big, 1e-6 * random_matrix(8, 1, seed=6)])
    perm = rdeim.linalg._pivot_order(M)
    assert perm[3] == 40
    assert np.array_equal(perm[:4], scipy.linalg.qr(M, pivoting=True, mode="r")[1][:4])


def test_srrqr_selects_best_volume_pair():
    eps = 1e-3
    M = np.array([[1.0, 0.0, eps], [0.0, 1.0, eps]])
    fac = srrqr(M, 2, eta=2.0)
    assert set(fac.perm[:2]) == best_volume_pair(M)


@st.composite
def _srrqr_cases(draw):
    """(m, n, rank, eta, family, c) with m <= n and rank in [1, m]. The
    family is "random" entries; "kahan", the Kahan matrix of parameter c
    ahead of n - m small columns, at m >= 5 and rank < m, where the
    pivoted QR mostly leaves an interaction above eta, so that srrqr
    swaps; or "near-tie", unit-norm columns whose second half copies the
    first to 1e-12, so that pivots tie to roundoff, at a rank within the
    ceil(n / 2) distinct columns."""
    family = draw(st.sampled_from(["kahan", "near-tie", "random"]))
    m = draw(st.integers(5 if family == "kahan" else 1, 10))
    n = draw(st.integers(m, 24))
    top = {"kahan": m - 1, "near-tie": min(m, (n + 1) // 2)}.get(family, m)
    rank = draw(st.integers(1, top))
    eta = draw(st.sampled_from([1.1, 2.0, 4.0]))
    return m, n, rank, eta, family, draw(st.floats(0.6, 0.8))


def _srrqr_input(m, n, family, c, seed):
    M = random_matrix(m, n, seed=seed)
    if family == "kahan":
        return np.hstack([_kahan(m, c), 1e-3 * M[:, : n - m]])
    if family == "near-tie":
        M /= np.linalg.norm(M, axis=0)
        k = (n + 1) // 2
        M[:, k:] = M[:, : n - k] * (1.0 + 1e-12 * random_matrix(1, n - k, seed=seed + 1))
    return M


# the six seeds of the random entries; hypothesis draws the rest
@pytest.mark.parametrize("seed", range(6))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_srrqr_cases())
def test_srrqr_contracts(seed, case):
    m, n, r, eta, family, c = case
    M = _srrqr_input(m, n, family, c, seed)
    fac = srrqr(M, r, eta=eta)
    # reconstruction without Q: the leading r columns of M[:, perm] are
    # Q1 R11 for an orthonormal Q1, so R11'R11 is their Gram matrix; with
    # an upper triangular R11 and diag(R11) > 0 that fixes R11
    P = M[:, fac.perm]
    assert np.max(np.abs(fac.R11.T @ fac.R11 - P[:, :r].T @ P[:, :r])) < 1e-10
    assert not np.tril(fac.R11, -1).any() and np.all(np.diag(fac.R11) > 0)
    # the reported interaction is the one the swap loop stopped at, against
    # numpy's R of M[:, perm] (see test_srrqr_matches_the_numpy_qr_oracle
    # for the tolerance)
    T = _interactions(M, fac)
    cond = np.linalg.cond(fac.R11)
    assert fac.max_interaction <= eta
    assert fac.max_interaction == pytest.approx(
        np.max(np.abs(T), initial=0.0), rel=4 * cond * np.finfo(np.float64).eps, abs=0.0
    )
    # spectral guarantee
    sv = np.linalg.svd(M, compute_uv=False)
    smin = np.linalg.svd(fac.R11, compute_uv=False)[-1]
    bound = sv[r - 1] / np.sqrt(1.0 + eta * eta * r * (n - r))
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


def test_pivoted_factorizations_raise_a_typed_overflow():
    # every entry is finite, but the column norms pass 1.8e308: the search
    # runs on a scaled copy, and R11, the R of the pivot columns, is
    # non-finite, which srrqr once read as a rank deficiency
    M = np.random.default_rng(1).uniform(0.5, 1, (5, 30)) * 1e308
    match = r"the pivoted QR of M overflowed on a finite M \(5, 30\)"
    with pytest.raises(OverflowingProductError, match=match):
        srrqr(M, 3)


_LAYOUTS = {
    "tall": lambda m: st.integers(1, m - 1),
    "square": lambda m: st.just(m),
    "wide": lambda m: st.integers(m + 1, 15),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    data=st.data(),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
    at=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    seed=st.integers(0, 2**16),
)
def test_one_non_finite_entry_is_named_by_the_pivoted_factorizations(layout, data, value, at, seed):
    # the pivot search tests finiteness on the squared column norms it
    # forms, not on M: a NaN or an infinity anywhere in M must leave a norm
    # non-finite, and M is then read to name it
    m = data.draw(st.integers(2 if layout == "tall" else 1, 11))
    n = data.draw(_LAYOUTS[layout](m))
    rank = data.draw(st.integers(1, min(m, n)))
    M = np.random.default_rng(seed).standard_normal((m, n))
    M[int(at[0] * m), int(at[1] * n)] = value
    for factor in (lambda: rdeim.linalg._pivot_order(M), lambda: srrqr(M, rank)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="M contains non-finite entries"):
                factor()
        assert caught == []


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    data=st.data(),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
    at=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    seed=st.integers(0, 2**16),
)
def test_one_non_finite_entry_is_named_by_thin_svd(layout, data, value, at, seed):
    # thin_svd tests finiteness on the R that geqrf forms, not on A: a NaN
    # or an infinity anywhere in A must leave R non-finite. That rests on
    # how this BLAS build's nrm2 propagates a NaN, which this pins
    m = data.draw(st.integers(2 if layout == "tall" else 1, 11))
    n = data.draw(_LAYOUTS[layout](m))
    A = np.random.default_rng(seed).standard_normal((m, n))
    A[int(at[0] * m), int(at[1] * n)] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="A contains non-finite entries"):
            thin_svd(A, data.draw(st.integers(1, min(m, n))))
    assert caught == []


def test_thin_svd_raises_a_typed_overflow():
    # every entry is finite, but the column norms pass 1.8e308: geqrf
    # leaves R non-finite, which the SVD of R used to report as a failure
    # to converge
    A = np.random.default_rng(1).uniform(0.5, 1, (30, 5)) * 1e308
    with pytest.raises(OverflowingProductError, match=r"the QR of A overflowed on a finite A \(30, 5\)"):
        thin_svd(A)


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
    assert ang == 0.0


def test_canonical_angles_known_rotation():
    W = np.zeros((4, 2))
    W[0, 0] = 1.0
    W[1, 1] = 1.0
    Wh = np.zeros((4, 2))
    Wh[0, 0] = 1.0
    Wh[1, 1] = Wh[2, 1] = 1.0 / np.sqrt(2.0)
    ang = canonical_angles(W, Wh)
    assert abs(ang - 1.0 / np.sqrt(2.0)) < 1e-14


def test_canonical_angles_resolve_a_tiny_angle():
    # a cosine within roundoff of 1 carries no sine below about 1e-7; the
    # residual ||Wh - W W'Wh||_2 resolves an angle of 1e-9
    t = 1e-9
    Q, _ = np.linalg.qr(random_matrix(50, 50, seed=3))
    W = Q[:, :3]
    Wh = W.copy()
    Wh[:, 2] = np.cos(t) * Q[:, 2] + np.sin(t) * Q[:, 3]
    ang = canonical_angles(W, Wh)
    assert ang == pytest.approx(np.sin(t), rel=1e-6)
    assert ang == pytest.approx(canonical_angles(Wh, W), rel=1e-6)


def test_canonical_angles_orthogonal_subspaces():
    W = np.eye(6)[:, :2]
    Wh = np.eye(6)[:, 3:5]
    ang = canonical_angles(W, Wh)
    assert abs(ang - 1.0) < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_canonical_angles_symmetry_and_projector_identity(seed):
    W = random_orthonormal(12, 4, seed=seed)
    Wh = random_orthonormal(12, 4, seed=seed + 50)
    a = canonical_angles(W, Wh)
    b = canonical_angles(Wh, W)
    assert abs(a - b) < 1e-12
    # sin theta_max equals the projector-difference norm and the
    # one-sided projected norm
    Pw = W @ W.T
    Ph = Wh @ Wh.T
    assert abs(a - spectral_norm(Pw - Ph)) < 1e-10
    assert abs(a - spectral_norm((np.eye(12) - Pw) @ Ph)) < 1e-10
    # and the sine of the smallest cosine, a singular value of W'Wh
    cos_min = np.linalg.svd(W.T @ Wh, compute_uv=False)[-1]
    assert abs(a - np.sqrt(1.0 - cos_min**2)) < 1e-12


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


# paper corner (10000 x 625, two parts on two CPUs) and an odd shape with
# n mod 64 != 0 in either memory order, with one pair or more
@pytest.mark.parametrize(
    "matrix, n_pairs",
    [("corner", 1), ("corner", 3), ((3100, 1017, "C"), 2), ((3100, 1017, "F"), 2)],
    ids=str,
)
def test_column_residuals_in_parts_keep_the_bytes_of_the_serial_loop(
    monkeypatch, one_blas_thread, matrix, n_pairs
):
    if isinstance(matrix, str):
        A = generate(ExperimentSpec(example=matrix, scale="paper", rank=24)).matrix
    else:
        n, n_s, order = matrix
        A = np.asarray(random_matrix(n, n_s, seed=n), order=order)
    n, n_s = A.shape
    # a basis with its C = W'A, and unrelated pairs of other widths
    W = random_orthonormal(n, 24, seed=0)
    pairs = [(W, W.T @ A)]
    for k in range(1, n_pairs):
        pairs.append((random_matrix(n, 5 * k, seed=k), random_matrix(5 * k, n_s, seed=10 + k)))
    norms, residuals = serial_column_residuals(A, pairs)
    expected = [norms.tobytes()] + [r.tobytes() for r in residuals]
    # one part, two, three, and more CPUs than any part count: one thread a
    # part, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 64):
            patch_cpus(monkeypatch, cpus)
            parts = min(cpus, A.size >> 20, n // (4 * SWEEP_BLOCK))
            assert _util._part_count(A, n) == max(1, parts)
            norms, residuals = column_residuals(A, pairs)
            assert [norms.tobytes()] + [r.tobytes() for r in residuals] == expected, cpus
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------- failure gateway


def _fail_one_call(monkeypatch):
    """Count every np.linalg.svd call and every call of a routine that
    get_lapack_funcs returns in rdeim.linalg and rdeim.selection, and log
    each in state["log"] by name: "svd" or the routine's.

    Once state["fail_at"] is k, call k (from 0) fails: the SVD raises
    LinAlgError, the routine returns info = -1. state["expect"] is then
    what the error must name: the SVD operand's shape or the routine.
    """
    state = {"calls": 0, "fail_at": None, "expect": None, "log": []}

    def fails(name, expect):
        state["log"].append(name)
        state["calls"] += 1
        if state["calls"] - 1 != state["fail_at"]:
            return False
        state["expect"] = expect
        return True

    real_svd = np.linalg.svd

    def svd(M, *args, **kwargs):
        if fails("svd", str(M.shape)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(M, *args, **kwargs)

    def counted(name, routine):
        @functools.wraps(routine)
        def call(*args, **kwargs):
            out = routine(*args, **kwargs)
            return (*out[:-1], -1) if fails(name, name) else out

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
    # the pivot block's geqrf and orgqr, then the trtri of R11
    srrqr=lambda: srrqr(random_matrix(6, 9, seed=4), 3),
    # one swap: the second check's geqrf, orgqr and trtri fail in turn too
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


def test_the_pivoted_factorizations_and_the_angles_form_only_what_is_read(monkeypatch):
    # pqr reads only the pivots, srrqr the pivots and R11, and a bound the
    # largest angle: the pivot search calls no LAPACK routine, each srrqr
    # check is the geqrf and orgqr of its pivot columns and one inverse of
    # R11 (trtri), and no SVD of W'Wh forms the cosines
    state = _fail_one_call(monkeypatch)

    def calls(run):
        state["log"] = []
        return run(), state["log"]

    W = random_orthonormal(60, 6, seed=11)
    assert calls(lambda: pqr_select(W))[1] == []
    assert srrqr(W.T, 6).swaps == 0
    pivot_block = ["geqrf_lwork", "geqrf", "orgqr", "orgqr"]  # orgqr after its workspace query
    assert calls(lambda: srrqr_select(W))[1] == pivot_block + ["trtri"]
    # at rank 6 of 12 columns each check, the one after each swap too, is
    # the same three routines; a square input at full rank has no trailing
    # columns, so no Q and no inverse
    fac, log = calls(lambda: srrqr(_kahan(12, c=0.5), 6))
    assert fac.swaps > 0
    assert log == (pivot_block + ["trtri"]) * (1 + fac.swaps)
    assert calls(lambda: srrqr(_kahan(12, c=0.5), 12))[1] == ["geqrf_lwork", "geqrf"]
    # the one SVD is the spectral norm of Wh - W (W'Wh)
    pair = random_orthonormal(12, 3, seed=6), random_orthonormal(12, 3, seed=7)
    assert calls(lambda: canonical_angles(*pair))[1] == ["svd"]


@pytest.mark.parametrize("make, rank, eta", list(_SWAPPING.values()), ids=list(_SWAPPING))
def test_srrqr_factors_only_its_pivot_columns(monkeypatch, make, rank, eta):
    # every geqrf srrqr runs is on the m x rank block of its pivot columns,
    # at the first check and at the check after each swap: no geqrf sees
    # the trailing columns
    real = rdeim.linalg.get_lapack_funcs
    shapes = []

    def logged(name, routine):
        def call(a, *args, **kwargs):
            shapes.append(a.shape)
            return routine(a, *args, **kwargs)

        return call if name == "geqrf" else routine

    monkeypatch.setattr(rdeim.linalg, "get_lapack_funcs",
                        lambda names, arrays: tuple(map(logged, names, real(names, arrays))))
    M = make()
    fac = srrqr(M, rank, eta)
    assert fac.swaps > 0
    assert shapes == [(M.shape[0], rank)] * (1 + fac.swaps)
