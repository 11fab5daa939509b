import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rdeim.exceptions import AdaptiveRangeError
from rdeim.experiments import AlgorithmSpec, build_basis
from rdeim.linalg import canonical_angles, spectral_norm, thin_svd
from rdeim.rangefinder import (
    AdaptiveConfig,
    OrthonormalBasis,
    RangeConfig,
    adaptive_range_finder,
    gaussian_matrix,
    sketch_absorb,
    sketch_init,
    sketch_replace,
    subspace_range_finder,
    svd_basis,
    truncate_basis,
    truncation_rank,
)

from conftest import gap_matrix, random_matrix, spectrum_matrix
from oracles import batch_sketch, blockwise_adaptive_basis


# ----------------------------------------------------------------- configs


def test_range_config_validation():
    with pytest.raises(ValueError):
        RangeConfig(rank=0)
    with pytest.raises(ValueError):
        RangeConfig(rank=3, oversample=0)
    with pytest.raises(ValueError):
        RangeConfig(rank=3, power=-1)
    with pytest.raises(ValueError):
        RangeConfig(rank=3, seed=-1)


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(tol=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(tol=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(tol=0.1, block=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(tol=0.1, max_blocks=0)


def test_orthonormal_basis_rejects_skew():
    M = random_matrix(8, 3, seed=0)
    with pytest.raises(ValueError):
        OrthonormalBasis(M, "exact-svd")
    Q, _ = np.linalg.qr(M)
    nan = Q.copy()
    nan[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        OrthonormalBasis(nan, "exact-svd")
    # scaling one column by sqrt(1 + d) moves that Gram diagonal entry by d;
    # the library's one tolerance is 1e-8
    for deviation, accepted in ((2e-8, False), (2e-9, True)):
        skew = Q.copy()
        skew[:, 0] *= np.sqrt(1.0 + deviation)
        if accepted:
            assert OrthonormalBasis(skew, "exact-svd").matrix is skew
        else:
            with pytest.raises(ValueError, match="not orthonormal"):
                OrthonormalBasis(skew, "exact-svd")
    with pytest.raises(ValueError, match="exact-svd basis has no columns"):
        OrthonormalBasis(np.zeros((8, 0)), "exact-svd")


# --------------------------------------------------------- gaussian_matrix


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(20, 10, seed=5)
    b = gaussian_matrix(20, 10, seed=5)
    assert np.array_equal(a, b)
    c = gaussian_matrix(20, 10, seed=6)
    assert not np.array_equal(a, c)


def test_gaussian_matrix_moments():
    x = gaussian_matrix(1000, 100, seed=0).ravel()
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


def test_gaussian_matrix_ks():
    x = gaussian_matrix(100, 100, seed=3).ravel()
    ks = stats.kstest(x, "norm").statistic
    assert ks < 1.63 / np.sqrt(x.size)  # 1% critical value


def test_gaussian_matrix_validation():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 5, seed=0)
    with pytest.raises(ValueError):
        gaussian_matrix(5, 5, seed=-2)


# --------------------------------- single sketch (subspace iteration, q = 0)


def test_basic_gap_matrix_recovers_subspace():
    A, _ = gap_matrix(50, 40, rank=2, gamma=1e-8, seed=2)
    W = subspace_range_finder(A, RangeConfig(rank=2, oversample=5, power=0, seed=0))
    exact = svd_basis(A, 2)
    ang = canonical_angles(exact.matrix, W.matrix)
    assert ang.sin_theta_max <= 1e-6


def test_basic_deterministic_and_provenance():
    A = random_matrix(30, 20, seed=1)
    spec = AlgorithmSpec(rank=4, basis="basic", oversample=4, seed=9)
    W1 = build_basis(A, spec)
    W2 = build_basis(A, spec)
    assert np.array_equal(W1.matrix, W2.matrix)
    assert W1.provenance == "subspace-iteration"
    assert W1.rank == 4
    W3 = build_basis(A, AlgorithmSpec(rank=4, basis="basic", oversample=4, seed=10))
    assert not np.array_equal(W1.matrix, W3.matrix)


def test_basic_rejects_oversized_sketch():
    A = random_matrix(30, 12, seed=1)
    with pytest.raises(ValueError):
        subspace_range_finder(A, RangeConfig(rank=8, oversample=5, power=0, seed=0))


@pytest.mark.parametrize("seed", range(4))
def test_basic_residual_lower_bound(seed):
    A = random_matrix(40, 25, seed=seed)
    sv = np.linalg.svd(A, compute_uv=False)
    W = subspace_range_finder(A, RangeConfig(rank=6, oversample=6, power=0, seed=seed))
    resid = spectral_norm(A - W.matrix @ (W.matrix.T @ A))
    assert resid >= sv[6] - 1e-10


def test_basic_expectation_bound_geometric_spectrum():
    # 50-trial mean of the sketch residual against the expectation bound
    r, p = 10, 10
    sv = 2.0 ** -np.arange(1.0, 61.0)
    A = spectrum_matrix(100, 60, sv, seed=0)
    from rdeim.bounds import rsvd_expected_error

    bound = rsvd_expected_error(sv, r, p)
    resids = []
    for trial in range(50):
        omega = gaussian_matrix(60, r + p, seed=1000 + trial)
        Q, _ = np.linalg.qr(A @ omega)
        resids.append(spectral_norm(A - Q @ (Q.T @ A)))
    assert np.mean(resids) <= bound


# ---------------------------------------------------- subspace_range_finder


def test_subspace_q0_identical_to_basic():
    # --basis basic is subspace iteration at power 0, whatever spec.power says
    A = random_matrix(40, 30, seed=4)
    Wb = build_basis(A, AlgorithmSpec(rank=5, basis="basic", oversample=5, power=2, seed=7))
    Ws = subspace_range_finder(A, RangeConfig(rank=5, oversample=5, power=0, seed=7))
    assert np.array_equal(Wb.matrix, Ws.matrix)
    assert Wb.provenance == Ws.provenance == "subspace-iteration"


def test_subspace_mean_angle_decreases_with_power():
    gamma = 0.5
    A, _ = gap_matrix(80, 60, rank=5, gamma=gamma, seed=3)
    exact = svd_basis(A, 5)
    means = []
    for q in (0, 1, 2):
        sines = []
        for trial in range(20):
            cfg = RangeConfig(rank=5, oversample=10, power=q, seed=200 + trial)
            W = subspace_range_finder(A, cfg)
            sines.append(canonical_angles(exact.matrix, W.matrix).sin_theta_max)
        means.append(np.mean(sines))
    assert means[1] <= means[0] and means[2] <= means[1]


@pytest.mark.parametrize("q", [0, 1, 2])
def test_subspace_orthonormal_output(q):
    # every finder's output is orthonormal far inside the 1e-8 the
    # OrthonormalBasis constructor enforces
    A = random_matrix(35, 25, seed=q)
    adaptive = adaptive_range_finder(A, AdaptiveConfig(tol=0.5, block=3, max_blocks=10, seed=q))
    bases = (
        subspace_range_finder(A, RangeConfig(rank=6, oversample=5, power=q, seed=1)),
        svd_basis(A, 6),
        adaptive,
        truncate_basis(adaptive, A, 6),
    )
    for W in bases:
        G = W.matrix.T @ W.matrix
        assert np.max(np.abs(G - np.eye(W.rank))) < 1e-12


# ---------------------------------------------------- adaptive_range_finder


def _exact_rank(n, n_s, rank, seed, scale=None):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    V, _ = np.linalg.qr(rng.standard_normal((n_s, rank)))
    sv = np.linspace(3.0, 1.0, rank) if scale is None else scale
    return (U * sv) @ V.T


def test_adaptive_exact_low_rank_single_block():
    A = _exact_rank(30, 20, rank=5, seed=0)
    cfg = AdaptiveConfig(tol=1e-8, block=10, max_blocks=3, seed=1)
    W = adaptive_range_finder(A, cfg)
    assert W.rank == 10  # one full block; no truncation inside the finder
    resid = np.linalg.norm(A - W.matrix @ (W.matrix.T @ A))
    assert resid <= 1e-8 * np.linalg.norm(A)
    assert W.provenance == "adaptive"


def test_adaptive_loose_tolerance_single_block():
    A = random_matrix(60, 40, seed=2)
    W = adaptive_range_finder(A, AdaptiveConfig(tol=0.999, block=10, max_blocks=6, seed=0))
    assert W.rank == 10


@pytest.mark.parametrize("tol", [3e-1, 1e-1, 1e-2])
def test_adaptive_meets_frobenius_criterion(tol):
    A = random_matrix(80, 50, seed=5)
    W = adaptive_range_finder(A, AdaptiveConfig(tol=tol, block=5, max_blocks=16, seed=3))
    resid = np.linalg.norm(A - W.matrix @ (W.matrix.T @ A))
    assert resid <= tol * np.linalg.norm(A)
    assert W.rank % 5 == 0


def test_adaptive_budget_failure_carries_partial_state():
    A = random_matrix(60, 40, seed=8)
    cfg = AdaptiveConfig(tol=1e-12, block=5, max_blocks=2, seed=0)
    with pytest.raises(AdaptiveRangeError) as exc:
        adaptive_range_finder(A, cfg)
    err = exc.value
    assert err.partial_basis.shape == (60, 10)
    assert err.residual is not None and err.residual > 1e-12


def test_adaptive_rejects_overgrown_budget():
    A = random_matrix(25, 40, seed=8)
    with pytest.raises(ValueError):
        adaptive_range_finder(A, AdaptiveConfig(tol=0.1, block=10, max_blocks=40, seed=0))


def test_adaptive_rejects_zero_matrix():
    with pytest.raises(ValueError):
        adaptive_range_finder(np.zeros((30, 10)), AdaptiveConfig(tol=0.1, block=5, max_blocks=2, seed=0))


def test_adaptive_deterministic():
    A = random_matrix(50, 30, seed=12)
    cfg = AdaptiveConfig(tol=0.05, block=5, max_blocks=10, seed=4)
    W1 = adaptive_range_finder(A, cfg)
    W2 = adaptive_range_finder(A, cfg)
    assert np.array_equal(W1.matrix, W2.matrix)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tol, max_blocks", [(0.3, 7), (1e-2, 13), (1e-3, 16)])
def test_adaptive_matches_blockwise_oracle(seed, tol, max_blocks):
    # 150 columns span three residual blocks; a decaying spectrum needs
    # several sketch groups, and max_blocks is not always a group multiple
    A, _ = gap_matrix(120, 150, rank=6, gamma=0.3, seed=seed, tail="decay")
    W_ref, blocks, res = blockwise_adaptive_basis(A, tol, 5, max_blocks, seed)
    assert res is None
    W = adaptive_range_finder(A, AdaptiveConfig(tol=tol, block=5, max_blocks=max_blocks, seed=seed))
    assert W.rank == 5 * blocks
    assert np.max(np.abs(W.matrix - W_ref)) <= 1e-12


@pytest.mark.parametrize("max_blocks", [1, 4, 6])
def test_adaptive_failure_matches_blockwise_oracle(max_blocks):
    A, _ = gap_matrix(120, 150, rank=6, gamma=0.3, seed=5, tail="decay")
    W_ref, blocks, res = blockwise_adaptive_basis(A, 1e-9, 5, max_blocks, 7)
    assert blocks == max_blocks and res is not None
    with pytest.raises(AdaptiveRangeError) as exc:
        adaptive_range_finder(A, AdaptiveConfig(tol=1e-9, block=5, max_blocks=max_blocks, seed=7))
    assert np.max(np.abs(exc.value.partial_basis - W_ref)) <= 1e-12
    assert exc.value.residual == pytest.approx(res, rel=1e-10)


def test_adaptive_memory_stays_below_the_matrix():
    # a wide low-rank matrix: no n x n_s temporary may be formed
    A = _exact_rank(600, 4000, rank=25, seed=3)
    cfg = AdaptiveConfig(tol=1e-6, block=10, max_blocks=6, seed=0)
    tracemalloc.start()
    try:
        W = adaptive_range_finder(A, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.rank == 30
    assert peak < 0.5 * A.nbytes


# ------------------------------------------------- svd_basis/truncate_basis


def test_svd_basis_matches_thin_svd():
    A = random_matrix(20, 12, seed=0)
    f = thin_svd(A)
    W = svd_basis(A, 5)
    assert np.array_equal(W.matrix, f.U[:, :5])
    assert W.provenance == "exact-svd"


def test_truncate_basis_aligns_with_leading_directions():
    A, _ = gap_matrix(40, 30, rank=4, gamma=1e-7, seed=6)
    W = adaptive_range_finder(A, AdaptiveConfig(tol=1e-5, block=4, max_blocks=10, seed=2))
    Wt = truncate_basis(W, A, 4)
    assert Wt.rank == 4
    exact = svd_basis(A, 4)
    assert canonical_angles(exact.matrix, Wt.matrix).sin_theta_max < 1e-5


# ---------------------------------------------------------- truncation_rank


def test_truncation_rank_examples():
    assert truncation_rank(np.array([1.0, 0.0, 0.0]), 0.5) == 1
    assert truncation_rank(np.array([2.0, 1.0, 1.0]), 0.5) == 1
    assert truncation_rank(np.array([1.0, 1.0, 1.0, 1.0]), 0.1) == 4


def test_truncation_rank_validation():
    with pytest.raises(ValueError):
        truncation_rank(np.array([1.0, 0.5]), 0.0)
    with pytest.raises(ValueError):
        truncation_rank(np.array([0.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        truncation_rank(np.array([0.5, 1.0]), 0.5)


def test_truncation_rank_is_minimal():
    sv = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
    for eps in (0.5, 0.1, 0.01, 1e-3):
        r = truncation_rank(sv, eps)
        total = np.sum(sv**2)
        assert np.sum(sv[r:] ** 2) <= eps * total
        if r > 0:
            assert np.sum(sv[r - 1 :] ** 2) > eps * total


# ------------------------------------------------------------------ sketch


def test_sketch_absorb_all_matches_batch():
    A = random_matrix(30, 18, seed=9)
    st = sketch_init(30, 18, ell=7, seed=2)
    order = np.random.default_rng(0).permutation(18)
    for j in order:
        sketch_absorb(st, int(j), A[:, j])
    Y = batch_sketch(A, st.omega)
    assert np.max(np.abs(st.Y - Y)) <= 1e-12 * np.max(np.abs(Y))
    assert st.columns_absorbed == 18


def test_sketch_replace_matches_from_scratch():
    A = random_matrix(25, 15, seed=3)
    st = sketch_init(25, 15, ell=6, seed=5)
    for j in range(15):
        sketch_absorb(st, j, A[:, j])
    A2 = A.copy()
    new_col = random_matrix(25, 1, seed=77)[:, 0]
    A2[:, 4] = new_col
    sketch_replace(st, 4, A[:, 4], new_col)
    Y2 = batch_sketch(A2, st.omega)
    scale = np.max(np.abs(Y2))
    assert np.max(np.abs(st.Y - Y2)) <= 1e-10 * scale
    # the downstream orthonormal bases agree too
    Qs, _ = np.linalg.qr(st.Y)
    Qb, _ = np.linalg.qr(Y2)
    assert spectral_norm(Qs @ Qs.T - Qb @ Qb.T) < 1e-10


def test_sketch_precondition_errors():
    st = sketch_init(10, 5, ell=3, seed=0)
    col = np.ones(10)
    sketch_absorb(st, 2, col)
    with pytest.raises(ValueError):
        sketch_absorb(st, 2, col)
    with pytest.raises(ValueError):
        sketch_replace(st, 3, col, col)
    with pytest.raises(ValueError):
        sketch_absorb(st, 9, col)
    with pytest.raises(ValueError):
        sketch_absorb(st, 3, np.ones(4))
