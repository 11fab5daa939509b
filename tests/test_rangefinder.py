import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rdeim import _util, rangefinder
from rdeim.exceptions import AdaptiveRangeError, ConvergenceError, OverflowingProductError
from rdeim.experiments import AlgorithmSpec, ExperimentSpec, build_basis, generate
from rdeim.linalg import canonical_angles, spectral_norm, thin_svd
from rdeim.rangefinder import (
    OrthonormalBasis,
    adaptive_range_finder,
    gaussian_matrix,
    subspace_range_finder,
    svd_basis,
    truncation_rank,
)

from conftest import gap_matrix, patch_cpus, random_matrix, spectrum_matrix
from oracles import (
    blockwise_adaptive_basis,
    reference_adaptive_range_finder,
    reference_grouped_qb,
    truncated_basis,
)


# ----------------------------------------------------------------- configs


def test_range_config_validation():
    A = random_matrix(30, 20, seed=0)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        subspace_range_finder(A, rank=0)
    with pytest.raises(ValueError, match="oversample must be >= 1"):
        subspace_range_finder(A, rank=3, oversample=0)
    with pytest.raises(ValueError, match="power must be >= 0"):
        subspace_range_finder(A, rank=3, power=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        subspace_range_finder(A, rank=3, seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        subspace_range_finder(A, rank=3, seed=True)
    with pytest.raises(ValueError, match="rank must be an integer"):
        subspace_range_finder(A, rank=4.5)


def test_adaptive_config_validation():
    A = random_matrix(30, 20, seed=0)
    with pytest.raises(ValueError, match="tol must lie in"):
        adaptive_range_finder(A, tol=0.0)
    with pytest.raises(ValueError, match="tol must lie in"):
        adaptive_range_finder(A, tol=1.0)
    with pytest.raises(ValueError, match="block must be >= 1"):
        adaptive_range_finder(A, tol=0.1, block=0)
    with pytest.raises(ValueError, match="max_blocks must be >= 1"):
        adaptive_range_finder(A, tol=0.1, max_blocks=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        adaptive_range_finder(A, tol=0.1, block=2, max_blocks=2, seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        adaptive_range_finder(A, tol=0.1, block=2, max_blocks=2, seed=True)
    with pytest.raises(ValueError, match="block must be an integer"):
        adaptive_range_finder(A, tol=0.1, block=2.5)


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
    W = subspace_range_finder(A, rank=2, oversample=5, power=0, seed=0)
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
        subspace_range_finder(A, rank=8, oversample=5, power=0, seed=0)


@pytest.mark.parametrize("seed", range(4))
def test_basic_residual_lower_bound(seed):
    A = random_matrix(40, 25, seed=seed)
    sv = np.linalg.svd(A, compute_uv=False)
    W = subspace_range_finder(A, rank=6, oversample=6, power=0, seed=seed)
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


_PLAIN_SUBSPACE = """
import sys
import numpy as np
from oracles import reference_subspace_basis
from rdeim.experiments import ExperimentSpec, generate
from rdeim.rangefinder import subspace_range_finder

example, rank, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
A = generate(ExperimentSpec(example=example, scale="paper", rank=rank)).matrix
W = subspace_range_finder(A, rank, oversample=10, power=1, seed=seed).matrix
print(np.array_equal(W, reference_subspace_basis(A, rank, 10, 1, seed)))
"""


@pytest.mark.parametrize(
    "example, rank, seed", [("source", 96, 2689877680), ("corner", 128, 1628832450)]
)
def test_subspace_matches_plain_products_on_paper_select_inputs(example, rank, seed):
    # the two paper bases the CLI selection benchmark selects on, with its
    # seeds and its one BLAS thread: their trailing columns are noise, and
    # its recorded selections depend on their bits
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    path = [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run(
        [sys.executable, "-c", _PLAIN_SUBSPACE, example, str(rank), str(seed)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_subspace_q0_identical_to_basic():
    # --basis basic is subspace iteration at power 0, whatever spec.power says
    A = random_matrix(40, 30, seed=4)
    Wb = build_basis(A, AlgorithmSpec(rank=5, basis="basic", oversample=5, power=2, seed=7))
    Ws = subspace_range_finder(A, rank=5, oversample=5, power=0, seed=7)
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
            W = subspace_range_finder(A, rank=5, oversample=10, power=q, seed=200 + trial)
            sines.append(canonical_angles(exact.matrix, W.matrix).sin_theta_max)
        means.append(np.mean(sines))
    assert means[1] <= means[0] and means[2] <= means[1]


@pytest.mark.parametrize("q", [0, 1, 2])
def test_subspace_orthonormal_output(q):
    # every finder's output is orthonormal far inside the 1e-8 the
    # OrthonormalBasis constructor enforces
    A = random_matrix(35, 25, seed=q)
    cfg = dict(tol=0.5, block=3, max_blocks=10, seed=q)
    bases = (
        subspace_range_finder(A, rank=6, oversample=5, power=q, seed=1),
        svd_basis(A, 6),
        adaptive_range_finder(A, **cfg),
        adaptive_range_finder(A, **cfg, rank=6),
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
    W = adaptive_range_finder(A, tol=1e-8, block=10, max_blocks=3, seed=1)
    assert W.rank == 10  # one full block; no truncation inside the finder
    resid = np.linalg.norm(A - W.matrix @ (W.matrix.T @ A))
    assert resid <= 1e-8 * np.linalg.norm(A)
    assert W.provenance == "adaptive"


def test_adaptive_loose_tolerance_single_block():
    A = random_matrix(60, 40, seed=2)
    W = adaptive_range_finder(A, tol=0.999, block=10, max_blocks=6, seed=0)
    assert W.rank == 10


@pytest.mark.parametrize("tol", [3e-1, 1e-1, 1e-2])
def test_adaptive_meets_frobenius_criterion(tol):
    A = random_matrix(80, 50, seed=5)
    W = adaptive_range_finder(A, tol=tol, block=5, max_blocks=16, seed=3)
    resid = np.linalg.norm(A - W.matrix @ (W.matrix.T @ A))
    assert resid <= tol * np.linalg.norm(A)
    assert W.rank % 5 == 0


def test_adaptive_budget_failure_carries_partial_state():
    A = random_matrix(60, 40, seed=8)
    with pytest.raises(AdaptiveRangeError) as exc:
        adaptive_range_finder(A, tol=1e-12, block=5, max_blocks=2, seed=0)
    err = exc.value
    assert err.partial_basis.shape == (60, 10)
    assert err.residual is not None and err.residual > 1e-12


def test_adaptive_rejects_overgrown_budget():
    A = random_matrix(25, 40, seed=8)
    with pytest.raises(ValueError):
        adaptive_range_finder(A, tol=0.1, block=10, max_blocks=40, seed=0)


def test_adaptive_rejects_zero_matrix():
    with pytest.raises(ValueError, match="identically zero"):
        adaptive_range_finder(np.zeros((30, 10)), tol=0.1, block=5, max_blocks=2, seed=0)


@pytest.mark.parametrize(
    "A",
    [
        # each column dot is finite, their sum overflows
        np.full((4, 2), 5e153),
        # each column dot overflows
        np.full((4, 3), 1e200),
    ],
)
def test_adaptive_rescales_a_norm_that_overflows(A):
    W = adaptive_range_finder(A, 0.1, block=1, max_blocks=2)
    assert W.rank == 1
    assert np.allclose(np.abs(W.matrix[:, 0]), 0.5, rtol=0, atol=1e-15)


def test_adaptive_rescales_a_norm_that_underflows():
    # every square underflows to 0 on a nonzero matrix
    B = np.random.default_rng(0).standard_normal((40, 8))
    W = adaptive_range_finder(B * 1e-170, 0.1, block=2, max_blocks=4)
    V = adaptive_range_finder(B, 0.1, block=2, max_blocks=4)
    assert W.rank == V.rank
    assert canonical_angles(W, V).sin_theta_max <= 1e-12
    # across the edge where the squares turn subnormal, and then 0; with the
    # rescaling only for a norm of 0, 2^-539 B would give 8 columns, not 14
    B = np.random.default_rng(1).standard_normal((20, 60))
    V = adaptive_range_finder(B, 0.5, block=2, max_blocks=10)
    for k in range(-560, -500):
        W = adaptive_range_finder(np.ldexp(B, k), 0.5, block=2, max_blocks=10)
        assert W.rank == V.rank == 14
        assert canonical_angles(W, V).sin_theta_max <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(8, 40),
    wide=st.integers(2, 4),
    block=st.integers(1, 4),
    tol=st.sampled_from([0.7, 0.5, 0.3]),
    k=st.integers(-600, 600),
    seed=st.integers(0, 2**16),
)
def test_adaptive_width_does_not_depend_on_the_scale(n, wide, block, tol, k, seed):
    # a wide Gaussian A has well-conditioned sketches, so the span of every
    # leading run of columns is fixed to rounding; 2^k A overflows the norm
    # for k above about 500 and underflows it below about -530
    A = np.random.default_rng(seed).standard_normal((n, wide * n))
    max_blocks = n // block
    V = adaptive_range_finder(A, tol, block, max_blocks, seed)
    W = adaptive_range_finder(np.ldexp(A, k), tol, block, max_blocks, seed)
    assert W.rank == V.rank
    assert canonical_angles(W, V).sin_theta_max <= 1e-12


def test_subspace_overflow_is_a_typed_error():
    A = np.random.default_rng(0).standard_normal((40, 20)) * 1e307
    # the sketch is finite (max 1.52e308), but its column norms pass
    # 1.8e308, so its QR is the step that overflows, and the error names it
    # rather than a later product the NaNs run through; the finder runs
    # again on a scaled copy after this error
    match = r"the QR of the sketch A Omega overflowed on a finite A \(40, 20\)"
    for power in (0, 1):
        with pytest.raises(OverflowingProductError, match=match):
            rangefinder._sketch_basis(A, rank=5, oversample=10, power=power, seed=0)


def test_subspace_rescales_a_finite_matrix_whose_products_overflow():
    A = np.random.default_rng(0).standard_normal((40, 20)) * 1e307
    scaled = np.ldexp(A, -math.frexp(np.max(np.abs(A)))[1])
    for power in (0, 1):
        W = subspace_range_finder(A, 4, power=power)
        assert W.rank == 4
        # the basis of the copy scaled to max|a_ij| in [1/2, 1), bit for bit
        assert np.array_equal(W.matrix, subspace_range_finder(scaled, 4, power=power).matrix)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(20, 60),
    n_s=st.integers(12, 40),
    rank=st.integers(1, 5),
    power=st.integers(0, 2),
    k=st.integers(-600, 1020),
    seed=st.integers(0, 2**16),
)
@example(n=40, n_s=20, rank=4, power=1, k=1020, seed=0)
@example(n=40, n_s=20, rank=4, power=0, k=-600, seed=0)
def test_range_finders_do_not_depend_on_the_scale(n, n_s, rank, power, k, seed):
    # singular values decaying by 0.8 fix the leading spans to rounding,
    # and A is scaled to max|a_ij| in [4, 8): 2^k A overflows a subspace
    # product for k near 1020, where that finder works on a scaled copy,
    # and the adaptive norm for k above about 505
    A = spectrum_matrix(n, n_s, 0.8 ** np.arange(min(n, n_s)), seed)
    A = np.ldexp(A, 3 - math.frexp(np.max(np.abs(A)))[1])
    B = np.ldexp(A, k)
    builds = (
        lambda M: subspace_range_finder(M, rank, oversample=2, power=power, seed=seed),
        lambda M: adaptive_range_finder(M, 0.1, block=rank, max_blocks=n // rank, seed=seed),
    )
    for build in builds:
        V, W = build(A), build(B)
        assert W.rank == V.rank
        assert canonical_angles(W, V).sin_theta_max <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(12, 60),
    n_s=st.integers(6, 40),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
    at=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    seed=st.integers(0, 2**16),
)
def test_one_non_finite_entry_is_named(n, n_s, value, at, seed):
    # the finders and the orthonormality check test finiteness on a product
    # they form anyway; a NaN or an infinity anywhere makes it non-finite
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n_s))
    A[int(at[0] * n), int(at[1] * n_s)] = value
    Q, _ = np.linalg.qr(rng.standard_normal((n, 4)))
    Q[int(at[0] * n), int(at[1] * 4)] = value
    builds = (
        lambda: subspace_range_finder(A, rank=2, oversample=3, power=1, seed=seed),
        lambda: adaptive_range_finder(A, 0.1, block=2, max_blocks=n // 2, seed=seed),
        lambda: OrthonormalBasis(Q, "probe"),
        lambda: OrthonormalBasis(np.asfortranarray(Q), "probe"),
    )
    for build in builds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="contains non-finite entries"):
                build()
        assert caught == []


def test_adaptive_deterministic():
    A = random_matrix(50, 30, seed=12)
    cfg = dict(tol=0.05, block=5, max_blocks=10, seed=4)
    W1 = adaptive_range_finder(A, **cfg)
    W2 = adaptive_range_finder(A, **cfg)
    assert np.array_equal(W1.matrix, W2.matrix)


def _assert_same_residual(A, W, W_ei):
    res = np.linalg.norm(A - W @ (W.T @ A))
    res_ei = np.linalg.norm(A - W_ei @ (W_ei.T @ A))
    assert abs(res - res_ei) <= 1e-10 * np.linalg.norm(A)


def _assert_matches_randqb_ei(A, W, W_ei):
    """The library's basis W, one QR per sketch group, has the width of
    the block-by-block randQB_EI basis W_ei, spans its subspace to
    roundoff and leaves the same residual."""
    assert W.shape == W_ei.shape
    assert canonical_angles(W, W_ei).sin_theta_max <= 1e-10
    _assert_same_residual(A, W, W_ei)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tol, max_blocks", [(0.3, 7), (1e-2, 13), (1e-3, 16)])
def test_adaptive_matches_blockwise_oracle(seed, tol, max_blocks):
    # 150 columns span three residual blocks; a decaying spectrum needs
    # several sketch groups, and max_blocks is not always a group multiple
    A, _ = gap_matrix(120, 150, rank=6, gamma=0.3, seed=seed, tail="decay")
    W_ref, blocks, res = blockwise_adaptive_basis(A, tol, 5, max_blocks, seed)
    assert res is None
    W = adaptive_range_finder(A, tol=tol, block=5, max_blocks=max_blocks, seed=seed)
    assert W.rank == 5 * blocks
    _assert_matches_randqb_ei(A, W.matrix, W_ref)


@pytest.mark.parametrize("max_blocks", [1, 4, 6])
def test_adaptive_failure_matches_blockwise_oracle(max_blocks):
    A, _ = gap_matrix(120, 150, rank=6, gamma=0.3, seed=5, tail="decay")
    W_ref, blocks, res = blockwise_adaptive_basis(A, 1e-9, 5, max_blocks, 7)
    assert blocks == max_blocks and res is not None
    with pytest.raises(AdaptiveRangeError) as exc:
        adaptive_range_finder(A, tol=1e-9, block=5, max_blocks=max_blocks, seed=7)
    # one QR of a whole sketch group picks some column signs unlike one QR
    # per block; each column is the same direction
    P = exc.value.partial_basis
    signs = np.sign(np.sum(P * W_ref, axis=0))
    assert np.max(np.abs(P - W_ref * signs)) <= 1e-12
    assert exc.value.residual == pytest.approx(res, rel=1e-10)
    W_g, rel = reference_grouped_qb(A, 1e-9, 5, max_blocks, 7)
    assert np.array_equal(P, W_g) and exc.value.residual == rel


@pytest.mark.parametrize("tol", [1e-8, 1e-9])
def test_adaptive_tolerance_below_the_roundoff_of_the_accumulator(tol):
    # tol^2 lies below the unit roundoff: the check must still run once the
    # accumulated energy reaches ||A||_F^2 up to its rounding
    rng = np.random.default_rng(0)
    A = rng.standard_normal((60, 1)) @ rng.standard_normal((1, 40))
    W = adaptive_range_finder(A, tol=tol, block=2, max_blocks=10)
    assert W.rank == 2
    resid = np.linalg.norm(A - W.matrix @ (W.matrix.T @ A))
    assert resid <= tol * np.linalg.norm(A)


def test_adaptive_memory_stays_below_the_matrix():
    # a wide low-rank matrix: no n x n_s temporary may be formed
    A = _exact_rank(600, 4000, rank=25, seed=3)
    tracemalloc.start()
    try:
        W = adaptive_range_finder(A, tol=1e-6, block=10, max_blocks=6, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.rank == 30
    assert peak < 0.5 * A.nbytes


# ------------------------------------- the adaptive check from W'A alone


def _counting(monkeypatch, name):
    """Record the arguments of every rangefinder.<name> call."""
    calls = []
    real = getattr(rangefinder, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rangefinder, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_adaptive_matches_randqb_fp_reference(example, seed):
    spec = ExperimentSpec(example=example, rank=12, basis="adaptive", seed=seed)
    A = generate(spec).matrix
    for rank in (None, spec.rank):
        W = adaptive_range_finder(A, spec.tol, spec.block, spec.max_blocks, seed, rank=rank)
        W_ref, rel = reference_grouped_qb(A, spec.tol, spec.block, spec.max_blocks, seed, rank)
        assert rel is None and np.array_equal(W.matrix, W_ref)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_adaptive_matches_explicit_check_reference(example, seed):
    # desk source grows by 10 blocks over 3 sketch groups. The grown osc
    # basis ends in directions of singular values near 1e-8 ||A||, which
    # roundoff alone decides, so the subspaces are compared at the rank
    spec = ExperimentSpec(example=example, rank=12, basis="adaptive", seed=seed)
    A = generate(spec).matrix
    args = (spec.tol, spec.block, spec.max_blocks, seed)
    W = adaptive_range_finder(A, *args).matrix
    W_ref, rel = reference_adaptive_range_finder(A, *args)
    assert rel is None and W.shape == W_ref.shape
    _assert_same_residual(A, W, W_ref)
    W = adaptive_range_finder(A, *args, rank=spec.rank).matrix
    W_ref, _ = reference_adaptive_range_finder(A, *args, rank=spec.rank)
    _assert_matches_randqb_ei(A, W, W_ref)


def _accepting_check(monkeypatch, A, *args, **kwargs):
    """Grow a basis and return it with the (W, C, norm2) its accepting
    residual check took: the C the finder formed."""
    checks = _counting(monkeypatch, "_gram_residual")
    basis = adaptive_range_finder(A, *args, **kwargs)
    monkeypatch.undo()
    return basis, checks[-1]


def test_residual_near_the_target_falls_back_to_the_explicit_kernel(monkeypatch):
    A, _ = gap_matrix(120, 150, rank=6, gamma=0.3, seed=0, tail="decay")
    cfg = dict(block=5, max_blocks=20, seed=0)
    loose, (W, C, norm2) = _accepting_check(monkeypatch, A, 1e-3, **cfg)
    gram, margin = rangefinder._gram_residual(W, C, norm2)
    # a target half a margin above the Gram value of that basis: only the
    # explicit residual can decide it
    tol = math.sqrt((gram + 0.5 * margin) / norm2)
    fallbacks = _counting(monkeypatch, "column_residuals")
    W = adaptive_range_finder(A, tol, **cfg)
    assert len(fallbacks) == 1
    monkeypatch.undo()
    W_ref, rel = reference_grouped_qb(A, tol, **cfg)
    assert rel is None and np.array_equal(W.matrix, W_ref)
    assert np.array_equal(W.matrix, loose.matrix)


@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_check_takes_rows_within_the_rounding_of_a_fresh_product(monkeypatch, example):
    # the margin of _gram_residual assumes |C - W'A| <= g_n |W|'|A|
    # entrywise for the C the finder formed group by group; W'A is formed
    # afresh in extended precision
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("no extended precision to form W'A in")
    spec = ExperimentSpec(example=example, rank=12, basis="adaptive")
    A = generate(spec).matrix
    _, (W, C, _) = _accepting_check(monkeypatch, A, spec.tol, spec.block, spec.max_blocks)
    n = A.shape[0]
    Wl, Al = W.astype(np.longdouble), A.astype(np.longdouble)
    u = np.finfo(np.float64).eps / 2
    bound = n * u / (1 - n * u) * (np.abs(Wl).T @ np.abs(Al))
    assert np.all(np.abs(C - Wl.T @ Al) <= bound)


def _count_reads(monkeypatch, A):
    """The list of numpy calls that read all of A inside a range finder,
    which takes A through as_2d, and of its as_matrix checks; it grows as
    the finder runs."""
    reads = []

    class Counted(np.ndarray):
        """A view of A that records each numpy call reading all of it."""

        def _plain(self, args, name):
            if any(isinstance(a, Counted) and a.size == A.size for a in args):
                reads.append(name)
            return [a.view(np.ndarray) if isinstance(a, Counted) else a for a in args]

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if "out" in kwargs:
                kwargs["out"] = tuple(self._plain(kwargs["out"], None))
            return getattr(ufunc, method)(*self._plain(inputs, ufunc.__name__), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            return func(*self._plain(args, func.__name__), **kwargs)

    real, check = rangefinder.as_2d, rangefinder.as_matrix
    monkeypatch.setattr(rangefinder, "as_2d", lambda a, name: real(a, name).view(Counted))
    monkeypatch.setattr(
        rangefinder, "as_matrix", lambda a, name: reads.append("as_matrix") or check(a, name)
    )
    return reads


def test_adaptive_reads_the_matrix_twice_per_sketch_group(monkeypatch):
    # desk source grows by 10 blocks over 3 sketch groups; A is read in
    # full by the one norm, whose column dots are also its finiteness
    # check, and two products a group (G = A Omega and the group's rows of
    # C), and by nothing else
    spec = ExperimentSpec(example="source", rank=12, basis="adaptive")
    A = generate(spec).matrix
    reads = _count_reads(monkeypatch, A)
    fallbacks = _counting(monkeypatch, "column_residuals")
    for rank in (None, spec.rank):
        del reads[:]
        W = adaptive_range_finder(A, spec.tol, spec.block, spec.max_blocks, rank=rank)
        assert W.rank == (100 if rank is None else rank) and fallbacks == []
        assert reads == ["einsum"] + ["matmul", "matmul"] * 3


@pytest.mark.parametrize("power", [0, 1, 2])
def test_subspace_reads_the_matrix_once_per_product(monkeypatch, power):
    # the sketch, two products per power step and Q'A; the finiteness test
    # is taken from the sketch and Q'A, not from a read of its own
    A = generate(ExperimentSpec(example="corner", rank=12)).matrix
    reads = _count_reads(monkeypatch, A)
    W = subspace_range_finder(A, 12, power=power)
    assert W.rank == 12
    assert reads == ["matmul"] * (2 + 2 * power)


def test_paper_corner_check_needs_no_explicit_residual(monkeypatch):
    spec = ExperimentSpec(example="corner", scale="paper", rank=24, basis="adaptive")
    A = generate(spec).matrix
    fallbacks = _counting(monkeypatch, "column_residuals")
    checks = _counting(monkeypatch, "_gram_residual")
    build_basis(A, spec)
    assert len(checks) >= 1 and fallbacks == []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(12, 90),
    n_s=st.integers(3, 70),
    r=st.integers(1, 12),
    noise=st.sampled_from([0.0, 1e-13, 1e-9, 1e-5, 1e-2]),
    block=st.integers(1, 8),
    tol=st.sampled_from([0.5, 1e-1, 1e-3, 1e-5, 1e-7, 1e-9]),
    seed=st.integers(0, 2**16),
)
def test_adaptive_postcondition_holds(n, n_s, r, noise, block, tol, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, r)) @ rng.standard_normal((r, n_s))
    A += noise * np.sqrt(np.mean(A * A)) * rng.standard_normal((n, n_s))
    alpha = float(np.sum(A * A))
    # each check records "gram", each explicit residual then "explicit"
    events = []
    checks = []

    def record(mp, name, event):
        real = getattr(rangefinder, name)

        def recorded(*args):
            events.append(event)
            checks.append(args) if event == "gram" else None
            return real(*args)

        mp.setattr(rangefinder, name, recorded)

    with pytest.MonkeyPatch.context() as mp:
        record(mp, "_gram_residual", "gram")
        record(mp, "column_residuals", "explicit")
        try:
            W = adaptive_range_finder(A, tol, block, n // block, seed).matrix
        except AdaptiveRangeError as err:
            # the budget fails only a basis that misses the tolerance, and
            # the reported residual is the explicit kernel's
            assert err.residual > tol
            assert events[-1] == "explicit"
            P = err.partial_basis
            E = A - P @ (P.T @ A)
            assert abs(err.residual - np.sqrt(np.sum(E * E) / alpha)) <= 1e-12
            return
    E = A - W @ (W.T @ A)
    res = float(np.sum(E * E))
    assert res <= tol * tol * alpha
    # the accepting check's Gram value, from the C the finder formed
    W_check, C, norm2 = checks[-1]
    assert np.array_equal(W_check, W) and norm2 == math.fsum(np.einsum("ij,ij->j", A, A))
    gram, margin = rangefinder._gram_residual(W, C, norm2)
    E = A - W @ C
    assert abs(gram - float(np.sum(E * E))) <= margin
    # the margin is at least (n + 2) u ||A||_F^2 and the Gram value at
    # least -margin / 1.01, so below 1% of that floor no target can be met
    # by the Gram value: the accepting check fell back
    if tol * tol < 0.01 * (n + 2) * np.finfo(np.float64).eps / 2:
        assert events[-2:] == ["gram", "explicit"]


# ------------------------------------------------- products with A in parts


def _paper_matrix(example):
    return generate(ExperimentSpec(example=example, scale="paper", rank=24)).matrix


# (A, width of X and Q): the paper matrices at their sketch widths, and odd
# shapes with n mod 64 != 0, n_s mod 8 != 0, odd widths, either memory
# order. The next two form A X in one part by the floors of _part_count:
# split, 317 x 6700 at 64 lines a part and 1290 x 80 at 2^14 entries a
# part changed the bits of their last n mod 8 rows of A X. The last has
# fewer than 64 columns, so A'Q, Q'A and the rows of W'A are the one call
# _over_lines makes on a split axis of no whole block
_PRODUCTS = [
    ("source", 34),
    ("corner", 138),
    ("osc", 20),
    ((2500, 841, "C"), 11),
    ((3100, 1017, "F"), 13),
    ((1100, 3001, "C"), 1),
    ((700, 3003, "F"), 35),
    ((317, 6700, "C"), 13),
    ((1290, 80, "C"), 16),
    ((5000, 40, "C"), 7),
]


@pytest.mark.parametrize("matrix, ell", _PRODUCTS, ids=lambda v: str(v))
def test_products_in_parts_keep_the_bits_of_one_call(monkeypatch, one_blas_thread, matrix, ell):
    if isinstance(matrix, str):
        A = _paper_matrix(matrix)
    else:
        n, n_s, order = matrix
        A = np.asarray(random_matrix(n, n_s, seed=n), order=order)
    n, n_s = A.shape
    rng = np.random.default_rng(ell)
    X = rng.standard_normal((n_s, ell))
    Q = np.asfortranarray(rng.standard_normal((n, ell)))
    # the adaptive finder writes its rows of W'A into a row slice of the
    # C-ordered C; the rows around the slice must stay as they were
    rows = slice(3, 3 + ell)
    C_expected = np.zeros((ell + 7, n_s))
    np.matmul(Q.T, A, out=C_expected[rows])

    def into_rows():
        C = np.zeros((ell + 7, n_s))
        C[rows] = np.nan
        rangefinder._left_times(Q.T, A, out=C[rows])
        return C

    products = (
        ("A X", lambda: rangefinder._times(A, X), (X.T @ A.T).T, n),
        ("A'Q", lambda: rangefinder._transposed_times(A, Q), A.T @ Q, n_s),
        ("Q'A", lambda: rangefinder._left_times(Q.T, A), Q.T @ A, n_s),
        ("rows of W'A", into_rows, C_expected, n_s),
    )
    # one part, two, three, and more CPUs than any part count: one thread a
    # part, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 64):
            patch_cpus(monkeypatch, cpus)
            for name, form, expected, lines in products:
                parts = min(cpus, A.size >> 20, lines // (4 * 64))
                assert _util._part_count(A, lines) == max(1, parts)
                got = form()
                assert got.flags.f_contiguous == expected.flags.f_contiguous
                assert got.tobytes() == expected.tobytes(), (name, cpus)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [2, None])
def test_products_are_one_call_unless_blas_runs_one_thread(monkeypatch, threads):
    A = random_matrix(3100, 1017, seed=0)
    X = random_matrix(1017, 7, seed=1)
    Q = random_matrix(3100, 7, seed=2)
    monkeypatch.setattr(_util, "blas_threads", lambda: 1)
    patch_cpus(monkeypatch, 4)
    assert _util._part_count(A, 3100) == 3
    # two BLAS threads, or a count that cannot be read, leave one part
    monkeypatch.setattr(_util, "blas_threads", lambda: threads)
    assert _util._part_count(A, 3100) == _util._part_count(A, 1017) == 1

    # every product still goes through fill_in_parts, in one part
    fill_in_parts = _util.fill_in_parts
    calls = []

    def one_part(fill, n_blocks, parts):
        assert parts == 1, "a product was split"
        calls.append(n_blocks)
        fill_in_parts(fill, n_blocks, parts=parts)

    monkeypatch.setattr(_util, "fill_in_parts", one_part)
    assert np.array_equal(rangefinder._times(A, X), (X.T @ A.T).T)
    assert np.array_equal(rangefinder._transposed_times(A, Q), A.T @ Q)
    assert np.array_equal(rangefinder._left_times(Q.T, A), Q.T @ A)
    assert calls == [3100 // 64, 1017 // 64, 1017 // 64]


def test_blas_threads_reads_the_count_on_every_call(one_blas_thread):
    # the fixture set numpy's OpenBLAS to one thread after the import
    assert _util.blas_threads() == 1


def test_products_in_parts_raise_from_a_worker_and_leave_no_thread(monkeypatch):
    monkeypatch.setattr(_util, "_part_count", lambda A, lines: 3)
    before = threading.active_count()
    done = []

    def form(lo, hi):
        if hi == 6 * 64 + 5:
            raise ArithmeticError(f"lines [{lo}, {hi})")
        done.append((lo, hi))

    # six blocks in three parts, the five-line tail joining the last
    with pytest.raises(ArithmeticError, match=r"lines \[256, 389\)"):
        _util._over_lines(form, None, 6 * 64 + 5)
    assert threading.active_count() == before
    assert sorted(done) == [(0, 128), (128, 256)]


_PARTED_BASES = """
import hashlib, os, sys
import numpy as np
from rdeim import _util
from rdeim.experiments import AlgorithmSpec, ExperimentSpec, build_basis, generate

A = generate(ExperimentSpec(example="source", scale="paper", rank=24)).matrix
if _util.blas_threads() is None:
    print("unread")
    sys.exit()
for cpus in (1, 2):
    os.sched_getaffinity = lambda pid: set(range(cpus))
    print(_util._part_count(A, A.shape[0]), _util._part_count(A, A.shape[1]))
    for basis in ("subspace", "adaptive"):
        W = build_basis(A, AlgorithmSpec(rank=24, basis=basis, power=1)).matrix
        print(basis, hashlib.sha256(W.tobytes()).hexdigest())
"""


def test_paper_bases_are_the_same_on_one_cpu_and_two():
    # one BLAS thread, as the benchmark pins it: the subspace (q = 1) and
    # adaptive bases of the paper source matrix, with their products in one
    # part and in two
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    path = [str(tests.parent / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run(
        [sys.executable, "-c", _PARTED_BASES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if lines == ["unread"]:
        pytest.skip("numpy links a BLAS whose thread count cannot be read")
    assert lines[0] == "1 1" and lines[3] == "2 2"
    assert lines[1:3] == lines[4:6]


# ------------------------------------------------ svd_basis/adaptive rank


def test_svd_basis_matches_thin_svd():
    A = random_matrix(20, 12, seed=0)
    W = svd_basis(A, 5)
    assert np.array_equal(W.matrix, thin_svd(A, 5).U)
    assert W.provenance == "exact-svd"


@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_svd_basis_matches_full_svd_on_desk_examples(example):
    r = 24
    A = generate(ExperimentSpec(example=example, rank=r)).matrix
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    W = svd_basis(A, r).matrix
    Ur = U[:, :r]
    assert np.linalg.norm(W - Ur @ (Ur.T @ W), 2) <= 1e-12
    f = thin_svd(A, r)
    assert np.max(np.abs(f.singular_values - sv)) <= 1e-13 * sv[0]


def test_truncate_basis_aligns_with_leading_directions():
    A, _ = gap_matrix(40, 30, rank=4, gamma=1e-7, seed=6)
    # blocks of 3 grow to 6 columns, so rank 4 truncates
    cfg = dict(tol=1e-5, block=3, max_blocks=10, seed=2)
    assert adaptive_range_finder(A, **cfg).rank == 6
    Wt = adaptive_range_finder(A, **cfg, rank=4)
    assert Wt.rank == 4
    assert Wt.provenance == "adaptive"
    exact = svd_basis(A, 4)
    assert canonical_angles(exact.matrix, Wt.matrix).sin_theta_max < 1e-5


@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_adaptive_build_matches_truncation_oracle(monkeypatch, example):
    # the finder truncates with the C = W'A its accepting residual check
    # took; the oracle rotates the grown basis by that C, and the bits agree
    spec = ExperimentSpec(example=example, rank=12, basis="adaptive")
    A = generate(spec).matrix
    cfg = dict(tol=spec.tol, block=spec.block, max_blocks=spec.max_blocks, seed=spec.seed)
    grown, (W_check, C, _) = _accepting_check(monkeypatch, A, **cfg)
    assert grown.rank > spec.rank and np.array_equal(W_check, grown.matrix)
    W = build_basis(A, spec)
    assert W.rank == spec.rank
    assert np.array_equal(W.matrix, truncated_basis(grown, C, spec.rank))


def test_adaptive_rank_at_least_width_is_unrotated():
    A = random_matrix(60, 40, seed=2)
    cfg = dict(tol=0.3, block=5, max_blocks=8, seed=1)
    grown = adaptive_range_finder(A, **cfg)
    for rank in (grown.rank, grown.rank + 1, 10 * grown.rank):
        assert np.array_equal(adaptive_range_finder(A, **cfg, rank=rank).matrix, grown.matrix)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        adaptive_range_finder(A, **cfg, rank=0)


def test_rotation_svd_failure_is_a_convergence_error(monkeypatch):
    A = random_matrix(60, 40, seed=3)
    cfg = dict(tol=0.3, block=5, max_blocks=8, seed=1)
    grown = adaptive_range_finder(A, **cfg)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(rangefinder.np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="Q'A"):
        subspace_range_finder(A, rank=5, oversample=5, power=1, seed=0)
    with pytest.raises(ConvergenceError, match="Q'A"):
        adaptive_range_finder(A, **cfg, rank=grown.rank - 1)
    # without truncation the adaptive finder takes no SVD
    assert np.array_equal(adaptive_range_finder(A, **cfg).matrix, grown.matrix)


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


def test_truncation_rank_rejects_a_nan_tolerance():
    # every comparison with a NaN is false, so eps <= 0 would let it through
    with pytest.raises(ValueError, match="eps must be positive, got nan"):
        truncation_rank(np.array([1.0, 0.5, 0.1]), float("nan"))


def test_truncation_rank_is_minimal():
    sv = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
    for eps in (0.5, 0.1, 0.01, 1e-3):
        r = truncation_rank(sv, eps)
        total = np.sum(sv**2)
        assert np.sum(sv[r:] ** 2) <= eps * total
        if r > 0:
            assert np.sum(sv[r - 1 :] ** 2) > eps * total
