import numpy as np
import pytest

from rdeim.exceptions import DegenerateSelectionError
from rdeim.linalg import spectral_norm
from rdeim.selection import (
    SelectionOperator,
    deim_greedy_select,
    hybrid_select,
    leverage_scores,
    leverage_select,
    mixed_pmf,
    practical_sample_count,
    pqr_select,
    sample_count_bound,
    srrqr_select,
)

from conftest import random_orthonormal
from oracles import reference_greedy_points


# ------------------------------------------------------- SelectionOperator


def test_operator_restrict_and_dense_agree():
    S = SelectionOperator(indices=np.array([4, 0, 2]), weights=np.array([2.0, 1.0, 0.5]), n=6)
    x = np.arange(6, dtype=float)
    expected = np.array([2.0 * 4, 1.0 * 0, 0.5 * 2])
    assert np.array_equal(S.restrict(x), expected)
    assert np.array_equal(S.dense().T @ x, expected)
    X = np.arange(12, dtype=float).reshape(6, 2)
    assert np.array_equal(S.restrict(X), S.dense().T @ X)


def test_operator_expand_accumulates_duplicates():
    S = SelectionOperator(indices=np.array([1, 1, 3]), weights=np.array([2.0, 3.0, 1.0]), n=5)
    out = S.expand(np.ones(3))
    assert np.array_equal(out, np.array([0.0, 5.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(out, S.dense() @ np.ones(3))


def test_operator_two_norm_with_duplicates():
    S = SelectionOperator(indices=np.array([1, 1]), weights=np.array([3.0, 4.0]), n=4)
    assert S.two_norm() == pytest.approx(5.0)
    assert S.two_norm() == pytest.approx(spectral_norm(S.dense()))


def test_operator_unit_weight_flag():
    assert SelectionOperator(np.array([2, 0]), np.ones(2), n=3).is_unit_weight
    assert not SelectionOperator(np.array([2, 0]), np.array([1.0, 2.0]), n=3).is_unit_weight


def test_operator_validation():
    with pytest.raises(ValueError):
        SelectionOperator(np.array([3]), np.array([1.0]), n=3)
    with pytest.raises(ValueError):
        SelectionOperator(np.array([-1]), np.array([1.0]), n=3)
    with pytest.raises(ValueError):
        SelectionOperator(np.array([0]), np.array([0.0]), n=3)
    with pytest.raises(ValueError):
        SelectionOperator(np.array([0, 1]), np.array([1.0]), n=3)
    with pytest.raises(ValueError):
        SelectionOperator(np.array([], dtype=int), np.array([]), n=3)


# ------------------------------------------------------- leverage machinery


def test_leverage_scores_sum_to_rank():
    W = random_orthonormal(30, 7, seed=1)
    lev = leverage_scores(W)
    assert lev.shape == (30,)
    assert (lev >= 0).all()
    assert lev.sum() == pytest.approx(7.0, abs=1e-12)


def test_leverage_scores_identity_basis():
    W = np.eye(10)[:, :4]
    lev = leverage_scores(W)
    assert np.array_equal(lev, np.array([1.0] * 4 + [0.0] * 6))


def test_leverage_scores_reject_skew_basis():
    with pytest.raises(ValueError):
        leverage_scores(np.ones((6, 2)))


def test_mixed_pmf_formula():
    W = random_orthonormal(20, 5, seed=2)
    lev = leverage_scores(W)
    probs = mixed_pmf(lev, 5, beta=0.7)
    assert np.allclose(probs, 0.7 * lev / 5 + 0.3 / 20, rtol=0, atol=1e-15)
    assert probs.min() >= 0.3 / 20 - 1e-15
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_mixed_pmf_validation():
    lev = np.array([1.0, 1.0, 0.0, 0.0])
    for beta in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            mixed_pmf(lev, 2, beta)
    with pytest.raises(ValueError):
        mixed_pmf(lev, 3, 0.5)  # sum mismatch
    with pytest.raises(ValueError):
        mixed_pmf(lev * (1.0 + 2e-8), 2, 0.5)
    # a basis within the orthonormality tolerance is not rejected here
    assert mixed_pmf(lev * (1.0 + 5e-9), 2, 0.5).sum() == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        mixed_pmf(np.array([2.5, -0.5]), 2, 0.5)


def test_sample_count_bound_value():
    assert sample_count_bound(10, 0.5, 0.9, 0.1) == 228


def test_sample_count_bound_caps_at_n():
    with pytest.warns(RuntimeWarning):
        capped = sample_count_bound(10, 0.5, 0.9, 0.1, n=100)
    assert capped == 100
    assert sample_count_bound(10, 0.5, 0.9, 0.1, n=500) == 228


def test_sample_count_bound_validation():
    with pytest.raises(ValueError):
        sample_count_bound(0, 0.5, 0.9, 0.1)
    with pytest.raises(ValueError):
        sample_count_bound(10, 1.5, 0.9, 0.1)
    with pytest.raises(ValueError):
        sample_count_bound(1, 0.5, 0.9, 2.0)


def test_practical_sample_count_values():
    assert practical_sample_count(24) == 229
    assert practical_sample_count(2) == 5
    with pytest.raises(ValueError):
        practical_sample_count(1)


# ---------------------------------------------------------- leverage_select


def test_leverage_select_deterministic_and_weighted():
    W = random_orthonormal(40, 6, seed=3)
    S1 = leverage_select(W, 25, beta=0.5, seed=11)
    S2 = leverage_select(W, 25, beta=0.5, seed=11)
    assert np.array_equal(S1.indices, S2.indices)
    assert np.array_equal(S1.weights, S2.weights)
    S3 = leverage_select(W, 25, beta=0.5, seed=12)
    assert not np.array_equal(S1.indices, S3.indices)
    probs = mixed_pmf(leverage_scores(W), 6, beta=0.5)
    assert np.allclose(S1.weights, 1.0 / np.sqrt(25 * probs[S1.indices]))


@pytest.mark.parametrize("seed", range(5))
def test_leverage_select_weight_ceiling(seed):
    n, r, s, beta = 50, 5, 30, 0.5
    W = random_orthonormal(n, r, seed=seed)
    S = leverage_select(W, s, beta=beta, seed=seed)
    assert S.weights.max() <= np.sqrt(n / (s * (1.0 - beta))) + 1e-12


def test_leverage_select_sampling_is_unbiased():
    # mean of diag(S S') over draws approaches 1 at every row
    n, r = 20, 4
    W = random_orthonormal(n, r, seed=7)
    s = 20000
    S = leverage_select(W, s, beta=0.5, seed=0)
    acc = np.zeros(n)
    np.add.at(acc, S.indices, S.weights**2)
    assert np.max(np.abs(acc - 1.0)) < 0.25


def test_leverage_select_validation():
    W = random_orthonormal(10, 3, seed=0)
    with pytest.raises(ValueError):
        leverage_select(W, 0, beta=0.5, seed=0)


# ------------------------------------------------------------ hybrid_select


def test_hybrid_identity_basis_recovers_support():
    n, r = 12, 4
    W = np.eye(n)[:, :r]
    S1, S2, S = hybrid_select(W, c_ls=40, beta=0.5, seed=1)
    assert S1.s == 40 and S2.s == r and S.s == r
    assert set(S.indices.tolist()) == {0, 1, 2, 3}
    assert np.array_equal(S.dense(), S1.dense() @ S2.dense())


@pytest.mark.parametrize("seed", range(6))
def test_hybrid_composition_and_conditioning(seed):
    W = random_orthonormal(60, 5, seed=seed)
    S1, S2, S = hybrid_select(W, c_ls=30, beta=0.5, eta=2.0, seed=seed)
    assert np.array_equal(S.dense(), S1.dense() @ S2.dense())
    assert np.array_equal(S.indices, S1.indices[S2.indices])
    cross = S.dense().T @ W
    sv = np.linalg.svd(cross, compute_uv=False)
    assert sv[-1] > 1e-10


def test_hybrid_minimal_candidate_pool():
    W = random_orthonormal(15, 3, seed=4)
    S1, S2, S = hybrid_select(W, c_ls=3, beta=0.5, seed=2)
    assert S.s == 3
    assert set(S.indices.tolist()) <= set(S1.indices.tolist())


def test_hybrid_degenerate_sampling_raises():
    # W = [e_3, e_5]: the two stage-one draws of seed 3 miss row 5, so the
    # sampled rows expose rank 1 and there is no rank 2 to prune
    W = np.eye(8)[:, [3, 5]]
    assert 5 not in leverage_select(W, 2, beta=0.5, seed=3).indices
    with pytest.raises(DegenerateSelectionError):
        hybrid_select(W, c_ls=2, beta=0.5, seed=3)


def test_hybrid_validation():
    W = random_orthonormal(10, 4, seed=0)
    with pytest.raises(ValueError):
        hybrid_select(W, c_ls=3, beta=0.5, seed=0)


# ----------------------------------------------------- deterministic  picks


def test_pqr_select_contract():
    W = random_orthonormal(25, 6, seed=5)
    S = pqr_select(W)
    assert S.s == 6 and S.is_unit_weight
    assert np.unique(S.indices).size == 6
    lev = leverage_scores(W)
    assert S.indices[0] == int(np.argmax(lev))
    cross = W[S.indices, :]
    assert np.linalg.matrix_rank(cross) == 6


@pytest.mark.parametrize("seed", range(8))
def test_srrqr_select_norm_guarantee(seed):
    n, r, eta = 40, 5, 2.0
    W = random_orthonormal(n, r, seed=seed)
    S = srrqr_select(W, eta=eta)
    inv_norm = spectral_norm(np.linalg.inv(W[S.indices, :]))
    assert inv_norm <= np.sqrt(1.0 + eta * eta * r * (n - r)) + 1e-8
    assert S.is_unit_weight and np.unique(S.indices).size == r


@pytest.mark.parametrize("seed", range(8))
def test_greedy_matches_reference(seed):
    W = random_orthonormal(30, 6, seed=seed)
    S = deim_greedy_select(W)
    assert np.array_equal(S.indices, reference_greedy_points(W))
    assert S.indices[0] == int(np.argmax(np.abs(W[:, 0])))
    assert S.is_unit_weight


def test_greedy_on_trigonometric_basis():
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    raw = np.column_stack([np.ones_like(t), np.cos(t), np.sin(t), np.cos(2 * t)])
    W, _ = np.linalg.qr(raw)
    S = deim_greedy_select(W)
    assert S.indices[0] == int(np.argmax(np.abs(W[:, 0])))
    assert np.array_equal(S.indices, reference_greedy_points(W))
    # interpolation system stays solvable
    assert np.linalg.matrix_rank(W[S.indices, :]) == 4


def test_deterministic_selectors_reject_skew_basis():
    M = np.ones((8, 2))
    for select in (pqr_select, srrqr_select, deim_greedy_select):
        with pytest.raises(ValueError):
            select(M)
