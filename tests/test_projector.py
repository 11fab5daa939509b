import numpy as np
import pytest

from rdeim.exceptions import DegenerateSelectionError
from rdeim.linalg import spectral_norm
from rdeim.projector import build_projector, check_full_rank
from rdeim.selection import (
    SelectionOperator,
    deim_greedy_select,
    hybrid_select,
    leverage_select,
    pqr_select,
)

from conftest import random_matrix, random_orthonormal
from oracles import dense_oblique_projector


def _interp_projector(n, r, seed):
    W = random_orthonormal(n, r, seed=seed)
    return W, build_projector(W, deim_greedy_select(W))


def _sampled_projector(n, r, s, seed):
    W = random_orthonormal(n, r, seed=seed)
    S = leverage_select(W, s, beta=0.5, seed=seed)
    return W, build_projector(W, S)


# ------------------------------------------------------------ construction


def test_build_modes():
    W, P = _interp_projector(20, 4, seed=0)
    assert P.mode == "interpolatory"
    assert P.rank == 4
    _, Ps = _sampled_projector(20, 4, s=15, seed=0)
    assert Ps.mode == "sampled"


def test_build_validation():
    W = random_orthonormal(10, 3, seed=1)
    S = SelectionOperator(np.array([0, 4]), np.ones(2), n=10)
    S12 = SelectionOperator(np.array([0, 4, 7]), np.ones(3), n=12)
    for check in (build_projector, check_full_rank):
        with pytest.raises(ValueError):
            check(W, S)  # too few points
        with pytest.raises(ValueError):
            check(W, S12)  # mismatched n


@pytest.mark.parametrize("delta", [0.0, 5e-13, 2e-12, 1e-3])
def test_rank_check_without_vectors_is_the_projectors(delta):
    # S'W = diag(1, 1, delta), rank deficient for delta <= 1e-12: both
    # checks decide alike, with or without singular vectors
    W = np.eye(10)[:, :3]
    W[2, 2], W[9, 2] = delta, np.sqrt(1.0 - delta * delta)
    S = SelectionOperator(np.arange(3), np.ones(3), n=10)
    for check in (build_projector, check_full_rank):
        if delta <= 1e-12:
            with pytest.raises(DegenerateSelectionError, match="rank deficient"):
                check(W, S)
        else:
            check(W, S)


def test_build_degenerate_selection():
    W = np.eye(10)[:, :3]
    # points outside the basis support see nothing
    S = SelectionOperator(np.array([5, 6, 7]), np.ones(3), n=10)
    with pytest.raises(DegenerateSelectionError):
        build_projector(W, S)


# ----------------------------------------------------------- oracle checks


@pytest.mark.parametrize("seed", range(6))
def test_dense_matches_oracle_interpolatory(seed):
    W, P = _interp_projector(25, 5, seed=seed)
    D_ref = dense_oblique_projector(W, P.selection.indices)
    assert np.max(np.abs(P.dense() - D_ref)) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_dense_matches_oracle_sampled(seed):
    W, P = _sampled_projector(30, 4, s=18, seed=seed)
    D_ref = dense_oblique_projector(W, P.selection.indices, P.selection.weights)
    assert np.max(np.abs(P.dense() - D_ref)) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_apply_matches_dense(seed):
    W, P = _sampled_projector(24, 5, s=12, seed=seed)
    f = random_matrix(24, 1, seed=seed + 100)[:, 0]
    assert np.allclose(P.apply(f), P.dense() @ f, atol=1e-12)


# ------------------------------------------------------ projector identities


@pytest.mark.parametrize("seed", range(5))
def test_idempotent(seed):
    _, P = _interp_projector(30, 6, seed=seed)
    D = P.dense()
    assert spectral_norm(D @ D - D) <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_complement_has_equal_norm(seed):
    # oblique projectors satisfy ||D|| = ||I - D|| whenever D is proper
    _, P = _sampled_projector(28, 4, s=16, seed=seed)
    D = P.dense()
    n = D.shape[0]
    assert spectral_norm(D) == pytest.approx(spectral_norm(np.eye(n) - D), abs=1e-8)


def test_reproduces_basis_vectors():
    W, P = _interp_projector(40, 7, seed=3)
    for k in range(7):
        assert np.allclose(P.apply(W[:, k]), W[:, k], atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_interpolates_at_selected_points(seed):
    W, P = _interp_projector(35, 6, seed=seed)
    f = random_matrix(35, 1, seed=seed + 50)[:, 0]
    g = P.apply(f)
    idx = P.selection.indices
    assert np.max(np.abs(g[idx] - f[idx])) <= 1e-9 * np.max(np.abs(f))


def test_sampled_does_not_interpolate_in_general():
    _, P = _sampled_projector(30, 4, s=20, seed=1)
    f = random_matrix(30, 1, seed=9)[:, 0]
    g = P.apply(f)
    idx = np.unique(P.selection.indices)
    assert np.max(np.abs(g[idx] - f[idx])) > 1e-6


def test_apply_callable_evaluates_only_selected_indices():
    W, P = _interp_projector(50, 5, seed=2)
    f = random_matrix(50, 1, seed=8)[:, 0]
    seen = []

    def comp(idx):
        seen.append(np.array(idx))
        return f[idx]

    g = P.apply(comp)
    assert np.allclose(g, P.apply(f), atol=0)
    assert len(seen) == 1
    assert set(seen[0].tolist()) == set(P.selection.indices.tolist())


def test_apply_callable_shape_check():
    _, P = _interp_projector(20, 3, seed=0)
    with pytest.raises(ValueError):
        P.apply(lambda idx: np.ones(len(idx) + 1))
    with pytest.raises(ValueError):
        P.apply(np.ones(21))


@pytest.mark.parametrize("sampled", [False, True])
def test_apply_block_matches_columns(sampled):
    _, P = _sampled_projector(30, 4, s=18, seed=3) if sampled else _interp_projector(30, 4, seed=3)
    F = random_matrix(30, 7, seed=9)
    G = P.apply(F)
    assert G.shape == (30, 7)
    for k in range(7):
        assert np.allclose(G[:, k], P.apply(F[:, k]), rtol=1e-13, atol=1e-14)
    assert P.apply(F[:, :0]).shape == (30, 0)


@pytest.mark.parametrize("sampled", [False, True])
def test_apply_is_the_basis_times_the_coefficients(sampled):
    W, P = _sampled_projector(30, 4, s=18, seed=3) if sampled else _interp_projector(30, 4, seed=3)
    F = random_matrix(30, 7, seed=9)
    C = P.coefficients(F)
    assert C.shape == (4, 7)
    assert np.array_equal(P.apply(F), W @ C)
    # coefficients of a vector in span(W) are its coordinates
    assert np.allclose(P.coefficients(W @ C[:, 0]), C[:, 0], rtol=0, atol=1e-12)
    f = F[:, 2]
    from_callable = P.coefficients(lambda idx: f[idx])
    assert np.array_equal(from_callable, P.coefficients(f))
    assert np.array_equal(P.apply(lambda idx: f[idx]), W @ from_callable)


@pytest.mark.parametrize("shape", [(31,), (29, 3), (3, 30), (30, 2, 2), ()])
def test_apply_rejects_other_shapes(shape):
    _, P = _interp_projector(30, 4, seed=3)
    with pytest.raises(ValueError):
        P.apply(np.ones(shape))


# ------------------------------------------------------------ error constant


@pytest.mark.parametrize("seed", range(6))
def test_error_constant_matches_dense_norm(seed):
    _, P = _sampled_projector(26, 4, s=13, seed=seed)
    assert P.error_constant() == pytest.approx(spectral_norm(P.dense()), rel=1e-10)


def test_error_constant_merges_repeated_rows():
    # 40 draws over 26 rows must repeat some row
    _, P = _sampled_projector(26, 4, s=40, seed=1)
    assert np.unique(P.selection.indices).size < P.selection.s
    assert P.error_constant() == pytest.approx(spectral_norm(P.dense()), rel=1e-10)


def test_error_constant_unit_square_case():
    W, P = _interp_projector(30, 5, seed=4)
    inv_norm = spectral_norm(np.linalg.inv(W[P.selection.indices, :]))
    assert P.error_constant() == pytest.approx(inv_norm, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_error_constant_product_dominates(seed):
    _, P = _sampled_projector(32, 5, s=14, seed=seed)
    assert P.error_constant_product() >= P.error_constant() - 1e-10


def test_error_constant_at_least_one():
    _, P = _interp_projector(30, 5, seed=6)
    assert P.error_constant() >= 1.0 - 1e-12


# ----------------------------------------------- selector interoperability


@pytest.mark.parametrize("selector", ["greedy", "pqr", "hybrid"])
def test_projector_accepts_every_selector(selector):
    W = random_orthonormal(40, 6, seed=10)
    if selector == "greedy":
        S = deim_greedy_select(W)
    elif selector == "pqr":
        S = pqr_select(W)
    else:
        _, _, S = hybrid_select(W, c_ls=30, beta=0.5, seed=0)
    P = build_projector(W, S)
    f = W @ np.arange(1.0, 7.0)
    assert np.allclose(P.apply(f), f, atol=1e-9)
