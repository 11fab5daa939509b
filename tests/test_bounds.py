import numpy as np
import pytest

from rdeim.bounds import (
    angle_bound_constant,
    constant_bound,
    deviation_constant,
    expected_angle_bound,
    hybrid_constant,
    interpolation_error_bound,
    leverage_constant,
    min_power_iterations,
    perturbed_basis_bound,
    perturbed_pair_bound,
    rsvd_expected_error,
    srrqr_constant,
    wedin_angle_bound,
)
from rdeim.exceptions import SpectralGapError
from rdeim.linalg import canonical_angles
from rdeim.projector import build_projector
from rdeim.rangefinder import subspace_range_finder, svd_basis
from rdeim.selection import SelectionOperator, deim_greedy_select, leverage_select

from conftest import gap_matrix, random_matrix, random_orthonormal


def _snapshots(seed=0):
    A, _ = gap_matrix(60, 40, rank=8, gamma=0.3, seed=seed)
    return A


# ------------------------------------------------- interpolation_error_bound


@pytest.mark.parametrize("seed", range(5))
def test_interpolation_bound_dominates(seed):
    A = _snapshots(seed)
    W = svd_basis(A, 6)
    P = build_projector(W, deim_greedy_select(W))
    for j in (0, 7, 19, 33):
        rep = interpolation_error_bound(P, A[:, j])
        assert rep.bound_value >= rep.actual_error - 1e-12
        assert rep.constants["error_constant"] >= 1.0 - 1e-12


def test_interpolation_bound_exact_on_span():
    W = random_orthonormal(30, 5, seed=1)
    P = build_projector(W, deim_greedy_select(W))
    f = W @ np.arange(1.0, 6.0)
    rep = interpolation_error_bound(P, f)
    assert rep.actual_error <= 1e-12
    assert rep.bound_value <= 1e-12
    assert rep.constants["best_approx_error"] <= 1e-13


def test_interpolation_bound_shape_check():
    W = random_orthonormal(20, 3, seed=0)
    P = build_projector(W, deim_greedy_select(W))
    with pytest.raises(ValueError):
        interpolation_error_bound(P, np.ones(21))


# --------------------------------------------------- perturbed_basis_bound


def _perturbed_pair(seed, rank=6):
    A = _snapshots(seed)
    W = svd_basis(A, rank)
    Wh = subspace_range_finder(A, rank=rank, oversample=6, power=0, seed=seed)
    P_hat = build_projector(Wh, deim_greedy_select(Wh))
    return A, W, Wh, P_hat


@pytest.mark.parametrize("seed", range(5))
def test_perturbed_basis_bound_dominates(seed):
    A, W, _, P_hat = _perturbed_pair(seed)
    for j in (0, 11, 25):
        rep = perturbed_basis_bound(P_hat, W, A[:, j])
        assert rep.bound_value >= rep.actual_error - 1e-12
        assert 0.0 <= rep.constants["sin_theta_max"] <= 1.0


def test_perturbed_basis_bound_reduces_when_unperturbed():
    A = _snapshots(3)
    W = svd_basis(A, 6)
    P = build_projector(W, deim_greedy_select(W))
    f = A[:, 5]
    rep_p = perturbed_basis_bound(P, W, f)
    rep_i = interpolation_error_bound(P, f)
    assert rep_p.constants["sin_theta_max"] == 0.0
    assert rep_p.bound_value == rep_i.bound_value


def test_perturbed_basis_bound_kappa_cases():
    _, W, _, P_hat = _perturbed_pair(7)
    # f orthogonal to the reference span: kappa collapses to the constant
    rng = np.random.default_rng(0)
    f = rng.standard_normal(60)
    Wm = W.matrix
    f -= Wm @ (Wm.T @ f)
    rep = perturbed_basis_bound(P_hat, W, f)
    assert rep.constants["kappa"] == pytest.approx(rep.constants["error_constant"])
    # f inside the span with a nonzero angle: kappa blows up
    g = Wm @ np.arange(1.0, 7.0)
    rep2 = perturbed_basis_bound(P_hat, W, g)
    if rep2.constants["sin_theta_max"] > 0:
        assert rep2.constants["kappa"] > 1e6


def test_perturbed_basis_bound_kappa_infinite_on_exact_span():
    n, r = 12, 3
    W_ref = np.eye(n)[:, :r]
    raw = np.eye(n)[:, :r].copy()
    raw[r, 0] = 0.3  # tilt the first direction out of the reference span
    Wh, _ = np.linalg.qr(raw)
    P_hat = build_projector(Wh, deim_greedy_select(Wh))
    f = np.zeros(n)
    f[0], f[1] = 1.0, 2.0  # exactly inside the reference span
    rep = perturbed_basis_bound(P_hat, W_ref, f)
    assert rep.constants["orthogonal_part"] == 0.0
    assert rep.constants["sin_theta_max"] > 0.0
    assert rep.constants["kappa"] == np.inf
    assert rep.bound_value >= rep.actual_error - 1e-12


def test_perturbed_basis_bound_shape_check():
    _, W, _, P_hat = _perturbed_pair(1)
    with pytest.raises(ValueError):
        perturbed_basis_bound(P_hat, W.matrix[:, :4], np.ones(60))


# ---------------------------------------------------- perturbed_pair_bound


@pytest.mark.parametrize("seed", range(5))
def test_pair_bound_dominates(seed):
    A, W, _, P_hat = _perturbed_pair(seed)
    P_ref = build_projector(W, deim_greedy_select(W))
    for j in (2, 17, 30):
        rep = perturbed_pair_bound(P_ref, P_hat, A[:, j])
        assert rep.bound_value >= rep.actual_error - 1e-12


def test_pair_bound_angle_terms_vanish_when_identical():
    A = _snapshots(4)
    W = svd_basis(A, 5)
    P = build_projector(W, deim_greedy_select(W))
    rep = perturbed_pair_bound(P, P, A[:, 9])
    assert rep.constants["sin_theta_max"] == 0.0
    assert rep.constants["sin_psi_max"] == 0.0
    base = interpolation_error_bound(P, A[:, 9])
    assert rep.bound_value == pytest.approx(base.bound_value, rel=1e-12)


def test_pair_bound_point_angle_compares_the_index_sets():
    A = _snapshots(4)
    W = svd_basis(A, 5)
    P = build_projector(W, deim_greedy_select(W))
    idx = P.selection.indices

    def sin_psi(points):
        Q = build_projector(W, SelectionOperator(indices=points, weights=np.ones(5), n=60))
        return perturbed_pair_bound(P, Q, A[:, 9]).constants["sin_psi_max"]

    assert sin_psi(idx[::-1]) == 0.0
    other = next(j for j in range(60) if j not in idx)
    assert sin_psi(np.append(idx[:4], other)) == 1.0


def test_pair_bound_requires_square_selections():
    A = _snapshots(2)
    W = svd_basis(A, 5)
    P_ref = build_projector(W, deim_greedy_select(W))
    S = leverage_select(W, 12, beta=0.5, seed=0)
    P_smp = build_projector(W, S)
    with pytest.raises(ValueError):
        perturbed_pair_bound(P_ref, P_smp, A[:, 0])
    with pytest.raises(ValueError):
        perturbed_pair_bound(P_smp, P_ref, A[:, 0])


def test_pair_bound_rank_mismatch():
    A = _snapshots(2)
    W5, W6 = svd_basis(A, 5), svd_basis(A, 6)
    P5 = build_projector(W5, deim_greedy_select(W5))
    P6 = build_projector(W6, deim_greedy_select(W6))
    with pytest.raises(ValueError):
        perturbed_pair_bound(P5, P6, A[:, 0])


# -------------------------------------------------------- expectation bounds


def test_angle_bound_constant_value():
    assert angle_bound_constant(5, 10, 60) == pytest.approx(8.553026119764391, rel=1e-14)


def test_angle_bound_constant_validation():
    with pytest.raises(ValueError):
        angle_bound_constant(5, 1, 60)
    with pytest.raises(ValueError):
        angle_bound_constant(0, 10, 60)
    with pytest.raises(ValueError):
        angle_bound_constant(55, 10, 60)


def test_expected_angle_bound_value_and_clip():
    got = expected_angle_bound(0.5, 5, 10, 2, 60)
    assert got == pytest.approx(0.5345641324852745, rel=1e-14)
    assert expected_angle_bound(0.9, 5, 10, 0, 60) == 1.0


def test_expected_angle_bound_power_ratio():
    b2 = expected_angle_bound(0.5, 5, 10, 2, 60)
    b3 = expected_angle_bound(0.5, 5, 10, 3, 60)
    assert b3 / b2 == pytest.approx(0.25, rel=1e-14)


def test_expected_angle_bound_validation():
    with pytest.raises(ValueError):
        expected_angle_bound(0.0, 5, 10, 1, 60)
    with pytest.raises(ValueError):
        expected_angle_bound(1.0, 5, 10, 1, 60)
    with pytest.raises(ValueError):
        expected_angle_bound(0.5, 5, 10, -1, 60)


def test_min_power_iterations_value():
    assert min_power_iterations(0.1, 0.5, 10.0) == 4


def test_min_power_iterations_floor_and_validation():
    assert min_power_iterations(10.0, 0.5, 1.0) == 0
    with pytest.raises(ValueError):
        min_power_iterations(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        min_power_iterations(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        min_power_iterations(0.1, 0.5, 0.0)


def test_min_power_iterations_consistent_with_bound():
    gamma, r, p, n_s = 0.4, 5, 10, 60
    C = angle_bound_constant(r, p, n_s)
    for eps in (0.3, 0.05, 1e-3, 1e-6):
        q = min_power_iterations(eps, gamma, C)
        assert expected_angle_bound(gamma, r, p, q, n_s) <= eps + 1e-15
        if q > 0:
            raw_prev = gamma ** (2 * (q - 1) + 1) * C / (1 - gamma)
            assert raw_prev > eps


# --------------------------------------------------------------------- wedin


def test_wedin_diagonal_example():
    eps = 0.05
    A = np.diag([2.0, 1.0])
    Ah = np.diag([2.0, 1.0 + eps])
    got = wedin_angle_bound(A, Ah, rank=1, numerator="full")
    assert got == pytest.approx(eps / (1.0 - eps), rel=1e-12)
    # the projected numerator sees that nothing rotated
    assert wedin_angle_bound(A, Ah, rank=1, numerator="projected") == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_wedin_dominates_true_angle(seed):
    A, _ = gap_matrix(40, 30, rank=4, gamma=0.4, seed=seed)
    E = 1e-3 * random_matrix(40, 30, seed=seed + 90)
    Ah = A + E
    for numerator in ("projected", "full"):
        bound = wedin_angle_bound(A, Ah, rank=4, numerator=numerator)
        Ua = np.linalg.svd(A)[0][:, :4]
        Uh = np.linalg.svd(Ah)[0][:, :4]
        true_sin = canonical_angles(Ua, Uh).sin_theta_max
        assert bound >= true_sin - 1e-10
    assert wedin_angle_bound(A, Ah, 4, "full") >= wedin_angle_bound(A, Ah, 4, "projected") - 1e-12


def test_wedin_gap_failure():
    A = np.eye(3)
    with pytest.raises(SpectralGapError):
        wedin_angle_bound(A, A, rank=1)


def test_wedin_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        wedin_angle_bound(A, np.eye(4), rank=1)
    with pytest.raises(ValueError):
        wedin_angle_bound(A, A, rank=0)
    with pytest.raises(ValueError):
        wedin_angle_bound(A, A, rank=1, numerator="spectral")


# ----------------------------------------------------------------- constants


def test_constant_values():
    assert srrqr_constant(2.0, 10, 100) == pytest.approx(60.00833275470999, rel=1e-14)
    assert leverage_constant(100, 30, 0.5, 0.9) == pytest.approx(8.16496580927726, rel=1e-14)
    assert hybrid_constant(100, 30, 0.5, 0.9, 2.0, 5) == pytest.approx(182.75666882497066, rel=1e-14)
    assert deviation_constant(10, 10, 0.05, 60) == pytest.approx(22.03738560425801, rel=1e-14)


def test_hybrid_constant_factors():
    base = leverage_constant(200, 40, 0.5, 0.9)
    full = hybrid_constant(200, 40, 0.5, 0.9, 2.0, 8)
    assert full == pytest.approx(base * np.sqrt(1.0 + 4.0 * 8 * 32), rel=1e-14)


def test_constant_validation():
    with pytest.raises(ValueError):
        srrqr_constant(0.5, 10, 100)
    with pytest.raises(ValueError):
        leverage_constant(100, 0, 0.5, 0.9)
    with pytest.raises(ValueError):
        hybrid_constant(100, 30, 0.5, 0.9, 2.0, 31)
    with pytest.raises(ValueError):
        deviation_constant(10, 0, 0.05, 60)


def test_constant_bound_dispatch():
    direct = srrqr_constant(2.0, 5, 50)
    assert constant_bound("srrqr", eta=2.0, rank=5, n=50) == direct
    with pytest.raises(ValueError):
        constant_bound("unknown", eta=2.0)
    with pytest.raises(ValueError):
        constant_bound("srrqr", eta=2.0, rank=5)
    with pytest.raises(ValueError):
        constant_bound("srrqr", eta=2.0, rank=5, n=50, beta=0.5)


# --------------------------------------------------------- rsvd expectation


def test_rsvd_expected_error_value():
    got = rsvd_expected_error(np.array([4.0, 2.0, 1.0]), 2, 2)
    assert got == pytest.approx(5.1324953908321405, rel=1e-14)


def test_rsvd_expected_error_exact_rank():
    assert rsvd_expected_error(np.array([3.0, 1.0]), 2, 5) == 0.0
    assert rsvd_expected_error(np.array([3.0, 1.0, 0.0, 0.0]), 2, 5) == 0.0


def test_rsvd_expected_error_validation():
    with pytest.raises(ValueError):
        rsvd_expected_error(np.array([1.0, 0.5]), 1, 1)
    with pytest.raises(ValueError):
        rsvd_expected_error(np.array([1.0, 0.5]), 0, 5)
