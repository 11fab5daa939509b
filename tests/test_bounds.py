import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdeim._util import SWEEP_BLOCK, OrthonormalBasis
from rdeim.bounds import (
    angle_bound_constant,
    deviation_constant,
    expected_angle_bound,
    hybrid_constant,
    interpolation_error_bound,
    leverage_constant,
    perturbed_basis_bound,
    rsvd_expected_error,
    srrqr_constant,
    wedin_angle_bound,
)
from rdeim.exceptions import SpectralGapError
from rdeim.experiments import ExperimentSpec, SnapshotSet, build_basis, error_sweep, generate
from rdeim.linalg import canonical_angles
from rdeim.projector import build_projector
from rdeim.rangefinder import subspace_range_finder, svd_basis, truncation_rank
from rdeim.selection import (
    SelectionOperator,
    deim_greedy_select,
    pqr_select,
    srrqr_select,
)

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


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


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


# ------------------------------------------------ every BoundReport holds


@st.composite
def _bound_cases(draw):
    """A reference basis W, a projector on a nearby basis W_hat with a
    deterministic (s = r) or a sampled selection, and columns with n below,
    at and across SWEEP_BLOCK rows."""
    n = draw(
        st.one_of(
            st.integers(4, SWEEP_BLOCK - 1),
            st.sampled_from([SWEEP_BLOCK, 2 * SWEEP_BLOCK]),
            st.integers(SWEEP_BLOCK + 1, 3 * SWEEP_BLOCK).filter(lambda k: k % SWEEP_BLOCK),
        )
    )
    n_s = draw(st.integers(1, 8))
    r = draw(st.integers(1, min(5, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    W = OrthonormalBasis(np.linalg.qr(rng.standard_normal((n, r)))[0], "W")
    # the perturbed basis, at an angle from 1e-9 to 1e-1
    tilt = 10.0 ** draw(st.integers(-9, -1))
    tilted = W.matrix + tilt * rng.standard_normal((n, r))
    W_hat = OrthonormalBasis(np.linalg.qr(tilted)[0], "W_hat")
    S = draw(st.sampled_from([pqr_select, srrqr_select]))(W_hat)
    if draw(st.booleans()):
        # sampled: the pivots plus repeated draws, every point reweighted
        extra = rng.integers(0, n, size=draw(st.integers(1, 2 * r)))
        idx = np.concatenate([S.indices, extra, extra[:1]])
        S = SelectionOperator(idx, 10.0 ** rng.uniform(-1, 1, size=idx.size), n)
    F = rng.standard_normal((n, n_s)) * 10.0 ** rng.integers(-3, 4, size=n_s)
    # a column inside span(W), where only the angle term of a bound is left
    F[:, 0] = W.matrix @ rng.standard_normal(r)
    F[:, draw(st.lists(st.integers(0, n_s - 1), max_size=n_s))] = 0.0
    return W, build_projector(W_hat, S), F


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_bound_cases())
def test_every_bound_report_holds_and_matches_the_sweep(case):
    W, P, F = case
    params = np.arange(F.shape[1])[:, None]
    snaps = SnapshotSet(matrix=F, params=params, space={})
    table = error_sweep(P, snaps, reference_basis=W)
    C = P.error_constant()
    for j, (_, norm, abs_error, _, bound_plain, bound_perturbed, sin_max) in enumerate(table.rows):
        f = F[:, j]
        plain = interpolation_error_bound(P, f)
        pert = perturbed_basis_bound(P, W, f)
        reports = [plain, pert]
        for rep in reports:
            assert rep.actual_error <= rep.bound_value + 1e-10 * (1.0 + C) * norm
        # the per-vector reports and the sweep are one evaluator on other shapes
        floor = 1e-12 * (1.0 + C) * norm
        for rep in reports:
            assert abs(rep.actual_error - abs_error) <= 1e-12 * abs_error + floor
        for rep, bound in ((plain, bound_plain), (pert, bound_perturbed)):
            assert abs(rep.bound_value - bound) <= 1e-12 * bound + floor
        assert pert.constants["sin_theta_max"] == sin_max
        assert plain.bound_value == perturbed_basis_bound(P, P.orthonormal, f).bound_value


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


# --------------------------------------------------------------------- wedin


def test_wedin_diagonal_example():
    eps = 0.05
    A = np.diag([2.0, 1.0])
    Ah = np.diag([2.0, 1.0 + eps])
    # the projected numerator sees that nothing rotated
    assert wedin_angle_bound(A, Ah, rank=1) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_wedin_dominates_true_angle(seed):
    A, _ = gap_matrix(40, 30, rank=4, gamma=0.4, seed=seed)
    E = 1e-3 * random_matrix(40, 30, seed=seed + 90)
    Ah = A + E
    bound = wedin_angle_bound(A, Ah, rank=4)
    Ua = np.linalg.svd(A)[0][:, :4]
    Uh = np.linalg.svd(Ah)[0][:, :4]
    true_sin = canonical_angles(Ua, Uh)
    assert bound >= true_sin - 1e-10


@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_wedin_dominates_true_angle_on_desk_bases(example):
    # A_hat = W W'A for a sketched basis W; its leading left singular
    # vectors span W, so the realized angle is the one to the exact basis
    rank = 10 if example == "osc" else 24
    for seed in range(4):
        A = generate(ExperimentSpec(example=example, rank=rank, seed=seed)).matrix
        exact = svd_basis(A, rank)
        for basis, power in (("basic", 0), ("subspace", 1), ("subspace", 2)):
            spec = ExperimentSpec(example=example, rank=rank, basis=basis, power=power, seed=seed)
            W = build_basis(A, spec).matrix
            realized = canonical_angles(exact, W)
            bound = wedin_angle_bound(A, W @ (W.T @ A), rank)
            assert realized <= bound, (seed, basis, power, realized, bound)


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


@pytest.mark.parametrize(
    "sv, message",
    [
        ([1.0, np.nan, 0.5], "non-finite"),
        ([1.0, np.inf, 0.5], "non-finite"),
        ([1.0, -0.5], "nonnegative"),
        ([0.5, 1.0], "nonincreasing"),
        ([[1.0, 1.0], [1.0, 1.0]], "^sv must be 1-dimensional, got ndim=2$"),
    ],
)
def test_rsvd_expected_error_checks_the_spectrum_as_truncation_rank_does(sv, message):
    # a NaN used to come back as the bound
    with pytest.raises(ValueError, match=message):
        rsvd_expected_error(np.array(sv), 1, 5)
    with pytest.raises(ValueError, match=message):
        truncation_rank(np.array(sv), 0.1)
