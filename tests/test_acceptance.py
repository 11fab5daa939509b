"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `acceptance NN name: PASS/FAIL` line (run with
-s to see them) and then asserts. Everything runs at desk scale except
the oscillator dominance check, which uses the full-size grid on purpose.
"""

import time

import numpy as np
import pytest

from rdeim.bounds import (
    expected_angle_bound,
    hybrid_constant,
    interpolation_error_bound,
    leverage_constant,
    perturbed_basis_bound,
    rsvd_expected_error,
    srrqr_constant,
    wedin_angle_bound,
)
from rdeim.exceptions import DegenerateSelectionError
from rdeim.experiments import (
    bench_basis,
    corner_peak_snapshots,
    gaussian_source_snapshots,
    oscillator_snapshots,
    source_test_points,
)
from rdeim.linalg import canonical_angles, spectral_norm
from rdeim.projector import build_projector
from rdeim.rangefinder import (
    adaptive_range_finder,
    gaussian_matrix,
    subspace_range_finder,
    svd_basis,
    truncation_rank,
)
from rdeim.selection import (
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

from conftest import gap_matrix, random_matrix, random_orthonormal, spectrum_matrix


def _report(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_power_iteration_recovers_gapped_subspace():
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(case)
        n = int(rng.integers(40, 101))
        n_s = int(rng.integers(30, 61))
        r = int(rng.integers(3, 9))
        A, _ = gap_matrix(n, n_s, rank=r, gamma=0.05, seed=case)
        exact = svd_basis(A, r)
        W = subspace_range_finder(A, rank=r, oversample=10, power=3, seed=case)
        worst = max(worst, canonical_angles(exact.matrix, W.matrix))
    _report(1, "gapped-subspace recovery", worst <= 1e-6, f"worst sin theta {worst:.2e}")


def test_criterion_02_expected_residual_bound():
    r, p, n, n_s = 10, 10, 100, 60
    j = np.arange(1.0, n_s + 1.0)
    spectra = [
        2.0**-j,
        1.0 / j,
        1.0 / j**2,
        np.exp(-j / 5.0),
        np.concatenate([np.ones(r), np.full(n_s - r, 0.01)]),
    ]
    ok = True
    margins = []
    for k, sv in enumerate(spectra):
        A = spectrum_matrix(n, n_s, sv, seed=k)
        bound = rsvd_expected_error(sv, r, p)
        resids = []
        for trial in range(50):
            omega = gaussian_matrix(n_s, r + p, seed=10_000 + 97 * k + trial)
            Q, _ = np.linalg.qr(A @ omega)
            resids.append(spectral_norm(A - Q @ (Q.T @ A)))
        mean = float(np.mean(resids))
        margins.append(mean / bound)
        if mean > bound:
            ok = False
    _report(2, "expected residual bound", ok, f"mean/bound ratios max {max(margins):.3f}")


def test_criterion_03_angle_bound_and_power_monotonicity():
    gamma, r, p, n_s, n = 0.5, 5, 10, 60, 100
    A, _ = gap_matrix(n, n_s, rank=r, gamma=gamma, seed=0)
    exact = svd_basis(A, r)
    means, sems, ok = [], [], True
    wedin = 0.0  # the largest sine over its Wedin bound
    for q in (0, 1, 2, 3):
        sines = []
        for trial in range(50):
            W = subspace_range_finder(A, rank=r, oversample=p, power=q, seed=300 + trial)
            sine = canonical_angles(exact, W)
            # the leading left singular vectors of W W'A span W
            wedin = max(wedin, sine / wedin_angle_bound(A, W.matrix @ (W.matrix.T @ A), r))
            sines.append(sine)
        sines = np.asarray(sines)
        mean = float(sines.mean())
        if mean > expected_angle_bound(gamma, r, p, q, n_s):
            ok = False
        means.append(mean)
        sems.append(float(sines.std(ddof=1) / np.sqrt(sines.size)))
    for q in range(3):
        noise = 2.0 * np.hypot(sems[q], sems[q + 1])
        if means[q + 1] > means[q] + noise:
            ok = False
    _report(
        3,
        "expected and Wedin angle bounds, monotone in power",
        ok and wedin <= 1.0,
        "means " + " ".join(f"{m:.2e}" for m in means) + f", sine/Wedin max {wedin:.2f}",
    )


def test_criterion_04_adaptive_dimension_tracks_svd_rank():
    A = corner_peak_snapshots(grid=50, param_grid=15).matrix
    sv = np.linalg.svd(A, compute_uv=False)
    fro = float(np.linalg.norm(A))
    block = 20
    ok = True
    rows = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        r_eps = truncation_rank(sv, eps**2)
        W = adaptive_range_finder(A, tol=eps, block=block, max_blocks=30, seed=0)
        resid = float(np.linalg.norm(A - W.matrix @ (W.matrix.T @ A)))
        if resid > eps * fro:
            ok = False
        if not r_eps <= W.rank <= r_eps + 2 * block:
            ok = False
        rows.append(f"{r_eps}->{W.rank}")
    _report(4, "adaptive dimension window", ok, " ".join(rows))


def test_criterion_05_srrqr_selection_constant():
    eta = 2.0
    failures = 0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(30, 201))
        r = int(rng.integers(2, 13))
        W = random_orthonormal(n, r, seed=2000 + case)
        S = srrqr_select(W, eta=eta)
        inv_norm = spectral_norm(np.linalg.inv(W[S.indices, :]))
        if inv_norm > srrqr_constant(eta, r, n):
            failures += 1
    _report(5, "selection constant guarantee", failures == 0, f"{failures}/100 failures")


def test_criterion_06_sampled_projector_norm_monte_carlo():
    beta, eps, delta, r = 0.5, 0.9, 0.1, 12
    A = corner_peak_snapshots(grid=50, param_grid=15).matrix
    n = A.shape[0]
    W = svd_basis(A, r)
    c = sample_count_bound(r, beta, eps, delta, n=n)
    assert c == 284
    d_ls = leverage_constant(n, c, beta, eps)
    d_hyb = hybrid_constant(n, c, beta, eps, 2.0, r)
    fail_ls = fail_hyb = 0
    # the constants bound the theorem's ||(S'W)^+|| ||S||, never below the exact ||D||_2
    for seed in range(200):
        S = leverage_select(W, c, beta=beta, seed=seed)
        if build_projector(W, S).error_constant_product() > d_ls:
            fail_ls += 1
        try:
            _, _, Sh = hybrid_select(W, c, beta=beta, eta=2.0, seed=seed)
            if build_projector(W, Sh).error_constant_product() > d_hyb:
                fail_hyb += 1
        except DegenerateSelectionError:
            fail_hyb += 1
    ok = fail_ls <= 30 and fail_hyb <= 30  # 0.15 * 200
    _report(
        6,
        "sampled projector norms vs constants",
        ok,
        f"leverage {fail_ls}/200, hybrid {fail_hyb}/200 over D_LS={d_ls:.2f}, D_Hyb={d_hyb:.1f}",
    )


def test_criterion_07_oscillator_dominance_and_tracking():
    snaps = oscillator_snapshots(n_t=10000, n_mu=100)
    A = snaps.matrix
    ok = True
    details = []
    for r in (10, 20):
        W = svd_basis(A, r)
        Wh = subspace_range_finder(A, rank=r, oversample=20, power=0, seed=0)
        P = build_projector(W, deim_greedy_select(W))
        Ph = build_projector(Wh, deim_greedy_select(Wh))
        ratios = []
        for j in range(A.shape[1]):
            f = A[:, j]
            rep = interpolation_error_bound(P, f)
            reph = perturbed_basis_bound(Ph, W, f)
            if rep.bound_value < rep.actual_error - 1e-12:
                ok = False
            if reph.bound_value < reph.actual_error - 1e-12:
                ok = False
            ratios.append(reph.actual_error / rep.actual_error)
        ratios = np.asarray(ratios)
        if ratios.max() > 10.0 or ratios.min() < 0.1:
            ok = False
        details.append(f"r={r} ratio [{ratios.min():.2f}, {ratios.max():.2f}]")
    _report(7, "oscillator bounds dominate, curves track", ok, "; ".join(details))


def test_criterion_08_sampling_unbiasedness():
    n, r, s, T = 50, 6, 100, 10_000
    W = random_orthonormal(n, r, seed=42)
    probs = mixed_pmf(leverage_scores(W), r, beta=0.5)
    rng = np.random.default_rng(7)
    draws = rng.choice(n, size=T * s, replace=True, p=probs)
    counts = np.bincount(draws, minlength=n)
    # each draw contributes 1/(s * pi_j) to its diagonal entry; off-diagonals
    # of S S' are identically zero, so the diagonal is the whole story
    mean_diag = counts / (T * s * probs)
    dev = float(np.max(np.abs(mean_diag - 1.0)))
    tol = 5.0 / np.sqrt(T)
    _report(8, "sampling unbiasedness", dev <= tol, f"max |mean-1| {dev:.4f} vs {tol:.4f}")


def test_criterion_09_interpolation_identity():
    selectors = (deim_greedy_select, pqr_select, srrqr_select)
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(case)
        n = int(rng.integers(40, 301))
        r = int(rng.integers(3, 16))
        W = random_orthonormal(n, r, seed=5000 + case)
        f = random_matrix(n, 1, seed=6000 + case)[:, 0]
        select = selectors[case % len(selectors)]
        P = build_projector(W, select(W))
        g = P.apply(f)
        idx = P.selection.indices
        worst = max(worst, float(np.max(np.abs(g[idx] - f[idx])) / np.max(np.abs(f))))
    _report(9, "interpolation identity", worst <= 1e-9, f"worst residual {worst:.2e}")


def test_criterion_10_source_example_end_to_end():
    r, p = 24, 20
    snaps = gaussian_source_snapshots(n_grid=40, n_train=200, seed=0)
    test = source_test_points(snaps, 50, seed=1)
    A = snaps.matrix
    W = svd_basis(A, r)
    P_det = build_projector(W, deim_greedy_select(W))
    Wh = subspace_range_finder(A, rank=r, oversample=p, power=0, seed=0)
    count = min(practical_sample_count(r), A.shape[0])
    _, _, S = hybrid_select(Wh, count, beta=0.5, eta=2.0, seed=0)
    P_rand = build_projector(Wh, S)

    def mean_rel(P):
        rels = [
            np.linalg.norm(f - P.apply(f)) / np.linalg.norm(f) for f in test.matrix.T
        ]
        return float(np.mean(rels))

    m_det, m_rand = mean_rel(P_det), mean_rel(P_rand)
    error_ok = m_rand <= 2.0 * m_det

    big = gaussian_source_snapshots(n_grid=100, n_train=500, seed=0)
    assert big.matrix.shape[0] >= 10_000 and big.matrix.shape[1] >= 500
    table = bench_basis(big.matrix, rank=r, oversample=p, power=0, seed=0, trials=3)
    t_svd, t_rand = table.rows[0][4], table.rows[1][4]
    timing_ok = t_rand <= 0.5 * t_svd
    _report(
        10,
        "source example accuracy and speed",
        error_ok and timing_ok,
        f"err ratio {m_rand / m_det:.3f}, time ratio {t_rand / t_svd:.3f}",
    )
