"""Error-bound evaluators for interpolatory projections built on exact or
randomized bases, plus the closed-form constants attached to each selection
scheme.

Each evaluator returns a BoundReport pairing the proven bound with the
actually realized error so callers (and tests) can check dominance
directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import as_matrix, orthonormal_basis
from .exceptions import SpectralGapError
from .linalg import canonical_angles, spectral_norm, thin_svd


@dataclass(frozen=True)
class BoundReport:
    """A proven bound next to the realized error, with its ingredients."""

    actual_error: float
    bound_value: float
    constants: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def _as_f(f, n):
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError(f"f must have shape ({n},), got {f.shape}")
    return f


def plain_bounds(W, F, error_constant):
    """Baseline bound ||D||_2 ||(I - W W') f|| for each column f of F.

    W is the (n, r) orthonormal basis of the projector and F an (n, k)
    block; error_constant is ||D||_2, computed once by the caller.

    Returns
    -------
    (bound, best) : ndarrays of shape (k,)
        The bounds and the best approximation errors out of span(W).
    """
    best = np.linalg.norm(F - W @ (W.T @ F), axis=0)
    return error_constant * best, best


def perturbed_bounds(W_ref, F, error_constant, sin_theta_max):
    """Perturbed-basis bound ||D_hat||_2 (||(I - P_W) f|| + sin(theta_max) ||P_W f||)
    for each column f of F.

    W_ref is the (n, r) orthonormal reference basis, F an (n, k) block;
    error_constant is ||D_hat||_2 and sin_theta_max the largest canonical
    angle sine between span(W_ref) and the projector's basis, both
    computed once by the caller.

    Returns
    -------
    (bound, orth, proj) : ndarrays of shape (k,)
        The bounds, ||(I - P_W) f|| and ||P_W f||.
    """
    P_f = W_ref @ (W_ref.T @ F)
    orth = np.linalg.norm(F - P_f, axis=0)
    proj = np.linalg.norm(P_f, axis=0)
    return error_constant * (orth + sin_theta_max * proj), orth, proj


def interpolation_error_bound(P, f):
    """Baseline projection bound ||f - D f|| <= ||D|| ||(I - W W') f||.

    The right factor is the best approximation error out of span(W); the
    error constant ||D|| measures how far the oblique projector can
    amplify it.
    """
    f = _as_f(f, P.selection.n)
    const = P.error_constant()
    bound, best = plain_bounds(P.basis, f[:, None], const)
    actual = float(np.linalg.norm(f - P.apply(f)))
    return BoundReport(
        actual_error=actual,
        bound_value=float(bound[0]),
        constants={"error_constant": const, "best_approx_error": float(best[0])},
        inputs={"rank": P.rank, "points": P.selection.s, "mode": P.mode},
    )


def perturbed_basis_bound(P_hat, W_ref, f):
    """Bound for a projector built on a perturbed basis W_hat.

    ||f - D_hat f|| <= ||D_hat|| (||(I - P_W) f|| + sin(theta_max) ||P_W f||),
    where theta_max is the largest canonical angle between the reference
    span W and the perturbed span W_hat. The amplification over the
    unperturbed bound is reported as the condition-style factor kappa.
    W_ref is an OrthonormalBasis or an array; an array's columns are
    checked once per call.
    """
    f = _as_f(f, P_hat.selection.n)
    W_ref = orthonormal_basis(W_ref, "W_ref")
    # also rejects a reference whose shape differs from the projector's basis
    sin_max = canonical_angles(W_ref, P_hat.basis).sin_theta_max
    const = P_hat.error_constant()
    bound, orth, proj = perturbed_bounds(W_ref.matrix, f[:, None], const, sin_max)
    orth_norm, proj_norm = float(orth[0]), float(proj[0])
    actual = float(np.linalg.norm(f - P_hat.apply(f)))
    if proj_norm == 0.0:
        kappa = const
    elif orth_norm == 0.0:
        kappa = math.inf if sin_max > 0.0 else const
    else:
        kappa = (1.0 + sin_max * proj_norm / orth_norm) * const
    return BoundReport(
        actual_error=actual,
        bound_value=float(bound[0]),
        constants={
            "error_constant": const,
            "sin_theta_max": sin_max,
            "orthogonal_part": orth_norm,
            "projected_part": proj_norm,
            "kappa": kappa,
        },
        inputs={"rank": P_hat.rank, "points": P_hat.selection.s},
    )


def perturbed_pair_bound(P_ref, P_hat, f):
    """Bound when both the basis and the points are perturbed (s = r).

    ||f - D_hat f|| <= ||D|| ||(I - P_W) f||
                      + ||D|| ||D_hat|| (sin(psi_max) ||(I - P_W) f||
                                         + sin(theta_max) ||P_S f||),
    with theta_max the angle between the bases and psi_max the angle
    between the selected coordinate subspaces. Requires both projectors
    interpolatory with the same rank.
    """
    if P_ref.selection.n != P_hat.selection.n:
        raise ValueError("projectors live on different ambient dimensions")
    if P_ref.rank != P_hat.rank:
        raise ValueError(f"ranks differ: {P_ref.rank} vs {P_hat.rank}")
    for P, name in ((P_ref, "reference"), (P_hat, "perturbed")):
        if P.selection.s != P.rank:
            raise ValueError(f"{name} projector must use s = r points, got s={P.selection.s}")
    n = P_ref.selection.n
    f = _as_f(f, n)
    W = P_ref.basis
    theta = canonical_angles(W, P_hat.basis)
    psi = canonical_angles(
        _selection_span(P_ref.selection), _selection_span(P_hat.selection)
    )
    orth_norm = float(np.linalg.norm(f - W @ (W.T @ f)))
    sel_idx = np.unique(P_ref.selection.indices)
    sel_norm = float(np.linalg.norm(f[sel_idx]))
    d_ref = P_ref.error_constant()
    d_hat = P_hat.error_constant()
    bound = d_ref * orth_norm + d_ref * d_hat * (
        psi.sin_theta_max * orth_norm + theta.sin_theta_max * sel_norm
    )
    actual = float(np.linalg.norm(f - P_hat.apply(f)))
    return BoundReport(
        actual_error=actual,
        bound_value=bound,
        constants={
            "error_constant_ref": d_ref,
            "error_constant_hat": d_hat,
            "sin_theta_max": theta.sin_theta_max,
            "sin_psi_max": psi.sin_theta_max,
            "orthogonal_part": orth_norm,
            "selected_part": sel_norm,
        },
        inputs={"rank": P_ref.rank},
    )


def _selection_span(S):
    """Orthonormal basis of range(S): unit columns at the distinct indices."""
    idx = np.unique(S.indices)
    E = np.zeros((S.n, idx.size))
    E[idx, np.arange(idx.size)] = 1.0
    return E


def angle_bound_constant(rank, oversample, n_snapshots):
    """The constant C = sqrt(r/(p-1)) + e sqrt((r+p)(n_s - r)) / p."""
    r, p, n_s = int(rank), int(oversample), int(n_snapshots)
    if p < 2:
        raise ValueError(f"oversample must be >= 2 for the expectation constant, got {p}")
    if not 1 <= r <= n_s:
        raise ValueError(f"rank must be in [1, {n_s}], got {r}")
    if r + p > n_s:
        raise ValueError(f"rank + oversample = {r + p} exceeds n_snapshots = {n_s}")
    return math.sqrt(r / (p - 1.0)) + math.e * math.sqrt((r + p) * (n_s - r)) / p


def expected_angle_bound(gamma, rank, oversample, power, n_snapshots):
    """Expected largest-angle sine after q power iterations, clipped at 1.

    E[sin theta_max] <= gamma^(2q+1) * C / (1 - gamma) with
    gamma = sigma_{r+1}/sigma_r and C = angle_bound_constant(...). A sine
    never exceeds 1, so values above 1 are reported as 1.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    q = int(power)
    if q < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    C = angle_bound_constant(rank, oversample, n_snapshots)
    raw = gamma ** (2 * q + 1) * C / (1.0 - gamma)
    return min(1.0, raw)


def min_power_iterations(eps, gamma, constant):
    """Smallest iteration count q with gamma^(2q+1) C / (1-gamma) <= eps.

    q = ceil(0.5 * log(eps (1-gamma) / (gamma C)) / log(gamma)), floored
    at 0.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if constant <= 0.0:
        raise ValueError(f"constant must be positive, got {constant}")
    arg = eps * (1.0 - gamma) / (gamma * constant)
    if arg >= 1.0:
        return 0
    return max(0, int(math.ceil(0.5 * math.log(arg) / math.log(gamma))))


def wedin_angle_bound(A, A_hat, rank, numerator="projected"):
    """Perturbation bound on the largest angle between leading subspaces.

    sin(theta_max) <= max(||(A - A_hat) Z1_hat||, ||(A - A_hat)' W1_hat||)
                      / (sigma_r(A) - sigma_{r+1}(A_hat))
    with W1_hat/Z1_hat the leading r left/right singular vectors of A_hat.
    numerator='full' uses the looser ||A - A_hat||_2 instead of the two
    projected norms.

    Raises
    ------
    SpectralGapError
        If sigma_r(A) <= sigma_{r+1}(A_hat) (the gap closes and the bound
        is undefined).
    """
    A = as_matrix(A, "A")
    Ah = as_matrix(A_hat, "A_hat")
    if A.shape != Ah.shape:
        raise ValueError(f"shapes differ: {A.shape} vs {Ah.shape}")
    r = int(rank)
    if not 1 <= r <= min(A.shape):
        raise ValueError(f"rank must be in [1, {min(A.shape)}], got {rank}")
    if numerator not in ("projected", "full"):
        raise ValueError(f"numerator must be 'projected' or 'full', got {numerator!r}")
    sv_a = np.linalg.svd(A, compute_uv=False)
    fh = thin_svd(Ah)
    sigma_r = sv_a[r - 1]
    sigma_next = fh.singular_values[r] if r < fh.singular_values.size else 0.0
    gap = sigma_r - sigma_next
    if gap <= 0.0:
        raise SpectralGapError(
            f"gap sigma_r(A) - sigma_(r+1)(A_hat) = {gap:.3e} is not positive"
        )
    E = A - Ah
    if numerator == "full":
        num = spectral_norm(E)
    else:
        num = max(
            spectral_norm(E @ fh.V[:, :r]),
            spectral_norm(E.T @ fh.U[:, :r]),
        )
    return float(num / gap)


def srrqr_constant(eta, rank, n):
    """Deterministic selection constant sqrt(1 + eta^2 r (n - r))."""
    r, n = int(rank), int(n)
    if eta < 1.0:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in [1, {n}], got {r}")
    return math.sqrt(1.0 + eta * eta * r * (n - r))


def leverage_constant(n, samples, beta, eps):
    """High-probability constant for pure leverage sampling:
    sqrt((n / c) / ((1 - beta)(1 - eps)))."""
    n, c = int(n), int(samples)
    if n < 1 or c < 1:
        raise ValueError(f"n and samples must be positive, got {n}, {c}")
    for name, val in (("beta", beta), ("eps", eps)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {val}")
    return math.sqrt((n / c) / ((1.0 - beta) * (1.0 - eps)))


def hybrid_constant(n, samples, beta, eps, eta, rank):
    """High-probability constant for the two-stage selection:
    leverage_constant * sqrt(1 + eta^2 r (c - r))."""
    c, r = int(samples), int(rank)
    if not 1 <= r <= c:
        raise ValueError(f"rank must be in [1, samples={c}], got {r}")
    if eta < 1.0:
        raise ValueError(f"eta must be >= 1, got {eta}")
    return leverage_constant(n, c, beta, eps) * math.sqrt(1.0 + eta * eta * r * (c - r))


def deviation_constant(rank, oversample, delta, n_snapshots):
    """Tail constant for the randomized residual at failure level delta:
    (e sqrt(r+p) / (p+1)) (2/delta)^(1/(p+1))
    (sqrt(n_s - r) + sqrt(r+p) + sqrt(2 log(2/delta)))."""
    r, p, n_s = int(rank), int(oversample), int(n_snapshots)
    if p < 1:
        raise ValueError(f"oversample must be >= 1, got {p}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 1 <= r <= n_s:
        raise ValueError(f"rank must be in [1, {n_s}], got {r}")
    lead = math.e * math.sqrt(r + p) / (p + 1.0)
    lift = (2.0 / delta) ** (1.0 / (p + 1.0))
    tail = math.sqrt(n_s - r) + math.sqrt(r + p) + math.sqrt(2.0 * math.log(2.0 / delta))
    return lead * lift * tail


_CONSTANT_KINDS = {
    "srrqr": (srrqr_constant, ("eta", "rank", "n")),
    "leverage": (leverage_constant, ("n", "samples", "beta", "eps")),
    "hybrid": (hybrid_constant, ("n", "samples", "beta", "eps", "eta", "rank")),
    "deviation": (deviation_constant, ("rank", "oversample", "delta", "n_snapshots")),
}


def constant_bound(kind, **params):
    """Dispatch to one of the named selection/deviation constants.

    kind is one of 'srrqr', 'leverage', 'hybrid', 'deviation'; params must
    supply exactly the fields that constant needs.
    """
    if kind not in _CONSTANT_KINDS:
        raise ValueError(f"unknown constant kind {kind!r}; choose from {sorted(_CONSTANT_KINDS)}")
    fn, names = _CONSTANT_KINDS[kind]
    missing = [nm for nm in names if nm not in params]
    if missing:
        raise ValueError(f"constant {kind!r} needs parameters {missing}")
    extra = [nm for nm in params if nm not in names]
    if extra:
        raise ValueError(f"constant {kind!r} does not take {extra}")
    return fn(**{nm: params[nm] for nm in names})


def rsvd_expected_error(sv, rank, oversample):
    """Expected spectral residual of the basic sketch with r+p columns:
    (1 + sqrt(r/(p-1))) sigma_{r+1} + (e sqrt(r+p)/p) sqrt(sum_{j>r} sigma_j^2).
    """
    sv = np.asarray(sv, dtype=np.float64)
    if sv.ndim != 1:
        raise ValueError("sv must be 1-d")
    r, p = int(rank), int(oversample)
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if p < 2:
        raise ValueError(f"oversample must be >= 2 for the expectation bound, got {p}")
    if r >= sv.size:
        return 0.0
    tail = sv[r:]
    return float(
        (1.0 + math.sqrt(r / (p - 1.0))) * tail[0]
        + math.e * math.sqrt(r + p) / p * math.sqrt(np.sum(tail * tail))
    )
