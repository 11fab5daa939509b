"""Error-bound evaluators for interpolatory projections built on exact or
randomized bases, plus the closed-form constants attached to each selection
scheme.

column_bounds is the one evaluator of the realized errors and the two
per-column bounds (baseline and perturbed basis): the error sweep calls it
on a snapshot matrix, and each BoundReport function calls it on one
vector, so every report pairs the proven bound with the actually realized
error and callers (and tests) can check dominance directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    as_matrix,
    as_singular_values,
    check_at_least,
    check_count,
    check_open_unit,
    finite_product,
    orthonormal_basis,
)
from .exceptions import SpectralGapError
from .linalg import _svd, canonical_angles, column_residuals, spectral_norm, thin_svd


@dataclass(frozen=True)
class BoundReport:
    """A proven bound next to the realized error, with its ingredients."""

    actual_error: float
    bound_value: float
    constants: dict = field(default_factory=dict)


def column_bounds(P, F, reference=None):
    """The realized errors of the projector P on the columns f of F and,
    against a reference basis, the two proven bounds on them. F is
    (n, n_s), or one vector f of shape (n,), which messages name f.

    With W the projector's basis and W_ref the reference, each column has
    the baseline bound ||D||_2 ||(I - W W') f|| and the perturbed-basis
    bound ||D||_2 (||(I - P_W) f|| + sin(theta_max) ||P_W f||), where P_W
    projects onto span(W_ref) and theta_max is the largest canonical angle
    between span(W_ref) and span(W). The reference is an OrthonormalBasis
    or an array, which is checked once; the sweep and every BoundReport
    evaluate their bounds here.

    Cost: ||D||_2 is one error_constant call and, with a reference, the
    angles are one canonical_angles call, whatever the column count. The
    coefficients C = (S'W)^+ S'F read only the s selected rows of F; with
    a reference, W'F and W_ref'F are formed too, and ||P_W f|| is a column
    norm of W_ref'F. One column_residuals call then reads F once,
    SWEEP_BLOCK contiguous rows at a time, for the column norms, the
    realized errors ||f - W C[:, j]|| and, with a reference,
    ||(I - W W') f|| and ||(I - P_W) f||. No n x n_s temporary is formed.
    When the reference is the projector's own OrthonormalBasis (P_W is
    W W'), W'F is formed and swept once and serves both.

    Returns
    -------
    dict
        error_constant (||D||_2) and, per column, norm (||f||) and
        abs_error (||f - D f||). With a reference also, per column, best
        (||(I - W W') f||), orth (||(I - P_W) f||), proj (||P_W f||),
        bound_plain and bound_perturbed, and sin_theta_max.

    Raises
    ------
    ValueError
        If F has a non-finite entry; F is read for it only when a
        coefficient or a sum is not finite.
    OverflowingProductError
        If a coefficient or a sum of squares overflows on a finite F.
    """
    given, name = F, "f" if F.ndim == 1 else "F"
    F = F[:, None] if F.ndim == 1 else F
    const = P.error_constant()
    W = P.basis
    pairs = [(W, P.coefficients(F))]
    if reference is not None:
        reference = orthonormal_basis(reference, "reference")
        # also rejects a reference whose shape differs from the projector's basis
        sin_max = canonical_angles(reference, P.orthonormal)
    # a NaN or an infinity in F, or a square that overflowed, leaves a sum
    # non-finite, which is checked with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        if reference is not None:
            ref_coef = W.T @ F
            pairs.append((W, ref_coef))
            if reference is not P.orthonormal:  # the projector's own basis is swept once
                ref_coef = reference.matrix.T @ F
                pairs.append((reference.matrix, ref_coef))
        norm2, res2 = column_residuals(F, pairs)
    finite_product(np.array([norm2, *res2]), given, name, f"the column sums of squares of {name}")
    out = {"error_constant": const, "norm": np.sqrt(norm2), "abs_error": np.sqrt(res2[0])}
    if reference is not None:
        best, orth = np.sqrt(res2[1]), np.sqrt(res2[-1])
        proj = np.linalg.norm(ref_coef, axis=0)
        out.update(
            best=best,
            orth=orth,
            proj=proj,
            sin_theta_max=sin_max,
            bound_plain=const * best,
            bound_perturbed=const * (orth + sin_max * proj),
        )
    return out


def _vector_bounds(P, f, reference):
    """column_bounds of the one vector f, every figure a float."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (P.selection.n,):
        raise ValueError(f"f must have shape ({P.selection.n},), got {f.shape}")
    return {k: float(np.squeeze(v)) for k, v in column_bounds(P, f, reference).items()}


def interpolation_error_bound(P, f):
    """Baseline projection bound ||f - D f|| <= ||D|| ||(I - W W') f||.

    The right factor is the best approximation error out of span(W); the
    error constant ||D|| measures how far the oblique projector can
    amplify it. It is column_bounds against the projector's own basis.
    """
    b = _vector_bounds(P, f, P.orthonormal)
    return BoundReport(
        actual_error=b["abs_error"],
        bound_value=b["bound_plain"],
        constants={"error_constant": b["error_constant"], "best_approx_error": b["best"]},
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
    b = _vector_bounds(P_hat, f, W_ref)
    const, sin_max, orth_norm, proj_norm = (
        b["error_constant"], b["sin_theta_max"], b["orth"], b["proj"]
    )
    if proj_norm == 0.0:
        kappa = const
    elif orth_norm == 0.0:
        kappa = math.inf if sin_max > 0.0 else const
    else:
        kappa = (1.0 + sin_max * proj_norm / orth_norm) * const
    return BoundReport(
        actual_error=b["abs_error"],
        bound_value=b["bound_perturbed"],
        constants={
            "error_constant": const,
            "sin_theta_max": sin_max,
            "orthogonal_part": orth_norm,
            "projected_part": proj_norm,
            "kappa": kappa,
        },
    )


def angle_bound_constant(rank, oversample, n_snapshots):
    """The constant C = sqrt(r/(p-1)) + e sqrt((r+p)(n_s - r)) / p."""
    r = check_count(rank, 1, "rank")
    p = check_count(oversample, 2, "oversample")  # the expectation needs p - 1 > 0
    n_s = check_count(n_snapshots, r + p, "n_snapshots")
    return math.sqrt(r / (p - 1.0)) + math.e * math.sqrt((r + p) * (n_s - r)) / p


def expected_angle_bound(gamma, rank, oversample, power, n_snapshots):
    """Expected largest-angle sine after q power iterations, clipped at 1.

    E[sin theta_max] <= gamma^(2q+1) * C / (1 - gamma) with
    gamma = sigma_{r+1}/sigma_r and C = angle_bound_constant(...). A sine
    never exceeds 1, so values above 1 are reported as 1.
    """
    check_open_unit(gamma, "gamma")
    q = check_count(power, 0, "power")
    C = angle_bound_constant(rank, oversample, n_snapshots)
    raw = gamma ** (2 * q + 1) * C / (1.0 - gamma)
    return min(1.0, raw)


def wedin_angle_bound(A, A_hat, rank):
    """Perturbation bound on the largest angle between leading subspaces.

    sin(theta_max) <= max(||(A - A_hat) Z1_hat||, ||(A - A_hat)' W1_hat||)
                      / (sigma_r(A_hat) - sigma_{r+1}(A))
    with W1_hat/Z1_hat the leading r left/right singular vectors of A_hat.
    The residuals are taken from A_hat's vectors, so Wedin's theorem (BIT
    1972; Stewart & Sun, Thm V.4.4) separates A_hat's kept singular values
    from A's discarded ones. Each projected norm is at most
    ||A - A_hat||_2, so this is the tighter of the theorem's two forms.

    Raises
    ------
    SpectralGapError
        If sigma_r(A_hat) <= sigma_{r+1}(A) (the gap closes and the bound
        is undefined).
    """
    A = as_matrix(A, "A")
    Ah = as_matrix(A_hat, "A_hat")
    if A.shape != Ah.shape:
        raise ValueError(f"shapes differ: {A.shape} vs {Ah.shape}")
    r = check_count(rank, 1, "rank", min(A.shape))
    sv_a = _svd(A, "A", compute_uv=False)
    fh = thin_svd(Ah, r)
    sigma_r = fh.singular_values[r - 1]
    sigma_next = sv_a[r] if r < sv_a.size else 0.0
    gap = sigma_r - sigma_next
    if gap <= 0.0:
        raise SpectralGapError(
            f"gap sigma_r(A_hat) - sigma_(r+1)(A) = {gap:.3e} is not positive"
        )
    E = A - Ah
    num = max(spectral_norm(E @ fh.V), spectral_norm(E.T @ fh.U))
    return float(num / gap)


def srrqr_constant(eta, rank, n):
    """Deterministic selection constant sqrt(1 + eta^2 r (n - r))."""
    check_at_least(eta, 1, "eta")
    n = check_count(n, 1, "n")
    r = check_count(rank, 1, "rank", n)
    return math.sqrt(1.0 + eta * eta * r * (n - r))


def leverage_constant(n, samples, beta, eps):
    """High-probability constant for pure leverage sampling:
    sqrt((n / c) / ((1 - beta)(1 - eps)))."""
    n, c = check_count(n, 1, "n"), check_count(samples, 1, "samples")
    check_open_unit(beta, "beta")
    check_open_unit(eps, "eps")
    return math.sqrt((n / c) / ((1.0 - beta) * (1.0 - eps)))


def hybrid_constant(n, samples, beta, eps, eta, rank):
    """High-probability constant for the two-stage selection:
    leverage_constant(n, c, beta, eps) * srrqr_constant(eta, r, c), the
    second factor for strong RRQR on the c sampled rows."""
    c = check_count(samples, 1, "samples")
    pruning = srrqr_constant(eta, rank, c)  # checks eta and rank before the leverage parameters
    return leverage_constant(n, c, beta, eps) * pruning


def deviation_constant(rank, oversample, delta, n_snapshots):
    """Tail constant for the randomized residual at failure level delta:
    (e sqrt(r+p) / (p+1)) (2/delta)^(1/(p+1))
    (sqrt(n_s - r) + sqrt(r+p) + sqrt(2 log(2/delta)))."""
    p = check_count(oversample, 1, "oversample")
    check_open_unit(delta, "delta")
    n_s = check_count(n_snapshots, 1, "n_snapshots")
    r = check_count(rank, 1, "rank", n_s)
    lead = math.e * math.sqrt(r + p) / (p + 1.0)
    lift = (2.0 / delta) ** (1.0 / (p + 1.0))
    tail = math.sqrt(n_s - r) + math.sqrt(r + p) + math.sqrt(2.0 * math.log(2.0 / delta))
    return lead * lift * tail


def rsvd_expected_error(sv, rank, oversample):
    """Expected spectral residual of the basic sketch with r+p columns:
    (1 + sqrt(r/(p-1))) sigma_{r+1} + (e sqrt(r+p)/p) sqrt(sum_{j>r} sigma_j^2).

    sv is checked as truncation_rank checks it: finite, nonnegative and
    nonincreasing.
    """
    sv = as_singular_values(sv)
    r = check_count(rank, 1, "rank")
    p = check_count(oversample, 2, "oversample")  # the expectation needs p - 1 > 0
    if r >= sv.size:
        return 0.0
    tail = sv[r:]
    return float(
        (1.0 + math.sqrt(r / (p - 1.0))) * tail[0]
        + math.e * math.sqrt(r + p) / p * math.sqrt(np.sum(tail * tail))
    )
