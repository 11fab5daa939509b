"""Per-operation output checks and the accuracy figures they yield.

The checks do not trust the library: from the basis and the points it
chose they recompute, with plain numpy, the exact error constant
||D||_2 = ||(S'W)^+ S'||_2, each column's realized error ||f - D f|| and
the plain interpolation bound ||D||_2 ||f - W W' f||, then compare them
with what the library reported. Columns are processed in blocks so the
checks never hold a second snapshot-sized array, which would otherwise
show up in the peak memory of the run.
"""

import math

import numpy as np

# recomputed against reported values: same formulas, other operation order
RTOL = 1e-8
# roundoff slack of a bound, relative to (1 + ||D||) ||f||
ROUNDOFF = 1e-10
# operation summaries at the reference seed against the recorded ones
REFERENCE_RTOL = 1e-6
BLOCK = 64


class CheckError(Exception):
    """An operation's output is wrong; the operation counts as failed."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def error_constant(W, idx, weights):
    """Exact ||W (S'W)^+ S'||_2; W is orthonormal, so it is ||(S'W)^+ S'||_2."""
    G = np.linalg.pinv(W[idx] * weights[:, None]) * weights[None, :]
    rows, where = np.unique(idx, return_inverse=True)
    M = np.zeros((rows.size, G.shape[0]))
    np.add.at(M, where, G.T)  # repeated draws of one row add up
    return float(np.linalg.norm(M, 2))


def column_errors(W, idx, weights, F):
    """Realized error ||f - D f|| and best error ||f - W W' f|| per column of F."""
    pinv = np.linalg.pinv(W[idx] * weights[:, None])
    actual = np.empty(F.shape[1])
    best = np.empty(F.shape[1])
    for lo in range(0, F.shape[1], BLOCK):
        B = F[:, lo:lo + BLOCK]
        actual[lo:lo + BLOCK] = np.linalg.norm(B - W @ (pinv @ (weights[:, None] * B[idx])), axis=0)
        best[lo:lo + BLOCK] = np.linalg.norm(B - W @ (W.T @ B), axis=0)
    return actual, best


def _dominates(bound, actual, norm, C, what):
    slack = ROUNDOFF * (1.0 + C) * norm
    bad = np.flatnonzero(actual > bound + slack)
    require(bad.size == 0, f"{what} fails on {bad.size} columns, first column {bad[:1].tolist()}")


def _log_ratios(bound, actual, norm, C):
    """log(bound / error) over the columns whose error is above roundoff."""
    keep = actual > ROUNDOFF * (1.0 + C) * norm
    return float(np.sum(np.log(bound[keep] / actual[keep]))), int(keep.sum())


def _check_points(idx, weights, n, expected, distinct, unit):
    require(idx.size == expected, f"{idx.size} points, expected {expected}")
    require(idx.min() >= 0 and idx.max() < n, "point index out of range")
    require(np.isfinite(weights).all() and (weights > 0).all(), "weights not positive and finite")
    if distinct:
        require(np.unique(idx).size == idx.size, "repeated point")
    if unit:
        require((weights == 1.0).all(), "deterministic selection with non-unit weights")


def check_experiment(p, table, projector, sweep_set):
    """Check one run_experiment result; return its summary and accuracy figures.

    p holds the operation's parameters; projector and sweep_set are the
    arguments run_experiment passed to error_sweep, captured by the caller.
    """
    s = table.summary
    F = sweep_set.matrix
    W = projector.basis
    idx = projector.selection.indices
    w = projector.selection.weights
    rows = np.array(table.rows, dtype=np.float64)
    col = {name: rows[:, k] for k, name in enumerate(table.columns)}
    require(rows.shape[0] == F.shape[1] == s["columns_total"], "row count differs from the swept columns")
    norm = col["norm"]
    nz = norm > 0.0
    require(np.isfinite(col["abs_error"][nz]).all() and np.isfinite(col["rel_error"][nz]).all(),
            "non-finite error on a nonzero column")
    r = W.shape[1]
    require(r == s["basis_rank"] and 1 <= r <= p["rank"], f"basis rank {r} against requested {p['rank']}")
    leverage = p["selector"] == "leverage"
    _check_points(idx, w, F.shape[0], p["samples"] if leverage else r,
                  distinct=not leverage, unit=p["selector"] in ("greedy", "pqr", "srrqr"))
    require(idx.size == s["points"], "summary point count differs from the selection")

    C = error_constant(W, idx, w)
    require(math.isclose(C, s["error_constant"], rel_tol=RTOL),
            f"error constant {s['error_constant']!r}, recomputed {C!r}")
    actual, best = column_errors(W, idx, w, F)
    require(np.allclose(actual, col["abs_error"], rtol=1e-6, atol=ROUNDOFF * norm.max()),
            "abs_error differs from ||f - D f||")
    plain = C * best
    _dominates(plain, actual, norm, C, "plain interpolation bound")
    if "bound_perturbed" in col:
        _dominates(col["bound_plain"], col["abs_error"], norm, C, "reported bound_plain")
        _dominates(col["bound_perturbed"], col["abs_error"], norm, C, "reported bound_perturbed")
        log_sum, count = _log_ratios(col["bound_perturbed"], col["abs_error"], norm, C)
    else:
        log_sum, count = _log_ratios(plain, actual, norm, C)
    summary = {k: float(v) for k, v in s.items()}
    return summary, dict(rel_error=s["rel_error_mean"], error_constant=C,
                         log_ratio_sum=log_sum, ratio_count=count)


def read_points(path):
    with open(path) as fh:
        header = fh.readline().strip()
    require(header == "position,index,weight", f"unexpected CSV header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    idx = data[:, 1].astype(np.intp)
    require((data[:, 0] == np.arange(data.shape[0])).all(), "positions not 0..s-1")
    require((idx == data[:, 1]).all(), "non-integer point index")
    return idx, data[:, 2].copy()


def check_select(p, points_path, W, T):
    """Check one CLI select run against its basis W and scoring columns T."""
    idx, w = read_points(points_path)
    n, r = W.shape
    leverage = p["select"] == "leverage"
    _check_points(idx, w, n, p["samples"] if leverage else r,
                  distinct=not leverage, unit=p["select"] in ("greedy", "pqr", "srrqr"))
    C = error_constant(W, idx, w)
    require(math.isfinite(C) and C >= 1.0 - RTOL, f"error constant {C!r} below 1")
    if p["select"] == "srrqr":
        limit = math.sqrt(1.0 + p["eta"] ** 2 * r * (n - r))
        require(C <= limit * (1.0 + RTOL), f"srrqr constant {C!r} above sqrt(1 + eta^2 r (n - r)) = {limit!r}")
    actual, best = column_errors(W, idx, w, T)
    norm = np.linalg.norm(T, axis=0)
    require(np.isfinite(actual).all(), "non-finite error")
    plain = C * best
    _dominates(plain, actual, norm, C, "plain interpolation bound")
    log_sum, count = _log_ratios(plain, actual, norm, C)
    nz = norm > 0.0
    rel = float(np.mean(actual[nz] / norm[nz]))
    summary = {"points": float(idx.size), "error_constant": C, "rel_error_mean": rel}
    return summary, dict(rel_error=rel, error_constant=C, log_ratio_sum=log_sum, ratio_count=count)


def check_reference(summary, recorded):
    """Compare an operation's summary with the one recorded at the reference seed."""
    for key, want in recorded.items():
        got = summary.get(key)
        require(got is not None and math.isclose(got, want, rel_tol=REFERENCE_RTOL),
                f"{key} = {got!r}, recorded {want!r} (rtol {REFERENCE_RTOL})")
