"""Snapshot generators and the experiment driver.

Three parametrized families are provided: a decaying oscillator (1-d in
time, one parameter), a corner-peak function on the unit square (two
parameters), and a movable Gaussian source on the unit square (three
parameters, Latin hypercube sampled). The driver wires a generator, a
range finder, a point selector, and the error sweep together behind a
single declarative spec, deterministically for a given seed.

generate keeps the last snapshot set it built and returns that same
object while the generator arguments repeat, so the runs of one grid
build their set once; it holds one set at most, and a generated set's
arrays are read-only, so no run can change the set the next one reads.
Next to that set it keeps the exact SVD basis last built on it,
read-only too: an 'svd' basis and the reference of a bounded run are
one factorization per (set, rank) while the rank repeats, so a rank
sweep holds one basis, not one per rank, and it is dropped with the
set.
"""

import inspect
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import (
    SWEEP_BLOCK,
    check_at_least,
    check_count,
    check_open_unit,
    in_blocks,
)
from .bounds import column_bounds
from .linalg import column_residuals
from .matio import ResultTable
from .projector import build_projector
from .rangefinder import (
    adaptive_range_finder,
    subspace_range_finder,
    svd_basis,
)
from .selection import (
    deim_greedy_select,
    hybrid_select,
    leverage_select,
    pqr_select,
    practical_sample_count,
    srrqr_select,
)

SOURCE_RANGES = ((0.2, 0.8), (0.15, 0.35), (0.1, 0.35))

# the least value of each grid count a generator takes; an ExperimentSpec
# checks its overrides against the same lows
GRID_LOWS = {"n_t": 2, "n_mu": 2, "grid": 2, "param_grid": 2, "n_grid": 2, "n_train": 1}

# desk-scale defaults keep every experiment laptop-sized; paper scale
# reproduces the published grids
SCALES = {
    "osc": {"desk": {"n_t": 2000, "n_mu": 100}, "paper": {"n_t": 10000, "n_mu": 100}},
    "corner": {"desk": {"grid": 50, "param_grid": 15}, "paper": {"grid": 100, "param_grid": 25}},
    "source": {
        "desk": {"n_grid": 40, "n_train": 200, "n_test": 50},
        "paper": {"n_grid": 100, "n_train": 1000, "n_test": 100},
    },
}

BASES = ("svd", "basic", "subspace", "adaptive")
SELECTORS = ("greedy", "pqr", "srrqr", "leverage", "hybrid")
EXAMPLES = tuple(SCALES)
SCALE_NAMES = tuple(SCALES[EXAMPLES[0]])  # every example names the same scales


def _grid_counts(**counts):
    """Each grid count as an int, read by check_count at its GRID_LOWS low."""
    return [check_count(value, GRID_LOWS[name], name) for name, value in counts.items()]


@dataclass(frozen=True)
class SnapshotSet:
    """A snapshot matrix plus the grids that generated it.

    matrix is n-by-n_s; params holds one row of parameter values per
    column; space maps coordinate names to grid arrays. ranges is the box
    a sampled set's params were drawn from, one (lo, hi) pair per
    parameter, and None for a set on a fixed parameter grid.
    """

    matrix: np.ndarray
    params: np.ndarray
    space: dict
    ranges: Optional[tuple] = None


def oscillator_snapshots(n_t=10000, n_mu=100):
    """Decaying oscillator snapshots f(t; mu) = 10 e^(-mu t)(cos 4mu t + sin 4mu t).

    t runs over [1, 6] with n_t points, mu over [0, pi] with n_mu points.
    The matrix holds t mu and is then filled in place SWEEP_BLOCK rows at
    a time (in_blocks), with 4 t mu formed once per block in a part's own
    two scratch blocks, so no temporary grows with n_t.
    """
    n_t, n_mu = _grid_counts(n_t=n_t, n_mu=n_mu)
    t = np.linspace(1.0, 6.0, n_t)
    mu = np.linspace(0.0, np.pi, n_mu)
    F = np.multiply.outer(t, mu)

    def fill(lo, hi, arg, wave):
        tm, a, w = F[lo:hi], arg[: hi - lo], wave[: hi - lo]
        np.multiply(tm, 4.0, out=a)
        np.cos(a, out=w)
        w += np.sin(a, out=a)
        np.negative(tm, out=tm)
        np.exp(tm, out=tm)
        tm *= 10.0
        tm *= w

    def scratch():
        return np.empty((SWEEP_BLOCK, n_mu)), np.empty((SWEEP_BLOCK, n_mu))

    in_blocks(fill, n_t, SWEEP_BLOCK, scratch)
    return SnapshotSet(matrix=F, params=mu[:, None], space={"t": t})


def _corner_h(z, mu):
    """h(z; mu) = ((1-z) - (0.99 mu - 1))^2 as a len(z) x len(mu) table."""
    return ((1.0 - z)[:, None] - (0.99 * mu - 1.0)[None, :]) ** 2


def corner_peak_snapshots(grid=100, param_grid=25):
    """Sum of four reflected corner-peak terms on the unit square.

    Each term is g(x; mu) = 1 / sqrt(h(x1; mu1) + h(x2; mu2) + 0.01) with
    h(z; mu) = ((1-z) - (0.99 mu - 1))^2; the four terms reflect both the
    spatial and the parameter coordinates, which gives the symmetry
    f(x1, x2; mu1, mu2) = f(1-x1, 1-x2; 1-mu1, 1-mu2). Columns enumerate
    the mu tensor grid with mu1 varying fastest; each column flattens the
    spatial grid with x1 varying fastest.

    h is tabulated once per axis, for (x, mu) and for the reflected
    (1 - x, 1 - mu). The matrix is then filled in place one x2 value at a
    time (in_blocks of grid rows, which hold every column), and each part
    sums its terms in its own grid x param_grid^2 scratch block, so no
    temporary grows with the column count.
    """
    grid, param_grid = _grid_counts(grid=grid, param_grid=param_grid)
    x = np.linspace(0.0, 1.0, grid)
    mus = np.linspace(0.0, 1.0, param_grid)
    h = _corner_h(x, mus)
    h_r = _corner_h(1.0 - x, 1.0 - mus)

    F = np.empty((grid * grid, param_grid * param_grid))
    # (x1, mu1) and (x2, mu2) tables of the four terms, in summation order
    terms = ((h, h), (h_r, h_r), (h_r, h), (h, h_r))

    def fill(lo, hi, g):
        # rows i + grid * j, j = lo / grid, as [i, p2, p1]: column
        # p1 + param_grid * p2 holds (mu1, mu2) = (mus[p1], mus[p2])
        block = F[lo:hi].reshape(grid, param_grid, param_grid)
        for k, (h1, h2) in enumerate(terms):
            out = g if k else block
            np.add(h1[:, None, :], h2[lo // grid][None, :, None], out=out)
            np.add(out, 0.01, out=out)
            np.sqrt(out, out=out)
            np.divide(1.0, out, out=out)
            if k:
                block += g

    in_blocks(fill, grid * grid, grid, lambda: (np.empty((grid, param_grid, param_grid)),))
    params = np.column_stack([np.tile(mus, param_grid), np.repeat(mus, param_grid)])
    return SnapshotSet(matrix=F, params=params, space={"x1": x, "x2": x})


def _check_ranges(ranges):
    """ranges, if it is a sequence of (lo, hi) pairs, each range finite
    and nonempty: the box latin_hypercube samples and source_test_points
    draws from. None, the ranges of a set on a fixed grid, raises
    ValueError too."""
    if ranges is None:
        raise ValueError("ranges is None: no box to draw parameters from")
    for d, (lo, hi) in enumerate(ranges):
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"range {d} is empty or unbounded: ({lo}, {hi})")
    return ranges


def latin_hypercube(n_samples, ranges, seed):
    """Latin hypercube design: per dimension, one sample per stratum.

    Strata are the n equal-width cells of each range, which must be
    finite and nonempty (_check_ranges); a random permutation pairs
    strata across dimensions and each sample is jittered uniformly about
    its stratum midpoint.
    """
    n_samples = check_count(n_samples, 1, "n_samples")
    rng = np.random.default_rng(check_count(seed, 0, "seed"))
    ranges = _check_ranges(ranges)
    out = np.empty((n_samples, len(ranges)))
    for d, (lo, hi) in enumerate(ranges):
        perm = rng.permutation(n_samples)
        jitter = rng.uniform(size=n_samples)
        out[:, d] = lo + (hi - lo) * (perm + jitter) / n_samples
    return out


def _source_columns(x, params):
    """exp(-((x1 - mu3)^2 + (x2 - mu4)^2) / mu5^2) for each parameter row,
    flattened with x1 varying fastest.

    The Gaussian is separable: each entry is exp(-d1 / mu5^2) times
    exp(-d2 / mu5^2), d1 and d2 the squared distances along each axis. The
    two factors are tabulated once per axis (grid x n_cols), so the
    matrix takes 2 grid n_cols exponentials and one product per entry,
    and is filled one x2 grid line at a time (in_blocks), so no temporary
    grows with the row count. Both this and the unfactored exp(-a),
    a = (d1 + d2) / mu5^2, round the exponent to about 5u relative (u the
    unit roundoff), so they agree to a relative (10 a + 20) u. With tiny
    widths from custom ranges, the factors underflow far from the centre,
    to zero or to subnormal values, as the unfactored exponential does.
    """
    grid = x.size
    neg_width = -(params[:, 2] * params[:, 2])
    e1 = np.exp((x[:, None] - params[None, :, 0]) ** 2 / neg_width)
    e2 = np.exp((x[:, None] - params[None, :, 1]) ** 2 / neg_width)
    cols = np.empty((grid * grid, params.shape[0]))

    def fill(lo, hi):
        # rows i + grid * j, j = lo / grid: e1 runs over x1 (i), e2 over x2 (j)
        np.multiply(e1, e2[lo // grid], out=cols[lo:hi])

    in_blocks(fill, grid * grid, grid)
    return cols


def gaussian_source_snapshots(n_grid=100, n_train=1000, ranges=SOURCE_RANGES, seed=0):
    """Movable Gaussian source s(x; mu) = exp(-((x1-mu3)^2 + (x2-mu4)^2)/mu5^2).

    Parameters are Latin-hypercube sampled from the given ranges (center
    coordinates and width), which the set records as its ranges. The
    spatial grid is n_grid x n_grid on the unit square, flattened with x1
    varying fastest.
    """
    n_grid, n_train = _grid_counts(n_grid=n_grid, n_train=n_train)
    if len(_check_ranges(ranges)) != 3:
        raise ValueError("ranges must supply (mu3, mu4, mu5) intervals")
    x = np.linspace(0.0, 1.0, n_grid)
    params = latin_hypercube(n_train, ranges, seed)
    return SnapshotSet(
        matrix=_source_columns(x, params),
        params=params,
        space={"x1": x, "x2": x},
        ranges=tuple((float(lo), float(hi)) for lo, hi in ranges),
    )


def source_test_points(snaps, n_test, seed):
    """Held-out source snapshots at parameters drawn uniformly over the box
    the training set snaps was sampled from. snaps.ranges is read by
    latin_hypercube's rule (_check_ranges): a set with no box (None, as
    on a fixed grid) or with an unbounded or empty range raises
    ValueError."""
    n_test = check_count(n_test, 0, "n_test")
    rng = np.random.default_rng(check_count(seed, 0, "seed"))
    lo, hi = np.array(_check_ranges(snaps.ranges)).T
    params = lo + (hi - lo) * rng.uniform(size=(n_test, 3))
    x = snaps.space["x1"]
    return SnapshotSet(
        matrix=_source_columns(x, params),
        params=params,
        space=snaps.space,
        ranges=snaps.ranges,
    )


# each example's snapshot generator, which generate calls with the scale's
# grid, the overrides and, for 'source', the seed
GENERATORS = {"osc": oscillator_snapshots, "corner": corner_peak_snapshots,
              "source": gaussian_source_snapshots}


@dataclass(frozen=True)
class AlgorithmSpec:
    """How a basis is built and points are picked, whatever the data.

    basis is one of BASES: 'svd' (exact), 'basic' (one Gaussian sketch,
    which is subspace iteration at power 0), 'subspace' (power iterations)
    or 'adaptive' (tol, block, max_blocks; truncated to rank). selector is
    one of SELECTORS; eta drives 'srrqr' and 'hybrid', beta and samples the
    sampled 'leverage' and 'hybrid'. samples defaults to the practical
    leverage count; a given count is drawn as given, with replacement,
    also above the row count. seed drives every random draw. Every option
    is checked whatever the basis and selector, by the helpers the kernels
    that read it use, so a rule and its message are written once. A
    count, n_test included, must be an integer: a float or a bool is
    rejected.
    """

    rank: int
    basis: str = "svd"
    selector: str = "pqr"
    oversample: int = 10
    power: int = 1
    tol: float = 1e-4
    block: int = 10
    max_blocks: int = 40
    eta: float = 2.0
    beta: float = 0.5
    samples: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis kind {self.basis!r}; choose from {BASES}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector kind {self.selector!r}; choose from {SELECTORS}")
        check_count(self.rank, 1, "rank")
        check_count(self.oversample, 1, "oversample")
        check_count(self.power, 0, "power")
        check_open_unit(self.tol, "tol")
        check_count(self.block, 1, "block")
        check_count(self.max_blocks, 1, "max_blocks")
        check_at_least(self.eta, 1, "eta")
        check_open_unit(self.beta, "beta")
        if self.samples is not None:
            check_count(self.samples, 1, "samples")
        check_count(self.seed, 0, "seed")


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(AlgorithmSpec):
    """Declarative description of one end-to-end run: an AlgorithmSpec plus
    the data it runs on, every added field keyword-only.

    example is one of EXAMPLES ('osc', 'corner', 'source'); scale picks
    the named grid defaults, one of SCALE_NAMES ('desk', 'paper'), and
    overrides replaces some of them; its keys must be arguments of the
    example's generator (GENERATORS), the seed aside, and a grid count
    among them is checked here at its GRID_LOWS low, as the generator
    checks it.
    n_test is the number of held-out parameters a 'source' run sweeps: None
    takes the scale's count from SCALES, 0 sweeps the training columns
    instead; the other examples always sweep their training columns.
    with_bounds adds per-column bound evaluations against the exact-SVD
    reference.
    """

    example: str
    scale: str = "desk"
    n_test: Optional[int] = None
    with_bounds: bool = False
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}; choose from {EXAMPLES}")
        if self.scale not in SCALE_NAMES:
            raise ValueError(f"unknown scale {self.scale!r}; choose from {SCALE_NAMES}")
        if self.n_test is not None:
            check_count(self.n_test, 0, "n_test")
        if "n_test" in self.overrides:
            raise ValueError("the held-out count is not a grid override; pass it as n_test=")
        options = sorted(inspect.signature(GENERATORS[self.example]).parameters.keys() - {"seed"})
        unknown = sorted(self.overrides.keys() - set(options))
        if unknown:
            raise ValueError(f"unknown {self.example} overrides {unknown}; choose from {options}")
        _grid_counts(**{k: v for k, v in self.overrides.items() if k in GRID_LOWS})


# (key, SnapshotSet, (rank, OrthonormalBasis) or None) of the last set
# generate built and the exact basis _exact_basis last built on it; one
# tuple, so a reader sees a key with its own set and that set's basis
_last_set = None


def generate(spec):
    """Build the snapshot set a spec describes, or return the last one built.

    The set depends only on the generator's keyword arguments: the scale's
    grid with the overrides applied, plus the seed for 'source'. A call
    with the same arguments as the previous one returns the same
    SnapshotSet object; any other call drops that set before building its
    own, so at most one set is held, and with it the exact basis held
    for the old set. The matrix, params and space arrays of a returned set
    are read-only: writing into one raises ValueError.
    """
    global _last_set
    args = dict(SCALES[spec.example][spec.scale])
    args.update(spec.overrides)
    args.pop("n_test", None)  # the held-out count is run_experiment's, not the generator's
    # each count as the int check_count returns, so that an equal count of
    # another integer type finds the held set
    counts = [name for name in args if name in GRID_LOWS]
    args.update(zip(counts, _grid_counts(**{name: args[name] for name in counts})))
    # by value, since an override may hold a list; only 'source' reads the seed
    seed = spec.seed if spec.example == "source" else None
    key = (spec.example, repr(sorted(args.items())), seed)
    last = _last_set
    if last is not None and last[0] == key:
        return last[1]
    last = _last_set = None  # nothing holds the old set while the new one is built
    if seed is not None:
        args["seed"] = seed
    snaps = GENERATORS[spec.example](**args)
    for array in (snaps.matrix, snaps.params, *snaps.space.values()):
        array.flags.writeable = False
    _last_set = (key, snaps, None)
    return snaps


def _exact_basis(A, rank):
    """svd_basis(A, rank), built once while the rank repeats when A is the
    matrix of the set generate holds.

    That basis is kept with the set, its matrix read-only like the set's
    own arrays, and the same object is returned for the same rank until
    another rank is asked for, which replaces it, or generate drops the
    set. Any other A is factored on every call and nothing is held.
    """
    global _last_set
    rank = check_count(rank, 1, "rank")
    last = _last_set
    if last is None or A is not last[1].matrix:
        return svd_basis(A, rank)
    if last[2] is not None and last[2][0] == rank:
        return last[2][1]
    basis = svd_basis(A, rank)
    basis.matrix.flags.writeable = False
    _last_set = (last[0], last[1], (rank, basis))
    return basis


def build_basis(A, spec):
    """Range-finder dispatch for a spec; 'basic' is subspace iteration at power 0.
    An 'svd' basis of the set generate holds is built once while its rank repeats."""
    if spec.basis == "svd":
        return _exact_basis(A, spec.rank)
    if spec.basis in ("basic", "subspace"):
        power = 0 if spec.basis == "basic" else spec.power
        return subspace_range_finder(A, spec.rank, spec.oversample, power, spec.seed)
    return adaptive_range_finder(
        A, spec.tol, spec.block, spec.max_blocks, spec.seed, rank=spec.rank
    )


def select_points(basis, spec):
    """Point-selector dispatch for a spec, on an OrthonormalBasis."""
    if spec.selector == "greedy":
        return deim_greedy_select(basis)
    if spec.selector == "pqr":
        return pqr_select(basis)
    if spec.selector == "srrqr":
        return srrqr_select(basis, eta=spec.eta)
    count = spec.samples if spec.samples is not None else practical_sample_count(basis.rank)
    if spec.selector == "leverage":
        return leverage_select(basis, count, spec.beta, spec.seed)
    _, _, S = hybrid_select(basis, count, spec.beta, eta=spec.eta, seed=spec.seed)
    return S


def error_sweep(P, snaps, reference_basis=None):
    """Per-column relative errors of the projector over a snapshot set.

    A zero column has no relative error; it is recorded as nan and skipped
    by the summary statistics rather than propagated. A non-finite entry,
    or a square that overflows, raises (see column_bounds). With a reference
    basis the sweep also reports, per column, the plain interpolation
    bound and the perturbed-basis bound against that reference, and the
    summary reports the largest canonical angle sine between the two
    bases as basis_sin_theta_max. The reference is an OrthonormalBasis or
    an array, which is checked once. Every figure comes from one
    column_bounds call, which also states the cost.
    """
    b = column_bounds(P, snaps.matrix, reference_basis)
    norm, err = b["norm"], b["abs_error"]
    n_s = norm.size
    rels = np.full(n_s, np.nan)
    np.divide(err, norm, out=rels, where=norm > 0.0)
    columns = ["column", "norm", "abs_error", "rel_error"]
    fields = [range(n_s), norm.tolist(), err.tolist(), rels.tolist()]
    if reference_basis is not None:
        columns += ["bound_plain", "bound_perturbed", "sin_theta_max"]
        bound_plain, bound_perturbed = b["bound_plain"].tolist(), b["bound_perturbed"].tolist()
        fields += [bound_plain, bound_perturbed, [b["sin_theta_max"]] * n_s]
    defined = rels[np.isfinite(rels)]
    summary = {
        "columns_total": float(n_s),
        "columns_defined": float(defined.size),
        "rel_error_mean": float(defined.mean()) if defined.size else float("nan"),
        "rel_error_median": float(np.median(defined)) if defined.size else float("nan"),
        "rel_error_max": float(defined.max()) if defined.size else float("nan"),
        "error_constant": b["error_constant"],
    }
    if reference_basis is not None:
        summary["basis_sin_theta_max"] = b["sin_theta_max"]
    return ResultTable(columns=tuple(columns), rows=list(zip(*fields)), summary=summary)


def run_experiment(spec):
    """Generate, build, select, project, sweep. Deterministic given the spec."""
    snaps = generate(spec)
    basis = build_basis(snaps.matrix, spec)
    S = select_points(basis, spec)
    P = build_projector(basis, S)
    reference = None
    if spec.with_bounds:  # an svd basis is its own reference: the held one
        reference = _exact_basis(snaps.matrix, basis.rank)
    n_test = spec.n_test
    if n_test is None:
        n_test = SCALES[spec.example][spec.scale].get("n_test", 0)
    sweep_set = snaps
    if spec.example == "source" and n_test > 0:
        sweep_set = source_test_points(snaps, n_test, spec.seed + 1)
    table = error_sweep(P, sweep_set, reference_basis=reference)
    table.summary["basis_rank"] = float(basis.rank)
    table.summary["points"] = float(S.s)
    return table


def bench_basis(A, rank, oversample=10, power=0, seed=0, trials=3):
    """Wall-clock comparison of exact-SVD and sketched basis construction.

    Reports the best of `trials` runs for each method together with the
    relative Frobenius residual ||A - W W'A||_F / ||A||_F its basis W
    leaves: W'A plus one column_residuals call, as in the adaptive range
    finder's check, so no n x n_s temporary is formed.
    """
    A = np.asarray(A, dtype=np.float64)
    trials = check_count(trials, 1, "trials")
    methods = (
        ("exact-svd", lambda: svd_basis(A, rank)),
        ("randomized", lambda: subspace_range_finder(A, rank, oversample, power, seed)),
    )
    rows = []
    for method, build in methods:
        best = float("inf")
        for _ in range(trials):
            t0 = time.perf_counter()
            basis = build()
            best = min(best, time.perf_counter() - t0)
        W = basis.matrix
        norm2, (res,) = column_residuals(A, [(W, W.T @ A)])
        rel = float(np.sqrt(res.sum() / norm2.sum()))
        rows.append((method, A.shape[0], A.shape[1], rank, best, rel))

    return ResultTable(
        columns=("method", "n", "n_s", "rank", "seconds", "rel_residual"),
        rows=rows,
        summary={"speedup": rows[0][4] / rows[1][4] if rows[1][4] > 0 else float("inf")},
    )
