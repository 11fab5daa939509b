import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdeim
from rdeim import _util, bounds, experiments, rangefinder, selection
from rdeim.bounds import column_bounds, interpolation_error_bound, perturbed_basis_bound
from rdeim.experiments import (
    BASES,
    GENERATORS,
    GRID_LOWS,
    SCALES,
    SELECTORS,
    SOURCE_RANGES,
    SWEEP_BLOCK,
    AlgorithmSpec,
    ExperimentSpec,
    SnapshotSet,
    bench_basis,
    build_basis,
    corner_peak_snapshots,
    error_sweep,
    gaussian_source_snapshots,
    generate,
    latin_hypercube,
    oscillator_snapshots,
    run_experiment,
    select_points,
    source_test_points,
)
from rdeim.cli import main
from rdeim.matio import emit_csv, write_matrix
from rdeim.projector import DeimProjector, build_projector
from rdeim.rangefinder import OrthonormalBasis, svd_basis
from rdeim.selection import SelectionOperator, deim_greedy_select, mixed_pmf, pqr_select

from conftest import gap_matrix, patch_cpus, random_orthonormal
from oracles import (
    columnwise_corner_peak,
    columnwise_source_columns,
    dense_oblique_projector,
    oscillator_formula,
    serial_corner_peak,
    serial_oscillator,
    serial_source_columns,
)


# ------------------------------------------------------------------ osc


def test_oscillator_values():
    snaps = oscillator_snapshots(n_t=6, n_mu=5)
    assert snaps.matrix.shape == (6, 5)
    assert snaps.space["t"][0] == 1.0 and snaps.space["t"][-1] == 6.0
    assert snaps.params[0, 0] == 0.0 and snaps.params[-1, 0] == pytest.approx(math.pi)
    # mu = 0: no decay, no oscillation
    assert np.all(snaps.matrix[:, 0] == 10.0)
    # t = 1, mu = pi/4: 10 e^{-pi/4} (cos pi + sin pi)
    expected = 10.0 * math.exp(-math.pi / 4.0) * (math.cos(math.pi) + math.sin(math.pi))
    assert snaps.matrix[0, 1] == pytest.approx(expected, rel=1e-14)


def test_oscillator_validation():
    with pytest.raises(ValueError):
        oscillator_snapshots(n_t=1, n_mu=5)


@pytest.mark.parametrize("n_t, n_mu", [(6, 5), (SWEEP_BLOCK, 3), (2000, 100), (3 * SWEEP_BLOCK + 5, 17)])
def test_oscillator_matches_whole_array_formula(n_t, n_mu):
    assert np.array_equal(oscillator_snapshots(n_t, n_mu).matrix, oscillator_formula(n_t, n_mu))


def test_oscillator_memory_stays_below_twice_the_output():
    tracemalloc.start()
    try:
        F = oscillator_snapshots(n_t=10000, n_mu=100).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * F.nbytes


# --------------------------------------------------------------- corner


def test_corner_shapes_and_params():
    snaps = corner_peak_snapshots(grid=8, param_grid=5)
    assert snaps.matrix.shape == (64, 25)
    mus = np.linspace(0.0, 1.0, 5)
    # mu1 varies fastest along the columns
    for c in (0, 1, 7, 24):
        i1, i2 = c % 5, c // 5
        assert snaps.params[c, 0] == mus[i1]
        assert snaps.params[c, 1] == mus[i2]


def test_corner_reflection_symmetry():
    grid, pg = 9, 5
    snaps = corner_peak_snapshots(grid=grid, param_grid=pg)
    F = snaps.matrix
    for c in (0, 3, 11, 17):
        i1, i2 = c % pg, c // pg
        c_ref = (pg - 1 - i1) + pg * (pg - 1 - i2)
        img = F[:, c].reshape(grid, grid, order="F")
        img_ref = F[:, c_ref].reshape(grid, grid, order="F")
        assert np.allclose(img[::-1, ::-1], img_ref, rtol=1e-12, atol=0)


def test_corner_range():
    snaps = corner_peak_snapshots(grid=10, param_grid=4)
    assert snaps.matrix.min() > 0.0
    assert snaps.matrix.max() < 40.0


@pytest.mark.parametrize("grid, pg", [(7, 3), (8, 5), (50, 15)])
def test_corner_matches_columnwise_oracle(grid, pg):
    snaps = corner_peak_snapshots(grid=grid, param_grid=pg)
    F, params = columnwise_corner_peak(grid, pg)
    assert np.array_equal(snaps.matrix, F)
    assert np.array_equal(snaps.params, params)


# ------------------------------------------------------- latin hypercube


def test_latin_hypercube_stratification():
    ranges = ((0.0, 1.0), (-2.0, 4.0))
    X = latin_hypercube(20, ranges, seed=3)
    assert X.shape == (20, 2)
    for d, (lo, hi) in enumerate(ranges):
        assert X[:, d].min() >= lo and X[:, d].max() <= hi
        strata = np.floor((X[:, d] - lo) / (hi - lo) * 20).astype(int)
        strata = np.clip(strata, 0, 19)
        assert np.array_equal(np.sort(strata), np.arange(20))


def test_latin_hypercube_deterministic():
    r = ((0.0, 1.0),)
    assert np.array_equal(latin_hypercube(10, r, seed=5), latin_hypercube(10, r, seed=5))
    assert not np.array_equal(latin_hypercube(10, r, seed=5), latin_hypercube(10, r, seed=6))


def test_latin_hypercube_validation():
    with pytest.raises(ValueError):
        latin_hypercube(0, ((0.0, 1.0),), seed=0)
    with pytest.raises(ValueError):
        latin_hypercube(5, ((1.0, 1.0),), seed=0)


# ---------------------------------------------------------------- source


def test_source_columns_match_formula():
    snaps = gaussian_source_snapshots(n_grid=7, n_train=4, seed=1)
    assert snaps.matrix.shape == (49, 4)
    x = snaps.space["x1"]
    k = 2
    m3, m4, m5 = snaps.params[k]
    for p in (0, 10, 33, 48):
        i1, i2 = p % 7, p // 7
        val = math.exp(-((x[i1] - m3) ** 2 + (x[i2] - m4) ** 2) / m5**2)
        assert snaps.matrix[p, k] == pytest.approx(val, rel=1e-14)


@pytest.mark.parametrize("n_train", [1, 63, SWEEP_BLOCK, 65, 200])
def test_source_matches_columnwise_oracle(n_train):
    snaps = gaussian_source_snapshots(n_grid=11, n_train=n_train, seed=4)
    assert np.array_equal(snaps.matrix, columnwise_source_columns(snaps.space["x1"], snaps.params))
    test = source_test_points(snaps, n_train, seed=5)
    assert np.array_equal(test.matrix, columnwise_source_columns(test.space["x1"], test.params))


@pytest.mark.parametrize("seed", [0, 3])
def test_separable_source_is_within_a_derived_bound_of_the_formula(seed):
    # each side rounds its exponent a = (d1 + d2) / w^2 within about 5u
    # relative, which moves the exponential by about 5u a, and exp and the
    # product add a few units: |s - f| <= (10 a + 20) u f on the default
    # ranges, where a stays below 140 and nothing underflows
    snaps = gaussian_source_snapshots(n_grid=40, n_train=200, seed=seed)
    test = source_test_points(snaps, 50, seed=seed + 1)
    u = np.finfo(np.float64).eps / 2
    for s in (snaps, test):
        x = s.space["x1"]
        d1 = (x[:, None] - s.params[:, 0]) ** 2
        d2 = (x[:, None] - s.params[:, 1]) ** 2
        # rows i + grid * j pair d1[i] with d2[j]
        a = ((d1[None, :, :] + d2[:, None, :]) / (s.params[:, 2] ** 2)).reshape(s.matrix.shape)
        f = np.array([math.exp(-v) for v in a.ravel()]).reshape(a.shape)
        assert a.max() < 140 and f.min() > 0.0
        assert np.all(np.abs(s.matrix - f) <= (10.0 * a + 20.0) * u * f)


def test_source_params_within_ranges():
    snaps = gaussian_source_snapshots(n_grid=5, n_train=30, seed=2)
    for d, (lo, hi) in enumerate(SOURCE_RANGES):
        assert snaps.params[:, d].min() >= lo
        assert snaps.params[:, d].max() <= hi


def test_source_test_points():
    snaps = gaussian_source_snapshots(n_grid=6, n_train=10, seed=0)
    assert snaps.ranges == SOURCE_RANGES
    test = source_test_points(snaps, 8, seed=1)
    assert test.matrix.shape == (36, 8)
    # uniform draws over the default box, bit for bit
    lo, hi = np.array(SOURCE_RANGES).T
    assert np.array_equal(test.params, lo + (hi - lo) * np.random.default_rng(1).uniform(size=(8, 3)))
    for d, (lo, hi) in enumerate(SOURCE_RANGES):
        assert test.params[:, d].min() >= lo and test.params[:, d].max() <= hi
    other = source_test_points(snaps, 8, seed=2)
    assert not np.array_equal(test.params, other.params)


def test_source_test_points_follow_a_ranges_override():
    box = [[0.6, 0.8], [0.6, 0.8], [0.3, 0.35]]
    overrides = {"n_grid": 20, "n_train": 60, "ranges": box}
    spec = ExperimentSpec(example="source", rank=5, n_test=40, overrides=overrides)
    snaps = generate(spec)
    assert snaps.ranges == ((0.6, 0.8), (0.6, 0.8), (0.3, 0.35))
    test = source_test_points(snaps, 40, seed=spec.seed + 1)
    lo, hi = np.array(box).T
    assert np.all((test.params >= lo) & (test.params <= hi))
    assert test.ranges == snaps.ranges
    # drawn from the default box, every point missed the training box and
    # the mean relative error was 0.84; inside it, it is 0.021
    assert run_experiment(spec).summary["rel_error_mean"] < 0.05


# ------------------------------------------------------------ parallel fill


def _generated(example, args):
    """The matrix of one generator call, with the source's held-out set
    stacked on its training set."""
    if example == "osc":
        return oscillator_snapshots(**args).matrix
    if example == "corner":
        return corner_peak_snapshots(**args).matrix
    snaps = gaussian_source_snapshots(**args)
    return np.hstack([snaps.matrix, source_test_points(snaps, 30, seed=7).matrix])


def _serial(example, args):
    if example == "osc":
        return serial_oscillator(args["n_t"], args["n_mu"], SWEEP_BLOCK)
    if example == "corner":
        return serial_corner_peak(args["grid"], args["param_grid"])
    snaps = gaussian_source_snapshots(**args)
    test = source_test_points(snaps, 30, seed=7)
    x = snaps.space["x1"]
    return np.hstack([serial_source_columns(x, snaps.params), serial_source_columns(x, test.params)])


# desk scale, a 7 x 3 corner grid and an oscillator whose last row block
# holds 5 of SWEEP_BLOCK rows
_FILLS = [
    ("osc", {"n_t": 2000, "n_mu": 100}),
    ("osc", {"n_t": 3 * SWEEP_BLOCK + 5, "n_mu": 17}),
    ("corner", {"grid": 50, "param_grid": 15}),
    ("corner", {"grid": 7, "param_grid": 3}),
    ("source", {"n_grid": 40, "n_train": 200, "seed": 0}),
]


def _blocks(example, args):
    if example == "osc":
        return -(-args["n_t"] // SWEEP_BLOCK)
    return args["grid"] if example == "corner" else args["n_grid"]


@pytest.mark.parametrize("example, args", _FILLS, ids=lambda v: v if isinstance(v, str) else "")
def test_generators_fill_their_blocks_as_the_serial_loop_does(monkeypatch, example, args):
    expected = _serial(example, args).tobytes()
    # one part, two, three, and more CPUs than blocks: one part per block,
    # so more threads than cores, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, _blocks(example, args) + 5):
            patch_cpus(monkeypatch, cpus)
            assert _generated(example, args).tobytes() == expected, cpus
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "cpus, n_blocks, parts",
    [
        (1, 5, [(0, 5)]),
        (2, 5, [(0, 2), (2, 5)]),
        (3, 10, [(0, 3), (3, 6), (6, 10)]),
        (8, 3, [(0, 1), (1, 2), (2, 3)]),
        (4, 0, [(0, 0)]),
    ],
)
def test_fill_in_parts_splits_the_blocks_into_one_part_per_cpu(monkeypatch, cpus, n_blocks, parts):
    patch_cpus(monkeypatch, cpus)
    seen, threads = [], []

    def fill(lo, hi, buf):
        seen.append((lo, hi))
        threads.append(threading.current_thread())
        buf[:] = lo

    buffers = []

    def scratch():
        buffers.append(np.empty(2))
        return (buffers[-1],)

    _util.fill_in_parts(fill, n_blocks, scratch)
    assert sorted(seen) == parts
    # every part has its own scratch, and the first runs on the calling thread
    assert [buf[0] for buf in buffers] == [lo for lo, _ in parts]
    assert threads[seen.index(parts[0])] is threading.current_thread()
    assert len(set(threads)) == len(parts)


def test_fill_in_parts_takes_a_part_count(monkeypatch):
    # a count below the CPUs is kept, one above them too, and blocks cap it.
    # 64 parts on at most 2 CPUs switch threads as often as they can: a
    # block taken twice or lost shows in the counts, and each part has its
    # own buffer
    patch_cpus(monkeypatch, 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cases = ((2, 9, 2), (12, 20, 12), (5, 3, 3), (0, 4, 1), (64, 2000, 64))
        for parts, n_blocks, count in cases:
            counts = np.zeros(n_blocks, dtype=int)
            buffers = []

            def scratch():  # called once per part
                buffers.append(np.empty(1))
                return (buffers[-1],)

            def fill(lo, hi, buf):
                buf[0] = lo
                for b in range(lo, hi):
                    counts[b] += 1

            _util.fill_in_parts(fill, n_blocks, scratch, parts=parts)
            assert (counts == 1).all() and len(buffers) == count
            assert sorted(buf[0] for buf in buffers) == [n_blocks * k // count for k in range(count)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_fill_in_parts_runs_every_part_under_the_callers_errstate(monkeypatch):
    # the products that check finiteness themselves ignore an overflow; a
    # worker thread would otherwise warn under numpy's default
    patch_cpus(monkeypatch, 3)

    def fill(lo, hi):
        np.multiply(np.full(4, 1e300), 1e300)

    with np.errstate(over="ignore"):
        _util.fill_in_parts(fill, 3)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _util.fill_in_parts(fill, 3)


def test_fill_in_parts_raises_from_a_worker_and_leaves_no_thread(monkeypatch):
    patch_cpus(monkeypatch, 3)
    before = threading.active_count()
    done = []

    def fill(lo, hi):
        if lo > 0 and hi == 6:
            raise ArithmeticError(f"part [{lo}, {hi})")
        done.append(lo)

    with pytest.raises(ArithmeticError, match=r"part \[4, 6\)"):
        _util.fill_in_parts(fill, 6)
    assert threading.active_count() == before
    assert sorted(done) == [0, 2]


def test_fill_blocks_takes_every_block_once_on_more_parts_than_cpus(monkeypatch, one_blas_thread):
    # a pass in fixed blocks, as the pivot search's updates run: 64 parts on
    # at most 2 CPUs take 2000 blocks, switching threads as often as they
    # can: a block taken twice or lost shows in the counts
    patch_cpus(monkeypatch, 64)
    monkeypatch.setattr(_util, "PART_WORK", 1)
    before = threading.active_count()
    counts = np.zeros(2000, dtype=int)
    buffers = []

    def scratch():  # called once per part
        buffers.append(np.empty(1))
        return (buffers[-1],)

    def fill(lo, hi, buf):
        for b in range(lo, hi):
            counts[b] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _util.fill_in_parts(fill, counts.size, scratch, parts=_util._work_parts(counts.size))
    finally:
        sys.setswitchinterval(interval)
    assert (counts == 1).all() and len(buffers) == 64
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "blas, n_blocks, work, parts",
    [(1, 3, 3, 3), (1, 3, 2, 2), (1, 2, 9, 2), (1, 3, 1, 1), (2, 3, 3, 1), (None, 3, 3, 1)],
)
def test_fill_blocks_makes_a_part_per_cpu_block_and_floor_on_one_blas_thread(
    monkeypatch, blas, n_blocks, work, parts
):
    # a pass in fixed blocks through fill_in_parts at _work_parts parts: four
    # CPUs and a floor of one unit of work a part, and never more parts than
    # blocks; on more BLAS threads, or an unknown count, one part
    patch_cpus(monkeypatch, 4)
    monkeypatch.setattr(_util, "PART_WORK", 1)
    monkeypatch.setattr(_util, "blas_threads", lambda: blas)
    buffers, seen = [], []

    def scratch():  # called once per part
        buffers.append(np.empty(1))
        return (buffers[-1],)

    _util.fill_in_parts(lambda lo, hi, buf: seen.extend(range(lo, hi)), n_blocks, scratch,
                        parts=_util._work_parts(work))
    assert len(buffers) == parts and sorted(seen) == list(range(n_blocks))


@pytest.mark.parametrize("blas", [1, 2, None])
def test_passes_take_a_part_per_cpu_and_floor_on_one_blas_thread(monkeypatch, blas):
    # four CPUs, and each floor cut at, below and above its multiples: a pass
    # over A by its entries and lines, a pass in fixed blocks by its work.
    # On more BLAS threads, or an unknown count, every pass is one part
    patch_cpus(monkeypatch, 4)
    monkeypatch.setattr(_util, "blas_threads", lambda: blas)
    entries, lines, work = _util.PART_ENTRIES, _util.PART_LINES, _util.PART_WORK

    def over(n_entries, n_lines):  # a stand-in for A that holds no memory
        return _util._part_count(np.broadcast_to(0.0, (n_entries,)), n_lines)

    counts = [
        (over(3 * entries, 9 * lines), 3),
        (over(9 * entries, 3 * lines - 1), 2),
        (over(9 * entries, 9 * lines), 4),
        (over(2 * entries - 1, 9 * lines), 1),
        (over(9 * entries, lines), 1),
        (_util._work_parts(3 * work), 3),
        (_util._work_parts(3 * work - 1), 2),
        (_util._work_parts(9 * work), 4),
        (_util._work_parts(2 * work - 1), 1),
        (_util._work_parts(0), 1),
    ]
    assert [got for got, _ in counts] == [parts if blas == 1 else 1 for _, parts in counts]


# ------------------------------------------------------------ spec/driver


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(example="wave", rank=5)
    with pytest.raises(ValueError):
        ExperimentSpec(example="osc", rank=5, scale="huge")
    with pytest.raises(ValueError):
        ExperimentSpec(example="osc", rank=5, basis="qr")
    with pytest.raises(ValueError):
        ExperimentSpec(example="osc", rank=5, selector="random")
    with pytest.raises(ValueError):
        ExperimentSpec(example="osc", rank=0)
    with pytest.raises(ValueError):
        ExperimentSpec(example="source", rank=5, n_test=-1)
    # checked for every basis and selector, not only the ones that read it
    invalid = [
        ("seed", -1, "seed must be a nonnegative integer"),
        ("seed", True, "seed must be a nonnegative integer"),
        ("seed", np.True_, "seed must be a nonnegative integer"),
        ("oversample", 0, "oversample must be >= 1"),
        ("power", -1, "power must be >= 0"),
        ("tol", 5.0, r"tol must lie in \(0, 1\)"),
        ("tol", float("nan"), r"tol must lie in \(0, 1\)"),
        ("block", 0, "block must be >= 1"),
        ("max_blocks", 0, "max_blocks must be >= 1"),
        ("eta", 0.5, "eta must be >= 1"),
        ("eta", float("nan"), "eta must be >= 1"),
        ("beta", 2.0, r"beta must lie in \(0, 1\)"),
        ("beta", 0.0, r"beta must lie in \(0, 1\)"),
        ("samples", -3, "samples must be >= 1"),
        ("samples", 0, "samples must be >= 1"),
    ]
    # a count is an integer: a float is not truncated, and a bool is no count
    for name in ("rank", "oversample", "power", "block", "max_blocks", "samples", "n_test"):
        for value in (4.5, 20.0, True):
            invalid.append((name, value, f"^{name} must be an integer, got {value!r}$"))
    for basis in BASES:
        for selector in SELECTORS:
            for name, value, message in invalid:
                with pytest.raises(ValueError, match=message):
                    ExperimentSpec(example="osc", **{"rank": 5, "basis": basis,
                                                     "selector": selector, name: value})
    # the spec and the kernel that reads an option share its rule and message
    lev = np.full(10, 0.5)
    for check in (lambda: mixed_pmf(lev, 5, 2.0), lambda: AlgorithmSpec(rank=5, beta=2.0)):
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\), got 2\.0$"):
            check()


def test_spec_rejects_held_out_count_in_overrides():
    # generate drops an n_test override, so it would silently sweep the
    # scale's 50 held-out columns instead of 5
    with pytest.raises(ValueError, match="n_test="):
        ExperimentSpec(
            example="source", rank=8, overrides={"n_grid": 10, "n_train": 30, "n_test": 5}
        )


def test_spec_rejects_an_override_its_generator_does_not_take():
    # an unknown key would reach the generator as a keyword it does not take
    for example, options in (
        ("osc", ["n_mu", "n_t"]),
        ("corner", ["grid", "param_grid"]),
        ("source", ["n_grid", "n_train", "ranges"]),
    ):
        for key in ("bogus", "seed", "n_t" if example != "osc" else "grid"):
            message = rf"^unknown {example} overrides \['{key}'\]; choose from {re.escape(str(options))}$"
            with pytest.raises(ValueError, match=message):
                ExperimentSpec(example=example, rank=5, overrides={key: 3})
    # a key the generator takes is checked at construction, as a direct call checks it
    with pytest.raises(ValueError, match=r"^n_t must be an integer, got 100\.0$"):
        ExperimentSpec(example="osc", rank=5, overrides={"n_t": 100.0})


_GRID_COUNTS = [
    (example, name)
    for example, generator in GENERATORS.items()
    for name in inspect.signature(generator).parameters
    if name in GRID_LOWS
]


@pytest.mark.parametrize("example, name", _GRID_COUNTS)
def test_spec_checks_a_grid_override_at_its_generators_low(example, name):
    low = GRID_LOWS[name]
    for value in (float(low + 3), True, low - 1):
        with pytest.raises(ValueError) as direct:
            GENERATORS[example](**{name: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(direct.value))}$"):
            ExperimentSpec(example=example, rank=5, overrides={name: value})
    assert str(direct.value) == f"{name} must be >= {low}, got {low - 1}"


@pytest.mark.parametrize(
    "example, overrides",
    [("osc", {"n_t": 50, "n_mu": 7}), ("corner", {"grid": 12, "param_grid": 6}),
     ("source", {"n_grid": 9, "n_train": 12})],
)
def test_a_valid_grid_override_builds_the_same_set_under_the_same_key(monkeypatch, example, overrides):
    monkeypatch.setattr(experiments, "_last_set", None)
    snaps = generate(ExperimentSpec(example=example, rank=5, overrides=overrides))
    seed = 0 if example == "source" else None
    assert experiments._last_set[0] == (example, repr(sorted(overrides.items())), seed)
    direct = GENERATORS[example](**overrides, **({} if seed is None else {"seed": seed}))
    assert snaps.matrix.tobytes() == direct.matrix.tobytes()


def test_generate_scales_and_overrides():
    snaps = generate(ExperimentSpec(example="osc", rank=5, overrides={"n_t": 50, "n_mu": 7}))
    assert snaps.matrix.shape == (50, 7)
    desk = SCALES["corner"]["desk"]
    snaps2 = generate(ExperimentSpec(example="corner", rank=5))
    assert snaps2.matrix.shape == (desk["grid"] ** 2, desk["param_grid"] ** 2)
    snaps3 = generate(
        ExperimentSpec(example="source", rank=5, overrides={"n_grid": 9, "n_train": 12})
    )
    assert snaps3.matrix.shape == (81, 12)


def test_generate_returns_the_last_set_read_only():
    spec = ExperimentSpec(
        example="source", rank=5, overrides={"n_grid": 9, "n_train": 12, "ranges": [[0.2, 0.8]] * 3}
    )
    snaps = generate(spec)
    # the algorithm fields and an equal list in a new object still hit
    same = replace(spec, rank=7, basis="adaptive", overrides={**spec.overrides, "ranges": [[0.2, 0.8]] * 3})
    assert generate(same) is snaps
    for array in (snaps.matrix, snaps.params, *snaps.space.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    for other in (
        replace(spec, seed=1),
        replace(spec, overrides={**spec.overrides, "n_train": 13}),
        replace(spec, overrides={**spec.overrides, "ranges": [[0.2, 0.8]] * 2 + [[0.1, 0.3]]}),
    ):
        assert generate(other) is not snaps
        # the miss dropped the set, so spec builds it again
        rebuilt = generate(spec)
        assert rebuilt is not snaps and np.array_equal(rebuilt.matrix, snaps.matrix)
    # osc and corner do not read the seed
    osc = ExperimentSpec(example="osc", rank=5, overrides={"n_t": 50, "n_mu": 7})
    assert generate(replace(osc, seed=3)) is generate(osc)


def test_an_equal_count_of_another_integer_type_finds_the_held_set():
    # the key holds the plain ints the counts are checked to, so np.int64(50)
    # after 50 returns the held set and keeps its exact basis
    spec = ExperimentSpec(example="osc", rank=5, basis="svd", overrides={"n_t": 50, "n_mu": 7})
    snaps = generate(spec)
    basis = experiments._exact_basis(snaps.matrix, 5)
    same = replace(spec, overrides={"n_t": np.int64(50), "n_mu": np.int32(7)})
    assert generate(same) is snaps
    assert experiments._exact_basis(generate(same).matrix, 5) is basis


def test_generate_holds_one_set():
    spec = ExperimentSpec(example="corner", rank=5, basis="svd", overrides={"grid": 12, "param_grid": 6})
    held = weakref.ref(generate(spec).matrix)
    held_basis = weakref.ref(build_basis(generate(spec).matrix, spec))
    assert held() is not None and held_basis() is not None
    generate(replace(spec, overrides={"grid": 13, "param_grid": 6}))
    # the exact bases held for a set go with it
    assert held() is None and held_basis() is None


def test_exact_basis_of_the_held_set_is_built_once_per_rank_read_only(monkeypatch):
    spec = ExperimentSpec(example="corner", rank=5, basis="svd", overrides={"grid": 12, "param_grid": 6})
    A = generate(spec).matrix
    svds = _counting(monkeypatch, "thin_svd", rangefinder)
    basis = build_basis(A, spec)
    assert build_basis(A, spec) is basis
    assert build_basis(A, replace(spec, rank=6)) is not basis
    assert len(svds) == 2
    with pytest.raises(ValueError, match="read-only"):
        basis.matrix[0, 0] = 0.0
    # rank 6 replaced the held rank-5 basis, so rank 5 is factored again
    again = build_basis(A, spec)
    assert again is not basis and np.array_equal(again.matrix, basis.matrix) and len(svds) == 3
    # an equal matrix that is not the held set's is factored every time, and nothing is held
    other = A.copy()
    first = build_basis(other, spec)
    assert build_basis(other, spec) is not first and len(svds) == 5
    assert np.array_equal(first.matrix, basis.matrix) and first.matrix.flags.writeable


def test_rank_sweep_holds_one_exact_basis():
    spec = ExperimentSpec(example="source", rank=5, basis="svd", overrides={"n_grid": 12, "n_train": 40})
    A = generate(spec).matrix
    held = [weakref.ref(build_basis(A, replace(spec, rank=r))) for r in range(5, 30, 5)]
    # only the basis of the last rank is still alive, and it is the held one
    assert [ref() is not None for ref in held] == [False] * 4 + [True]
    assert experiments._last_set[2][0] == 25
    assert build_basis(A, replace(spec, rank=25)) is held[-1]()


def _sweep_paper_grid_at_desk():
    """The benchmark's sweep-paper operations (example x basis twice,
    selectors rotated) at desk scale."""
    for i in range(18):
        example = ("osc", "corner", "source")[i // 6]
        selector = SELECTORS[i % 5]
        rank = 10 if example == "osc" else 24
        yield ExperimentSpec(
            example=example,
            rank=rank,
            basis=("basic", "subspace", "adaptive")[(i // 2) % 3],
            selector=selector,
            samples={10: 70, 24: 229}[rank] if selector in ("leverage", "hybrid") else None,
            n_test=100 if example == "source" else None,
            seed=i,
        )


def test_run_experiment_is_the_same_with_a_warm_memo(monkeypatch):
    for with_bounds in (False, True):
        specs = [replace(spec, with_bounds=with_bounds) for spec in _sweep_paper_grid_at_desk()]
        cold = []
        for spec in specs:
            monkeypatch.setattr(experiments, "_last_set", None)
            cold.append(run_experiment(spec))
            assert run_experiment(spec) == cold[-1]
        # in grid order the runs on one set share it and, bounded, its exact reference
        assert [run_experiment(spec) for spec in specs] == cold


def _bounds_desk_grid(overrides):
    """The benchmark's bounds-desk operations (example x randomized basis,
    selectors rotated, a seed per run) on small grids."""
    for i in range(9):
        example = ("osc", "corner", "source")[i // 3]
        yield ExperimentSpec(
            example=example, rank=5, basis=("basic", "subspace", "adaptive")[i % 3],
            selector=SELECTORS[i % 5], samples=20, n_test=10, tol=1e-2, block=4, max_blocks=8,
            with_bounds=True, overrides=overrides[example], seed=i,
        )


def test_bounded_grid_factors_each_set_once_per_rank(monkeypatch):
    overrides = {
        "osc": {"n_t": 120, "n_mu": 30},
        "corner": {"grid": 10, "param_grid": 6},
        "source": {"n_grid": 10, "n_train": 40},
    }
    monkeypatch.setattr(experiments, "_last_set", None)
    svds = _counting(monkeypatch, "thin_svd", rangefinder)
    for spec in _bounds_desk_grid(overrides):
        run_experiment(spec)
    # one osc set, one corner set and three source sets (the seed differs)
    assert len(svds) == 5
    # an svd run and a bounded randomized run on its set share one factorization
    del svds[:]
    monkeypatch.setattr(experiments, "_last_set", None)
    spec = ExperimentSpec(example="corner", rank=5, basis="svd", overrides=overrides["corner"])
    run_experiment(spec)
    bounded = replace(spec, basis="subspace", with_bounds=True)
    shared = run_experiment(bounded)
    assert len(svds) == 1
    # a cold bounded run factors again, to the same table
    monkeypatch.setattr(experiments, "_last_set", None)
    assert run_experiment(bounded) == shared and len(svds) == 2


def test_build_basis_dispatch():
    A, _ = gap_matrix(40, 30, rank=8, gamma=0.2, seed=0)
    for kind in ("svd", "basic", "subspace"):
        spec = ExperimentSpec(example="osc", rank=6, basis=kind, oversample=5)
        W = build_basis(A, spec)
        assert W.rank == 6
    spec = ExperimentSpec(
        example="osc", rank=4, basis="adaptive", tol=1e-6, block=4, max_blocks=8
    )
    W = build_basis(A, spec)
    assert W.rank == 4  # truncated down from whatever the finder used


def test_select_points_dispatch():
    W = OrthonormalBasis(random_orthonormal(50, 5, seed=1), "exact-svd")
    for selector, expect_s in (("greedy", 5), ("pqr", 5), ("srrqr", 5)):
        spec = ExperimentSpec(example="osc", rank=5, selector=selector)
        S = select_points(W, spec)
        assert S.s == expect_s and np.all(S.weights == 1.0)
    spec = ExperimentSpec(example="osc", rank=5, selector="leverage")
    S = select_points(W, spec)
    assert S.s == 25  # ceil(3 * 5 ln 5) = 25
    spec = ExperimentSpec(example="osc", rank=5, selector="hybrid", samples=20)
    S = select_points(W, spec)
    assert S.s == 5


def test_sampled_selectors_draw_the_given_count_above_the_row_count(monkeypatch):
    # the draws are with replacement, so a count above n takes effect as given
    spec = ExperimentSpec(example="osc", rank=8, selector="leverage", samples=5000)
    table = run_experiment(spec)  # desk osc has 2000 rows
    assert table.summary["points"] == 5000.0
    W = OrthonormalBasis(random_orthonormal(50, 5, seed=1), "exact-svd")
    shapes = []
    real = selection.srrqr
    monkeypatch.setattr(selection, "srrqr", lambda M, r, eta: shapes.append(M.shape) or real(M, r, eta))
    S = select_points(W, ExperimentSpec(example="osc", rank=5, selector="hybrid", samples=80))
    assert shapes == [(5, 80)] and S.s == 5 and S.n == 50


# ------------------------------------------------------------ error sweep


def _toy_snaps(with_zero_column=False):
    A, _ = gap_matrix(30, 12, rank=5, gamma=0.1, seed=4)
    if with_zero_column:
        A = A.copy()
        A[:, 7] = 0.0
    return SnapshotSet(matrix=A, params=np.arange(12)[:, None], space={})


def test_error_sweep_skips_zero_columns():
    snaps = _toy_snaps(with_zero_column=True)
    W = svd_basis(snaps.matrix, 5)
    P = build_projector(W, deim_greedy_select(W))
    table = error_sweep(P, snaps)
    assert table.summary["columns_total"] == 12.0
    assert table.summary["columns_defined"] == 11.0
    assert math.isnan(table.rows[7][3])
    assert math.isfinite(table.summary["rel_error_mean"])
    assert table.summary["rel_error_max"] >= table.summary["rel_error_median"]


def test_error_sweep_bounds_dominate():
    snaps = _toy_snaps()
    W = svd_basis(snaps.matrix, 5)
    P = build_projector(W, deim_greedy_select(W))
    table = error_sweep(P, snaps, reference_basis=W)
    assert table.columns[-3:] == ("bound_plain", "bound_perturbed", "sin_theta_max")
    for row in table.rows:
        abs_err = row[2]
        assert row[4] >= abs_err - 1e-12  # plain
        assert row[5] >= abs_err - 1e-12  # perturbed
        assert row[6] == 0.0  # reference equals the basis itself


@st.composite
def _sweep_cases(draw):
    """A projector, a reference basis and a snapshot set around SWEEP_BLOCK."""
    n = draw(
        st.one_of(
            st.integers(4, SWEEP_BLOCK - 1),
            st.sampled_from([SWEEP_BLOCK, 2 * SWEEP_BLOCK]),
            st.integers(SWEEP_BLOCK + 1, 3 * SWEEP_BLOCK).filter(lambda k: k % SWEEP_BLOCK),
        )
    )
    n_s = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(5, n - 1)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n_s)) * 10.0 ** rng.integers(-3, 4, size=n_s)
    A[:, draw(st.lists(st.integers(0, n_s - 1), max_size=n_s))] = 0.0
    W = OrthonormalBasis(np.linalg.qr(rng.standard_normal((n, r)))[0], "W")
    # a nearby reference basis, at an angle from 1e-9 to 1e-1
    tilt = 10.0 ** draw(st.integers(-9, -1))
    W_ref = np.linalg.qr(W.matrix + tilt * rng.standard_normal((n, r)))[0]
    S = pqr_select(W)
    if draw(st.booleans()):
        # sampled: the pivots plus repeated draws, every point reweighted
        extra = rng.integers(0, n, size=draw(st.integers(1, 2 * r)))
        idx = np.concatenate([S.indices, extra, extra[:1]])
        S = SelectionOperator(idx, 10.0 ** rng.uniform(-1, 1, size=idx.size), n)
    snaps = SnapshotSet(matrix=A, params=np.arange(n_s)[:, None], space={})
    return build_projector(W, S), W_ref, snaps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sweep_cases())
def test_error_sweep_matches_the_dense_projector(case):
    P, W_ref, snaps = case
    table = error_sweep(P, snaps, reference_basis=W_ref)
    A = snaps.matrix
    D = dense_oblique_projector(P.basis, P.selection.indices, P.selection.weights)
    C = np.linalg.norm(D, 2)
    sin_max = np.linalg.norm(P.basis - W_ref @ (W_ref.T @ P.basis), 2)
    P_ref_A = W_ref @ (W_ref.T @ A)
    norm = np.linalg.norm(A, axis=0)
    want = {
        "norm": norm,
        "abs_error": np.linalg.norm(A - D @ A, axis=0),
        "bound_plain": C * np.linalg.norm(A - P.basis @ (P.basis.T @ A), axis=0),
        "bound_perturbed": C * (
            np.linalg.norm(A - P_ref_A, axis=0) + sin_max * np.linalg.norm(P_ref_A, axis=0)
        ),
    }
    rows = np.array(table.rows, dtype=np.float64)
    got = {name: rows[:, k] for k, name in enumerate(table.columns)}
    floor = 1e-12 * (1.0 + C) * norm
    for name, value in want.items():
        assert np.all(np.abs(got[name] - value) <= 1e-12 * value + floor), name
    assert table.summary["error_constant"] == pytest.approx(C, rel=1e-12)
    assert table.summary["basis_sin_theta_max"] == pytest.approx(sin_max, rel=1e-9, abs=1e-15)
    for name in ("bound_plain", "bound_perturbed"):
        assert np.all(got["abs_error"] <= got[name] + floor), name
    zero = norm == 0.0
    assert np.all(got["abs_error"][zero] == 0.0) and np.all(np.isnan(got["rel_error"][zero]))
    assert table.summary["columns_defined"] == float(np.sum(~zero))


def test_error_sweep_memory_stays_well_below_the_matrix():
    A, _ = gap_matrix(4000, 300, rank=10, gamma=0.1, seed=5)
    snaps = SnapshotSet(matrix=A, params=np.arange(300)[:, None], space={})
    W = svd_basis(A, 10)
    P = build_projector(W, deim_greedy_select(W))
    reference = svd_basis(A, 10)
    for ref in (None, reference):
        tracemalloc.start()
        try:
            error_sweep(P, snaps, reference_basis=ref)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * A.nbytes


def _bounded_desk_sweep(example):
    """A desk-scale randomized-basis projector, its reference and its sweep."""
    spec = ExperimentSpec(example=example, rank=10, basis="subspace", selector="pqr", oversample=5)
    snaps = generate(spec)
    basis = build_basis(snaps.matrix, spec)
    P = build_projector(basis, select_points(basis, spec))
    reference = svd_basis(snaps.matrix, basis.rank)
    return snaps, P, reference, error_sweep(P, snaps, reference_basis=reference)


@pytest.mark.parametrize("example", ["osc", "corner", "source"])
def test_error_sweep_matches_per_vector_bounds(example):
    snaps, P, reference, table = _bounded_desk_sweep(example)
    # the sweep reads the snapshots in several row blocks
    assert snaps.matrix.shape[0] > SWEEP_BLOCK
    assert len(table.rows) == snaps.matrix.shape[1]
    for j, row in enumerate(table.rows):
        f = snaps.matrix[:, j]
        plain = interpolation_error_bound(P, f)
        pert = perturbed_basis_bound(P, reference, f)
        assert row[0] == j
        assert row[2] == pytest.approx(np.linalg.norm(f - P.apply(f)), rel=1e-12)
        assert row[4] == pytest.approx(plain.bound_value, rel=1e-12)
        assert row[5] == pytest.approx(pert.bound_value, rel=1e-12)
        assert row[6] == pytest.approx(pert.constants["sin_theta_max"], rel=1e-12)
    assert table.summary["basis_sin_theta_max"] == row[6]
    assert table.summary["error_constant"] == P.error_constant()


def _counting(monkeypatch, name, *owners):
    """Record the positional arguments of the calls made through owner.name,
    for every owner, in one list."""
    calls = []
    for owner in owners:
        real = getattr(owner, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("n_s", [12, SWEEP_BLOCK, 3 * SWEEP_BLOCK + 5])
def test_error_sweep_computes_invariants_once(monkeypatch, n_s):
    A, _ = gap_matrix(80, n_s, rank=5, gamma=0.1, seed=2)
    snaps = SnapshotSet(matrix=A, params=np.arange(n_s)[:, None], space={})
    W = svd_basis(A, 5)
    P = build_projector(W, deim_greedy_select(W))
    constants = _counting(monkeypatch, "error_constant", DeimProjector)
    angles = _counting(monkeypatch, "canonical_angles", bounds)
    table = error_sweep(P, snaps, reference_basis=W)
    assert len(table.rows) == n_s
    assert (len(constants), len(angles)) == (1, 1)
    error_sweep(P, snaps)
    assert (len(constants), len(angles)) == (2, 1)


def test_run_experiment_computes_angles_once(monkeypatch):
    angles = _counting(monkeypatch, "canonical_angles", bounds)
    spec = ExperimentSpec(
        example="corner", rank=5, basis="basic", with_bounds=True,
        overrides={"grid": 10, "param_grid": 5},
    )
    table = run_experiment(spec)
    assert len(angles) == 1
    assert table.summary["basis_sin_theta_max"] == table.rows[0][6]


@pytest.mark.parametrize("selector", ["greedy", "leverage"])
def test_bounded_svd_run_is_its_own_reference(monkeypatch, selector):
    spec = ExperimentSpec(
        example="corner", rank=5, basis="svd", selector=selector, with_bounds=True,
        overrides={"grid": 10, "param_grid": 5},
    )
    monkeypatch.setattr(experiments, "_last_set", None)
    svds = _counting(monkeypatch, "thin_svd", rangefinder)
    sweeps = _counting(monkeypatch, "column_residuals", bounds)
    table = run_experiment(spec)
    assert len(svds) == 1
    assert [len(pairs) for _, pairs in sweeps] == [2]
    # warm, the set and its exact basis are held: no factorization at all
    assert run_experiment(spec) == table
    assert len(svds) == 1
    monkeypatch.undo()
    # a second, equal reference object is swept as a pair of its own
    snaps = generate(spec)
    basis = build_basis(snaps.matrix, spec)
    twin = svd_basis(snaps.matrix, 5)
    assert twin is not basis and np.array_equal(twin.matrix, basis.matrix)
    expected = error_sweep(build_projector(basis, select_points(basis, spec)), snaps, twin)
    assert table.columns == expected.columns and table.rows == expected.rows
    assert {k: table.summary[k] for k in expected.summary} == expected.summary


def test_interpolation_bound_sweeps_its_basis_once(monkeypatch):
    A, _ = gap_matrix(80, 30, rank=5, gamma=0.1, seed=2)
    W = svd_basis(A, 5)
    P = build_projector(W, pqr_select(W))
    # an equal reference that is another object is swept as a pair of its own
    twin = OrthonormalBasis(W.matrix.copy(order="K"), "twin")
    sweeps = _counting(monkeypatch, "column_residuals", bounds)
    report = interpolation_error_bound(P, A[:, 7])
    twin_report = perturbed_basis_bound(P, twin, A[:, 7])
    own, other = column_bounds(P, A, P.orthonormal), column_bounds(P, A, twin)
    assert [len(pairs) for _, pairs in sweeps] == [2, 3, 2, 3]
    assert (report.actual_error, report.bound_value) == (
        twin_report.actual_error, twin_report.bound_value
    )
    assert report.constants["best_approx_error"] == twin_report.constants["orthogonal_part"]
    assert own.keys() == other.keys()
    assert all(np.array_equal(own[k], other[k]) for k in own)


def _counting_checks(monkeypatch):
    """Count check_orthonormal calls under every name a module imported it by."""
    owners = [m for m in list(vars(rdeim).values()) if hasattr(m, "check_orthonormal")]
    return _counting(monkeypatch, "check_orthonormal", _util, *set(owners) - {_util})


@pytest.mark.parametrize("selector", ["greedy", "pqr", "srrqr", "leverage", "hybrid"])
def test_select_checks_the_basis_once(monkeypatch, tmp_path, selector):
    basis = tmp_path / "w.rdmx"
    write_matrix(basis, random_orthonormal(60, 5, seed=1))
    checks = _counting_checks(monkeypatch)
    argv = ["select", "--basis-file", str(basis), "--select", selector]
    assert main(argv + ["--out", str(tmp_path / "p.csv")]) == 0
    assert len(checks) == 1


@pytest.mark.parametrize("selector", ["greedy", "pqr", "srrqr", "leverage", "hybrid"])
@pytest.mark.parametrize(
    "basis, built", [("svd", 1), ("basic", 1), ("subspace", 1), ("adaptive", 1)]
)
def test_run_experiment_checks_each_basis_once(monkeypatch, basis, built, selector):
    # one OrthonormalBasis per run: the adaptive finder truncates its grown
    # basis before constructing it. A bounded run on a cold memo adds the
    # reference (an svd basis is its own); on a warm one the reference, and
    # an svd basis, are the ones held with the set. The sweep's canonical
    # angles use the projector's basis unchecked.
    reference = basis != "svd"
    checks = _counting_checks(monkeypatch)
    bases = _counting(monkeypatch, "__post_init__", OrthonormalBasis)
    for with_bounds, cold, expected in (
        (False, True, built), (True, True, built + reference), (True, False, built * reference)
    ):
        if cold:
            monkeypatch.setattr(experiments, "_last_set", None)
        del checks[:], bases[:]
        spec = ExperimentSpec(
            example="corner", rank=5, basis=basis, selector=selector, oversample=5,
            block=4, max_blocks=8, overrides={"grid": 10, "param_grid": 5},
            with_bounds=with_bounds,
        )
        table = run_experiment(spec)
        # the adaptive basis grows in blocks of 4, so rank 5 means it was truncated
        assert table.summary["basis_rank"] == 5.0
        assert len(bases) == expected
        assert len(checks) == expected


@pytest.mark.parametrize("selector", ["leverage", "hybrid"])
def test_sampled_selection_at_rank_one_asks_for_samples(selector):
    spec = dict(example="osc", rank=1, selector=selector)
    with pytest.raises(ValueError, match="samples="):
        run_experiment(ExperimentSpec(**spec))
    table = run_experiment(ExperimentSpec(**spec, samples=5))
    assert table.summary["basis_rank"] == 1.0


def test_error_sweep_checks_a_raw_reference_once(monkeypatch):
    A, _ = gap_matrix(80, 30, rank=5, gamma=0.1, seed=2)
    snaps = SnapshotSet(matrix=A, params=np.arange(30)[:, None], space={})
    W = svd_basis(A, 5)
    P = build_projector(W, deim_greedy_select(W))
    W_ref = np.array(W.matrix)
    checks = _counting_checks(monkeypatch)
    raw = error_sweep(P, snaps, reference_basis=W_ref)
    assert sum(args[0] is W_ref for args in checks) == 1
    assert raw.rows == error_sweep(P, snaps, reference_basis=W).rows


def test_perturbed_basis_bound_checks_a_raw_reference_once(monkeypatch):
    A, _ = gap_matrix(80, 30, rank=5, gamma=0.1, seed=2)
    W = svd_basis(A, 5)
    P = build_projector(W, deim_greedy_select(W))
    W_ref = np.array(W.matrix)
    checks = _counting_checks(monkeypatch)
    report = perturbed_basis_bound(P, W_ref, A[:, 3])
    assert sum(args[0] is W_ref for args in checks) == 1
    assert report == perturbed_basis_bound(P, W, A[:, 3])


def test_run_experiment_deterministic(tmp_path):
    spec = ExperimentSpec(
        example="corner",
        rank=6,
        basis="subspace",
        selector="hybrid",
        oversample=5,
        power=1,
        samples=20,
        with_bounds=True,
        overrides={"grid": 12, "param_grid": 6},
    )
    t1 = run_experiment(spec)
    t2 = run_experiment(spec)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_csv(t1, p1)
    emit_csv(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert t1.summary["basis_rank"] == 6.0
    assert t1.summary["points"] == 6.0
    assert "basis_sin_theta_max" in t1.summary
    assert t1.summary["rel_error_mean"] < 0.1


def test_run_experiment_source_sweeps_test_set():
    spec = ExperimentSpec(
        example="source",
        rank=8,
        n_test=5,
        overrides={"n_grid": 10, "n_train": 30},
    )
    table = run_experiment(spec)
    assert len(table.rows) == 5
    assert table.summary["points"] == 8.0


def test_run_experiment_source_defaults_to_scale_test_count():
    # n_test=None takes the desk scale's 50 held-out parameters; 0 sweeps
    # the 30 training columns
    tiny = {"n_grid": 10, "n_train": 30}
    held_out = run_experiment(ExperimentSpec(example="source", rank=8, overrides=tiny))
    assert len(held_out.rows) == SCALES["source"]["desk"]["n_test"] == 50
    train = run_experiment(ExperimentSpec(example="source", rank=8, n_test=0, overrides=tiny))
    assert len(train.rows) == 30


# ----------------------------------------------------------------- bench


def test_bench_basis_structure():
    A, _ = gap_matrix(120, 60, rank=10, gamma=0.3, seed=0)
    table = bench_basis(A, rank=10, oversample=8, trials=2)
    assert [r[0] for r in table.rows] == ["exact-svd", "randomized"]
    for row in table.rows:
        assert row[1] == 120 and row[2] == 60 and row[3] == 10
        assert row[4] > 0.0
        assert 0.0 <= row[5] <= 1.0
    # the exact factorization gives the optimal Frobenius residual
    assert table.rows[0][5] <= table.rows[1][5] + 1e-12
    assert table.summary["speedup"] > 0.0


def test_bench_basis_validation():
    A = np.eye(10)
    with pytest.raises(ValueError):
        bench_basis(A, rank=2, trials=0)


# ------------------------------------------------------- BLAS threads

_PICKED_POINTS = """
import json, sys
import rdeim.experiments as ex

picked = []
real = ex.build_projector


def recording(W, S):
    picked.append(S.indices.tolist())
    return real(W, S)


ex.build_projector = recording
for kw in json.loads(sys.argv[1]):
    ex.run_experiment(ex.ExperimentSpec(**kw))
print(json.dumps(picked))
"""


def test_selected_points_do_not_depend_on_blas_threads():
    # bit-for-bit results hold per (seed, BLAS build, thread count): the
    # floats may move in the last bits between thread counts, and so may
    # the points where pivots tie to within those bits, as on corner's
    # exactly paired singular values. These configs have no such tie, so
    # their points must not move
    configs = [
        dict(example="source", rank=12, basis="subspace", selector="srrqr", seed=3, with_bounds=True),
        dict(example="corner", rank=10, basis="adaptive", selector="greedy", seed=3, with_bounds=True),
        dict(example="osc", rank=8, basis="basic", selector="hybrid", seed=3),
    ]
    src = str(Path(rdeim.__file__).resolve().parents[1])
    picked = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _PICKED_POINTS, json.dumps(configs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        picked[threads] = json.loads(proc.stdout)
    assert len(picked["1"]) == len(configs)
    assert picked["1"] == picked["2"]
