"""Every count a library function takes is read through _util.check_count:
a float, an integral one included, or a bool is rejected with a ValueError
naming the count, never truncated and never passed on to numpy; a numpy
integer is a count; and a count with an upper limit names its range."""

import re

import numpy as np
import pytest

from rdeim.bounds import (
    angle_bound_constant,
    deviation_constant,
    expected_angle_bound,
    hybrid_constant,
    leverage_constant,
    rsvd_expected_error,
    srrqr_constant,
    wedin_angle_bound,
)
from rdeim.experiments import (
    bench_basis,
    corner_peak_snapshots,
    gaussian_source_snapshots,
    latin_hypercube,
    oscillator_snapshots,
    source_test_points,
)
from rdeim.linalg import srrqr, thin_svd
from rdeim.rangefinder import (
    adaptive_range_finder,
    gaussian_matrix,
    sketch_init,
    subspace_range_finder,
    svd_basis,
)
from rdeim.selection import (
    SelectionOperator,
    hybrid_select,
    leverage_select,
    mixed_pmf,
    practical_sample_count,
    sample_count_bound,
)

from conftest import random_matrix, random_orthonormal

A = random_matrix(30, 20, seed=0)
LOW_RANK = random_matrix(30, 3, seed=1) @ random_matrix(3, 20, seed=2)
W = random_orthonormal(30, 3, seed=3)
SV = np.linspace(10.0, 1.0, 20)
SOURCE = gaussian_source_snapshots(n_grid=4, n_train=5, seed=0)

# (call of one count, the count's name, a valid value, its upper limit or None)
COUNTS = {
    "thin_svd-rank": (lambda v: thin_svd(A, v), "rank", 3, 20),
    "srrqr-rank": (lambda v: srrqr(A.T, v), "rank", 3, 20),
    "angle_bound_constant-rank": (lambda v: angle_bound_constant(v, 10, 60), "rank", 5, None),
    "angle_bound_constant-oversample": (
        lambda v: angle_bound_constant(5, v, 60), "oversample", 10, None),
    "angle_bound_constant-n_snapshots": (
        lambda v: angle_bound_constant(5, 10, v), "n_snapshots", 60, None),
    "expected_angle_bound-rank": (lambda v: expected_angle_bound(0.5, v, 10, 1, 60), "rank", 5, None),
    "expected_angle_bound-oversample": (
        lambda v: expected_angle_bound(0.5, 5, v, 1, 60), "oversample", 10, None),
    "expected_angle_bound-power": (lambda v: expected_angle_bound(0.5, 5, 10, v, 60), "power", 2, None),
    "expected_angle_bound-n_snapshots": (
        lambda v: expected_angle_bound(0.5, 5, 10, 1, v), "n_snapshots", 60, None),
    "wedin_angle_bound-rank": (lambda v: wedin_angle_bound(A, A, v), "rank", 3, 20),
    "srrqr_constant-rank": (lambda v: srrqr_constant(2.0, v, 100), "rank", 10, 100),
    "srrqr_constant-n": (lambda v: srrqr_constant(2.0, 10, v), "n", 100, None),
    "leverage_constant-n": (lambda v: leverage_constant(v, 30, 0.5, 0.9), "n", 100, None),
    "leverage_constant-samples": (lambda v: leverage_constant(100, v, 0.5, 0.9), "samples", 30, None),
    "hybrid_constant-n": (lambda v: hybrid_constant(v, 30, 0.5, 0.9, 2.0, 5), "n", 100, None),
    "hybrid_constant-samples": (
        lambda v: hybrid_constant(100, v, 0.5, 0.9, 2.0, 5), "samples", 30, None),
    "hybrid_constant-rank": (lambda v: hybrid_constant(100, 30, 0.5, 0.9, 2.0, v), "rank", 5, 30),
    "deviation_constant-rank": (lambda v: deviation_constant(v, 10, 0.05, 60), "rank", 10, 60),
    "deviation_constant-oversample": (
        lambda v: deviation_constant(10, v, 0.05, 60), "oversample", 10, None),
    "deviation_constant-n_snapshots": (
        lambda v: deviation_constant(10, 10, 0.05, v), "n_snapshots", 60, None),
    "rsvd_expected_error-rank": (lambda v: rsvd_expected_error(SV, v, 10), "rank", 5, None),
    "rsvd_expected_error-oversample": (
        lambda v: rsvd_expected_error(SV, 5, v), "oversample", 10, None),
    "mixed_pmf-rank": (lambda v: mixed_pmf(np.full(8, 0.5), v, 0.5), "rank", 4, None),
    "sample_count_bound-rank": (lambda v: sample_count_bound(v, 0.5, 0.9, 0.1), "rank", 5, None),
    "sample_count_bound-n": (
        lambda v: sample_count_bound(5, 0.5, 0.9, 0.1, n=v), "n", 1000, None),
    "practical_sample_count-rank": (lambda v: practical_sample_count(v), "rank", 5, None),
    "leverage_select-samples": (lambda v: leverage_select(W, v, 0.5, 0), "samples", 10, None),
    "hybrid_select-c_ls": (lambda v: hybrid_select(W, v, 0.5, seed=0), "c_ls", 10, None),
    "SelectionOperator-n": (
        lambda v: SelectionOperator(indices=[0, 1], weights=[1.0, 1.0], n=v), "n", 5, None),
    "gaussian_matrix-rows": (lambda v: gaussian_matrix(v, 3, 0), "rows", 5, None),
    "gaussian_matrix-cols": (lambda v: gaussian_matrix(5, v, 0), "cols", 3, None),
    "subspace_range_finder-rank": (lambda v: subspace_range_finder(A, v, 2), "rank", 3, None),
    "subspace_range_finder-oversample": (
        lambda v: subspace_range_finder(A, 3, v), "oversample", 2, None),
    "subspace_range_finder-power": (lambda v: subspace_range_finder(A, 3, 2, v), "power", 1, None),
    "adaptive_range_finder-block": (
        lambda v: adaptive_range_finder(LOW_RANK, 0.1, v, 5), "block", 2, None),
    "adaptive_range_finder-max_blocks": (
        lambda v: adaptive_range_finder(LOW_RANK, 0.1, 2, v), "max_blocks", 5, None),
    "adaptive_range_finder-rank": (
        lambda v: adaptive_range_finder(LOW_RANK, 0.1, 2, 5, rank=v), "rank", 2, None),
    "svd_basis-rank": (lambda v: svd_basis(A, v), "rank", 3, 20),
    "sketch_init-n": (lambda v: sketch_init(v, 20, 4, 0), "n", 30, None),
    "sketch_init-n_s": (lambda v: sketch_init(30, v, 4, 0), "n_s", 20, None),
    "sketch_init-ell": (lambda v: sketch_init(30, 20, v, 0), "ell", 4, None),
    "oscillator_snapshots-n_t": (lambda v: oscillator_snapshots(n_t=v, n_mu=3), "n_t", 6, None),
    "oscillator_snapshots-n_mu": (lambda v: oscillator_snapshots(n_t=6, n_mu=v), "n_mu", 3, None),
    "corner_peak_snapshots-grid": (
        lambda v: corner_peak_snapshots(grid=v, param_grid=3), "grid", 4, None),
    "corner_peak_snapshots-param_grid": (
        lambda v: corner_peak_snapshots(grid=4, param_grid=v), "param_grid", 3, None),
    "gaussian_source_snapshots-n_grid": (
        lambda v: gaussian_source_snapshots(n_grid=v, n_train=5), "n_grid", 4, None),
    "gaussian_source_snapshots-n_train": (
        lambda v: gaussian_source_snapshots(n_grid=4, n_train=v), "n_train", 5, None),
    "latin_hypercube-n_samples": (
        lambda v: latin_hypercube(v, [(0.0, 1.0)], 0), "n_samples", 5, None),
    "source_test_points-n_test": (lambda v: source_test_points(SOURCE, v, 0), "n_test", 3, None),
    "bench_basis-rank": (lambda v: bench_basis(A, v, oversample=2, trials=1), "rank", 3, 20),
    "bench_basis-trials": (lambda v: bench_basis(A, 3, oversample=2, trials=v), "trials", 1, None),
}


@pytest.mark.parametrize("call, name, valid, high", COUNTS.values(), ids=COUNTS.keys())
def test_every_count_is_an_integer_in_its_range(call, name, valid, high):
    for value in (4.5, 4.0, True):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {value!r}$"):
            call(value)
    call(np.int64(valid))
    if high is not None:
        with pytest.raises(ValueError, match=rf"^{name} must be in \[1, {high}\], got {high + 1}$"):
            call(high + 1)
