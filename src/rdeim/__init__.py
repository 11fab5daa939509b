"""Randomized discrete empirical interpolation.

Reduced bases from randomized range finders, interpolation points from
deterministic pivoting or leverage-score sampling, the oblique projector
that ties them together, and evaluators for the associated error bounds.
"""

from .exceptions import (
    AdaptiveRangeError,
    ConvergenceError,
    DegenerateBasisError,
    DegenerateSelectionError,
    OverflowingProductError,
    RankDeficiencyError,
    RdeimError,
    SpectralGapError,
)
from .linalg import (
    CanonicalAngles,
    SRRQRFactors,
    ThinSVD,
    canonical_angles,
    column_residuals,
    spectral_norm,
    srrqr,
    thin_qr,
    thin_svd,
)
from .rangefinder import (
    OrthonormalBasis,
    SketchState,
    adaptive_range_finder,
    gaussian_matrix,
    sketch_absorb,
    sketch_init,
    sketch_replace,
    subspace_range_finder,
    svd_basis,
    truncation_rank,
)
from .selection import (
    SelectionOperator,
    deim_greedy_select,
    hybrid_select,
    leverage_scores,
    leverage_select,
    mixed_pmf,
    pqr_select,
    practical_sample_count,
    sample_count_bound,
    srrqr_select,
)
from .projector import DeimProjector, build_projector, check_full_rank
from .bounds import (
    BoundReport,
    angle_bound_constant,
    column_bounds,
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
from .experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    SnapshotSet,
    bench_basis,
    corner_peak_snapshots,
    error_sweep,
    gaussian_source_snapshots,
    latin_hypercube,
    oscillator_snapshots,
    run_experiment,
    source_test_points,
)
from .matio import ResultTable, emit_csv, read_matrix, write_matrix

__version__ = "0.1.0"
