"""Input validation helpers shared across modules, and the OrthonormalBasis
type that carries a passed orthonormality check."""

from dataclasses import dataclass

import numpy as np

# rows of a large matrix a streaming loop takes at a time:
# linalg.column_residuals reads them for every per-column residual (the
# error sweep, its bounds, the adaptive range finder's explicit residual
# and bench_basis), and the oscillator generator fills them in place
SWEEP_BLOCK = 64


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name="vector"):
    """Coerce to a 1-d float64 array with finite entries."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_orthonormal(W, name="basis"):
    """Require W to have finite entries and orthonormal columns: every
    entry of W'W - I within 1e-8.

    The library's one orthonormality check, at its one tolerance. It runs
    when an OrthonormalBasis is constructed, and nowhere else.
    """
    W = as_matrix(W, name)
    if W.shape[1] == 0:
        raise ValueError(f"{name} has no columns ({W.shape[0]} x 0)")
    if W.shape[0] < W.shape[1]:
        raise ValueError(f"{name} has more columns than rows ({W.shape})")
    gram = W.T @ W
    err = np.max(np.abs(gram - np.eye(W.shape[1])))
    if err > 1e-8:
        raise ValueError(f"{name} columns are not orthonormal (deviation {err:.3e} > 1e-8)")
    return W


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal columns with a record of how they were built.

    The constructor runs check_orthonormal, so a non-finite entry or a
    Gram deviation above 1e-8 is rejected, and every consumer that takes
    an OrthonormalBasis uses .matrix without checking it again. .matrix
    must therefore not be changed in place.

    provenance is 'exact-svd', 'subspace-iteration' or 'adaptive' for a
    basis the library built (``--basis basic`` is subspace iteration at
    power 0), or the path of the file the columns were read from; it also
    names the basis in the error message. config is a dict of the
    arguments the basis was built with.
    """

    matrix: np.ndarray
    provenance: str
    config: dict = None

    def __post_init__(self):
        W = check_orthonormal(self.matrix, name=f"{self.provenance} basis")
        object.__setattr__(self, "matrix", W)

    @property
    def rank(self):
        return self.matrix.shape[1]


def orthonormal_basis(W, provenance):
    """W as an OrthonormalBasis: as is if it is one; a raw array is checked
    here, once, and named by provenance. Every function that takes a basis
    as either reads it through this, so its .matrix is checked."""
    return W if isinstance(W, OrthonormalBasis) else OrthonormalBasis(W, provenance)


def check_at_least(value, low, name):
    """value, if it is at least low; otherwise (nan included) a ValueError
    naming it. The one wording of every lower-limit check on an option."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def check_open_unit(value, name):
    """value, if it lies strictly inside (0, 1); otherwise (nan included) a
    ValueError naming it."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)
