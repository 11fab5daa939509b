"""Input validation helpers shared across modules, and the OrthonormalBasis
type that carries a passed orthonormality check."""

from dataclasses import dataclass

import numpy as np

from .exceptions import OverflowingProductError

# rows of a large matrix a streaming loop takes at a time:
# linalg.column_residuals reads them for every per-column residual (the
# error sweep, its bounds, the adaptive range finder's explicit residual
# and bench_basis), the oscillator generator fills them in place, and
# as_matrix checks them for finiteness
SWEEP_BLOCK = 64

# as_matrix checks finiteness in blocks of SWEEP_BLOCK lines, or of this
# many entries when those lines hold fewer: a 64 KB bool buffer, which
# stays in cache. linalg.srrqr solves the columns of R12 in blocks by the
# same rule, 512 KB of float64, which keeps the number of solves small
FINITE_BLOCK = 1 << 16


def as_2d(a, name="matrix"):
    """Coerce to a 2-d float64 array, without checking its entries.

    A kernel that takes its input through this tests finiteness on a
    product it forms anyway, with finite_product.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    return m


def finite_product(product, A, name, what):
    """product, if all its entries are finite.

    product is formed from A (under np.errstate, so that a non-finite
    entry warns nothing) such that a NaN or an infinity in A leaves an
    entry of it non-finite. If one is, A's block check (as_matrix) runs
    and raises its "contains non-finite entries" ValueError, named by
    name; if A is finite, the product overflowed, and
    OverflowingProductError names it (what) and its shape.
    """
    if not np.isfinite(product).all():
        as_matrix(A, name)
        raise OverflowingProductError(f"{what} {product.shape} overflowed on a finite {name}")
    return product


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d float64 array with finite entries.

    Finiteness is checked a block of lines at a time through one reused
    bool buffer, lines being rows, or columns of a Fortran-ordered array
    so that each block is read in memory order. A block holds SWEEP_BLOCK
    lines, or more when they are short, up to FINITE_BLOCK entries, so a
    narrow matrix is not checked in many tiny steps; no temporary the
    size of the matrix is formed.
    """
    m = as_2d(a, name)
    if m.size:
        lines = m.T if m.flags.f_contiguous else m
        step = max(SWEEP_BLOCK, FINITE_BLOCK // lines.shape[1])
        buf = np.empty((min(step, lines.shape[0]), lines.shape[1]), dtype=bool)
        for lo in range(0, lines.shape[0], step):
            block = lines[lo : lo + step]
            if not np.isfinite(block, out=buf[: block.shape[0]]).all():
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
    W = as_2d(W, name)
    if W.shape[1] == 0:
        raise ValueError(f"{name} has no columns ({W.shape[0]} x 0)")
    if W.shape[0] < W.shape[1]:
        raise ValueError(f"{name} has more columns than rows ({W.shape})")
    # a NaN or an infinity in W leaves a diagonal entry of W'W, and so
    # err, non-finite; W itself is read only when the check fails, so that
    # a non-finite entry is named as such
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.max(np.abs(W.T @ W - np.eye(W.shape[1])))
    if not err <= 1e-8:
        as_matrix(W, name)
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
