"""Input validation helpers shared across modules, and the OrthonormalBasis
type that carries a passed orthonormality check."""

import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import OverflowingProductError

# rows of a large matrix a streaming loop takes at a time:
# linalg.column_residuals reads them for every per-column residual (the
# error sweep, its bounds, the adaptive range finder's explicit residual
# and bench_basis), the oscillator generator fills them in place (through
# fill_in_parts), as_matrix checks them for finiteness, and the range
# finders cut their products with A into parts at its multiples
SWEEP_BLOCK = 64


def usable_cpus():
    """The number of CPUs the process may run on: its affinity mask, or
    the machine's count where the platform has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas_get_num_threads():
    """The get_num_threads function of the OpenBLAS that numpy's wheel
    bundles, or None where there is none to find (numpy linked to a
    system BLAS, MKL or Accelerate). Loading the library numpy has loaded
    returns that same library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = ()
                return fn
    return None


def blas_threads():
    """The thread count numpy's OpenBLAS runs a call on, read on every
    call, so that a change made at run time is seen; None where it cannot
    be read."""
    fn = _openblas_get_num_threads()
    return None if fn is None else fn()


def fill_in_parts(fill, n_blocks, scratch=tuple, parts=None):
    """Call fill(lo, hi, *scratch()) over contiguous parts [lo, hi) of
    range(n_blocks): parts of them (by default one per CPU the process may
    run on), and at most one per block.

    The snapshot generators fill their matrix through this, one
    independent row block at a time, with elementwise ufuncs that release
    the GIL, so the parts run at once; the range finders form their
    products with A in line blocks through it, with one BLAS call a part.
    The first part runs on the calling thread and the others on worker
    threads, each under the calling thread's np.errstate; scratch is
    called here, once per part, so a part's buffers are not allocated on a
    worker. fill may call BLAS: each worker thread that does holds its own
    OpenBLAS buffers, which moved the peak RSS of the paper-scale
    benchmark workload (sweep-paper, 195 MB) by -0.7 to +2.1 MB, +0.5 MB
    in the median of 10 runs. It must not call a traced library function
    (the benchmark's span stack is one per process).
    Every thread is joined before this returns or raises, and the first
    exception a part raised is raised again here.
    """
    n_parts = max(1, min(usable_cpus() if parts is None else parts, n_blocks))
    cuts = [n_blocks * k // n_parts for k in range(n_parts + 1)]
    args = [(cuts[k], cuts[k + 1], *scratch()) for k in range(n_parts)]
    errors = []
    errstate = np.geterr()

    def run(part):
        try:
            with np.errstate(**errstate):
                fill(*part)
        except BaseException as err:  # raised again on the calling thread
            errors.append(err)

    workers = []
    try:
        for part in args[1:]:
            worker = threading.Thread(target=run, args=(part,))
            worker.start()
            workers.append(worker)
        run(args[0])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


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
    OverflowingProductError names it (what), and A by name and shape.
    """
    if not np.isfinite(product).all():
        as_matrix(A, name)
        raise OverflowingProductError(f"{what} overflowed on a finite {name} {A.shape}")
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


def as_singular_values(sv, name="sv"):
    """Coerce to a 1-d float64 array of singular values: finite,
    nonnegative and nonincreasing, up to 1e-12 of the largest. The one
    check of every function that takes a spectrum."""
    sv = as_vector(sv, name)
    if not (sv >= 0.0).all():
        raise ValueError("singular values must be nonnegative")
    if sv.size and not (np.diff(sv) <= 1e-12 * sv[0]).all():
        raise ValueError("singular values must be sorted nonincreasing")
    return sv


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
    names the basis in the error message.
    """

    matrix: np.ndarray
    provenance: str

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
