"""Input validation helpers shared across modules, and the OrthonormalBasis
type that carries a passed orthonormality check."""

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import OverflowingProductError

# rows of a large matrix a streaming loop takes at a time:
# linalg.column_residuals reads them for every per-column residual (the
# error sweep, its bounds, the adaptive range finder's explicit residual
# and bench_basis), the oscillator generator fills them in place, and
# _over_lines cuts the range finders' products with A into parts at its
# multiples; a blocked pass of block_lines takes at least this many lines
SWEEP_BLOCK = 64

# a pass over A is made in parts only where each part holds at least this
# many of A's entries and this many of its lines (see _part_count)
PART_ENTRIES = 1 << 20
PART_LINES = 4 * SWEEP_BLOCK

# a pass in fixed blocks is made in parts only where each part does at
# least this many multiply-adds (see _work_parts)
PART_WORK = 1 << 23


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

    Only this module calls it (a CI step checks that): _over_lines, which
    forms one product per part, and in_blocks, which every pass in fixed
    blocks runs through. Elementwise ufuncs and BLAS calls release the
    GIL, so the parts run at once. A part whose CPU another process holds
    delays the pass by its whole share.
    The first part runs on the calling thread and the others on worker
    threads, each under the calling thread's np.errstate, so one part is
    one call of fill on the calling thread and starts no thread; scratch
    is called here, once per part, so a part's buffers are not allocated
    on a worker. fill may call BLAS: each worker thread that does holds
    its own OpenBLAS buffer, and what a worker allocates comes from its
    own malloc arena, which keeps it after the thread ends; both count
    toward the process's RSS (measured in CHANGES, "The range finders split
    their products with A" and "Row-major pivot search"). fill must not
    call a traced library function (the benchmark's span stack is one per
    process).
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


def in_blocks(fill, n, step, scratch=tuple, parts=None):
    """Call fill(lo, hi, *buffers) once for each block [lo, hi) =
    [k step, min(n, (k + 1) step)) of range(n), through fill_in_parts: the
    blocks in parts (by default one per usable CPU), each part with the
    buffers of its own scratch() call, so no worker allocates them.

    Every pass in fixed blocks runs through this: a snapshot generator
    fills a block of rows, a BLAS pass forms a block's product, in
    _part_count or _work_parts parts. The blocks follow from n and step
    alone, so the part count never enters the bits.
    """

    def run(lo, hi, *buffers):
        for k in range(lo, hi):
            fill(k * step, min(n, (k + 1) * step), *buffers)

    fill_in_parts(run, -(-n // step), scratch, parts)


def _cpu_parts(most):
    """most parts, but at most one per usable CPU, where numpy's OpenBLAS
    runs one thread; 1, the one BLAS call, where it runs more or the count
    cannot be read (on two BLAS threads, parts changed bits and were no
    faster)."""
    if most < 2 or blas_threads() != 1:
        return 1
    return min(usable_cpus(), most)


def _part_count(A, lines):
    """How many parts a pass over A is made in, split over A's lines
    (rows for A X and the residual sweep, columns for A' Q and X A): by
    _cpu_parts, each part holding at least PART_ENTRIES of A's entries and
    PART_LINES lines.

    Measured on numpy's OpenBLAS 0.3.31 (SkylakeX kernels) on one thread,
    the parts kept the bits of the one call on the paper matrices and on
    random shapes with any n mod 64, n_s mod 8 and width. The floors keep
    every part in the regime the one call is in: without them, small
    parts (below about 10^6 multiply-adds) took OpenBLAS's small-matrix
    kernels, and a last part of A X with 192 rows or fewer took another
    path for its last n mod 8 rows; both changed those rows' last bits.
    Split over A's columns with no floor, Q'A changed bits in 19 of 200
    random shapes, desk corner's last column among them.
    """
    return _cpu_parts(min(A.size // PART_ENTRIES, lines // PART_LINES))


def _work_parts(work):
    """How many parts a pass in fixed blocks (in_blocks) doing work
    multiply-adds is made in: by _cpu_parts, each part doing at least
    PART_WORK. The floor keeps a part's work above what starting and
    joining its thread costs; the measurements that set it and show that
    the parts still pay are in CHANGES ("Parts re-measured at every part
    site")."""
    return _cpu_parts(work // PART_WORK)


def _over_lines(form, A, lines):
    """form(lo, hi) over _part_count(A, lines) contiguous runs [lo, hi) of
    range(lines), cut at multiples of SWEEP_BLOCK, through fill_in_parts;
    the short tail of the lines joins the last block. At one part, fewer
    than SWEEP_BLOCK lines included, this is the one call form(0, lines),
    made on the calling thread."""
    blocks = lines // SWEEP_BLOCK

    def fill(lo, hi):
        form(lo * SWEEP_BLOCK, lines if hi == blocks else hi * SWEEP_BLOCK)

    fill_in_parts(fill, blocks, parts=_part_count(A, lines))


# the entries of a block of block_lines, and of the pivot search's pool of
# leading columns or a block of the columns it recomputes (linalg._pivot_order)
FINITE_BLOCK = 1 << 16


def block_lines(width):
    """SWEEP_BLOCK lines of width entries, or more when they are short, up
    to FINITE_BLOCK entries: the block of as_matrix's finiteness check (a
    64 KB bool buffer, which stays in cache) and of the products with
    blocks of M's columns, srrqr's X @ M and the pivot search's updates
    Q'M (512 KB of float64, which keeps the products few)."""
    return max(SWEEP_BLOCK, FINITE_BLOCK // width)


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

    product is formed from A, a matrix or a vector (under np.errstate, so
    that a non-finite entry warns nothing), such that a NaN or an infinity
    in A leaves an entry of it non-finite. If one is, A's block check
    (as_matrix) runs and raises its "contains non-finite entries"
    ValueError, named by name; if A is finite, the product overflowed, and
    OverflowingProductError names it (what), and A by name and shape. The
    product is checked as as_matrix checks a matrix, a block of lines at a
    time, so no bool temporary of its size is formed.
    """
    try:
        as_matrix(product, what)
    except ValueError:
        as_matrix(A if A.ndim == 2 else A[:, None], name)
        raise OverflowingProductError(f"{what} overflowed on a finite {name} {A.shape}") from None
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
        step = block_lines(lines.shape[1])
        buf = np.empty((min(step, lines.shape[0]), lines.shape[1]), dtype=bool)
        for lo in range(0, lines.shape[0], step):
            block = lines[lo : lo + step]
            if not np.isfinite(block, out=buf[: block.shape[0]]).all():
                raise ValueError(f"{name} contains non-finite entries")
    return m


def _unit_scaled(A):
    """A copy of a finite A scaled by an exact power of two to max|a_ij|
    in [1/2, 1), so that neither its products nor its squared norms
    overflow or underflow at its largest entries; the library's one
    rescale, used by the range finders and the pivot search
    (linalg._pivot_order)."""
    if not A.any():
        raise ValueError("A is identically zero; no basis to find")
    return np.ldexp(A, -math.frexp(max(A.max(), -A.min()))[1])


def as_singular_values(sv, name="sv"):
    """Coerce to a 1-d float64 array of singular values: finite,
    nonnegative and nonincreasing, up to 1e-12 of the largest. The one
    check of every function that takes a spectrum."""
    sv = np.asarray(sv, dtype=np.float64)
    if sv.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={sv.ndim}")
    if sv.size and not np.isfinite(sv).all():
        raise ValueError(f"{name} contains non-finite entries")
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
        err = np.max(np.abs(_gram(W) - np.eye(W.shape[1])))
    if not err <= 1e-8:
        as_matrix(W, name)
        raise ValueError(f"{name} columns are not orthonormal (deviation {err:.3e} > 1e-8)")
    return W


def _gram(W):
    """W'W; for a W of at least 2 PART_WORK multiply-adds, the sum of the
    Grams of its two row halves, formed in _work_parts parts (in_blocks).
    The value decides the 1e-8 test of check_orthonormal and enters the
    adaptive range finder's residual check only within its rounding
    margin (rangefinder._gram_residual)."""
    n, r = W.shape
    work = n * r * r
    halves = 2 if work >= 2 * PART_WORK else 1
    step = -(-n // halves)
    grams = np.empty((halves, r, r))

    def fill(lo, hi):
        rows = W[lo:hi]
        np.matmul(rows.T, rows, out=grams[lo // step])

    in_blocks(fill, n, step, parts=_work_parts(work))
    return grams.sum(axis=0)


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


def check_count(value, low, name, high=None):
    """value as an int, if it is an integer (not a bool) of at least low and,
    where high is given, at most high; otherwise a ValueError naming it.
    The one check of every count the library takes: none is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return int(check_at_least(value, low, name))


def check_open_unit(value, name):
    """value, if it lies strictly inside (0, 1); otherwise (nan included) a
    ValueError naming it."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return value

