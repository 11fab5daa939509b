"""File formats: the RDMXMAT1 binary matrix container and CSV result tables.

RDMXMAT1 layout: 8-byte magic b"RDMXMAT1", then rows and cols as unsigned
64-bit little-endian integers, then rows*cols float64 little-endian values
in column-major order. Round-trips are bit-exact.
"""

import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from ._util import as_matrix

MAGIC = b"RDMXMAT1"
HEADER_BYTES = 24


def write_matrix(path, A):
    """Write a dense matrix to an RDMXMAT1 file.

    The column-major payload is A' in row-major order, written from one
    buffer: a Fortran-ordered A is written as it is, any other is copied
    once.
    """
    A = as_matrix(A, "A")
    rows, cols = A.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(np.ascontiguousarray(A.T, dtype="<f8"))


def read_matrix(path):
    """Read an RDMXMAT1 file back into an ndarray.

    The payload is read by one readinto straight into the final array, a
    Fortran-ordered float64 matrix, which is then checked for finiteness;
    the file is neither re-read nor copied. A regular file's size is
    checked against the header before anything is allocated, so a header
    that claims more than the file holds costs no allocation; a pipe is
    read to its end and checked by the byte count.

    Raises ValueError naming the path on a bad magic, a truncated header,
    a payload of another size than the header gives, or non-finite
    entries.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head != MAGIC:
            raise ValueError(f"{path}: not an RDMXMAT1 file (magic {head!r})")
        dims = fh.read(16)
        if len(dims) != 16:
            raise ValueError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", dims)
        expected = 8 * rows * cols

        def wrong_size(held):
            return ValueError(
                f"{path}: payload holds {held} bytes, expected {expected} "
                f"for a {rows} x {cols} matrix"
            )

        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size - HEADER_BYTES != expected:
            raise wrong_size(info.st_size - HEADER_BYTES)
        try:
            data = np.empty((cols, rows), dtype="<f8")
        except (MemoryError, ValueError) as err:
            raise ValueError(f"{path}: no room for a {rows} x {cols} matrix ({err})") from err
        held = fh.readinto(data)
        if held != expected:
            raise wrong_size(held)
        if fh.read(1):
            raise wrong_size(f"more than {expected}")
    return as_matrix(data.T, f"{path}: matrix")


@dataclass
class ResultTable:
    """Column-named result rows plus scalar summary statistics."""

    columns: tuple
    rows: list
    summary: dict = field(default_factory=dict)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(table, path):
    """Write a ResultTable as CSV with a header row.

    Floats are rendered with shortest round-trip repr, so identical tables
    produce identical bytes.
    """
    lines = [",".join(table.columns)]
    for row in table.rows:
        if len(row) != len(table.columns):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(table.columns)}"
            )
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
