import os
import re
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdeim.matio import MAGIC, ResultTable, emit_csv, read_matrix, write_matrix

from conftest import random_matrix


def test_round_trip_bit_exact(tmp_path):
    A = random_matrix(17, 9, seed=0)
    A[3, 4] = -0.1 + 0.2  # a value with no short decimal form
    A[0, 0] = 5e-324  # subnormal
    path = tmp_path / "a.rdmx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert B.shape == A.shape
    assert np.array_equal(A, B)
    assert A.tobytes() == B.tobytes()


def test_file_layout_is_column_major(tmp_path):
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "a.rdmx"
    write_matrix(path, A)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert struct.unpack("<QQ", raw[8:24]) == (2, 3)
    payload = np.frombuffer(raw[24:], dtype="<f8")
    assert np.array_equal(payload, np.array([1.0, 4.0, 2.0, 5.0, 3.0, 6.0]))


def test_write_accepts_row_major_input(tmp_path):
    A = np.ascontiguousarray(random_matrix(6, 4, seed=1))
    path = tmp_path / "c.rdmx"
    write_matrix(path, A)
    assert np.array_equal(read_matrix(path), A)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_write_copies_the_payload_at_most_once(tmp_path, layout):
    A = random_matrix(400, 60, seed=2)
    reference = tmp_path / "reference.rdmx"
    write_matrix(reference, A)
    B = {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A)}.get(layout)
    if B is None:
        B = np.repeat(A, 2, axis=1)[:, ::2]
    path = tmp_path / f"{layout}.rdmx"
    tracemalloc.start()
    try:
        write_matrix(path, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == reference.read_bytes()
    # a Fortran-ordered matrix is written as it is, any other from one copy
    assert peak < (0.5 if layout == "F" else 1.5) * A.nbytes


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rdmx"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad.rdmx"):
        read_matrix(path)


def test_read_rejects_truncated_header(tmp_path):
    path = tmp_path / "trunc.rdmx"
    path.write_bytes(MAGIC + b"\x00" * 8)
    with pytest.raises(ValueError, match="truncated"):
        read_matrix(path)


def test_read_rejects_short_payload(tmp_path):
    path = tmp_path / "short.rdmx"
    A = random_matrix(4, 4, seed=2)
    write_matrix(path, A)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="short.rdmx: payload holds 120 bytes, expected 128"):
        read_matrix(path)


def test_read_rejects_overlong_payload(tmp_path):
    path = tmp_path / "long.rdmx"
    write_matrix(path, random_matrix(4, 4, seed=2))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="long.rdmx: payload holds 136 bytes, expected 128"):
        read_matrix(path)


def test_read_rejects_a_lying_header_before_allocating(tmp_path):
    # 2^31 x 2^31 doubles would be 2^65 bytes; the file holds 16 after the header
    path = tmp_path / "huge.rdmx"
    path.write_bytes(MAGIC + struct.pack("<QQ", 2**31, 2**31) + b"\x00" * 16)
    assert path.stat().st_size == 40
    with pytest.raises(ValueError, match="huge.rdmx: payload holds 16 bytes"):
        read_matrix(path)


def _through_fifo(tmp_path, data):
    """A named pipe in tmp_path that a thread fills with data, and the thread."""
    path = tmp_path / "pipe.rdmx"
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:  # the reader may stop early
                pass

    writer = threading.Thread(target=feed)
    writer.start()
    return path, writer


def test_pipe_round_trip_bit_exact(tmp_path):
    A = random_matrix(300, 7, seed=3)  # past one pipe buffer of 64 KB
    path = tmp_path / "a.rdmx"
    write_matrix(path, A)
    pipe, writer = _through_fifo(tmp_path, path.read_bytes())
    B = read_matrix(pipe)
    writer.join()
    assert A.tobytes() == np.ascontiguousarray(B).tobytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data[:-8], "payload holds 120 bytes, expected 128"),
        (lambda data: data + b"\x00", "payload holds more than 128 bytes"),
        (lambda data: data[:8] + struct.pack("<QQ", 2**31, 2**31) + data[24:], "no room for"),
    ],
)
def test_pipe_of_the_wrong_size_is_rejected(tmp_path, edit, message):
    path = tmp_path / "a.rdmx"
    write_matrix(path, random_matrix(4, 4, seed=2))
    pipe, writer = _through_fifo(tmp_path, edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"pipe.rdmx: {message}"):
        read_matrix(pipe)
    writer.join()


@st.composite
def _matrix_files(draw):
    """The bytes of an RDMXMAT1 file and the matrix they hold, or None
    where an edit spoiled them: a truncation anywhere, trailing bytes, or
    one payload entry turned into an infinity or a NaN of any sign and
    payload."""
    shape = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    A = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    data = MAGIC + struct.pack("<QQ", *shape) + A.T.astype("<f8").tobytes()
    edit = draw(st.sampled_from(["none", "truncate", "trail", "nonfinite"]))
    if edit == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))], None
    if edit == "trail":
        return data + draw(st.binary(min_size=1, max_size=24)), None
    if edit == "nonfinite" and A.size:
        # every exponent bit set: the mantissa 0 is an infinity, any other a NaN
        bits = draw(st.sampled_from([0, 1 << 63])) | (0x7FF << 52) | draw(st.integers(0, (1 << 52) - 1))
        at = 24 + 8 * draw(st.integers(0, A.size - 1))
        return data[:at] + struct.pack("<Q", bits) + data[at + 8 :], None
    return data, A


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrix_files())
def test_read_matrix_round_trips_a_good_file_and_names_the_path_of_a_bad_one(case):
    # through a pipe and as a regular file: a bad file raises a ValueError
    # naming its path, a good one comes back bit for bit. The pipe is read
    # first, so that its writer is never left waiting for a reader
    data, A = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.rdmx"
        path.write_bytes(data)
        pipe, writer = _through_fifo(Path(tmp), data)
        try:
            for source in (pipe, path):
                if A is None:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(source))}: "):
                        read_matrix(source)
                else:
                    B = read_matrix(source)
                    assert B.shape == A.shape and B.flags.f_contiguous
                    assert B.tobytes() == A.tobytes()
        finally:
            writer.join()


def test_read_returns_fortran_ordered_float64(tmp_path):
    path = tmp_path / "f.rdmx"
    write_matrix(path, random_matrix(5, 3, seed=4))
    B = read_matrix(path)
    assert B.dtype == np.float64 and B.flags.f_contiguous and B.flags.writeable


def test_read_rejects_nonfinite(tmp_path):
    path = tmp_path / "nan.rdmx"
    payload = struct.pack("<dd", 1.0, float("nan"))
    path.write_bytes(MAGIC + struct.pack("<QQ", 2, 1) + payload)
    with pytest.raises(ValueError, match="non-finite"):
        read_matrix(path)


def test_emit_csv_deterministic(tmp_path):
    table = ResultTable(
        columns=("k", "value"),
        rows=[(0, 0.1), (1, 1.0 / 3.0), (2, 2)],
        summary={},
    )
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    emit_csv(table, p1)
    emit_csv(table, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k,value"
    assert lines[1] == "0,0.1"
    assert lines[3] == "2,2"
    # shortest repr round-trips exactly
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


def test_emit_csv_rejects_ragged_rows(tmp_path):
    table = ResultTable(columns=("a", "b"), rows=[(1, 2), (3,)])
    with pytest.raises(ValueError):
        emit_csv(table, tmp_path / "bad.csv")
