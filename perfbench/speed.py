"""Host speed probe that normalizes the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a quarter within minutes, which moves every raw time with it. A
fixed kernel of plain numpy and Python work, which never calls the
library, is timed right before each timed operation. The operation's
time, divided by the median probe of the operations around it and
multiplied by REFERENCE_S, is its time at the speed the host had when
REFERENCE_S was measured. Since the probe runs no library code, a change
that makes the library slower or faster moves the normalized time as much
as the raw one; a change of host speed moves the probe too and cancels out.
"""

import time

import numpy as np

# about the median probe() on a 2-core x86-64 box at one BLAS thread,
# where it ranged over 0.017-0.027 s with the host's load; a fixed
# constant, so normalized times stay comparable across runs and commits
REFERENCE_S = 0.02

_rng = np.random.default_rng(12345)
# small factorizations and SVDs, a matrix product, fresh arrays filled by
# scattered adds, memory-bound sweeps over a 2.5 MB and a 10 MB matrix and
# some interpreter work: the kinds of work the library's operations are
# made of. Runs of many tiny numpy calls are left out: their time swings
# far more than the library's with the host's load.
_QR = _rng.standard_normal((300, 80))
_WIDE = _rng.standard_normal((24, 2500))
_GEMM = (_rng.standard_normal((1500, 200)), _rng.standard_normal((200, 200)))
_ROWS = _rng.choice(2500, 24, replace=False)
_BLOCK = _rng.standard_normal((24, 24))
_SWEEP = _rng.standard_normal((2000, 160))
_VEC = _rng.standard_normal(160)
_TALL = _rng.standard_normal((10000, 128))


def _kernel():
    for _ in range(2):
        np.linalg.qr(_QR)
    for _ in range(3):
        np.linalg.svd(_WIDE, compute_uv=False)
    _GEMM[0] @ _GEMM[1]
    for _ in range(10):
        full = np.zeros((2500, 24))
        np.add.at(full, _ROWS, _BLOCK)
        full.T @ full
    for _ in range(3):
        _SWEEP @ _VEC
        np.linalg.norm(_SWEEP, axis=0)
    for _ in range(6):
        _TALL @ _VEC[:128]
    total = 0.0
    for i in range(10000):
        total += float(i) * 0.5
    return total


def probe():
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def warm_up():
    for _ in range(5):
        _kernel()
