import ctypes
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from rdeim import _util

sys.path.insert(0, str(Path(__file__).parent))


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


def random_orthonormal(n, r, seed):
    Q, _ = np.linalg.qr(random_matrix(n, r, seed))
    return Q


def gap_matrix(n, n_s, rank, gamma, seed, tail="flat"):
    """Synthetic matrix with a controlled spectral gap sigma_{r+1}/sigma_r."""
    rng = np.random.default_rng(seed)
    k = min(n, n_s)
    sv = np.ones(k)
    if tail == "flat":
        sv[rank:] = gamma
    else:
        sv[rank:] = gamma * np.power(0.8, np.arange(k - rank))
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n_s, k)))
    return (U * sv) @ V.T, sv


def spectrum_matrix(n, n_s, sv, seed):
    """Matrix with exactly the prescribed singular values."""
    rng = np.random.default_rng(seed)
    k = min(n, n_s)
    sv = np.asarray(sv, dtype=np.float64)
    assert sv.size == k
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n_s, k)))
    return (U * sv) @ V.T


def patch_cpus(monkeypatch, cpus):
    """Make the process see cpus usable CPUs, as in_blocks counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the test, as the benchmark runs
    it: the products are split only then, and the tier-1 suite does not
    pin the count."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    names = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
             "openblas_set_num_threads")
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        found = [getattr(lib, name) for name in names if hasattr(lib, name)]
        threads = _util.blas_threads()
        if found and threads is not None:
            found[0].argtypes = (ctypes.c_int,)
            found[0](1)
            yield
            found[0](threads)
            return
    pytest.skip("numpy links a BLAS whose thread count cannot be set here")
