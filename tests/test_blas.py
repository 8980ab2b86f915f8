"""blas.one_thread: OpenBLAS on one thread inside the block, its own count
restored after it, and the frozen basis's bytes unchanged by the pin."""

import contextlib
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import pkge
import pkge.blas as blas
import pkge.segmentation as seg
from pkge.errors import NumericError

needs_openblas = pytest.mark.skipif(
    blas._THREADS is None, reason="numpy's BLAS exposes no OpenBLAS thread count")


def threads():
    return blas._THREADS[0]()


@needs_openblas
def test_qrs_run_on_one_thread_and_count_restored(monkeypatch):
    before, seen = threads(), []
    real = seg._orthonormal_rows_qr

    def spy(rng, n, d):
        seen.append(threads())
        return real(rng, n, d)

    monkeypatch.setattr(seg, "_orthonormal_rows_qr", spy)
    seg.build_frozen_basis(4, 5, np.random.default_rng(0))
    assert seen == [1] * 4
    assert threads() == before


@needs_openblas
def test_count_restored_when_a_qr_raises(monkeypatch):
    before = threads()

    def fail(rng, n, d):
        raise NumericError("could not draw a full-rank basis matrix")

    monkeypatch.setattr(seg, "_orthonormal_rows_qr", fail)
    with pytest.raises(NumericError):
        seg.build_frozen_basis(3, 4, np.random.default_rng(0))
    assert threads() == before


def test_resolver_without_symbols_finds_none():
    assert blas._resolve(object()) is None


def test_no_op_without_symbols(monkeypatch):
    real = blas._THREADS
    count = lambda: real and real[0]()
    before = count()
    monkeypatch.setattr(blas, "_THREADS", None)
    with blas.one_thread():
        assert count() == before
        basis = seg.build_frozen_basis(2, 3, np.random.default_rng(0))
    assert count() == before
    assert seg.orthonormality_deviation(basis) <= 1e-6


@pytest.mark.parametrize("k", [20, 4])
def test_pin_leaves_basis_bytes_unchanged(monkeypatch, k):
    pinned = seg.build_frozen_basis(k, 50, np.random.default_rng(k))
    monkeypatch.setattr(seg, "one_thread", contextlib.nullcontext)
    free = seg.build_frozen_basis(k, 50, np.random.default_rng(k))
    assert pinned.tobytes() == free.tobytes()


# Prints the SHA-256 of a d_r = 1000 basis, then the OpenBLAS thread count
# before and after the build ("None None" under another BLAS).
BASIS_DIGEST = r'''
import hashlib
import numpy as np
import pkge.blas as blas
import pkge.segmentation as seg
count = lambda: blas._THREADS and blas._THREADS[0]()
before = count()
basis = seg.build_frozen_basis(20, 50, np.random.default_rng(3))
print(hashlib.sha256(basis.tobytes()).hexdigest(), before, count())
'''


def test_same_basis_bytes_under_one_and_two_blas_threads():
    def run(n):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n),
                   PYTHONPATH=os.path.dirname(os.path.dirname(pkge.__file__)))
        proc = subprocess.run([sys.executable, "-c", BASIS_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digest, before, after = proc.stdout.split()
        assert after == before           # each process ends at its own count
        return digest

    here = hashlib.sha256(seg.build_frozen_basis(
        20, 50, np.random.default_rng(3)).tobytes()).hexdigest()
    assert run(1) == run(2) == here
