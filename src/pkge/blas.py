"""OpenBLAS thread count, pinned to one around a block of work.

The get/set pair is resolved once, from the library numpy's own linalg
extension links. Under a BLAS without such a pair ``one_thread`` does
nothing.
"""

import contextlib
import ctypes

import numpy as np

# (prefix, suffix) of the OpenBLAS thread symbols, in lookup order: the
# scipy-openblas wheels numpy ships, then 64-bit-integer and plain builds.
_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def _resolve(lib):
    """(get, set) of ``lib``'s OpenBLAS thread count, or None."""
    for prefix, suffix in _SYMBOLS:
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.restype = ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


try:
    _THREADS = _resolve(ctypes.CDLL(np.linalg._umath_linalg.__file__))
except (AttributeError, OSError):
    _THREADS = None


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, then restore its count."""
    if _THREADS is None:
        yield
        return
    get, put = _THREADS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
