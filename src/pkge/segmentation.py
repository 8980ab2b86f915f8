"""Embedding segmentation: map a flat embedding of size k*d into k patches
of size d.

Four schemes:

* folding    - pure reshape, no parameters.
* trainable  - learned square mapping matrix applied before the reshape.
* frozen     - fixed random orthonormal mapping (each patch's rows are a
  Haar-random orthonormal frame from a thin QR of a Gaussian matrix),
  excluded from optimization.
* none       - a single learned projection producing one patch.

Every scheme is linear in the embedding.
"""

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import matmul, reshape, transpose


def validate_patch_shape(dim, k, d, what="embedding"):
    if k <= 0 or d <= 0:
        raise ConfigError(f"patch grid must be positive, got k={k}, d={d}")
    if k * d != dim:
        raise ConfigError(
            f"{what} size {dim} does not factor into {k} patches of size {d}")


def _orthonormal_rows_qr(rng, n, d):
    # Q of a thin QR of an n x d Gaussian matrix, with the signs of R's
    # diagonal moved into Q, is a Haar-random orthonormal d-frame (Mezzadri,
    # arXiv:math-ph/0609050). Rank deficiency has probability zero but is
    # cheap to guard: drawing again advances the generator deterministically.
    for _ in range(4):
        a = rng.standard_normal((n, d))
        q, r = np.linalg.qr(a)
        diag = np.diag(r)
        if np.all(np.abs(diag) > n * np.finfo(np.float64).eps):
            return (q * np.sign(diag)).T.copy()
    raise NumericError("could not draw a full-rank basis matrix")


def build_frozen_basis(k, d, rng):
    """Fixed orthonormal patch basis, shape [k, d, k*d].

    Row block i holds d orthonormal vectors of length k*d; patches are the
    inner products of the embedding with these rows. Each block is drawn
    independently, from a [k*d, d] standard-normal sample of ``rng``.
    """
    n = k * d
    rows = np.empty((k, d, n), dtype=np.float32)
    for i in range(k):
        rows[i] = _orthonormal_rows_qr(rng, n, d).astype(np.float32)
    dev = orthonormality_deviation(rows)
    if dev > 1e-6:
        raise NumericError(f"frozen basis failed orthonormality check: {dev:.3e}")
    return rows


def build_trainable_basis(k, d, rng):
    """Learnable mapping matrix, shape [k, d, k*d], Glorot-uniform init."""
    n = k * d
    limit = np.sqrt(6.0 / (n + n))
    return rng.uniform(-limit, limit, size=(k, d, n)).astype(np.float32)


def orthonormality_deviation(basis):
    """Max |U_i U_i^T - I| over patches, computed in float64."""
    k, d, n = basis.shape
    worst = 0.0
    eye = np.eye(d)
    for i in range(k):
        block = basis[i].astype(np.float64)
        gram = block @ block.T
        worst = max(worst, float(np.max(np.abs(gram - eye))))
    return worst


def segment_folding(e, k, d):
    """Reshape ``e`` [..., k*d] into patches [..., k, d]."""
    validate_patch_shape(e.shape[-1], k, d)
    return reshape(e, e.shape[:-1] + (k, d))


def segment_mapped(e, basis):
    """Apply a mapping basis [k, d, n] to ``e`` [..., n], giving [..., k, d].

    Patch (i, j) is the dot product of e with basis row (i, j). The basis may
    be trainable or frozen; the caller decides which by the tensor's
    ``requires_grad`` flag.
    """
    k, d, n = basis.shape
    if e.shape[-1] != n:
        raise ConfigError(
            f"embedding size {e.shape[-1]} does not match basis input size {n}")
    flat = reshape(basis, (k * d, n))
    lead = e.shape[:-1]
    # As a stack of single rows, each embedding gets its own product in the
    # matmul forward, so its patches do not depend on the batch size.
    out = matmul(reshape(e, lead + (1, n)), transpose(flat))
    return reshape(out, lead + (k, d))


def segment_none(e, proj):
    """Single learned projection: ``e`` [..., n] @ proj [n, d] -> [..., 1, d]."""
    if e.shape[-1] != proj.shape[0]:
        raise ConfigError(
            f"embedding size {e.shape[-1]} does not match projection rows {proj.shape[0]}")
    lead = e.shape[:-1]
    out = matmul(reshape(e, lead + (1, e.shape[-1])), proj)
    return reshape(out, lead + (1, proj.shape[1]))
