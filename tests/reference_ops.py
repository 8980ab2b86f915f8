"""Tensor ops the package no longer calls, kept for the tests on
``tensor._make``: gate P1 and the gradient tests reduce each checked output
to a scalar with ``reduce_sum``, and ``test_fused_ops`` composes its
reference attention from ``softmax_lastdim``, its reference feed-forward
from ``relu`` and both sublayers' residual norm from ``layer_norm``. Each
builds one tape node, as the ops of ``pkge.tensor`` do.
"""

import numpy as np

from pkge.errors import ShapeError
from pkge.tensor import (LAYER_NORM_EPS, _finite_or_raise, _make,
                         _softmax_grad, _softmax_into, as_tensor)


def reduce_sum(x, axis=None, keepdims=False):
    """Sum with float64 accumulation, cast back to the input dtype."""
    x = as_tensor(x)
    data = np.asarray(x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64),
                      dtype=x.dtype)
    _finite_or_raise(data, "sum")

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.data.shape)
    return _make(data, (x,), "sum", grad)


def relu(x):
    """max(0, x); subgradient at 0 is 0."""
    x = as_tensor(x)
    return _make(np.maximum(x.data, 0), (x,), "relu", lambda g: g * (x.data > 0))


def softmax_lastdim(x):
    """Row-stable softmax over the last axis; denominator accumulated in float64."""
    x = as_tensor(x)
    if x.data.shape[-1] < 1:
        raise ShapeError("softmax over an empty axis")
    y = _softmax_into(np.empty_like(x.data), x.data)
    return _make(y, (x,), "softmax", lambda g: _softmax_grad(g, y))


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine.

    Moments are accumulated in float64.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature dim {d}"
        )
    xc = x.data.astype(np.float64)
    xc -= xc.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xc).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xc *= inv
    xhat = xc.astype(x.dtype, copy=False)
    inv = inv.astype(x.dtype)
    y = gamma.data * xhat
    y += beta.data
    y = y.astype(x.dtype, copy=False)
    _finite_or_raise(y, "layer_norm")

    def grad_x(g):
        gx = g * gamma.data
        m1 = gx.mean(axis=-1, keepdims=True)
        t = gx * xhat
        m2 = t.mean(axis=-1, keepdims=True)
        gx -= m1
        gx -= np.multiply(xhat, m2, out=t)
        gx *= inv
        return gx
    return _make(y, (x, gamma, beta), "layer_norm", grad_x,
                 lambda g: (g * xhat).reshape(-1, d).sum(axis=0),
                 lambda g: g.reshape(-1, d).sum(axis=0))
