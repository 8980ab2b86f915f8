"""Tensor ops the package no longer calls, kept for the tests on
``tensor._make``: gate P1 and the gradient tests reduce each checked output
to a scalar with ``reduce_sum``, and ``test_fused_ops`` composes its
reference attention from ``softmax_lastdim`` and its reference feed-forward
from ``relu``. Each builds one tape node, as the ops of ``pkge.tensor`` do.
"""

import numpy as np

from pkge.errors import ShapeError
from pkge.tensor import (_finite_or_raise, _make, _softmax_grad,
                         _softmax_into, as_tensor)


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
