"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every op closes over its inputs and registers a
backward rule on the output node; ``Tensor.backward()`` replays the tape in
reverse topological order. A rule takes the output gradient as its argument
and reaches its own node only through a weak reference, so the graph holds no
reference cycle: it is freed by refcounting as soon as its root is dropped,
without waiting for the cyclic garbage collector. Inside ``with no_grad():``
ops record no tape at all, which is what inference uses.

Data is float32 by default (float64 graphs are accepted so gradient checks
can run at full precision). Reductions that feed normalizations (softmax
denominator, layer-norm moments) accumulate in float64 regardless of the
storage dtype.

Models produce logits. The sigmoid appears only inside the fused loss
``bce_with_logits``, which evaluates it without overflow for any finite logit.

The forward ops that can turn finite inputs into inf or NaN (``add``,
``mul``, ``matmul``, ``reduce_sum``, ``sqrt``, ``layer_norm``, ``dropout``
and ``bce_with_logits``) verify their result is finite; overflow raises
``NumericError`` instead of propagating NaN/inf through the graph. The others
only move, select, clamp or normalize finite values, so they skip the sweep;
a non-finite value they pass on is caught by the next checking op.
"""

import math
import threading
import weakref

import numpy as np

from .errors import ConfigError, GraphError, NumericError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """N-d array node in a reverse-mode computation graph.

    ``grad`` is populated lazily by ``backward()`` and has the same shape and
    dtype as ``data``. Leaves created with ``requires_grad=True`` are the
    trainable parameters; everything else propagates the flag from its inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "op",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, _prev=(), op="leaf"):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = _prev
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate grads of every requires-grad node reachable from a scalar."""
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype) if dtype is not None else np.asarray(x)
    return Tensor(arr)


def _finite_or_raise(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: produced non-finite values")


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager under which ops record no tape: their outputs have no
    parents, no backward rule and ``requires_grad=False``. The flag is per
    thread, and leaving the block restores the state it was entered from."""

    def __init__(self):
        self._prev = []

    def __enter__(self):
        self._prev.append(_grad_mode.enabled)
        _grad_mode.enabled = False

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev.pop()


def _make(data, prev, op):
    if not _grad_mode.enabled:
        return Tensor(data, op=op)
    out = Tensor(data, _prev=tuple(prev), op=op)
    out.requires_grad = any(p.requires_grad for p in prev)
    return out


def _set_backward(out, rule):
    """Make ``out._backward`` call ``rule(out.grad)``; it holds ``out`` only
    weakly, so no node is reachable from its own backward closure."""
    ref = weakref.ref(out)

    def _backward():
        rule(ref().grad)
    out._backward = _backward


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if t.grad is None:
        # Views (np.split, broadcast_to) are copied so grads own their memory.
        t.grad = g if g.base is None and g.flags.writeable else g.copy()
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    """Sum gradient over axes that numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _swapaxes(a):
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b):
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype) if not isinstance(b, Tensor) else b
    data = a.data + b.data
    _finite_or_raise(data, "add")
    out = _make(data, (a, b), "add")
    if out.requires_grad:
        def _bw(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(g, b.data.shape))
        _set_backward(out, _bw)
    return out


def mul(a, b):
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype) if not isinstance(b, Tensor) else b
    data = a.data * b.data
    _finite_or_raise(data, "mul")
    out = _make(data, (a, b), "mul")
    if out.requires_grad:
        def _bw(g):
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
            _accum(b, _unbroadcast(g * a.data, b.data.shape))
        _set_backward(out, _bw)
    return out


def matmul(a, b):
    """Matrix product with leading batch dims broadcast, dA = dC·Bᵀ, dB = Aᵀ·dC.

    When ``b`` is a 2-D weight [K, N], the leading dims of ``a`` [..., M, K]
    fold into the rows of one GEMM: the backward computes dA as one
    [rows, N]·[N, K] product and dB as one [K, rows]·[rows, N] product, with
    no [..., K, N] stack to sum. The forward folds too, except for a stack of
    single rows (M == 1): there numpy's product per row is kept, so each row's
    value does not depend on how many rows share the batch (a folded batch of
    one is an M=1 GEMM, which BLAS sums in a different order). Products of two
    batched operands keep numpy's broadcasting path.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul requires >=2-d operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}"
        )
    fold = b.data.ndim == 2
    k, n = b.data.shape[-2:]
    rows = math.prod(a.data.shape[:-1])
    if fold and a.data.shape[-2] != 1:
        data = (a.data.reshape(rows, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    else:
        data = a.data @ b.data
    _finite_or_raise(data, "matmul")
    out = _make(data, (a, b), "matmul")
    if out.requires_grad:
        def _bw(g):
            if fold:
                g2 = g.reshape(rows, n)
                if a.requires_grad:
                    _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
                if b.requires_grad:
                    _accum(b, a.data.reshape(rows, k).T @ g2)
                return
            if a.requires_grad:
                _accum(a, _unbroadcast(g @ _swapaxes(b.data), a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(_swapaxes(a.data) @ g, b.data.shape))
        _set_backward(out, _bw)
    return out


def reshape(x, shape):
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.data.shape} to {shape}: {exc}") from None
    out = _make(data, (x,), "reshape")
    if out.requires_grad:
        def _bw(g):
            _accum(x, g.reshape(x.data.shape))
        _set_backward(out, _bw)
    return out


def transpose(x, axes=None):
    x = as_tensor(x)
    out = _make(np.transpose(x.data, axes), (x,), "transpose")
    if out.requires_grad:
        inv = None if axes is None else np.argsort(axes)
        def _bw(g):
            _accum(x, np.transpose(g, inv))
        _set_backward(out, _bw)
    return out


def concat(parts, axis=-1):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = _make(np.concatenate([p.data for p in parts], axis=axis), parts, "concat")
    if out.requires_grad:
        sizes = [p.data.shape[axis] for p in parts]
        splits = np.cumsum(sizes)[:-1]
        def _bw(g):
            for p, part in zip(parts, np.split(g, splits, axis=axis)):
                _accum(p, part)
        _set_backward(out, _bw)
    return out


def narrow(x, axis, start, length):
    """Contiguous slice of ``length`` elements along ``axis`` starting at ``start``."""
    x = as_tensor(x)
    axis = axis % x.data.ndim
    if start < 0 or start + length > x.data.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of bounds for axis {axis} "
            f"of shape {x.data.shape}"
        )
    idx = tuple(slice(start, start + length) if i == axis else slice(None)
                for i in range(x.data.ndim))
    out = _make(x.data[idx], (x,), "narrow")
    if out.requires_grad:
        def _bw(g):
            gx = np.zeros_like(x.data)
            gx[idx] = g
            _accum(x, gx)
        _set_backward(out, _bw)
    return out


def gather_rows(table, ids):
    """Embedding lookup: table [N, D] indexed by an integer array of ids."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise LookupError(
            f"gather_rows: id out of range for table with {table.data.shape[0]} rows"
        )
    out = _make(table.data[ids], (table,), "gather_rows")
    if out.requires_grad:
        def _bw(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accum(table, gt)
        _set_backward(out, _bw)
    return out


def reduce_sum(x, axis=None, keepdims=False):
    """Sum with float64 accumulation, cast back to the input dtype."""
    x = as_tensor(x)
    data = np.asarray(x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64),
                      dtype=x.dtype)
    _finite_or_raise(data, "sum")
    out = _make(data, (x,), "sum")
    if out.requires_grad:
        def _bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(g, x.data.shape))
        _set_backward(out, _bw)
    return out


def sqrt(x):
    x = as_tensor(x)
    data = np.sqrt(x.data)
    _finite_or_raise(data, "sqrt")
    out = _make(data, (x,), "sqrt")
    if out.requires_grad:
        def _bw(g):
            _accum(x, g * (0.5 / np.maximum(data, np.finfo(data.dtype).tiny)))
        _set_backward(out, _bw)
    return out


def absolute(x):
    """|x| with subgradient 0 at 0."""
    x = as_tensor(x)
    out = _make(np.abs(x.data), (x,), "abs")
    if out.requires_grad:
        def _bw(g):
            _accum(x, g * np.sign(x.data))
        _set_backward(out, _bw)
    return out


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------


def relu(x):
    """max(0, x); subgradient at 0 is 0."""
    x = as_tensor(x)
    out = _make(np.maximum(x.data, 0), (x,), "relu")
    if out.requires_grad:
        mask = (x.data > 0).astype(x.dtype)
        def _bw(g):
            _accum(x, g * mask)
        _set_backward(out, _bw)
    return out


def softmax_lastdim(x):
    """Row-stable softmax over the last axis; denominator accumulated in float64."""
    x = as_tensor(x)
    if x.data.shape[-1] < 1:
        raise ShapeError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=-1, keepdims=True, dtype=np.float64)
    y = (ex / denom).astype(x.dtype)
    out = _make(y, (x,), "softmax")
    if out.requires_grad:
        def _bw(g):
            inner = (g * y).sum(axis=-1, keepdims=True)
            _accum(x, y * (g - inner))
        _set_backward(out, _bw)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    Moments are accumulated in float64; eps > 0 guards zero-variance rows.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature dim {d}"
        )
    if eps <= 0:
        raise ConfigError("layer_norm eps must be > 0")
    x64 = x.data.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((x64 - mu) * inv).astype(x.dtype)
    inv = inv.astype(x.dtype)
    y = (gamma.data * xhat + beta.data).astype(x.dtype)
    _finite_or_raise(y, "layer_norm")
    out = _make(y, (x, gamma, beta), "layer_norm")
    if out.requires_grad:
        def _bw(g):
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
            if beta.requires_grad:
                _accum(beta, g.reshape(-1, d).sum(axis=0))
            if x.requires_grad:
                gx = g * gamma.data
                m1 = gx.mean(axis=-1, keepdims=True)
                m2 = (gx * xhat).mean(axis=-1, keepdims=True)
                _accum(x, inv * (gx - m1 - xhat * m2))
        _set_backward(out, _bw)
    return out


def dropout(x, p, training, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity in eval mode or at p == 0; requires 0 <= p < 1.
    """
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must satisfy 0 <= p < 1, got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    data = x.data * keep * scale
    _finite_or_raise(data, "dropout")
    out = _make(data, (x,), "dropout")
    if out.requires_grad:
        def _bw(g):
            _accum(x, g * keep * scale)
        _set_backward(out, _bw)
    return out


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def bce_with_logits(z, y):
    """Mean binary cross-entropy between targets ``y`` and sigmoid(``z``).

    One node: each cell is max(z, 0) + log1p(exp(-|z|)) - y·z, finite for
    every finite logit, and the cells are summed in float64. ``y`` is a
    constant array of ``z``'s shape. The gradient is (sigmoid(z) - y) / count,
    so a saturated but wrong logit still learns.
    """
    z = as_tensor(z)
    y = np.asarray(y, dtype=z.dtype)
    if y.shape != z.data.shape:
        raise ShapeError(
            f"bce_with_logits: targets {y.shape} do not match logits {z.data.shape}")
    x = z.data
    e = np.exp(-np.abs(x))
    cells = np.maximum(x, 0) + np.log1p(e) - y * x
    count = x.size
    loss = np.asarray(cells.sum(dtype=np.float64) / count, dtype=z.dtype)
    _finite_or_raise(loss, "bce_with_logits")
    out = _make(loss, (z,), "bce_with_logits")
    if out.requires_grad:
        def _bw(g):
            # sigmoid: 1/(1+e) for z >= 0 and e/(1+e) below; e <= 1, so
            # neither branch overflows, and the max picks the numerator.
            sig = np.maximum(e, (x >= 0).astype(x.dtype)) / (1.0 + e)
            _accum(z, (sig - y) * (g / count))
        _set_backward(out, _bw)
    return out
