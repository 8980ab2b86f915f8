"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every op builds its output node through
``_make``. Most ops pass one gradient rule per input, each mapping the output
gradient to that input's gradient; ``_make`` runs only the rules whose input
requires a gradient, so no gradient is computed for a constant. An op whose
inputs' gradients share intermediates (``l1_distance``, ``attention``,
``feed_forward``) passes instead one rule for all inputs: it returns every
input's gradient at once, ``None`` for each input that needs none, and
recomputes from the output gradient it is given on every call. No rule writes
into the gradient it receives, which ``_accum`` may have stored as another
node's. ``Tensor.backward()`` replays the tape in reverse topological order
and drops each intermediate node's gradient as soon as its rules have run.
After ``backward()`` only the leaves and the root hold ``.grad``; every other
node's is ``None``, so a second ``backward()`` on the same root adds its
gradients to the leaves exactly once more. The backward reaches its own node
only through a weak reference, so the graph holds no reference cycle: it is
freed by refcounting as soon as its root is dropped, without waiting for the
cyclic garbage collector. Inside ``with no_grad():`` ops record no tape at
all, which is what inference uses.

Data is float32 by default (float64 graphs are accepted so gradient checks
can run at full precision). Reductions that feed normalizations (softmax
denominator, layer-norm moments) accumulate in float64 regardless of the
storage dtype. The softmax's row max is taken by halving the last axis with
``np.maximum``, not by a reduction, since NumPy reduces a short axis one row
at a time; a max is exact in any order. The softmax, ``layer_norm`` and
``dropout`` work in place on arrays they allocated themselves, and dropout
keeps its mask as a boolean array; their values are bit-identical to the
out-of-place formulas.

A transformer sublayer is one node: ``attention`` (projections, heads,
scores, softmax, dropout, context and output) and ``feed_forward``
(relu(x·w1 + b1)·w2 + b2). Their forwards are bit-identical to the
compositions of primitive ops they replace; their hand-written backwards sum
some terms in another order, so gradients agree with the composition's to
float rounding, not bit for bit.

Models produce logits. The sigmoid appears only inside the fused loss
``bce_with_logits``, which evaluates it without overflow for any finite logit.

The forward ops that can turn finite inputs into inf or NaN (``add``,
``mul``, ``matmul``, ``l1_distance``, ``layer_norm``, ``dropout``,
``attention``, ``feed_forward`` and ``bce_with_logits``) verify their result
is finite; overflow raises ``NumericError`` instead of propagating NaN/inf
through the graph. The others (``reshape``, ``transpose``, ``concat`` and
``gather_rows``) only move or select finite values, so they skip the sweep;
a non-finite value they pass on is caught by the next checking op.
"""

import math
import weakref

import numpy as np

from .errors import ConfigError, GraphError, NumericError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """N-d array node in a reverse-mode computation graph.

    ``grad`` is populated lazily by ``backward()`` and has the same shape and
    dtype as ``data``. Leaves created with ``requires_grad=True`` are the
    trainable parameters; everything else propagates the flag from its inputs.
    After ``backward()`` only the leaves and the root hold ``grad``: each
    intermediate node's is ``None`` again, so a second call accumulates into
    the leaves exactly once.
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

    def backward(self):
        """Add the gradient of this scalar to every requires-grad leaf it
        reaches; intermediate gradients are freed as soon as they are used."""
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
                if node is not self:
                    node.grad = None

    def __add__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)


def as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype) if dtype is not None else np.asarray(x)
    return Tensor(arr)


def _finite_or_raise(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: produced non-finite values")


_grad_enabled = True


class no_grad:
    """Context manager under which ops record no tape: their outputs have no
    parents, no backward rule and ``requires_grad=False``. Leaving the block
    restores the state it was entered from."""

    def __init__(self):
        self._prev = []

    def __enter__(self):
        global _grad_enabled
        self._prev.append(_grad_enabled)
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev.pop()


def _make(data, prev, op, *grads, rule=None):
    """Output node of ``op``. The gradient rules come in one of two forms.
    ``grads[i]`` maps the output gradient to the gradient of ``prev[i]``;
    backward runs it only when ``prev[i]`` requires a gradient. Or one
    ``rule(g, need)`` returns every input's gradient at once, ``None`` where
    ``need[i]`` is false, so intermediates the inputs' gradients share are
    computed once per backward. No rule writes into ``g``: ``_accum`` may
    store that very array as another node's gradient. The backward holds the
    node only weakly, so no node is reachable from its own backward closure."""
    if not _grad_enabled:
        return Tensor(data, op=op)
    prev = tuple(prev)
    out = Tensor(data, _prev=prev, op=op)
    out.requires_grad = any(p.requires_grad for p in prev)
    if out.requires_grad:
        if rule is None:
            def rule(g, need):
                return (r(g) if n else None for r, n in zip(grads, need))
        ref = weakref.ref(out)

        def _backward():
            need = [p.requires_grad for p in prev]
            for p, gp in zip(prev, rule(ref().grad, need)):
                if gp is not None:
                    _accum(p, gp)
        out._backward = _backward
    return out


def _accum(t, g):
    if g.dtype != t.data.dtype:
        raise GraphError(f"{t.op} node of dtype {t.data.dtype} got a "
                         f"{g.dtype} gradient")
    if t.grad is None:
        # Strided views (transposes, column splits) and read-only ones
        # (broadcast_to) are copied, so every grad is C-contiguous and
        # writable; a contiguous view, such as a reshape, is kept as it is.
        t.grad = g if g.flags.c_contiguous and g.flags.writeable else g.copy()
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
    return _make(data, (a, b), "add",
                 lambda g: _unbroadcast(g, a.data.shape),
                 lambda g: _unbroadcast(g, b.data.shape))


def mul(a, b):
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype) if not isinstance(b, Tensor) else b
    data = a.data * b.data
    _finite_or_raise(data, "mul")
    return _make(data, (a, b), "mul",
                 lambda g: _unbroadcast(g * b.data, a.data.shape),
                 lambda g: _unbroadcast(g * a.data, b.data.shape))


def matmul(a, b):
    """Matrix product with leading batch dims broadcast, dA = dC·Bᵀ, dB = Aᵀ·dC.

    When ``b`` is a 2-D weight [K, N], the leading dims of ``a`` [..., M, K]
    fold into the rows of one GEMM, forward and backward (dA as one
    [rows, N]·[N, K] product, dB as one [K, rows]·[rows, N] product), so no
    [..., K, N] stack is summed. BLAS may sum a row differently when the row
    count changes, so evaluation scores tiles of one height. Products of two
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
    if fold:
        data = (a.data.reshape(rows, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    else:
        data = a.data @ b.data
    _finite_or_raise(data, "matmul")
    if fold:
        def grad_a(g):
            return (g.reshape(rows, n) @ b.data.T).reshape(a.data.shape)

        def grad_b(g):
            return a.data.reshape(rows, k).T @ g.reshape(rows, n)
    else:
        def grad_a(g):
            return _unbroadcast(g @ _swapaxes(b.data), a.data.shape)

        def grad_b(g):
            return _unbroadcast(_swapaxes(a.data) @ g, b.data.shape)
    return _make(data, (a, b), "matmul", grad_a, grad_b)


def reshape(x, shape):
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.data.shape} to {shape}: {exc}") from None
    return _make(data, (x,), "reshape", lambda g: g.reshape(x.data.shape))


def transpose(x, axes=None):
    x = as_tensor(x)
    inv = None if axes is None else np.argsort(axes)
    return _make(np.transpose(x.data, axes), (x,), "transpose",
                 lambda g: np.transpose(g, inv))


def concat(parts, axis=-1):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return _make(data, parts, "concat",
                 *(lambda g, i=i: np.split(g, splits, axis=axis)[i]
                   for i in range(len(parts))))


def gather_rows(table, ids):
    """Embedding lookup: table [N, D] indexed by an integer array of ids."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise LookupError(
            f"gather_rows: id out of range for table with {table.data.shape[0]} rows"
        )

    def grad(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return gt
    return _make(table.data[ids], (table,), "gather_rows", grad)


# Size in bytes of the [B, rows, d] difference block ``l1_distance`` works
# in. The tiled query is as large, and the backward's two masks add half that
# again, so a 512 KB block keeps 1.25 MB in use: it fits a 2 MB per-core L2,
# where a 4 MB block streamed from the shared L3 and its tile took 4 MB more.
# A TransE step on blocks135 (B=256, N=135, d=100, float32; 2 vCPUs) took
# 8.9-10.7 ms at 512 KB, 9.2-9.4 ms at 1 MB and 10.9-11.4 ms at 4 MB (medians
# of 150 steps, three rounds), against 12.8-16.7 ms before the tiling. In 10
# alternating benchmark pairs 1 MB matched 512 KB's train-baselines
# throughput (6 of 10 pairs, +1% in the median) and peaked 1.2 MB higher.
L1_BLOCK_BYTES = 1 << 19


# ``l1_distance``'s buffers per dtype, kept between calls: every step reuses
# the same pages instead of faulting in fresh ones on each allocation.
_l1_scratch = {}


def _l1_buffers(dtype, size):
    """Two flat buffers of at least ``size`` elements of ``dtype``, one for
    the tiled query and one for a block, and two boolean masks as long."""
    bufs = _l1_scratch.get(dtype)
    if bufs is None or bufs[0].shape[1] < size:
        bufs = _l1_scratch[dtype] = (np.empty((2, size), dtype),
                                     np.empty((2, size), np.bool_))
    return bufs


def _tile(q, rows, buf):
    """q [B, d] repeated ``rows`` times along each row, as [B, rows * d] in
    the front of the flat ``buf``."""
    b, d = q.shape
    tile = buf[:b * rows * d].reshape(b, rows, d)
    tile[...] = q[:, None, :]
    return tile.reshape(b, rows * d)


def l1_distance(q, table):
    """L1 distance of each query row to each table row: q [B, d] and
    table [N, d] give [B, N], out[b, j] = sum_k |q[b, k] - table[j, k]|.

    The table is walked in blocks of rows, so no [B, N, d] array is built or
    kept on the tape. The query is tiled once per call to the width of a
    block, so each block's differences are one contiguous subtraction; the
    buffers are reused from call to call. Each (query, row) sum is
    accumulated in float64 and cast back. The backward takes each block's
    signs by comparing the tiled query with the rows, which for finite
    values with gradual underflow is exactly the sign of their difference,
    and forms both inputs' gradients from them; the subgradient is 0 where a
    difference is 0.
    """
    q, table = as_tensor(q), as_tensor(table)
    if (q.data.ndim != 2 or table.data.ndim != 2
            or q.data.shape[1] != table.data.shape[1]):
        raise ShapeError(
            f"l1_distance requires [B, d] and [N, d], got {q.data.shape} "
            f"and {table.data.shape}")
    (b, d), n = q.data.shape, table.data.shape[0]
    dtype = np.result_type(q.data, table.data)
    rows = max(1, min(n, L1_BLOCK_BYTES // max(1, b * d * dtype.itemsize)))
    blocks = [slice(j, min(j + rows, n)) for j in range(0, n, rows)]
    size = b * rows * d
    data = np.empty((b, n), dtype=dtype)
    (tile_buf, buf), _ = _l1_buffers(dtype, size)
    tile = _tile(q.data, rows, tile_buf)
    for blk in blocks:
        r = blk.stop - blk.start
        diff = np.subtract(tile[:, :r * d], table.data[blk].reshape(-1),
                           out=buf[:b * r * d].reshape(b, r * d))
        np.abs(diff, out=diff)
        data[:, blk] = diff.reshape(b, r, d).sum(axis=-1, dtype=np.float64)
    _finite_or_raise(data, "l1_distance")

    def rule(g, need):
        (tile_buf, buf), masks = _l1_buffers(dtype, size)
        tile = _tile(q.data, rows, tile_buf)
        dq = np.zeros((b, d), dtype) if need[0] else None
        dtable = np.empty((n, d), dtype) if need[1] else None
        for blk in blocks:
            r = blk.stop - blk.start
            t = table.data[blk].reshape(-1)
            pos, neg = (m[:b * r * d].reshape(b, r * d) for m in masks)
            np.greater(tile[:, :r * d], t, out=pos)
            np.less(tile[:, :r * d], t, out=neg)
            # The signs as (q > t) - (q < t): no branch per element, unlike
            # np.sign, whose time swung with the host's load.
            signs = buf[:b * r * d].reshape(b, r, d)
            np.copyto(signs, np.subtract(pos.view(np.int8), neg.view(np.int8),
                                         out=pos.view(np.int8)).reshape(b, r, d))
            g_blk = g[:, blk]
            if need[0]:
                dq += np.matmul(g_blk[:, None, :], signs)[:, 0, :]
            if need[1]:
                dtable[blk] = -np.einsum("bj,bjk->jk", g_blk, signs)
        return dq, dtable
    return _make(data, (q, table), "l1_distance", rule=rule)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------


def _row_max(x):
    """``x.max(axis=-1, keepdims=True)`` taken by halving the last axis: the
    elementwise max of its two halves, an odd last column folded in, until
    one column is left. Only the sign of a zero maximum may differ."""
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        top = np.maximum(x[..., :half], x[..., half:2 * half])
        if x.shape[-1] % 2:
            np.maximum(top[..., -1:], x[..., -1:], out=top[..., -1:])
        x = top
    return x


def _softmax_into(out, x):
    """Row-stable softmax of ``x`` over its last axis, written into ``out``
    (which may be ``x``). The row max is ``_row_max``'s; exp(x − m) is the
    same for m = ±0. The denominator is summed in float64 and each quotient
    is rounded once into ``out``'s dtype."""
    np.subtract(x, _row_max(x), out=out)
    np.exp(out, out=out)
    np.divide(out, out.sum(axis=-1, keepdims=True, dtype=np.float64), out=out)
    return out


def _softmax_grad(g, y):
    """y · (g - sum(g · y)) over the last axis, in a fresh array."""
    gx = g * y
    inner = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=gx)
    gx *= y
    return gx


# Added to the variance under the square root: guards zero-variance rows.
LAYER_NORM_EPS = 1e-5


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


def _check_rate(p):
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must satisfy 0 <= p < 1, got {p}")


def _dropout_mask(shape, p, dtype, rng):
    """A boolean keep mask of ``shape`` drawn from ``rng`` (float64 draws,
    kept where >= p), and the survivors' scale 1/(1-p) in ``dtype``."""
    return rng.random(shape) >= p, np.asarray(1.0 / (1.0 - p), dtype=dtype)


def _drop(a, keep, scale):
    """a · keep · scale in a fresh array; ``a`` is left as it is."""
    out = a * keep
    out *= scale
    return out


def dropout(x, p, training, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity in eval mode or at p == 0; requires 0 <= p < 1.
    """
    x = as_tensor(x)
    _check_rate(p)
    if not training or p == 0.0:
        return x
    keep, scale = _dropout_mask(x.data.shape, p, x.dtype, rng)
    data = _drop(x.data, keep, scale)
    _finite_or_raise(data, "dropout")
    return _make(data, (x,), "dropout", lambda g: _drop(g, keep, scale))


# ---------------------------------------------------------------------------
# fused transformer sublayers
# ---------------------------------------------------------------------------


def attention(x_q, x_kv, wq, wk, wv, wo, heads, p_drop=0.0, training=False,
              rng=None):
    """Multi-head attention of queries ``x_q`` [..., nq, d] over keys and
    values ``x_kv`` [..., nk, d], as one tape node.

    With q = x_q·wq, k = x_kv·wk and v = x_kv·wv, each split into ``heads``
    slices of d/heads, the output is
    merge(dropout(softmax(q kᵀ / sqrt(d))) v)·wo: every head's scores are
    scaled by the full width d, not by its slice's d/heads. The forward runs
    the same numpy products on the same layouts as that composition of
    ``matmul``, ``reshape``, ``transpose``, ``mul``, a row softmax and
    ``dropout`` would, and draws the same dropout mask at the same point, so
    its output is bit-identical to theirs. The backward is written by hand:
    it reuses the projections, the probabilities and the mask, and gives
    ``x_kv`` the sum of its key and value terms.
    """
    ins = tuple(as_tensor(t) for t in (x_q, x_kv, wq, wk, wv, wo))
    xq, xkv = ins[0].data, ins[1].data
    ws = tuple(t.data for t in ins[2:])
    d = xq.shape[-1]
    if (xq.ndim < 2 or xkv.ndim != xq.ndim or xkv.shape[:-2] != xq.shape[:-2]
            or xkv.shape[-1:] != (d,) or any(w.shape != (d, d) for w in ws)
            or heads < 1 or d % heads):
        raise ShapeError(
            f"attention: queries {xq.shape}, keys/values {xkv.shape}, "
            f"projections {[w.shape for w in ws]}, {heads} heads")
    _check_rate(p_drop)
    wq, wk, wv, wo = ws
    lead, nq, nk, ds = xq.shape[:-2], xq.shape[-2], xkv.shape[-2], d // heads

    def split(a, n):        # [rows, d] -> [..., heads, n, ds], a view
        return np.swapaxes(a.reshape(lead + (n, heads, ds)), -3, -2)

    def merge(a):           # [..., heads, n, ds] -> [rows, d], a copy
        return np.swapaxes(a, -3, -2).reshape(-1, d)

    xq2, xkv2 = xq.reshape(-1, d), xkv.reshape(-1, d)
    q4, k4, v4 = split(xq2 @ wq, nq), split(xkv2 @ wk, nk), split(xkv2 @ wv, nk)
    s = np.asarray(1.0 / np.sqrt(d), dtype=q4.dtype)
    scores = q4 @ np.swapaxes(k4, -1, -2)
    scores *= s
    probs = _softmax_into(scores, scores)
    if training and p_drop > 0.0:
        keep, scale = _dropout_mask(probs.shape, p_drop, probs.dtype, rng)
        dropped = _drop(probs, keep, scale)
    else:
        keep, dropped = None, probs
    ctx = merge(dropped @ v4)
    data = (ctx @ wo).reshape(xq.shape)
    _finite_or_raise(data, "attention")

    def rule(g, need):
        g2 = g.reshape(-1, d)
        dctx = split(g2 @ wo.T, nq)
        dprobs = dctx @ np.swapaxes(v4, -1, -2)
        dv = merge(np.swapaxes(dropped, -1, -2) @ dctx)
        if keep is not None:
            dprobs = _drop(dprobs, keep, scale)
        dscores = _softmax_grad(dprobs, probs)
        dscores *= s
        dq = merge(dscores @ k4)
        dk = merge(np.swapaxes(np.swapaxes(q4, -1, -2) @ dscores, -1, -2))
        dxkv = None
        if need[1]:
            dxkv = (dk @ wk.T).reshape(xkv.shape)
            dxkv += (dv @ wv.T).reshape(xkv.shape)
        return ((dq @ wq.T).reshape(xq.shape) if need[0] else None, dxkv,
                xq2.T @ dq if need[2] else None,
                xkv2.T @ dk if need[3] else None,
                xkv2.T @ dv if need[4] else None,
                ctx.T @ g2 if need[5] else None)
    return _make(data, ins, "attention", rule=rule)


def feed_forward(x, w1, b1, w2, b2):
    """Position-wise feed-forward relu(x·w1 + b1)·w2 + b2 over the last axis
    of ``x`` [..., d], as one tape node.

    The forward runs the same products and sums as ``matmul``, ``add``, a
    relu, ``matmul`` and ``add`` would, so its output is bit-identical to
    theirs; the backward keeps only the hidden activations.
    """
    ins = tuple(as_tensor(t) for t in (x, w1, b1, w2, b2))
    xd, w1, b1, w2, b2 = (t.data for t in ins)
    if (xd.ndim < 1 or w1.ndim != 2 or w2.ndim != 2 or xd.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(
            f"feed_forward: input {xd.shape}, w1 {w1.shape}, b1 {b1.shape}, "
            f"w2 {w2.shape}, b2 {b2.shape}")
    lead, (d, f), n = xd.shape[:-1], w1.shape, w2.shape[1]
    x2 = xd.reshape(-1, d)
    h = x2 @ w1
    h += b1
    np.maximum(h, 0, out=h)
    out = h @ w2
    out += b2
    data = out.reshape(lead + (n,))
    _finite_or_raise(data, "feed_forward")

    def rule(g, need):
        g2 = g.reshape(-1, n)
        dh = None
        if any(need[:3]):
            dh = g2 @ w2.T
            dh *= h > 0
        return ((dh @ w1.T).reshape(xd.shape) if need[0] else None,
                x2.T @ dh if need[1] else None,
                _unbroadcast(dh.reshape(lead + (f,)), b1.shape) if need[2] else None,
                h.T @ g2 if need[3] else None,
                _unbroadcast(g, b2.shape) if need[4] else None)
    return _make(data, ins, "feed_forward", rule=rule)


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

    def grad(g):
        # sigmoid: 1/(1+e) for z >= 0 and e/(1+e) below; e <= 1, so
        # neither branch overflows, and the max picks the numerator.
        sig = np.maximum(e, (x >= 0).astype(x.dtype)) / (1.0 + e)
        return (sig - y) * (g / count)
    return _make(loss, (z,), "bce_with_logits", grad)
