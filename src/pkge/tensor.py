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
storage dtype. NumPy reduces a last axis one row at a time, which is slow
on a short one. So the softmax's row max is taken by halving the last axis
with ``np.maximum`` (a max is exact in any order), and a sum over fewer
than 8 columns, the softmax denominator over a short key axis included, is
taken as column adds in NumPy's own order, so its bytes are NumPy's. The
softmax, the layer norm and ``dropout`` work in place on arrays they
allocated themselves, and dropout keeps its mask as a boolean array; their
values are bit-identical to the out-of-place formulas.

A post-norm transformer sublayer is one node, its residual add and layer
norm included: ``attention`` is LN(x_q + MHA(x_q, x_kv)), with projections,
heads, scores, softmax, dropout, context and output inside, and
``feed_forward`` is LN(x + dropout(relu(x·w1 + b1)·w2 + b2)). Their forwards
are bit-identical to the compositions of primitive ops they replace; their
hand-written backwards sum some terms in another order, so gradients agree
with the composition's to float rounding, not bit for bit. Every row mean
and column sum in those backwards (the layer norm's two means, the γ, β and
bias gradients, the softmax gradient's inner sum) is taken by ``np.einsum``
or by column adds, never by a BLAS product, so its bytes do not depend on
the BLAS thread count.

Models produce logits. The sigmoid appears only inside the fused loss
``bce_with_logits``, which evaluates it without overflow for any finite logit.

The forward ops that can turn finite inputs into inf or NaN (``add``,
``mul``, ``matmul``, ``l1_distance``, ``dropout``, ``attention``,
``feed_forward`` and ``bce_with_logits``) verify their result is finite;
overflow raises ``NumericError`` instead of propagating NaN/inf through the
graph. An overflow inside a sublayer reaches its output as NaN through the
layer norm, whose row mean and deviations an inf turns into NaN. The others
(``reshape``, ``transpose``, ``concat`` and ``gather_rows``) only move or
select finite values, so they skip the sweep; a non-finite value they pass
on is caught by the next checking op.
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
    """Embedding lookup: table [N, D] indexed by an integer array of ids.

    The backward adds the output rows onto a zero table in occurrence
    rounds: the first occurrence of every id, then every second one, and so
    on. No id repeats within a round, so each round is one vectorized add,
    and every table row sums its gradients in index order, as ``np.add.at``
    would, bit for bit.
    """
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise LookupError(
            f"gather_rows: id out of range for table with {table.data.shape[0]} rows"
        )

    def grad(g):
        gt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if not flat.size:
            return gt
        g = g.reshape(flat.shape + table.data.shape[1:])
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        occurrence = np.arange(flat.size) - np.repeat(
            first, np.diff(np.append(first, flat.size)))
        for r in range(occurrence.max() + 1):
            pos = order[occurrence == r]
            # An add, not an assignment, in the first round too: 0 + (-0) is +0.
            gt[flat[pos]] += g[pos]
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


# Below this many columns NumPy's pairwise sum of a row is a plain loop from
# +0.0, which column adds reproduce; from it on, 8 partial sums are kept.
_PAIRWISE_BLOCK = 8


def _sum_lastdim(x, dtype=None):
    """``x.sum(axis=-1, keepdims=True, dtype=dtype)``, byte for byte. NumPy
    reduces a last axis one row at a time, so a short axis is summed instead
    as column adds from +0.0, in NumPy's own order."""
    n = x.shape[-1]
    if n >= _PAIRWISE_BLOCK:
        return x.sum(axis=-1, keepdims=True, dtype=dtype)
    out = np.zeros(x.shape[:-1] + (1,), dtype or x.dtype)
    for i in range(n):
        out += x[..., i:i + 1]
    return out


def _row_sum(a, b=None):
    """Sum of ``a`` (or of a·b) over the last axis, keepdims, for a
    backward: column adds on a short axis, ``np.einsum`` on a longer one.
    Neither goes through BLAS, so the bytes do not depend on its thread
    count."""
    if a.shape[-1] < _PAIRWISE_BLOCK:
        return _sum_lastdim(a if b is None else a * b)
    if b is None:
        return np.einsum("...j->...", a)[..., None]
    return np.einsum("...j,...j->...", a, b)[..., None]


def _softmax_into(out, x):
    """Row-stable softmax of ``x`` over its last axis, written into ``out``
    (which may be ``x``). The row max is ``_row_max``'s; exp(x − m) is the
    same for m = ±0. The denominator is summed in float64 and each quotient
    is rounded once into ``out``'s dtype."""
    np.subtract(x, _row_max(x), out=out)
    np.exp(out, out=out)
    np.divide(out, _sum_lastdim(out, np.float64), out=out)
    return out


def _softmax_grad(g, y):
    """y · (g - sum(g · y)) over the last axis, in a fresh array."""
    gx = g * y
    inner = _row_sum(gx)
    np.subtract(g, inner, out=gx)
    gx *= y
    return gx


# Added to the variance under the square root: guards zero-variance rows.
LAYER_NORM_EPS = 1e-5


def _layer_norm(z, gamma, beta):
    """Layer norm of ``z`` over its last axis, then γ·x̂ + β: returns the
    output, x̂ and 1/σ, the last two for the backward. The moments are taken
    in float64 and x̂ is rounded once into ``z``'s dtype."""
    xc = z.astype(np.float64)
    xc -= xc.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xc).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xc *= inv
    xhat = xc.astype(z.dtype, copy=False)
    y = gamma * xhat
    y += beta
    return y.astype(z.dtype, copy=False), xhat, inv.astype(z.dtype)


def _layer_norm_grad(g, gamma, xhat, inv, need_gamma, need_beta):
    """Gradients of ``_layer_norm``'s output for its input, γ and β (``None``
    where not needed). The two row means and the γ/β column sums go through
    ``_row_sum`` and ``np.einsum``, not BLAS."""
    d = g.shape[-1]
    g2, xhat2 = g.reshape(-1, d), xhat.reshape(-1, d)
    dgamma = np.einsum("ij,ij->j", g2, xhat2) if need_gamma else None
    dbeta = np.einsum("ij->j", g2) if need_beta else None
    gx = g * gamma
    m1 = _row_sum(gx)
    m1 /= d
    m2 = _row_sum(gx, xhat)
    m2 /= d
    gx -= m1
    gx -= xhat * m2
    gx *= inv
    return gx, dgamma, dbeta


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


def _check_affine(op, gamma, beta, d):
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"{op}: layer-norm affine shapes {gamma.shape}/"
                         f"{beta.shape} do not match feature dim {d}")


def attention(x_q, x_kv, wq, wk, wv, wo, gamma, beta, heads, p_drop=0.0,
              training=False, rng=None):
    """Post-norm attention sublayer LN(x_q + MHA(x_q, x_kv)) of queries
    ``x_q`` [..., nq, d] over keys and values ``x_kv`` [..., nk, d], as one
    tape node; ``gamma`` and ``beta`` [d] are the layer norm's affine.

    With q = x_q·wq, k = x_kv·wk and v = x_kv·wv, each split into ``heads``
    slices of d/heads, MHA is merge(dropout(softmax(q kᵀ / sqrt(d))) v)·wo:
    every head's scores are scaled by the full width d, not by its slice's
    d/heads. The forward runs the same numpy ops in the same order as that
    composition of ``matmul``, ``reshape``, ``transpose``, ``mul``, a row
    softmax, ``dropout``, ``add`` and a layer norm would, and draws the same
    dropout mask at the same point, so its output is bit-identical to
    theirs. The backward is written by hand: it reuses the projections, the
    probabilities, the mask, x̂ and 1/σ, gives ``x_q`` its residual term
    and ``x_kv`` the sum of its key and value terms.
    """
    ins = tuple(as_tensor(t) for t in (x_q, x_kv, wq, wk, wv, wo, gamma, beta))
    xq, xkv = ins[0].data, ins[1].data
    ws = tuple(t.data for t in ins[2:6])
    gd, bd = ins[6].data, ins[7].data
    d = xq.shape[-1]
    if (xq.ndim < 2 or xkv.ndim != xq.ndim or xkv.shape[:-2] != xq.shape[:-2]
            or xkv.shape[-1:] != (d,) or any(w.shape != (d, d) for w in ws)
            or heads < 1 or d % heads):
        raise ShapeError(
            f"attention: queries {xq.shape}, keys/values {xkv.shape}, "
            f"projections {[w.shape for w in ws]}, {heads} heads")
    _check_affine("attention", gd, bd, d)
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
    z = (ctx @ wo).reshape(xq.shape) + xq
    data, xhat, inv = _layer_norm(z, gd, bd)
    _finite_or_raise(data, "attention")

    def rule(g, need):
        dz, dgamma, dbeta = _layer_norm_grad(g, gd, xhat, inv, need[6], need[7])
        if not any(need[:6]):
            return (None,) * 6 + (dgamma, dbeta)
        g2 = dz.reshape(-1, d)
        dctx = split(g2 @ wo.T, nq)
        dprobs = dctx @ np.swapaxes(v4, -1, -2)
        dv = merge(np.swapaxes(dropped, -1, -2) @ dctx)
        if keep is not None:
            dprobs = _drop(dprobs, keep, scale)
        dscores = _softmax_grad(dprobs, probs)
        dscores *= s
        dq = merge(dscores @ k4)
        dk = merge(np.swapaxes(np.swapaxes(q4, -1, -2) @ dscores, -1, -2))
        dxq = dxkv = None
        if need[0]:
            dxq = (dq @ wq.T).reshape(xq.shape)
            dxq += dz
        if need[1]:
            dxkv = (dk @ wk.T).reshape(xkv.shape)
            dxkv += (dv @ wv.T).reshape(xkv.shape)
        return (dxq, dxkv,
                xq2.T @ dq if need[2] else None,
                xkv2.T @ dk if need[3] else None,
                xkv2.T @ dv if need[4] else None,
                ctx.T @ g2 if need[5] else None,
                dgamma, dbeta)
    return _make(data, ins, "attention", rule=rule)


def feed_forward(x, w1, b1, w2, b2, gamma, beta, p_drop=0.0, training=False,
                 rng=None):
    """Post-norm feed-forward sublayer LN(x + dropout(relu(x·w1 + b1)·w2 +
    b2)) over the last axis of ``x`` [..., d], as one tape node; ``gamma``
    and ``beta`` [d] are the layer norm's affine.

    The forward runs the same products and sums as ``matmul``, ``add``, a
    relu, ``matmul``, ``add``, ``dropout``, ``add`` and a layer norm would,
    and draws the same dropout mask, so its output is bit-identical to
    theirs; the backward keeps only the hidden activations, the mask, x̂
    and 1/σ, and gives ``x`` its residual term.
    """
    ins = tuple(as_tensor(t) for t in (x, w1, b1, w2, b2, gamma, beta))
    xd, w1, b1, w2, b2, gd, bd = (t.data for t in ins)
    if (xd.ndim < 1 or w1.ndim != 2 or w2.ndim != 2 or xd.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape != w1.shape[::-1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(
            f"feed_forward: input {xd.shape}, w1 {w1.shape}, b1 {b1.shape}, "
            f"w2 {w2.shape}, b2 {b2.shape}")
    _check_affine("feed_forward", gd, bd, xd.shape[-1])
    _check_rate(p_drop)
    d = xd.shape[-1]
    x2 = xd.reshape(-1, d)
    h = x2 @ w1
    h += b1
    np.maximum(h, 0, out=h)
    f = h @ w2
    f += b2
    f = f.reshape(xd.shape)
    if training and p_drop > 0.0:
        keep, scale = _dropout_mask(f.shape, p_drop, f.dtype, rng)
        f = _drop(f, keep, scale)
    else:
        keep = None
    data, xhat, inv = _layer_norm(f + xd, gd, bd)
    _finite_or_raise(data, "feed_forward")

    def rule(g, need):
        dz, dgamma, dbeta = _layer_norm_grad(g, gd, xhat, inv, need[5], need[6])
        df = dz if keep is None else _drop(dz, keep, scale)
        df = df.reshape(-1, d)
        dh = None
        if any(need[:3]):
            dh = df @ w2.T
            dh *= h > 0
        dx = None
        if need[0]:
            dx = (dh @ w1.T).reshape(xd.shape)
            dx += dz
        return (dx,
                x2.T @ dh if need[1] else None,
                np.einsum("ij->j", dh) if need[2] else None,
                h.T @ df if need[3] else None,
                np.einsum("ij->j", df) if need[4] else None,
                dgamma, dbeta)
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
