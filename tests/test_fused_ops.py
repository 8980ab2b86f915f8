"""The fused ``attention`` and ``feed_forward`` ops against their tape
compositions.

The reference builds each sublayer from primitive ops, one node per step:
attention as projections, split heads, scores, softmax, dropout, context,
merge and output; the feed-forward as matmul, bias, relu, matmul and bias.
The fused forward must equal the reference bit for bit, dropout included
(same rng, same draws). The fused backward sums some terms in another order,
so each input gradient must agree to 2e-6 relative to its largest entry.
"""

import numpy as np
import pytest

from pkge.errors import ShapeError
from pkge.tensor import (Tensor, add, attention, dropout, feed_forward, matmul,
                         mul, reshape, transpose)

from reference_ops import reduce_sum, relu, softmax_lastdim

GRAD_RTOL = 2e-6


# ---------------------------------------------------------------------------
# reference compositions
# ---------------------------------------------------------------------------


def _swap_axes(x, i, j):
    axes = list(range(len(x.shape)))
    axes[i], axes[j] = axes[j], axes[i]
    return transpose(x, tuple(axes))


def scaled_dot_attention(q, k, v, denom, p_drop=0.0, training=False, rng=None):
    """softmax(q kᵀ / sqrt(denom)) v over the last two axes."""
    scores = mul(matmul(q, _swap_axes(k, -1, -2)), 1.0 / np.sqrt(denom))
    probs = softmax_lastdim(scores)
    probs = dropout(probs, p_drop, training, rng)
    return matmul(probs, v)


def _split_heads(x, heads):
    *lead, n, d = x.shape
    return _swap_axes(reshape(x, tuple(lead) + (n, heads, d // heads)), -3, -2)


def _merge_heads(x):
    x = _swap_axes(x, -3, -2)
    *lead, n, heads, ds = x.shape
    return reshape(x, tuple(lead) + (n, heads * ds))


def reference_attention(x_q, x_kv, wq, wk, wv, wo, heads, p_drop=0.0,
                        training=False, rng=None):
    q = _split_heads(matmul(x_q, wq), heads)
    k = _split_heads(matmul(x_kv, wk), heads)
    v = _split_heads(matmul(x_kv, wv), heads)
    ctx = scaled_dot_attention(q, k, v, x_q.shape[-1], p_drop, training, rng)
    return matmul(_merge_heads(ctx), wo)


def reference_feed_forward(x, w1, b1, w2, b2):
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

D, HEADS = 6, 3

# name: (query shape, key/value shape or None for self-attention)
ATTENTION_SHAPES = {
    "cross": ((4, 2, D), (4, 5, D)),
    "self": ((4, 3, D), None),
    "unbatched": ((2, D), (5, D)),
}


def attention_inputs(name, dtype=np.float32, seed=0):
    """(x_q, x_kv, wq, wk, wv, wo) as requires-grad leaves; x_kv is x_q for
    self-attention."""
    rng = np.random.default_rng(seed)
    q_shape, kv_shape = ATTENTION_SHAPES[name]

    def leaf(shape, scale=1.0):
        return Tensor((rng.standard_normal(shape) * scale).astype(dtype),
                      requires_grad=True)
    x_q = leaf(q_shape)
    x_kv = x_q if kv_shape is None else leaf(kv_shape)
    return [x_q, x_kv] + [leaf((D, D), 0.5) for _ in range(4)]


def ffn_inputs(lead=(4, 3), dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    shapes = [lead + (D,), (D, 8), (8,), (8, D), (D,)]
    return [Tensor((rng.standard_normal(s) * 0.7).astype(dtype), requires_grad=True)
            for s in shapes]


def distinct(inputs):
    """The inputs, each tensor once (self-attention passes one twice)."""
    seen = []
    for t in inputs:
        if not any(t is s for s in seen):
            seen.append(t)
    return seen


def input_grads(build, inputs, seed=1):
    """Gradients of a weighted sum of ``build(*inputs)`` for each distinct
    input, and the output."""
    for t in inputs:
        t.grad = None
    out = build(*inputs)
    w = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
    reduce_sum(mul(out, w)).backward()
    return [t.grad.copy() for t in distinct(inputs)], out.data


def assert_grads_close(got, want):
    for g, r in zip(got, want):
        assert g.shape == r.shape and g.dtype == r.dtype
        err = np.abs(g - r).max() / np.abs(r).max()
        assert err <= GRAD_RTOL, err


def fused_attention(p_drop, training, seed):
    def build(*inputs):
        return attention(*inputs, HEADS, p_drop, training,
                         np.random.default_rng(seed))
    return build


def composed_attention(p_drop, training, seed):
    def build(*inputs):
        return reference_attention(*inputs, HEADS, p_drop, training,
                                   np.random.default_rng(seed))
    return build


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p_drop, training", [(0.3, True), (0.3, False), (0.0, True)],
                         ids=["train-dropout", "eval", "no-dropout"])
@pytest.mark.parametrize("name", list(ATTENTION_SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_forward_bit_identical(name, p_drop, training, dtype):
    inputs = attention_inputs(name, dtype)
    fused = fused_attention(p_drop, training, 5)(*inputs).data
    ref = composed_attention(p_drop, training, 5)(*inputs).data
    assert fused.dtype == ref.dtype and fused.shape == ref.shape
    assert np.array_equal(fused, ref)


def test_attention_draws_the_reference_mask():
    # After one call both generators must be in the same state: the fused
    # op drew exactly the reference's dropout values.
    inputs = attention_inputs("cross")
    rngs = [np.random.default_rng(9), np.random.default_rng(9)]
    attention(*inputs, HEADS, 0.3, True, rngs[0])
    reference_attention(*inputs, HEADS, 0.3, True, rngs[1])
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("p_drop, training", [(0.3, True), (0.0, False)],
                         ids=["train-dropout", "eval"])
@pytest.mark.parametrize("name", list(ATTENTION_SHAPES))
def test_attention_gradients_match_reference(name, p_drop, training):
    inputs = attention_inputs(name)
    got, _ = input_grads(fused_attention(p_drop, training, 5), inputs)
    want, _ = input_grads(composed_attention(p_drop, training, 5), inputs)
    assert len(got) == (5 if name == "self" else 6)
    assert_grads_close(got, want)


def test_attention_is_one_node():
    inputs = attention_inputs("cross")
    out = attention(*inputs, HEADS, 0.3, True, np.random.default_rng(0))
    assert out.op == "attention"
    assert all(p is t for p, t in zip(out._prev, inputs))


@pytest.mark.parametrize("bad", ["heads", "kv-width", "lead", "kv-1d", "weight"])
def test_attention_shape_errors(bad):
    x_q, x_kv, wq, wk, wv, wo = attention_inputs(
        "unbatched" if bad == "kv-1d" else "cross")
    heads = 4 if bad == "heads" else HEADS
    if bad == "kv-width":
        x_kv = Tensor(np.zeros((4, 5, D + 1), np.float32))
    if bad == "lead":
        x_kv = Tensor(np.zeros((3, 5, D), np.float32))
    if bad == "kv-1d":       # queries [nq, d], keys/values [d]
        x_kv = Tensor(np.zeros((D,), np.float32))
    if bad == "weight":
        wo = Tensor(np.zeros((D, D + 1), np.float32))
    with pytest.raises(ShapeError):
        attention(x_q, x_kv, wq, wk, wv, wo, heads)


# ---------------------------------------------------------------------------
# feed-forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lead", [(4, 3), (5,)], ids=["batched", "rows"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feed_forward_forward_bit_identical(lead, dtype):
    inputs = ffn_inputs(lead, dtype)
    fused = feed_forward(*inputs).data
    ref = reference_feed_forward(*inputs).data
    assert fused.dtype == ref.dtype and fused.shape == ref.shape
    assert np.array_equal(fused, ref)


@pytest.mark.parametrize("lead", [(4, 3), (5,)], ids=["batched", "rows"])
def test_feed_forward_gradients_match_reference(lead):
    inputs = ffn_inputs(lead)
    got, _ = input_grads(feed_forward, inputs)
    want, _ = input_grads(reference_feed_forward, inputs)
    assert_grads_close(got, want)


def test_feed_forward_relu_gate():
    # Hidden units with a negative pre-activation pass no gradient: with
    # w1 = 0 and b1 = (1, -1) only the first hidden unit is live.
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    w1 = Tensor(np.zeros((3, 2), np.float32), requires_grad=True)
    b1 = Tensor(np.array([1.0, -1.0], np.float32), requires_grad=True)
    w2 = Tensor(np.ones((2, 1), np.float32), requires_grad=True)
    b2 = Tensor(np.zeros(1, np.float32), requires_grad=True)
    out = feed_forward(x, w1, b1, w2, b2)
    np.testing.assert_array_equal(out.data, [[1.0], [1.0]])
    reduce_sum(out).backward()
    np.testing.assert_array_equal(b1.grad, [2.0, 0.0])
    np.testing.assert_array_equal(w2.grad, [[2.0], [0.0]])
    np.testing.assert_array_equal(w1.grad, [[2.0, 0.0]] * 3)


def test_feed_forward_shape_errors():
    x, w1, b1, w2, b2 = ffn_inputs()
    with pytest.raises(ShapeError):
        feed_forward(x, w1, Tensor(np.zeros(7, np.float32)), w2, b2)
    with pytest.raises(ShapeError):
        feed_forward(x, w2, b1, w2, b2)
