"""The fused ``attention`` and ``feed_forward`` sublayers against their tape
compositions.

The reference builds each sublayer from primitive ops, one node per step:
attention as projections, split heads, scores, softmax, dropout, context,
merge and output; the feed-forward as matmul, bias, relu, matmul, bias and
dropout; each then adds its residual and applies ``layer_norm``. The fused
forward must equal the reference bit for bit, dropout included (same rng,
same draws). The fused backward sums some terms in another order, so each
input gradient must agree to 2e-6 relative to its largest entry.
"""

import numpy as np
import pytest

from pkge import tensor
from pkge.errors import NumericError, ShapeError
from pkge.tensor import (Tensor, add, attention, dropout, feed_forward, matmul,
                         mul, reshape, transpose)

from reference_ops import layer_norm, reduce_sum, relu, softmax_lastdim

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


def reference_attention(x_q, x_kv, wq, wk, wv, wo, gamma, beta, heads,
                        p_drop=0.0, training=False, rng=None):
    q = _split_heads(matmul(x_q, wq), heads)
    k = _split_heads(matmul(x_kv, wk), heads)
    v = _split_heads(matmul(x_kv, wv), heads)
    ctx = scaled_dot_attention(q, k, v, x_q.shape[-1], p_drop, training, rng)
    return layer_norm(add(matmul(_merge_heads(ctx), wo), x_q), gamma, beta)


def reference_feed_forward(x, w1, b1, w2, b2, gamma, beta, p_drop=0.0,
                           training=False, rng=None):
    f = add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)
    return layer_norm(add(dropout(f, p_drop, training, rng), x), gamma, beta)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

D, HEADS = 6, 3

# name: (query shape, key/value shape or None for self-attention). Every
# case but "wide" has fewer than 8 keys and features, so its softmax and
# layer-norm sums are column adds; "wide" takes the longer-axis sums.
ATTENTION_SHAPES = {
    "cross": ((4, 2, D), (4, 5, D)),
    "self": ((4, 3, D), None),
    "unbatched": ((2, D), (5, D)),
    "wide": ((3, 4, 4 * D), (3, 9, 4 * D)),
}


def affine_leaves(d, dtype, rng):
    return [Tensor(rng.uniform(0.5, 1.5, d).astype(dtype), requires_grad=True),
            Tensor(rng.standard_normal(d).astype(dtype), requires_grad=True)]


def attention_inputs(name, dtype=np.float32, seed=0):
    """(x_q, x_kv, wq, wk, wv, wo, gamma, beta) as requires-grad leaves; x_kv
    is x_q for self-attention."""
    rng = np.random.default_rng(seed)
    q_shape, kv_shape = ATTENTION_SHAPES[name]
    d = q_shape[-1]

    def leaf(shape, scale=1.0):
        return Tensor((rng.standard_normal(shape) * scale).astype(dtype),
                      requires_grad=True)
    x_q = leaf(q_shape)
    x_kv = x_q if kv_shape is None else leaf(kv_shape)
    weights = [leaf((d, d), 0.5) for _ in range(4)]
    return [x_q, x_kv] + weights + affine_leaves(d, dtype, rng)


def ffn_inputs(lead=(4, 3), dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    shapes = [lead + (D,), (D, 8), (8,), (8, D), (D,)]
    return ([Tensor((rng.standard_normal(s) * 0.7).astype(dtype),
                    requires_grad=True) for s in shapes]
            + affine_leaves(D, dtype, rng))


# name: (leading shape, dropout rate, training)
FFN_CASES = {
    "batched": ((4, 3), 0.0, False),
    "rows": ((5,), 0.0, False),
    "batched-train-dropout": ((4, 3), 0.3, True),
    "rows-eval": ((5,), 0.3, False),
}


def distinct(inputs):
    """The inputs, each tensor once (self-attention passes one twice)."""
    seen = []
    for t in inputs:
        if not any(t is s for s in seen):
            seen.append(t)
    return seen


def input_grads(build, inputs, seed=1):
    """Gradients of a weighted sum of ``build(*inputs)`` for each distinct
    input that requires one, and the output."""
    for t in inputs:
        t.grad = None
    out = build(*inputs)
    w = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
    reduce_sum(mul(out, w)).backward()
    return [t.grad.copy() for t in distinct(inputs) if t.requires_grad], out.data


def assert_grads_close(got, want):
    for g, r in zip(got, want):
        assert g.shape == r.shape and g.dtype == r.dtype
        err = np.abs(g - r).max() / np.abs(r).max()
        assert err <= GRAD_RTOL, err


def sublayer(op, *args, seed):
    """``op(*inputs, *args, rng)`` with a fresh generator of ``seed``."""
    def build(*inputs):
        return op(*inputs, *args, np.random.default_rng(seed))
    return build


def fused_attention(p_drop, training, seed):
    return sublayer(attention, HEADS, p_drop, training, seed=seed)


def composed_attention(p_drop, training, seed):
    return sublayer(reference_attention, HEADS, p_drop, training, seed=seed)


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
    assert len(got) == (7 if name == "self" else 8)
    assert_grads_close(got, want)


def test_attention_is_one_node():
    inputs = attention_inputs("cross")
    out = attention(*inputs, HEADS, 0.3, True, np.random.default_rng(0))
    assert out.op == "attention"
    assert all(p is t for p, t in zip(out._prev, inputs))


@pytest.mark.parametrize("bad", ["heads", "kv-width", "lead", "kv-1d", "weight",
                                 "affine"])
def test_attention_shape_errors(bad):
    x_q, x_kv, wq, wk, wv, wo, gamma, beta = attention_inputs(
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
    if bad == "affine":
        beta = Tensor(np.zeros(D + 1, np.float32))
    with pytest.raises(ShapeError):
        attention(x_q, x_kv, wq, wk, wv, wo, gamma, beta, heads)


# ---------------------------------------------------------------------------
# feed-forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", list(FFN_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feed_forward_forward_bit_identical(case, dtype):
    lead, p_drop, training = FFN_CASES[case]
    inputs = ffn_inputs(lead, dtype)
    fused = sublayer(feed_forward, p_drop, training, seed=5)(*inputs).data
    ref = sublayer(reference_feed_forward, p_drop, training, seed=5)(*inputs).data
    assert fused.dtype == ref.dtype and fused.shape == ref.shape
    assert np.array_equal(fused, ref)


@pytest.mark.parametrize("case", list(FFN_CASES))
def test_feed_forward_gradients_match_reference(case):
    lead, p_drop, training = FFN_CASES[case]
    inputs = ffn_inputs(lead)
    got, _ = input_grads(sublayer(feed_forward, p_drop, training, seed=5), inputs)
    want, _ = input_grads(
        sublayer(reference_feed_forward, p_drop, training, seed=5), inputs)
    assert len(got) == 7
    assert_grads_close(got, want)


def test_feed_forward_is_one_node():
    inputs = ffn_inputs()
    out = feed_forward(*inputs, 0.3, True, np.random.default_rng(0))
    assert out.op == "feed_forward"
    assert all(p is t for p, t in zip(out._prev, inputs))


def test_feed_forward_relu_gate():
    # Hidden units with a negative pre-activation pass no gradient: with
    # w1 = 0 and b1 = (1, -1) only the first hidden unit is live.
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    w1 = Tensor(np.zeros((3, 2), np.float32), requires_grad=True)
    b1 = Tensor(np.array([1.0, -1.0], np.float32), requires_grad=True)
    w2 = Tensor(np.array([[1.0, 2.0, 4.0], [1.0, 1.0, 1.0]], np.float32),
                requires_grad=True)
    b2 = Tensor(np.zeros(3, np.float32), requires_grad=True)
    gamma = Tensor(np.ones(3, np.float32))
    beta = Tensor(np.zeros(3, np.float32))
    out = feed_forward(x, w1, b1, w2, b2, gamma, beta)
    # Each row is LN(1 + (1, 2, 4)): mean 10/3, deviations (-4, -1, 5)/3.
    dev = np.array([-4.0, -1.0, 5.0]) / 3
    want = dev / np.sqrt(np.mean(dev ** 2) + tensor.LAYER_NORM_EPS)
    np.testing.assert_allclose(out.data, [want, want], rtol=1e-6)
    reduce_sum(mul(out, np.array([1.0, -2.0, 3.0], np.float32))).backward()
    assert b1.grad[0] != 0.0 and b1.grad[1] == 0.0
    assert np.all(w2.grad[0] != 0.0) and np.all(w2.grad[1] == 0.0)
    assert np.all(w1.grad[:, 1] == 0.0)


def test_feed_forward_shape_errors():
    x, w1, b1, w2, b2, gamma, beta = ffn_inputs()
    with pytest.raises(ShapeError):
        feed_forward(x, w1, Tensor(np.zeros(7, np.float32)), w2, b2, gamma, beta)
    with pytest.raises(ShapeError):
        feed_forward(x, w2, b1, w2, b2, gamma, beta)
    with pytest.raises(ShapeError):      # the output must be as wide as x
        feed_forward(x, w1, b1, Tensor(np.zeros((8, D + 1), np.float32)),
                     Tensor(np.zeros(D + 1, np.float32)), gamma, beta)
    with pytest.raises(ShapeError):
        feed_forward(x, w1, b1, w2, b2, Tensor(np.ones(D - 1, np.float32)), beta)


# ---------------------------------------------------------------------------
# both sublayers
# ---------------------------------------------------------------------------


def test_block_draws_both_masks_in_the_reference_order():
    # Attention, then feed-forward, on one generator: the same outputs and
    # the same generator state as the reference composition's.
    x_q, x_kv, *attn = attention_inputs("cross")
    _, *ffn = ffn_inputs()
    rngs = [np.random.default_rng(11), np.random.default_rng(11)]
    outs = []
    for att, ff, rng in ((attention, feed_forward, rngs[0]),
                         (reference_attention, reference_feed_forward, rngs[1])):
        x = att(x_q, x_kv, *attn, HEADS, 0.3, True, rng)
        outs.append(ff(x, *ffn, 0.3, True, rng).data)
    assert np.array_equal(outs[0], outs[1])
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("op", ["attention", "feed_forward"])
def test_only_the_affine_needs_a_gradient(op):
    # Every input but gamma and beta is a constant: the backward skips the
    # sublayer's own gradients and gives gamma and beta the same bytes.
    inputs = attention_inputs("cross") if op == "attention" else ffn_inputs()
    build = (fused_attention(0.3, True, 5) if op == "attention"
             else sublayer(feed_forward, 0.3, True, seed=5))
    want, _ = input_grads(build, inputs)
    for t in inputs[:-2]:
        t.requires_grad = False
    got, _ = input_grads(build, inputs)
    assert len(got) == 2
    for g, w in zip(got, want[-2:]):
        assert np.array_equal(g, w)


def big(*shape, value=3e38):
    return Tensor(np.full(shape, value, dtype=np.float32))


# Finite float32 inputs on which a step inside the sublayer overflows; the
# inf turns into NaN in the layer norm and reaches the output check.
INNER_OVERFLOWS = {
    "attention-output": lambda: attention(
        big(1, 2, 2, value=1.0), big(1, 2, 2, value=1.0),
        *(big(2, 2, value=1.0) for _ in range(3)), big(2, 2),
        big(2, value=1.0), big(2, value=0.0), 1),
    "attention-residual": lambda: attention(
        big(1, 2, 2), big(1, 2, 2, value=1.0),
        *(big(2, 2, value=0.0) for _ in range(2)), big(2, 2, value=1.0),
        big(2, 2, value=5e37), big(2, value=1.0), big(2, value=0.0), 1),
    "feed_forward-output": lambda: feed_forward(
        big(3, 2, value=1.0), big(2, 2, value=1.0), big(2, value=0.0),
        big(2, 2), big(2, value=0.0), big(2, value=1.0), big(2, value=0.0)),
    "feed_forward-residual": lambda: feed_forward(
        big(3, 2), big(2, 2, value=1e-30), big(2, value=0.0),
        big(2, 2, value=1e29), big(2, value=0.0), big(2, value=1.0),
        big(2, value=0.0)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(INNER_OVERFLOWS))
def test_inner_overflow_raises(case):
    with pytest.raises(NumericError):
        INNER_OVERFLOWS[case]()


# ---------------------------------------------------------------------------
# the short-axis sum
# ---------------------------------------------------------------------------


def wide_range(rng, shape):
    """Values of both signs over about 90 binary orders of magnitude."""
    return rng.standard_normal(shape) * np.exp2(rng.integers(-45, 45, shape))


@pytest.mark.parametrize("dtype, acc", [(np.float32, None), (np.float32, np.float64),
                                        (np.float64, None)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 13])
def test_sum_lastdim_matches_numpy_bytes(n, dtype, acc):
    rng = np.random.default_rng(n)
    x = wide_range(rng, (6, 5, n)).astype(dtype)
    x[0] = -0.0                       # all-(-0.0) rows sum to +0.0
    x[1, :, 0] = -0.0
    got = tensor._sum_lastdim(x, acc)
    want = x.sum(axis=-1, keepdims=True, dtype=acc)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
