import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkge import tensor
from pkge.errors import ConfigError, GraphError, NumericError, ShapeError
from pkge.tensor import (Tensor, add, as_tensor, attention, bce_with_logits,
                         concat, dropout, feed_forward, gather_rows,
                         l1_distance, matmul, mul, reshape, transpose)

from reference_ops import layer_norm, reduce_sum, relu, softmax_lastdim
from test_tape import public_ops


def scalar_loss(t):
    return reduce_sum(t)


def sigmoid(z):
    """sigmoid(z) as ``bce_with_logits`` computes it: the gradient of
    count·bce_with_logits(z) with no answers and lo = 0 is exactly its
    (sigmoid(z) - 0) term."""
    t = Tensor(z, requires_grad=True)
    no_answers = np.nonzero(np.zeros(t.shape))
    mul(bce_with_logits(t, no_answers, 0.0, 1.0), float(t.data.size)).backward()
    return t.grad


def small_arrays(shape):
    return hnp.arrays(np.float64, shape,
                      elements=st.floats(-5, 5, allow_nan=False))


class TestConstruction:
    def test_int_input_becomes_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t


class TestElementwise:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        b = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
        out = a + b
        np.testing.assert_array_equal(out.data, np.ones((2, 3)) + np.arange(3))
        scalar_loss(out).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.full(3, 2.0))
        # a size-1 axis broadcast: its gradient sums over that axis
        c = Tensor(np.arange(2, dtype=np.float32).reshape(2, 1),
                   requires_grad=True)
        scalar_loss(a + c).backward()
        np.testing.assert_array_equal(c.grad, np.full((2, 1), 3.0))

    def test_mul_scalar_and_rsub(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = 1.0 - mul(x, 2.0)
        np.testing.assert_allclose(out.data, [-1.0, -3.0])
        scalar_loss(out).backward()
        np.testing.assert_allclose(x.grad, [-2.0, -2.0])

    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        scalar_loss(x + x).backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_l1_distance_subgradient_zero_at_zero(self):
        q = Tensor(np.array([[-2.0, 0.0, 5.0]]), requires_grad=True)
        table = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = l1_distance(q, table)
        np.testing.assert_array_equal(out.data, [[7.0, 7.0]])
        scalar_loss(out).backward()
        np.testing.assert_array_equal(q.grad, [[-2.0, 0.0, 2.0]])
        np.testing.assert_array_equal(table.grad, [[1.0, 0.0, -1.0]] * 2)

    @staticmethod
    def l1_reference(q, table, g):
        """Logits and both gradients of sum(g * l1_distance(q, table))."""
        diff = q[:, None, :] - table[None, :, :]
        weighted = g[:, :, None] * np.sign(diff)
        return np.abs(diff).sum(-1), weighted.sum(1), -weighted.sum(0)

    def test_l1_distance_calls_share_block_buffers(self, monkeypatch):
        # Both ops of one graph run their forward before either backward, and
        # the larger one regrows the shared buffers in between.
        monkeypatch.setattr(tensor, "L1_BLOCK_BYTES", 100)
        rng = np.random.default_rng(0)
        table = rng.standard_normal((5, 3))
        qs = [rng.standard_normal((b, 3)) for b in (2, 7)]
        gs = [rng.standard_normal((b, 5)) for b in (2, 7)]
        t = Tensor(table, requires_grad=True)
        ts = [Tensor(q, requires_grad=True) for q in qs]
        outs = [l1_distance(q, t) for q in ts]
        (reduce_sum(mul(outs[0], gs[0])) + reduce_sum(mul(outs[1], gs[1]))).backward()
        want_table = 0.0
        for q, g, out, q_t in zip(qs, gs, outs, ts):
            logits, dq, dtable = self.l1_reference(q, table, g)
            np.testing.assert_allclose(out.data, logits, rtol=1e-12)
            np.testing.assert_allclose(q_t.grad, dq, rtol=1e-12)
            want_table = want_table + dtable
        np.testing.assert_allclose(t.grad, want_table, rtol=1e-12)

    # One [3, 1, 4] float32 row block is 48 bytes: 96 bytes gives blocks of
    # 2, 2 and 1 table rows.
    @pytest.mark.parametrize("block_bytes", [1, 96, tensor.L1_BLOCK_BYTES],
                             ids=["row-per-block", "partial-last-block",
                                  "default"])
    def test_l1_distance_signs_at_ties_ulps_and_subnormals(self, monkeypatch,
                                                           block_bytes):
        monkeypatch.setattr(tensor, "L1_BLOCK_BYTES", block_bytes)
        f32 = np.float32
        tiny = np.finfo(f32).smallest_subnormal
        up, down = np.nextafter(f32(1), f32(2)), np.nextafter(f32(1), f32(0))
        q = np.array([[0, 1, 0, -0.0],
                      [1, 0, tiny, 2 * tiny],
                      [-1, up, -tiny, 0]], f32)
        table = np.array([[0, 1, 0, 0],            # ties, also 0 against -0
                          [tiny, up, -tiny, 0],    # subnormal and ulp gaps
                          [-tiny, down, 0, tiny],
                          [1, 0, tiny, 2 * tiny],  # row 1 of q exactly
                          [up, down, 2 * tiny, -tiny]], f32)
        signs = np.sign(q[:, None] - table[None])
        assert {-1, 0, 1} <= set(signs.ravel())
        # Small integer weights keep every gradient sum exact in any order.
        g = np.arange(15, dtype=f32).reshape(3, 5) % 7 - 3
        q_t, t_t = Tensor(q, requires_grad=True), Tensor(table, requires_grad=True)
        scalar_loss(mul(l1_distance(q_t, t_t), g)).backward()
        np.testing.assert_array_equal(q_t.grad, (g[:, :, None] * signs).sum(1))
        np.testing.assert_array_equal(t_t.grad, -(g[:, :, None] * signs).sum(0))

    def test_l1_distance_feature_mismatch_raises(self):
        with pytest.raises(ShapeError):
            l1_distance(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        scalar_loss(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestMatmul:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, a @ b,
                                   rtol=1e-6)

    def test_batched_broadcast_gradient(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        scalar_loss(matmul(a, b)).backward()
        assert a.grad.shape == (3, 2, 4)
        assert b.grad.shape == (4, 2)

    def test_inner_mismatch_raises(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_vector_operand_raises(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestStructural:
    def test_reshape_bad_shape(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros(6)), (4, 2))

    def test_transpose_roundtrip_gradient(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4),
                   requires_grad=True)
        y = transpose(x, (1, 2, 0))
        assert y.shape == (3, 4, 2)
        scalar_loss(y).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        scalar_loss(mul(out, 2.0)).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))

    def test_gather_rows_accumulates_duplicates(self):
        table = Tensor(np.eye(3, dtype=np.float32), requires_grad=True)
        out = gather_rows(table, np.array([0, 0, 2]))
        scalar_loss(out).backward()
        expected = np.zeros((3, 3))
        expected[0] = 2.0   # row fetched twice
        expected[2] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_gather_rows_out_of_range(self):
        with pytest.raises(LookupError):
            gather_rows(Tensor(np.zeros((3, 2))), np.array([3]))

    @given(st.integers(1, 6), st.sampled_from([np.float32, np.float64]),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_gather_rows_backward_bytes_equal_add_at(self, n_rows, dtype, data):
        # Repeated, 2-D, empty and all-equal ids; gradients holding +0, -0
        # and values across a wide range of exponents, so any other
        # summation order or a first round that assigned would show.
        ids = data.draw(hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                              min_side=0, max_side=9),
                                   elements=st.integers(0, n_rows - 1)))
        elements = (st.sampled_from([0.0, -0.0])
                    | st.floats(-2.0 ** 100, 2.0 ** 100, width=32))
        g = data.draw(hnp.arrays(dtype, ids.shape + (3,), elements=elements))
        table = Tensor(np.ones((n_rows, 3), dtype), requires_grad=True)
        out = gather_rows(table, ids)
        out.grad = g
        out._backward()
        want = np.zeros((n_rows, 3), dtype)
        np.add.at(want, ids, g)
        assert table.grad.dtype == dtype
        assert table.grad.tobytes() == want.tobytes()

    def test_concat_of_nothing(self):
        with pytest.raises(ShapeError, match="zero tensors"):
            concat([])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        out = reduce_sum(x, axis=1, keepdims=True)
        np.testing.assert_array_equal(out.data, [[3.0], [12.0]])
        assert out.dtype == np.float32

    def test_sum_accumulates_in_float64(self):
        x = np.full(1_000_000, 0.1, dtype=np.float32)
        got = reduce_sum(Tensor(x)).item()
        want = float(np.sum(x.astype(np.float64)))
        assert abs(got - want) < 0.5


class TestNonlinearities:
    def test_softmax_over_empty_axis(self):
        with pytest.raises(ShapeError, match="empty axis"):
            softmax_lastdim(Tensor(np.zeros((2, 0), np.float32)))

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(0.5)

    @given(small_arrays((7,)))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_symmetry(self, x):
        np.testing.assert_allclose(sigmoid(x), 1.0 - sigmoid(-x), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_match_three_exp_formula(self, dtype):
        # Reference: the np.where form with exp(-|z|) evaluated per branch.
        special = [0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 20.0, -20.0, 88.7,
                   -88.7, 100.0, -100.0, np.finfo(dtype).smallest_subnormal,
                   -np.finfo(dtype).smallest_subnormal]
        rng = np.random.default_rng(3)
        z = np.concatenate([special, 30.0 * rng.standard_normal(10_000)])
        z = z.astype(dtype)
        want = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                        np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        want = want.astype(dtype)
        got = sigmoid(z)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @given(hnp.arrays(np.float64, (3, 6),
                      elements=st.floats(-50, 50, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, x):
        y = softmax_lastdim(Tensor(x)).data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(3), rtol=1e-9)
        assert np.all(y >= 0)

    @given(small_arrays((2, 5)), st.floats(-30, 30, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariance(self, x, c):
        a = softmax_lastdim(Tensor(x)).data
        b = softmax_lastdim(Tensor(x + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.integers(1, 33), st.sampled_from([np.float32, np.float64]),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_halving_row_max_equals_the_reduction(self, n, dtype, data):
        # NaN wins either way; a zero maximum may come out as +0 or -0, which
        # compare equal and give softmax the same exp(x - m).
        elements = (st.sampled_from([0.0, -0.0, np.nan, -np.inf, 1.5])
                    | st.floats(-1e3, 1e3, width=32))
        x = data.draw(hnp.arrays(dtype, (3, 2, n), elements=elements))
        got = tensor._row_max(x)
        assert got.shape == (3, 2, 1) and got.dtype == dtype
        np.testing.assert_array_equal(got, x.max(axis=-1, keepdims=True))

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 16)).astype(np.float32)
        out = layer_norm(Tensor(x), Tensor(np.ones(16, np.float32)),
                         Tensor(np.zeros(16, np.float32))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(6), atol=1e-3)

    def test_layer_norm_affine(self):
        x = Tensor(np.zeros((2, 4), np.float32))
        out = layer_norm(x, Tensor(np.full(4, 2.0, np.float32)),
                         Tensor(np.full(4, 7.0, np.float32)))
        np.testing.assert_allclose(out.data, np.full((2, 4), 7.0))

    def test_layer_norm_shape_checks(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones(8))
        assert dropout(x, 0.5, None) is x

    def test_zero_rate_is_identity(self):
        x = Tensor(np.ones(8))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_survivors_scaled(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100), np.float32))
        out = dropout(x, 0.25, rng).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, np.full(kept.shape, 1.0 / 0.75),
                                   rtol=1e-6)
        assert abs((out == 0).mean() - 0.25) < 0.02

    def test_bad_rate_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ConfigError):
            dropout(x, 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            dropout(x, -0.1, np.random.default_rng(0))


class TestGraph:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            (x + 1.0).backward()

    def test_gradient_of_another_dtype_raises(self):
        # a float32 leaf added to a float64 tensor gets a float64 gradient,
        # which is an error rather than a silent cast
        leaf = Tensor(np.ones(3, np.float32), requires_grad=True)
        out = reduce_sum(add(Tensor(np.ones(3, np.float64)), leaf))
        with pytest.raises(GraphError, match="float32.*float64"):
            out.backward()

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        reduce_sum(y).backward()
        np.testing.assert_allclose(x.grad, [1.0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_raises_numeric_error(self):
        big = Tensor(np.full((2, 2), 3e38, dtype=np.float32))
        with pytest.raises(NumericError):
            matmul(big, big)

    def test_no_grad_leaves_untouched(self):
        x = Tensor(np.ones(3))
        loss = reduce_sum(x + 1.0)
        loss.backward()
        assert x.grad is None


def big(*shape, value=3e38):
    return Tensor(np.full(shape, value, dtype=np.float32))


# Ops that can turn finite inputs into inf or NaN, each with finite float32
# inputs on which it does; these ops check their result.
OVERFLOW_CASES = {
    "add": lambda: big(2) + big(2),
    "mul": lambda: mul(big(2), 2.0),
    "matmul": lambda: matmul(big(3, 2, 2), big(2, 1, value=1.0)),
    "matmul-rows": lambda: matmul(big(3, 1, 2), big(2, 1, value=1.0)),
    "reduce_sum": lambda: reduce_sum(big(2)),
    "l1_distance": lambda: l1_distance(big(1, 2), big(3, 2, value=-3e38)),
    "layer_norm": lambda: layer_norm(Tensor(np.array([[1.0, 2.0]], np.float32)),
                                     big(2), big(2)),
    "dropout": lambda: dropout(big(8), 0.5, np.random.default_rng(0)),
    "bce_with_logits": lambda: bce_with_logits(big(2), np.nonzero(np.ones(2)),
                                               0.0, -1.0),
    "attention": lambda: attention(big(1, 2, 2), big(1, 2, 2),
                                   *(big(2, 2, value=1.0) for _ in range(4)),
                                   big(2, value=1.0), big(2, value=0.0), 1),
    "feed_forward": lambda: feed_forward(big(3, 2), big(2, 2, value=1.0),
                                         big(2, value=0.0), big(2, 2, value=1.0),
                                         big(2, value=0.0), big(2, value=1.0),
                                         big(2, value=0.0)),
}

# Ops that only move, select, clamp or normalize values: finite in, finite
# out, so they skip the check.
EXTREMES = np.array([[3.4e38, -3.4e38, 1e-45], [0.0, -1e-45, 1.0]],
                    dtype=np.float32)
PASSTHROUGH_CASES = {
    "reshape": lambda x: reshape(x, (3, 2)),
    "transpose": transpose,
    "concat": lambda x: concat([x, x]),
    "gather_rows": lambda x: gather_rows(x, np.array([1, 0, 1])),
    "relu": relu,
    "softmax_lastdim": softmax_lastdim,
}


class TestFiniteness:
    def test_every_public_op_is_classified_once(self):
        checking = {name.split("-")[0] for name in OVERFLOW_CASES}
        assert not checking & set(PASSTHROUGH_CASES)
        assert checking | set(PASSTHROUGH_CASES) == public_ops()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", list(OVERFLOW_CASES))
    def test_overflow_from_finite_inputs_raises(self, name):
        with pytest.raises(NumericError):
            OVERFLOW_CASES[name]()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", list(PASSTHROUGH_CASES))
    def test_unchecked_op_keeps_extremes_finite(self, name):
        out = PASSTHROUGH_CASES[name](Tensor(EXTREMES))
        assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# softmax_lastdim, layer_norm and dropout work in place on arrays they
# allocate; these are the formulas they replaced, which they must equal bit
# for bit, forward and backward.
# ---------------------------------------------------------------------------


def formula_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=-1, keepdims=True, dtype=np.float64)
    y = (ex / denom).astype(x.dtype)

    def grad(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)
    return y, grad


def formula_layer_norm(x, gamma, beta, eps=1e-5):
    d = x.shape[-1]
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((x64 - mu) * inv).astype(x.dtype)
    inv = inv.astype(x.dtype)
    y = (gamma * xhat + beta).astype(x.dtype)

    def grad(g):
        gx = g * gamma
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return (inv * (gx - m1 - xhat * m2),
                (g * xhat).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0))
    return y, grad


def formula_dropout(x, p, rng):
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    return x * keep * scale, lambda g: (g * keep * scale,)


def in_place_case(name, x, dtype):
    """(op on tensors, formula on arrays, affine params) for op ``name``."""
    rng = np.random.default_rng(4)
    gamma = rng.uniform(0.5, 1.5, x.shape[-1]).astype(dtype)
    beta = rng.standard_normal(x.shape[-1]).astype(dtype)
    if name == "softmax_lastdim":
        return softmax_lastdim, formula_softmax, []
    if name == "layer_norm":
        return (lambda t, g, b: layer_norm(t, g, b),
                lambda a, g, b: formula_layer_norm(a, g, b), [gamma, beta])
    return (lambda t: dropout(t, 0.3, np.random.default_rng(8)),
            lambda a: formula_dropout(a, 0.3, np.random.default_rng(8)), [])


IN_PLACE_OPS = ["softmax_lastdim", "layer_norm", "dropout"]
DTYPES = [np.float32, np.float64]


class TestInPlaceExactness:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", IN_PLACE_OPS)
    def test_forward_and_backward_equal_the_formulas(self, name, dtype):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal((4, 5, 7)) * 3).astype(dtype)
        w = rng.standard_normal(x.shape).astype(dtype)
        op, formula, params = in_place_case(name, x, dtype)
        leaves = [Tensor(a, requires_grad=True) for a in [x] + params]
        out = op(*leaves)
        want, want_grad = formula(x, *params)
        assert out.dtype == want.dtype == dtype
        assert np.array_equal(out.data, want)
        reduce_sum(mul(out, w)).backward()   # the op's output gradient is w
        for leaf, g in zip(leaves, want_grad(w)):
            assert leaf.grad.dtype == dtype
            assert np.array_equal(leaf.grad, g)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pair", [("layer_norm", "softmax_lastdim"),
                                      ("softmax_lastdim", "dropout"),
                                      ("dropout", "layer_norm")])
    def test_aliased_gradients(self, pair, dtype):
        # y = add(x, x) feeds two of the ops, whose outputs are added: add's
        # backward hands one gradient array to both ops, and x receives y's
        # gradient twice. A rule that wrote into its incoming gradient would
        # corrupt the other op's.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6)).astype(dtype)
        w = rng.standard_normal(x.shape).astype(dtype)
        x_leaf = Tensor(x, requires_grad=True)
        y = add(x_leaf, x_leaf)
        outs, gy, param_grads = [], 0, []
        for name in pair:
            op, formula, params = in_place_case(name, x, dtype)
            leaves = [Tensor(a, requires_grad=True) for a in params]
            outs.append(op(y, *leaves))
            _, grad = formula(x + x, *params)
            g = grad(w)
            gy = gy + g[0]
            param_grads += list(zip(leaves, g[1:]))
        reduce_sum(mul(add(*outs), w)).backward()
        assert np.array_equal(x_leaf.grad, gy + gy)
        for leaf, g in param_grads:
            assert np.array_equal(leaf.grad, g)
