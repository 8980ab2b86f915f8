import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkge.errors import ConfigError, GraphError, NumericError, ShapeError
from pkge.tensor import (Tensor, absolute, as_tensor, bce_with_logits,
                         concat, dropout, gather_rows, layer_norm, matmul, mul,
                         narrow, reduce_sum, relu, reshape,
                         softmax_lastdim, sqrt, transpose)

from test_tape import public_ops


def scalar_loss(t):
    return reduce_sum(t)


def sigmoid(z):
    """sigmoid(z) as ``bce_with_logits`` computes it: the gradient of
    count·bce_with_logits(z, 0) is exactly its (sigmoid(z) - 0) term."""
    t = Tensor(z, requires_grad=True)
    mul(bce_with_logits(t, np.zeros_like(t.data)), float(t.data.size)).backward()
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

    def test_abs_subgradient_zero_at_zero(self):
        x = Tensor(np.array([-2.0, 0.0, 5.0]), requires_grad=True)
        scalar_loss(absolute(x)).backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        scalar_loss(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sqrt_values(self):
        x = Tensor(np.array([1.0, 4.0]))
        np.testing.assert_allclose(sqrt(x).data, [1.0, 2.0])


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

    def test_narrow_gradient_zero_elsewhere(self):
        x = Tensor(np.arange(10, dtype=np.float32).reshape(2, 5),
                   requires_grad=True)
        y = narrow(x, 1, 1, 2)
        np.testing.assert_array_equal(y.data, [[1, 2], [6, 7]])
        scalar_loss(y).backward()
        expected = np.zeros((2, 5))
        expected[:, 1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_narrow_out_of_bounds(self):
        with pytest.raises(ShapeError):
            narrow(Tensor(np.zeros((2, 3))), 1, 2, 2)

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
        with pytest.raises(ConfigError):
            layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones(8))
        assert dropout(x, 0.5, training=False, rng=None) is x

    def test_zero_rate_is_identity(self):
        x = Tensor(np.ones(8))
        assert dropout(x, 0.0, training=True, rng=None) is x

    def test_survivors_scaled(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100), np.float32))
        out = dropout(x, 0.25, training=True, rng=rng).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, np.full(kept.shape, 1.0 / 0.75),
                                   rtol=1e-6)
        assert abs((out == 0).mean() - 0.25) < 0.02

    def test_bad_rate_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ConfigError):
            dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            dropout(x, -0.1, training=True, rng=np.random.default_rng(0))


class TestGraph:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            (x + 1.0).backward()

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
    "sqrt": lambda: sqrt(big(2, value=-1.0)),
    "layer_norm": lambda: layer_norm(Tensor(np.array([[1.0, 2.0]], np.float32)),
                                     big(2), big(2)),
    "dropout": lambda: dropout(big(8), 0.5, True, np.random.default_rng(0)),
    "bce_with_logits": lambda: bce_with_logits(big(2), -np.ones(2)),
}

# Ops that only move, select, clamp or normalize values: finite in, finite
# out, so they skip the check.
EXTREMES = np.array([[3.4e38, -3.4e38, 1e-45], [0.0, -1e-45, 1.0]],
                    dtype=np.float32)
PASSTHROUGH_CASES = {
    "reshape": lambda x: reshape(x, (3, 2)),
    "transpose": transpose,
    "concat": lambda x: concat([x, x]),
    "narrow": lambda x: narrow(x, 1, 1, 2),
    "gather_rows": lambda x: gather_rows(x, np.array([1, 0, 1])),
    "relu": relu,
    "absolute": absolute,
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
