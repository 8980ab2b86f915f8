"""Finite-difference verification of every backward rule.

All checks run on float64 graphs with central differences; tolerances are
relative 1e-4 for single ops and 1e-3 for full-model composites.
"""

import numpy as np
import pytest

from pkge import tensor
from pkge.model import ModelConfig, build_model, multi_head_attention
from pkge.tensor import (Tensor, add, attention, bce_with_logits, concat,
                         dropout, feed_forward, gather_rows, l1_distance,
                         matmul, mul, reshape, transpose)
from pkge.training import bce_smoothed_loss, seed_streams

from gradcheck import check_gradients, numeric_grad
from reference_ops import layer_norm, reduce_sum, relu, softmax_lastdim
from test_tape import public_ops

RNG = np.random.default_rng(42)

PRIMITIVE_TOL = 1e-4
MODEL_TOL = 1e-3

# Names of the tensor ops some test below checks at PRIMITIVE_TOL.
CHECKED_OPS = set()


def covers(*ops):
    """Record that the decorated test finite-difference checks ``ops``."""
    def mark(test):
        CHECKED_OPS.update(ops)
        return test
    return mark


def check(fn, params, tol=PRIMITIVE_TOL, h=1e-4):
    worst = check_gradients(fn, params, h=h, rtol=tol, atol=1e-10)
    assert worst < tol
    return worst


def test_every_public_op_has_a_check():
    assert CHECKED_OPS == public_ops()


class TestElementwiseGrads:
    @covers("add", "mul", "reduce_sum")
    def test_add_mul_broadcast(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal(4)
        check(lambda x, y: reduce_sum(mul(add(x, y), y)), [a, b])

    # 200 bytes hold 2 rows of a [3, ., 4] float64 block: blocks of 2, 2, 1.
    @covers("l1_distance")
    @pytest.mark.parametrize("block_bytes", [tensor.L1_BLOCK_BYTES, 200],
                             ids=["one-block", "three-blocks"])
    def test_l1_distance_away_from_kink(self, monkeypatch, block_bytes):
        monkeypatch.setattr(tensor, "L1_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(7)
        q, table = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        while np.abs(q[:, None] - table[None]).min() < 0.1:
            table = rng.standard_normal((5, 4))
        w = rng.standard_normal((3, 5))
        check(lambda a, b: reduce_sum(mul(l1_distance(a, b), w)), [q, table])

    @covers("relu")
    def test_relu_away_from_kink(self):
        x = RNG.standard_normal(8)
        x[np.abs(x) < 0.1] = -0.5
        check(lambda t: reduce_sum(relu(t)), [x])

    @covers("bce_with_logits")
    def test_bce_with_logits(self):
        z = RNG.standard_normal((3, 4)) * 3
        y = RNG.uniform(0.0, 1.0, size=(3, 4))
        check(lambda t: bce_with_logits(t, y), [z])


class TestStructuralGrads:
    @covers("matmul")
    def test_matmul(self):
        a = RNG.standard_normal((4, 5))
        b = RNG.standard_normal((5, 3))
        check(lambda x, y: reduce_sum(matmul(x, y)), [a, b])

    def test_matmul_batched_broadcast(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((4, 3))
        check(lambda x, y: reduce_sum(mul(matmul(x, y), 0.5)), [a, b])

    # A 2-D right operand folds the leading dims of the left into one GEMM.
    @covers("matmul")
    @pytest.mark.parametrize("a_shape, b_shape", [((4, 1, 6), (6, 3)),
                                                  ((2, 3, 4, 5), (5, 2))],
                             ids=["row-stack", "4d"])
    def test_matmul_folded_weight(self, a_shape, b_shape):
        a = RNG.standard_normal(a_shape)
        b = RNG.standard_normal(b_shape)
        w = RNG.standard_normal(a_shape[:-1] + b_shape[-1:])
        check(lambda x, y: reduce_sum(mul(matmul(x, y), w)), [a, b])

    @covers("reshape", "transpose")
    def test_reshape_transpose(self):
        x = RNG.standard_normal((2, 6))
        check(lambda t: reduce_sum(mul(transpose(reshape(t, (3, 4))),
                                       RNG_CONST)), [x])

    @covers("concat")
    def test_concat(self):
        a = RNG.standard_normal((2, 2))
        b = RNG.standard_normal((2, 3))
        w = RNG.standard_normal((2, 5))
        check(lambda x, y: reduce_sum(mul(concat([x, y], axis=1), w)), [a, b])

    @covers("gather_rows")
    def test_gather_rows_with_duplicates(self):
        table = RNG.standard_normal((5, 3))
        ids = np.array([0, 2, 2, 4])
        w = RNG.standard_normal((4, 3))
        check(lambda t: reduce_sum(mul(gather_rows(t, ids), w)), [table])

    @covers("reduce_sum")
    def test_reductions(self):
        x = RNG.standard_normal((3, 4))
        check(lambda t: reduce_sum(mul(reduce_sum(t, axis=1), 2.0)), [x])
        check(lambda t: reduce_sum(reduce_sum(t, axis=0, keepdims=True)), [x])


RNG_CONST = np.random.default_rng(9).standard_normal((4, 3))


class TestNormalizationGrads:
    @covers("softmax_lastdim")
    def test_softmax(self):
        x = RNG.standard_normal((3, 5)) * 2
        w = RNG.standard_normal((3, 5))
        check(lambda t: reduce_sum(mul(softmax_lastdim(t), w)), [x])

    @covers("layer_norm")
    def test_layer_norm_all_inputs(self):
        x = RNG.standard_normal((4, 6))
        gamma = RNG.uniform(0.5, 1.5, size=6)
        beta = RNG.standard_normal(6)
        w = RNG.standard_normal((4, 6))
        check(lambda a, g, b: reduce_sum(mul(layer_norm(a, g, b), w)),
              [x, gamma, beta])

    @covers("dropout")
    def test_dropout_fixed_mask(self):
        x = RNG.standard_normal((5, 5))

        def fn(t):
            rng = np.random.default_rng(17)   # same mask every call
            return reduce_sum(dropout(t, 0.4, training=True, rng=rng))

        check(fn, [x])


def affine(d, seed):
    """A layer norm's (gamma, beta), drawn from their own generator."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.5, 1.5, d), rng.standard_normal(d)]


class TestFusedGrads:
    @covers("attention")
    @pytest.mark.parametrize("case", ["cross", "self"])
    def test_attention_with_dropout(self, case):
        d = 6
        xq = RNG.standard_normal((2, 3, d))
        xkv = RNG.standard_normal((2, 4, d))
        mats = [RNG.standard_normal((d, d)) * 0.5 for _ in range(4)]
        w = RNG.standard_normal((2, 3, d))

        def fn(a, *rest):
            b, ws = (a, rest) if case == "self" else (rest[0], rest[1:])
            rng = np.random.default_rng(17)   # same mask every call
            out = attention(a, b, *ws, 3, 0.3, True, rng)
            return reduce_sum(mul(out, w))

        check(fn, [xq] + ([] if case == "self" else [xkv]) + mats + affine(d, 1))

    @covers("feed_forward")
    def test_feed_forward_away_from_kink(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4))
        w1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
        while np.abs(x @ w1 + b1).min() < 0.05:
            b1 = rng.standard_normal(6)
        w2, b2 = rng.standard_normal((6, 4)), rng.standard_normal(4)
        w = rng.standard_normal((2, 3, 4))
        check(lambda *t: reduce_sum(mul(feed_forward(*t), w)),
              [x, w1, b1, w2, b2] + affine(4, 2))

    def test_feed_forward_with_dropout(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4))
        w1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
        while np.abs(x @ w1 + b1).min() < 0.05:
            b1 = rng.standard_normal(6)
        w2, b2 = rng.standard_normal((6, 4)), rng.standard_normal(4)
        w = rng.standard_normal((2, 3, 4))

        def fn(*t):
            drop = np.random.default_rng(17)   # same mask every call
            return reduce_sum(mul(feed_forward(*t, 0.4, True, drop), w))

        check(fn, [x, w1, b1, w2, b2] + affine(4, 3))


class TestCompositeGrads:
    def test_scaled_dot_attention(self):
        # One head with identity query and output projections is scaled
        # dot-product attention, here under the residual norm; keys are x_kv
        # and values x_kv·wv.
        q = RNG.standard_normal((3, 4))
        kv = RNG.standard_normal((5, 4))
        wv = RNG.standard_normal((4, 4))
        w = RNG.standard_normal((3, 4))
        eye = Tensor(np.eye(4))
        gamma, beta = (Tensor(a) for a in affine(4, 4))
        check(lambda a, b, c: reduce_sum(mul(
            multi_head_attention(a, b, eye, eye, c, eye, gamma, beta, heads=1),
            w)), [q, kv, wv])

    def test_multi_head_attention(self):
        d = 6
        xq = RNG.standard_normal((2, d))
        xkv = RNG.standard_normal((3, d))
        mats = [RNG.standard_normal((d, d)) * 0.5 for _ in range(4)]
        w = RNG.standard_normal((2, d))

        def fn(a, b, wq, wk, wv, wo, gamma, beta):
            out = multi_head_attention(a, b, wq, wk, wv, wo, gamma, beta,
                                       heads=2)
            return reduce_sum(mul(out, w))

        check(fn, [xq, xkv] + mats + affine(d, 5))

    def test_bce_loss_grad(self):
        scores_logits = RNG.standard_normal((2, 7))
        targets = np.zeros((2, 7), dtype=np.float32)
        targets[0, 1] = 1.0
        targets[1, [2, 5]] = 1.0
        check(lambda t: bce_smoothed_loss(t, targets, 0.1), [scores_logits])


def model_loss_fn(model, ents, rels, targets, eps=0.1):
    """Loss of a model as a pure function of its parameter arrays."""
    names = model.params.names()

    def fn(*tensors):
        saved = dict(model.params._params)
        for n, t in zip(names, tensors):
            model.params._params[n] = t
        try:
            return bce_smoothed_loss(model.score_all(ents, rels), targets, eps)
        finally:
            model.params._params.update(saved)

    arrays = [model.params[n].data.astype(np.float64) for n in names]
    return fn, arrays


class TestFullModelGrads:
    ENTS = np.array([0, 1])
    RELS = np.array([0, 2])

    def _targets(self, n):
        t = np.zeros((2, n), dtype=np.float32)
        t[0, 3] = 1.0
        t[1, [1, 4]] = 1.0
        return t

    @pytest.mark.parametrize("kind", ["patreformer", "transe", "distmult"])
    def test_models_end_to_end(self, kind):
        cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                          p1=0.0, p2=0.0, p3=0.0)
        model = build_model(kind, cfg, 5, 4, seed_streams(3)["init"])
        fn, arrays = model_loss_fn(model, self.ENTS, self.RELS, self._targets(5))
        worst = check_gradients(fn, arrays, h=1e-4, rtol=MODEL_TOL, atol=1e-10)
        assert worst < MODEL_TOL

    @pytest.mark.parametrize("attention", ["full_self", "separate_self"])
    def test_attention_variants(self, attention):
        cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                          p1=0.0, p2=0.0, p3=0.0, attention=attention)
        model = build_model("patreformer", cfg, 5, 4, seed_streams(3)["init"])
        fn, arrays = model_loss_fn(model, self.ENTS, self.RELS, self._targets(5))
        worst = check_gradients(fn, arrays, h=1e-4, rtol=MODEL_TOL, atol=1e-10)
        assert worst < MODEL_TOL

    def test_numeric_grad_matches_manual(self):
        # d/dx of sum(x^2) is 2x; the helper itself must be trustworthy.
        x = np.array([1.0, -2.0, 3.0])
        fd = numeric_grad(lambda t: reduce_sum(mul(t, t)), [x], 0, h=1e-5)
        np.testing.assert_allclose(fd, 2 * x, rtol=1e-7)
