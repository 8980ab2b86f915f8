"""Lifetime of the autodiff tape: graphs hold no reference cycles, so they are
freed by refcounting alone, and ``no_grad`` records no tape at all."""

import gc
import inspect
import threading
import weakref

import numpy as np
import pytest

from pkge import tensor
from pkge.model import ModelConfig, PatReFormer
from pkge.tensor import (Tensor, absolute, add, bce_with_logits, concat,
                         dropout, gather_rows, layer_norm, matmul, mul, narrow,
                         no_grad, reduce_sum, relu, reshape,
                         softmax_lastdim, sqrt, transpose)
from pkge.training import bce_smoothed_loss


def leaf(*shape, lo=0.5, hi=1.5):
    rng = np.random.default_rng(0)
    return Tensor(rng.uniform(lo, hi, shape).astype(np.float32),
                  requires_grad=True)


# One builder per differentiable op, each on requires-grad inputs.
OP_CASES = {
    "add": lambda: add(leaf(2, 3), leaf(3)),
    "mul": lambda: mul(leaf(2, 3), leaf(2, 3)),
    "matmul": lambda: matmul(leaf(2, 3), leaf(3, 4)),
    "reshape": lambda: reshape(leaf(2, 3), (3, 2)),
    "transpose": lambda: transpose(leaf(2, 3, 4), (2, 0, 1)),
    "concat": lambda: concat([leaf(2, 3), leaf(2, 2)], axis=-1),
    "narrow": lambda: narrow(leaf(2, 5), 1, 1, 3),
    "gather_rows": lambda: gather_rows(leaf(4, 3), np.array([0, 2, 2])),
    "reduce_sum": lambda: reduce_sum(leaf(2, 3), axis=0),
    "sqrt": lambda: sqrt(leaf(2, 3)),
    "absolute": lambda: absolute(leaf(2, 3, lo=-1.0, hi=1.0)),
    "relu": lambda: relu(leaf(2, 3, lo=-1.0, hi=1.0)),
    "softmax_lastdim": lambda: softmax_lastdim(leaf(2, 3)),
    "layer_norm": lambda: layer_norm(leaf(2, 3), leaf(3), leaf(3)),
    "dropout": lambda: dropout(leaf(4, 5), 0.5, True,
                               np.random.default_rng(0)),
    "bce_with_logits": lambda: bce_with_logits(leaf(2, 3, lo=-2.0, hi=2.0),
                                               np.eye(2, 3)),
}


@pytest.fixture
def gc_off():
    """Run with the cyclic collector off, so only refcounting frees objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def public_ops():
    """Names of the differentiable ops ``pkge.tensor`` exports."""
    return {name for name, obj in vars(tensor).items()
            if inspect.isfunction(obj) and obj.__module__ == tensor.__name__
            and not name.startswith("_") and name != "as_tensor"}


def test_cases_cover_every_public_op():
    assert public_ops() == set(OP_CASES)


@pytest.mark.parametrize("run_backward", [False, True],
                         ids=["built", "after_backward"])
@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_graph_freed_by_refcount(gc_off, name, run_backward):
    out = OP_CASES[name]()
    assert out._backward is not None
    root = reduce_sum(out)
    if run_backward:
        root.backward()
    node = weakref.ref(out)
    del out, root
    assert node() is None


def test_patreformer_training_graph_freed_by_refcount(gc_off):
    cfg = ModelConfig(d_e=8, d_r=12, d=4, heads=2, layers=2, d_f=8,
                      p1=0.1, p2=0.1, p3=0.1)
    model = PatReFormer(cfg, 6, 8, np.random.default_rng(0))
    targets = np.zeros((3, 6), dtype=np.float32)
    targets[[0, 1, 2], [1, 4, 5]] = 1.0
    scores = model.score_all([0, 3, 5], [1, 2, 7], training=True,
                             rng=np.random.default_rng(1))
    loss = bce_smoothed_loss(scores, targets)
    loss.backward()
    assert model.params["scorer.weight"].grad is not None
    refs = [weakref.ref(scores), weakref.ref(loss)]
    del scores, loss
    assert all(ref() is None for ref in refs)


class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_ops_record_no_tape(self, name):
        with no_grad():
            out = OP_CASES[name]()
        assert out.requires_grad is False
        assert out._backward is None
        assert out._prev == ()

    def test_values_match_grad_mode(self):
        x = leaf(3, 4)
        with no_grad():
            off = softmax_lastdim(matmul(x, transpose(x))).data
        on = softmax_lastdim(matmul(x, transpose(x))).data
        np.testing.assert_array_equal(off, on)

    def test_flag_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert mul(leaf(2), 2.0).requires_grad

    def test_nested_blocks_restore_outer_state(self):
        block = no_grad()
        with block:
            with block:
                assert not mul(leaf(2), 2.0).requires_grad
            assert not mul(leaf(2), 2.0).requires_grad
        assert mul(leaf(2), 2.0).requires_grad

    def test_flag_is_per_thread(self):
        seen = []

        def build():
            seen.append(mul(leaf(2), 2.0))

        with no_grad():
            worker = threading.Thread(target=build)
            worker.start()
            worker.join()
            assert not mul(leaf(2), 2.0).requires_grad
        out, = seen
        assert out.requires_grad and out._backward is not None
        assert len(out._prev) == 2
