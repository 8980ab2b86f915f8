"""Lifetime of the autodiff tape: graphs hold no reference cycles, so they are
freed by refcounting alone, ``no_grad`` records no tape at all, backward
computes no gradient for an input that needs none, and backward frees each
intermediate gradient once its rules have run."""

import gc
import inspect
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from pkge import tensor
from pkge.kg import load_dataset
from pkge.model import ModelConfig, PatReFormer
from pkge.tensor import (Tensor, add, attention, bce_with_logits, concat,
                         dropout, feed_forward, gather_rows, l1_distance,
                         matmul, mul, no_grad, reshape, transpose)
from pkge.training import TrainConfig, bce_smoothed_loss, train_model

import reference_ops
from reference_ops import layer_norm, reduce_sum, relu, softmax_lastdim


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
    "gather_rows": lambda: gather_rows(leaf(4, 3), np.array([0, 2, 2])),
    "reduce_sum": lambda: reduce_sum(leaf(2, 3), axis=0),
    "l1_distance": lambda: l1_distance(leaf(2, 3), leaf(4, 3, lo=-1.0, hi=1.0)),
    "relu": lambda: relu(leaf(2, 3, lo=-1.0, hi=1.0)),
    "softmax_lastdim": lambda: softmax_lastdim(leaf(2, 3)),
    "layer_norm": lambda: layer_norm(leaf(2, 3), leaf(3), leaf(3)),
    "dropout": lambda: dropout(leaf(4, 5), 0.5, True,
                               np.random.default_rng(0)),
    "bce_with_logits": lambda: bce_with_logits(leaf(2, 3, lo=-2.0, hi=2.0),
                                               np.eye(2, 3)),
    "attention": lambda: attention(leaf(2, 3, 4), leaf(2, 5, 4), leaf(4, 4),
                                   leaf(4, 4), leaf(4, 4), leaf(4, 4), leaf(4),
                                   leaf(4), 2, 0.5, True,
                                   np.random.default_rng(0)),
    "feed_forward": lambda: feed_forward(leaf(2, 3), leaf(3, 4), leaf(4),
                                         leaf(4, 3), leaf(3), leaf(3), leaf(3),
                                         0.5, True, np.random.default_rng(0)),
}


# Every op with two or more inputs: input shapes, and a builder taking them.
MULTI_INPUT_CASES = {
    "add": ([(2, 3), (3,)], add),
    "mul": ([(2, 3), (2, 3)], mul),
    "matmul": ([(2, 3), (3, 4)], matmul),
    "concat": ([(2, 3), (2, 2)], lambda a, b: concat([a, b], axis=-1)),
    "layer_norm": ([(2, 3), (3,), (3,)], layer_norm),
    "l1_distance": ([(2, 3), (4, 3)], l1_distance),
    "attention": ([(2, 3, 4), (2, 5, 4)] + [(4, 4)] * 4 + [(4,)] * 2,
                  lambda *t: attention(*t, 2, 0.5, True,
                                       np.random.default_rng(0))),
    "feed_forward": ([(2, 3), (3, 4), (4,), (4, 3), (3,), (3,), (3,)],
                     lambda *t: feed_forward(*t, 0.5, True,
                                             np.random.default_rng(0))),
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
    """Names of the differentiable ops ``pkge.tensor`` exports, and of those
    ``reference_ops`` keeps for the tests."""
    return {name for module in (tensor, reference_ops)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and name != "as_tensor"}


def test_cases_cover_every_public_op():
    assert public_ops() == set(OP_CASES)
    assert ({name for name, build in OP_CASES.items() if len(build()._prev) > 1}
            == set(MULTI_INPUT_CASES))


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


def test_train_model_frees_each_step_tape_before_the_next_forward(
        gc_off, memo_store):
    # Every score_all call, training step or validation tile, finds the
    # previous call's scores, and with them that step's tape, already freed.
    model = PatReFormer(ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1,
                                    d_f=8),
                        memo_store.num_entities,
                        memo_store.num_relations_with_reverse,
                        np.random.default_rng(0))
    score_all, last, calls = model.score_all, [None], []

    def checked(*args, **kwargs):
        assert last[0] is None or last[0]() is None, f"call {len(calls)}"
        out = score_all(*args, **kwargs)
        last[0] = weakref.ref(out)
        calls.append(kwargs.get("training", False))
        return out

    model.score_all = checked
    train_model(memo_store, model, TrainConfig(batch_size=64, epochs=2,
                                               eval_every=2, seed=0))
    assert calls.count(True) > 2 and calls.count(False) >= 1


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


def input_grads(name, const=None):
    """Gradients of a weighted sum of op ``name``'s output with respect to its
    inputs, the input at index ``const`` being a constant."""
    shapes, build = MULTI_INPUT_CASES[name]
    rng = np.random.default_rng(0)
    inputs = [Tensor(rng.uniform(0.5, 1.5, shape).astype(np.float32),
                     requires_grad=i != const)
              for i, shape in enumerate(shapes)]
    out = build(*inputs)
    weights = rng.uniform(-1.0, 1.0, out.shape).astype(np.float32)
    reduce_sum(mul(out, weights)).backward()
    return [t.grad for t in inputs]


@pytest.mark.parametrize("name, const", [
    (name, i) for name, (shapes, _) in sorted(MULTI_INPUT_CASES.items())
    for i in range(len(shapes))])
def test_constant_input_gets_no_gradient(name, const):
    reference = input_grads(name)
    grads = input_grads(name, const)
    assert grads[const] is None
    for i, (g, ref) in enumerate(zip(grads, reference)):
        if i != const:
            np.testing.assert_array_equal(g, ref)


def test_backward_skips_constant_operand():
    # Gradients of x and of the product node are 4.0 MB each; a gradient
    # computed for the constant would add a third.
    x = Tensor(np.ones((1000, 1000), dtype=np.float32), requires_grad=True)
    c = np.full((1000, 1000), 2.0, dtype=np.float32)
    loss = reduce_sum(mul(x, c))
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def graph_nodes(root):
    """Every node reachable from ``root``, each once."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    return list(seen.values())


def chain_loss():
    """w -> mul(w, 2) -> relu -> mul(., 3) -> reduce_sum; one backward gives
    w.grad = [6, 0, 6]."""
    w = Tensor(np.array([1.0, -1.0, 2.0], dtype=np.float32), requires_grad=True)
    return reduce_sum(mul(relu(mul(w, 2.0)), 3.0))


def patreformer_loss():
    cfg = ModelConfig(d_e=8, d_r=12, d=4, heads=2, layers=2, d_f=8,
                      p1=0.1, p2=0.1, p3=0.1, segmentation="trainable")
    model = PatReFormer(cfg, 6, 8, np.random.default_rng(0))
    targets = np.zeros((3, 6), dtype=np.float32)
    targets[[0, 1, 2], [1, 4, 5]] = 1.0
    scores = model.score_all([0, 3, 5], [1, 2, 7], training=True,
                             rng=np.random.default_rng(1))
    return bce_smoothed_loss(scores, targets)


def attention_loss():
    """Self-attention with dropout: the one input feeds the queries, keys and
    values of a single fused node."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4, 6)).astype(np.float32),
               requires_grad=True)
    ws = [Tensor(rng.standard_normal((6, 6)).astype(np.float32) * 0.5,
                 requires_grad=True) for _ in range(4)]
    gamma, beta = (Tensor(rng.uniform(0.5, 1.5, 6).astype(np.float32),
                          requires_grad=True) for _ in range(2))
    out = attention(x, x, *ws, gamma, beta, 3, 0.3, True,
                    np.random.default_rng(1))
    return reduce_sum(mul(out, rng.standard_normal(out.shape).astype(np.float32)))


def feed_forward_loss():
    rng = np.random.default_rng(0)
    inputs = (Tensor(rng.standard_normal(s).astype(np.float32),
                     requires_grad=True)
              for s in ((3, 4, 6), (6, 8), (8,), (8, 6), (6,), (6,), (6,)))
    out = feed_forward(*inputs, 0.3, True, np.random.default_rng(1))
    return reduce_sum(mul(out, rng.standard_normal(out.shape).astype(np.float32)))


LOSSES = {"chain": chain_loss, "patreformer": patreformer_loss,
          "attention": attention_loss, "feed_forward": feed_forward_loss}


def grad_leaves(loss):
    return [t for t in graph_nodes(loss) if not t._prev and t.requires_grad]


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_second_backward_repeats_leaf_grads(name):
    loss = LOSSES[name]()
    leaves = grad_leaves(loss)
    loss.backward()
    once = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    loss.backward()
    for t, g in zip(leaves, once):
        np.testing.assert_array_equal(t.grad, g)


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_second_backward_adds_leaf_grads_once(name):
    # A leaf with several consumers adds its terms to the first call's sum
    # one by one, so the result is 2 * g up to float32 rounding.
    loss = LOSSES[name]()
    leaves = grad_leaves(loss)
    loss.backward()
    once = [t.grad.copy() for t in leaves]
    loss.backward()
    for t, g in zip(leaves, once):
        np.testing.assert_allclose(t.grad, 2 * g, rtol=1e-6, atol=1e-9)


def test_second_backward_on_chain_hand_values():
    loss = chain_loss()
    w, = grad_leaves(loss)
    loss.backward()
    np.testing.assert_array_equal(w.grad, [6.0, 0.0, 6.0])
    loss.backward()
    np.testing.assert_array_equal(w.grad, [12.0, 0.0, 12.0])


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_only_leaves_and_root_keep_grad(name):
    loss = LOSSES[name]()
    loss.backward()
    nodes = graph_nodes(loss)
    assert any(t._prev and t is not loss for t in nodes)
    for t in nodes:
        if t is loss:
            np.testing.assert_array_equal(t.grad, np.ones_like(t.data))
        elif t._prev:
            assert t.grad is None, t
        elif t.requires_grad:
            assert t.grad is not None and t.grad.shape == t.shape, t


def test_paper_scale_training_step_memory_bounded(data_dir):
    """Forward, loss and backward of one PatReFormer step at d_r=1000 on
    blocks135, with a full batch. The forward tape alone holds 72.4 MiB.
    Keeping every intermediate gradient alive until backward ends peaked at
    141.7 MiB; freeing each once used peaks at 83.1 MiB."""
    store = load_dataset(os.path.join(data_dir, "blocks135"))
    model = PatReFormer(ModelConfig(d_r=1000), store.num_entities,
                        store.num_relations_with_reverse,
                        np.random.default_rng(0))
    queries = store.train_query_targets()
    batch = np.arange(TrainConfig().batch_size)
    ents, rels = queries.entities[batch], queries.relations[batch]
    targets = np.zeros((len(batch), store.num_entities), dtype=np.float32)
    targets[queries.lookup(ents, rels)] = 1.0

    tracemalloc.start()
    try:
        scores = model.score_all(ents, rels, training=True,
                                 rng=np.random.default_rng(1))
        bce_smoothed_loss(scores, targets).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.params["relation.embedding"].grad is not None
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"
