"""Span tracing of pkge from outside the package.

``Tracer.install()`` replaces the package's public functions, and the tensor
ops that its modules import, with wrappers that record spans. A span is
(name, start, end, parent, run id); spans stay in memory until ``write``.
Each tape node's backward closure is wrapped too, so backward time lands
under the op that built the node. Nothing under ``src/`` is edited: the
wrappers are module and class attributes, put back by ``uninstall()``.
"""

import functools
import gc
import inspect
import json
import sys
import time

from pkge import baselines, evaluation, kg, model, segmentation, tensor, training

# Tensor.op of the node each tensor function builds, where it differs from
# the function name.
OP_LABELS = {"reduce_sum": "sum", "absolute": "abs", "softmax_lastdim": "softmax"}
# Not ops: as_tensor builds no node, reduce_mean is sum then mul and is
# traced through those two.
NOT_OPS = {"as_tensor", "reduce_mean"}

# (owner, attribute, span name) for the public functions traced as a whole.
FUNCTION_SPANS = (
    (kg, "load_dataset", "kg.load_dataset"),
    (kg, "categorize_relations", "kg.categorize_relations"),
    (kg.TripleStore, "train_query_targets", "kg.train_query_targets"),
    (segmentation, "build_frozen_basis", "segmentation.build_frozen_basis"),
    (segmentation, "segment_mapped", "segmentation.segment_mapped.fwd"),
    (model, "build_model", "model.build_model"),
    (model, "multi_head_attention", "model.attention.fwd"),
    (model.PatReFormer, "encode", "model.encode.fwd"),
    (model.PatReFormer, "score_from_embeddings", "model.score_from_embeddings.fwd"),
    (model.PatReFormer, "score_all", "model.score_all"),
    (baselines.TransE, "score_all", "baselines.transe.score_all"),
    (baselines.DistMult, "score_all", "baselines.distmult.score_all"),
    (training, "bce_smoothed_loss", "training.loss"),
    (training.Adam, "step", "training.adam_step"),
    (training, "save_checkpoint", "training.checkpoint_save"),
    (training, "restore_model", "training.restore"),
    (training, "train_model", "training.train_model"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "filtered_rank", "evaluation.rank"),
    (tensor.Tensor, "backward", "tensor.backward"),
)

ROOT_SPAN = "workload"
SCORE_SPANS = ("model.score_all", "baselines.transe.score_all",
               "baselines.distmult.score_all")


def tensor_ops():
    """{function name: op label} of every public op in ``pkge.tensor``."""
    ops = {}
    for name, obj in vars(tensor).items():
        if (inspect.isfunction(obj) and obj.__module__ == tensor.__name__
                and not name.startswith("_") and name not in NOT_OPS):
            ops[name] = OP_LABELS.get(name, name)
    return ops


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self._stack = []
        self.enabled = False
        self.run_id = None
        self.matmul_flop = 0
        self.train_nodes = 0     # tape nodes built inside training steps
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._train_depth = 0
        self._eval_depth = 0
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrappers -------------------------------------------------------------

    def _function_wrapper(self, fn, name):
        tracer = self
        depth_attr = {"training.train_model": "_train_depth",
                      "evaluation.evaluate": "_eval_depth"}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth_attr is None:
                return tracer.call(name, fn, *args, **kwargs)
            setattr(tracer, depth_attr, getattr(tracer, depth_attr) + 1)
            try:
                return tracer.call(name, fn, *args, **kwargs)
            finally:
                setattr(tracer, depth_attr, getattr(tracer, depth_attr) - 1)
        return traced

    def _op_wrapper(self, fn, label):
        tracer = self
        fwd_name = f"tensor.{label}.fwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if not isinstance(out, tensor.Tensor) or any(out is a for a in args):
                return out           # identity, e.g. dropout in eval mode
            if tracer._train_depth and not tracer._eval_depth:
                tracer.train_nodes += 1
            flop_per_grad = 0
            if label == "matmul":
                flop = 2 * out.data.size * args[0].shape[-1]
                tracer.matmul_flop += flop
                flop_per_grad = flop
            if out._backward is not None:
                out._backward = tracer._backward_wrapper(out, flop_per_grad, args)
            return out
        return traced

    def _backward_wrapper(self, out, flop_per_grad, args):
        tracer = self
        bw = out._backward
        name = f"tensor.{out.op}.bwd"
        grads = sum(1 for a in args[:2]
                    if isinstance(a, tensor.Tensor) and a.requires_grad)

        def traced_backward():
            if not tracer.enabled:
                return bw()
            tracer.matmul_flop += flop_per_grad * grads
            idx = tracer.begin(name)
            try:
                return bw()
            finally:
                tracer.end(idx)
        return traced_backward

    def _patch(self, original, wrapper):
        """Point every pkge module attribute bound to ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pkge" and not mod_name.startswith("pkge."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _gc_callback(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self):
        for fn_name, label in tensor_ops().items():
            original = getattr(tensor, fn_name)
            self._patch(original, self._op_wrapper(original, label))
        for owner, attr, name in FUNCTION_SPANS:
            original = getattr(owner, attr, None)
            if original is None:     # gone from the program: its metric reads 0
                continue
            wrapper = self._function_wrapper(original, name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._patch(original, wrapper)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """One JSON object per span: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def summarize(self):
        """Inclusive time, self time and call count per span name, plus the
        root (workload) wall time and the time spent scoring inside evaluate."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_s, calls = {}, {}, {}
        eval_score = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            incl[name] = incl.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if (name in SCORE_SPANS and parent >= 0
                    and self.spans[parent][0] == "evaluation.evaluate"):
                eval_score += dur
        return incl, self_s, calls, eval_score
