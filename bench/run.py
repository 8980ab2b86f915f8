#!/usr/bin/env python3
"""pkge benchmark: runs one workload in this process and reports its metrics.

    python3 bench/run.py --workload train-patreformer --seed 1 --seconds 10 --trace 0

A run repeats the workload's iteration (load → build → train → checkpoint →
restore → evaluate; see workloads.py), one caller in a closed loop: a
warm-up iteration, then at least three measured ones and until
``--seconds`` have passed. Every iteration uses the same seed, so each must
repeat the first one's losses and ranks exactly.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: ``load_dataset`` plus ``build_model``, median over iterations;
* ``run_s``: the whole iteration, median over iterations;
* ``queries_per_s``: median throughput of full batches, pooled over
  iterations: training steps on the train-* workloads, evaluation chunks on
  eval-large (combined harmonically over the models of a workload);
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` alternates untraced and traced iterations after the warm-up
and reports per-layer metrics as means per traced iteration, the share of
traced wall time no layer covers, and the tracing overhead against the
untraced iterations. The spans are written to ``.bench_work/`` at the end.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). An operation is one output check or one
iteration that raised. The lines before it give each metric with its unit
and better direction, the error rate, the environment and the workload shape.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import pkge  # noqa: E402
from pkge import baselines, model  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(pkge.__file__))) != SRC:
    sys.exit(f"pkge must come from {SRC}, not {pkge.__file__}")

import spans  # noqa: E402
import workloads as wl  # noqa: E402

MIN_ITERATIONS = 3         # measured iterations of an untraced run
MIN_TRACED = 1             # traced iterations, each after an untraced one
COVERAGE_LIMIT = 0.10      # largest share of traced wall time outside any layer

END_TO_END = {             # name: (unit, better)
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS = ("tensor", "kg", "segmentation", "model", "baselines", "training",
          "evaluation")
TRACED_OPS = ("add", "mul", "matmul", "reshape", "transpose", "concat",
              "gather_rows", "sum", "log", "abs", "clip", "relu", "sigmoid",
              "softmax", "layer_norm", "dropout")


def _per_layer_units():
    """{name: unit} of the traced run's metrics; for each, lower is better."""
    units = {}
    for op in TRACED_OPS:
        units[f"tensor.{op}.fwd_s"] = "s"
        units[f"tensor.{op}.bwd_s"] = "s"
        units[f"tensor.{op}.calls"] = "count"
    units.update({
        "tensor.unlisted.fwd_s": "s", "tensor.unlisted.bwd_s": "s",
        "tensor.matmul.gflop": "GFLOP-computed", "tensor.backward_s": "s",
        "tensor.nodes": "count", "tensor.gc_s": "s",
        "tensor.gc_collections": "count",
        "kg.load_dataset_s": "s", "kg.categorize_relations_s": "s",
        "kg.categorize_relations.calls": "count",
        "kg.train_query_targets_s": "s",
        "segmentation.build_frozen_basis_s": "s",
        "segmentation.segment_mapped.fwd_s": "s",
        "model.build_model_s": "s", "model.encode.fwd_s": "s",
        "model.attention.fwd_s": "s", "model.scorer.fwd_s": "s",
        "baselines.transe.score_all_s": "s",
        "baselines.distmult.score_all_s": "s",
        "training.loss_s": "s", "training.adam_step_s": "s",
        "training.steps": "count", "training.other_s": "s",
        "training.checkpoint_save_s": "s", "training.restore_s": "s",
        "evaluation.score_s": "s", "evaluation.rank_s": "s",
        "evaluation.rank.calls": "count", "evaluation.other_s": "s",
        "synth.generate_s": "s",
        **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
        "trace.wall_s": "s", "trace.uncovered_share": "fraction",
        "trace.overhead": "fraction",
    })
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, store):
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    n_queries = len(store.train_query_targets()) if workload.trains else 0
    eval_split = "test" if workload.trains else "valid"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": workload.name,
        "seed": seed,
        "shape": {
            "entities": store.num_entities,
            "relations": store.num_relations,
            "train_triples": int(len(store.splits["train"])),
            "train_queries": n_queries,
            "eval_split": eval_split,
            "eval_queries": 2 * int(len(store.splits[eval_split])),
        },
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def queries_per_s(iterations):
    """Throughput over equal query counts per model: the median full-batch
    rate of each model, pooled over iterations, combined harmonically."""
    kinds = iterations[0].rates
    medians = [statistics.median(r for it in iterations for r in it.rates[kind])
               for kind in kinds]
    return len(medians) / sum(1.0 / m for m in medians)


def end_to_end_metrics(iterations):
    med = lambda attr: statistics.median(getattr(it, attr) for it in iterations)
    return {
        "setup_s": med("setup_s"),
        "run_s": med("run_s"),
        "queries_per_s": queries_per_s(iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, summary, traced_walls, reference_wall, generate_s):
    """Per-layer means per traced iteration. Tensor op times, ``other_s``
    and ``layer.*`` are self times; the other ``_s`` names are inclusive."""
    incl, self_s, calls, eval_score = summary
    n = len(traced_walls)
    inc = lambda name: incl.get(name, 0.0) / n
    own = lambda name: self_s.get(name, 0.0) / n
    count = lambda name: calls.get(name, 0) / n

    layers = layer_self_times(self_s, n)
    m = {}
    unlisted = {"fwd": 0.0, "bwd": 0.0}
    for name in self_s:
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] == "tensor" and parts[1] not in TRACED_OPS
                and parts[2] in unlisted):
            unlisted[parts[2]] += own(name)
    for op in TRACED_OPS:
        m[f"tensor.{op}.fwd_s"] = own(f"tensor.{op}.fwd")
        m[f"tensor.{op}.bwd_s"] = own(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = count(f"tensor.{op}.fwd")
    steps = count("training.adam_step")
    m.update({
        "tensor.unlisted.fwd_s": unlisted["fwd"],
        "tensor.unlisted.bwd_s": unlisted["bwd"],
        "tensor.matmul.gflop": tracer.matmul_flop / 1e9 / n,
        "tensor.backward_s": inc("tensor.backward"),
        "tensor.nodes": tracer.train_nodes / n / steps if steps else 0.0,
        "tensor.gc_s": tracer.gc_s / n,
        "tensor.gc_collections": tracer.gc_collections / n,
        "kg.load_dataset_s": inc("kg.load_dataset"),
        "kg.categorize_relations_s": inc("kg.categorize_relations"),
        "kg.categorize_relations.calls": count("kg.categorize_relations"),
        "kg.train_query_targets_s": inc("kg.train_query_targets"),
        "segmentation.build_frozen_basis_s": inc("segmentation.build_frozen_basis"),
        "segmentation.segment_mapped.fwd_s": inc("segmentation.segment_mapped.fwd"),
        "model.build_model_s": inc("model.build_model"),
        "model.encode.fwd_s": inc("model.encode.fwd"),
        "model.attention.fwd_s": inc("model.attention.fwd"),
        "model.scorer.fwd_s": (inc("model.score_from_embeddings.fwd")
                               - inc("model.encode.fwd")),
        "baselines.transe.score_all_s": inc("baselines.transe.score_all"),
        "baselines.distmult.score_all_s": inc("baselines.distmult.score_all"),
        "training.loss_s": inc("training.loss"),
        "training.adam_step_s": inc("training.adam_step"),
        "training.steps": steps,
        "training.other_s": own("training.train_model"),
        "training.checkpoint_save_s": inc("training.checkpoint_save"),
        "training.restore_s": inc("training.restore"),
        "evaluation.score_s": eval_score / n,
        "evaluation.rank_s": inc("evaluation.rank"),
        "evaluation.rank.calls": count("evaluation.rank"),
        "evaluation.other_s": own("evaluation.evaluate"),
        "synth.generate_s": generate_s,
        **{f"layer.{layer}.self_s": layers[layer] for layer in LAYERS},
        "trace.wall_s": statistics.median(traced_walls),
        "trace.uncovered_share": (self_s.get(spans.ROOT_SPAN, 0.0)
                                  / incl[spans.ROOT_SPAN]),
        "trace.overhead": statistics.median(traced_walls) / reference_wall - 1.0,
    })
    return m


def layer_self_times(self_s, n):
    """Self time per layer (the span-name prefix) per traced iteration; the
    workload span's own self time is the part no layer covers."""
    layers = dict.fromkeys(LAYERS + ("uncovered",), 0.0)
    for name, s in self_s.items():
        layer = "uncovered" if name == spans.ROOT_SPAN else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s / n
    return layers


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _untraced_report(measured, lines):
    values = end_to_end_metrics(measured)
    for name, (unit, better) in END_TO_END.items():
        lines.append(f"metric {name} {values[name]!r} {unit} better={better}")
    for name in ("setup_s", "run_s"):
        lines.append(f"  {name} per iteration: "
                     + " ".join(f"{getattr(it, name):.5g}" for it in measured))
    for kind in measured[0].rates:
        rates = [r for it in measured for r in it.rates[kind]]
        q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        lines.append(f"  {kind} batch queries/s: median {q[1]:.5g} "
                     f"quartiles {q[0]:.5g} {q[2]:.5g} of {len(rates)} batches")
    return values


def _traced_report(workload, seed, tracer, iterations, traced_walls, inputs,
                   checks, lines):
    reference = statistics.median(it.run_s for it in iterations[1::2])
    summary = tracer.summarize()
    values = per_layer_metrics(tracer, summary, traced_walls, reference,
                               inputs.generate_s)
    uncovered = values["trace.uncovered_share"]
    checks.expect(uncovered <= COVERAGE_LIMIT,
                  f"spans cover only {1 - uncovered:.1%} of traced wall time")
    path = os.path.join(wl.ROOT, ".bench_work",
                        f"trace-{workload.name}-s{seed}-p{os.getpid()}.jsonl")
    tracer.write(path)
    lines.append(f"spans: {len(tracer.spans)} written to {path}")
    lines.append("self time per layer, s per traced iteration:")
    layers = layer_self_times(summary[1], len(traced_walls))
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14} {s:10.4f}")
    for name in sorted(values):
        lines.append(f"metric {name} {values[name]!r} {PER_LAYER[name]} better=lower")
    return values


def _patch(owner, attr, wrapper, undo):
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    lines = []
    checks = wl.Checks()
    iterations = []
    traced_walls = []
    tracer = spans.Tracer()
    clock = wl.BatchClock()
    work_dir = os.path.join(wl.ROOT, ".bench_work",
                            f"{workload.name}-s{seed}-p{os.getpid()}")
    undo = []
    env = None
    try:
        os.makedirs(work_dir, exist_ok=True)
        inputs = wl.prepare(workload, seed, work_dir)
        if trace:
            tracer.install()
        for cls in (model.PatReFormer, baselines.TransE, baselines.DistMult):
            _patch(cls, "score_all", clock.wrap(cls.score_all), undo)
        first = None
        start = time.perf_counter()
        while True:
            # Iteration 0 warms up and is not measured. In a traced run odd
            # iterations are the untraced reference for the overhead and even
            # ones are traced.
            i = len(iterations)
            traced = trace and i > 0 and i % 2 == 0
            tracer.run_id = f"{workload.name}:{seed}:{i}"
            tracer.enabled = traced
            root = tracer.begin(spans.ROOT_SPAN) if traced else None
            try:
                it = wl.run_iteration(workload, seed, inputs, work_dir, clock)
                if traced:
                    tracer.end(root)
                    traced_walls.append(tracer.spans[root][2] - tracer.spans[root][1])
                tracer.enabled = False
                wl.check_iteration(checks, workload, seed, inputs, it, first)
            except Exception as exc:  # a program failure is a failed operation
                checks.error(f"iteration {i}: {type(exc).__name__}: {exc}")
                break
            finally:
                tracer.enabled = False
            if first is None:
                first = wl.fingerprint(it)
                env = environment(workload, seed, it.store)
                lines.extend(wl.describe(it))
            iterations.append(it.timings())
            del it
            gc.collect()
            if i == 0:
                start = time.perf_counter()
            elif time.perf_counter() - start >= seconds and (
                    len(traced_walls) >= MIN_TRACED if trace
                    else len(iterations) > MIN_ITERATIONS):
                break
    finally:
        tracer.enabled = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    if not checks.failures:
        if trace:
            values = _traced_report(workload, seed, tracer, iterations, traced_walls,
                                    inputs, checks, lines)
        else:
            values = _untraced_report(iterations[1:], lines)
        units = PER_LAYER if trace else {k: u for k, (u, _) in END_TO_END.items()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    lines.append(f"iterations {len(iterations)}")
    lines.append(f"error_rate {len(checks.failures) / max(checks.attempted, 1)!r} "
                 f"({len(checks.failures)} of {checks.attempted} operations failed)")
    lines.extend(f"FAILED: {what}" for what in checks.failures)
    if env is not None:
        lines.append("env " + json.dumps(env, sort_keys=True))
    result = {"correct": not checks.failures, "attempted": max(checks.attempted, 1),
              "failed": len(checks.failures), "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run_workload(wl.WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
