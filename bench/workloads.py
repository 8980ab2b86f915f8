"""Workloads of the pkge benchmark and the checks on their outputs.

One iteration of a workload makes the calls ``pkge train`` and ``pkge eval``
make, in the same order: load the dataset, build the model, train it
(validating at the last epoch, which writes the checkpoint), restore the
checkpoint and evaluate the restored model. A workload without epochs
evaluates the freshly built model instead.

All calls go through module attributes (``kg.load_dataset``, not a name
imported from it) so that the tracer's wrappers see them.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from pkge import evaluation, kg, model, synth, training

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCKS135 = os.path.join(ROOT, "data", "blocks135")
BATCH = training.TrainConfig().batch_size
EVAL_BATCH = training.TrainConfig().eval_batch


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple                  # model kinds, trained and tested in turn
    model_config: dict = field(default_factory=dict)
    epochs: int = 0                # 0: evaluate a fresh model, no training
    graph: dict = None             # synth.clustered_kg sizes; None: blocks135
    eval_triples: int = 0          # valid triples kept for a generated graph
    oracle_chunks: int = 0         # eval chunks checked by the oracle; 0: all

    @property
    def trains(self):
        return self.epochs > 0


WORKLOADS = {
    "train-patreformer": Workload(
        "train-patreformer", ("patreformer",), {"d_r": 1000}, epochs=2),
    "train-baselines": Workload(
        "train-baselines", ("transe", "distmult"), epochs=2),
    # FB15k-237 scale: 13.2k entities, 190k train triples. The graph comes
    # from a fixed seed, since its size varies by several percent between
    # seeds and moves every metric with it; the workload seed picks the
    # evaluated triples. A sixth of the held-out triples are evaluated so
    # that four iterations fit in a run; the rest go to the test split and
    # still feed the filter index.
    "eval-large": Workload(
        "eval-large", ("patreformer",),
        graph={"n_entities": 16000, "n_clusters": 800, "n_relations": 237,
               "blocks_per_relation": 3.0},
        eval_triples=4000, oracle_chunks=2),
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    directory: str
    splits: dict                   # split -> list of (head, relation, tail) names
    generate_s: float


def _read_split(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


GRAPH_SEED = 0


def prepare(workload, seed, work_dir):
    """Dataset directory of the workload. A generated graph is written as TSV
    under ``work_dir``, with its evaluated triples drawn from ``seed``."""
    if workload.graph is None:
        splits = {s: _read_split(os.path.join(BLOCKS135, f))
                  for s, f in kg.SPLIT_FILES.items()}
        return Inputs(BLOCKS135, splits, 0.0)
    t0 = time.perf_counter()
    splits = synth.clustered_kg(np.random.default_rng(GRAPH_SEED), **workload.graph)
    held = splits["valid"]
    keep = np.zeros(len(held), dtype=bool)
    keep[np.random.default_rng(seed).permutation(len(held))[:workload.eval_triples]] = True
    splits = {"train": splits["train"],
              "valid": [t for t, k in zip(held, keep) if k],
              "test": [t for t, k in zip(held, keep) if not k] + splits["test"]}
    directory = os.path.join(work_dir, "graph")
    synth.write_dataset(directory, splits)
    return Inputs(directory, splits, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------


class BatchClock:
    """Start time and size of every ``score_all`` call since ``reset``. A
    training step or an evaluation chunk runs from one call to the next, so
    each full batch gives one throughput sample; validation passes and
    checkpoint writes fall outside every training sample."""

    def __init__(self):
        self.calls = []            # (start, queries, training mode)

    def wrap(self, fn):
        clock = self

        def timed(model, entities, relations, *args, **kwargs):
            mode = kwargs.get("training", args[0] if args else False)
            clock.calls.append((time.perf_counter(), len(entities), bool(mode)))
            return fn(model, entities, relations, *args, **kwargs)
        return timed

    def reset(self):
        self.calls.clear()

    def rates(self, batch_size, mode):
        """Queries per second of each full batch scored in ``mode``."""
        return [n / (t1 - t0)
                for (t0, n, m0), (t1, _, m1) in zip(self.calls, self.calls[1:])
                if m0 == m1 == mode and n == batch_size]


@dataclass
class Output:
    kind: str
    trained: object                # model after training (or the fresh model)
    evaluated: object              # model that was evaluated
    losses: list
    report: object


@dataclass
class Timings:
    setup_s: float
    run_s: float
    rates: dict                    # model kind -> per-batch queries per second


@dataclass
class Iteration:
    setup_s: float
    run_s: float
    rates: dict
    store: object
    outputs: list

    def timings(self):
        return Timings(self.setup_s, self.run_s, self.rates)


def run_iteration(workload, seed, inputs, work_dir, clock):
    """build → train → checkpoint → restore → evaluate, timed. The batch
    samples are training steps when the workload trains and evaluation
    chunks otherwise."""
    t0 = time.perf_counter()
    store = kg.load_dataset(inputs.directory)
    config = model.ModelConfig(**workload.model_config)
    built = [(kind, model.build_model(kind, config, store.num_entities,
                                      store.num_relations_with_reverse,
                                      training.seed_streams(seed)["init"]))
             for kind in workload.models]
    setup_s = time.perf_counter() - t0

    it = Iteration(setup_s, 0.0, {}, store, [])
    for kind, fresh in built:
        losses = []
        evaluated, split = fresh, "valid"
        clock.reset()
        if workload.trains:
            train_cfg = training.TrainConfig(epochs=workload.epochs,
                                             eval_every=workload.epochs, seed=seed)
            result = training.train_model(store, fresh, train_cfg,
                                          out_dir=os.path.join(work_dir, kind))
            it.rates[kind] = clock.rates(BATCH, mode=True)
            losses = [loss for _, loss, _ in result.history]
            evaluated, _ = training.restore_model(result.checkpoint_path)
            split = "test"
        report = evaluation.evaluate(store, evaluated, split, batch_size=EVAL_BATCH)
        if not workload.trains:
            it.rates[kind] = clock.rates(EVAL_BATCH, mode=False)
        it.outputs.append(Output(kind, fresh, evaluated, losses, report))
    it.run_s = time.perf_counter() - t0
    return it


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Checks:
    """Output checks; each is one attempted operation, a false one a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def error(self, what):
        self.attempted += 1
        self.failures.append(what)


def _queries(split_triples, store):
    """(entity, relation, target) id arrays in evaluation order: every tail
    query, then every head query over reversed relations."""
    ent, rel, n_rel = store.entity_ids, store.relation_ids, store.num_relations
    ids = np.array([(ent[h], rel[r], ent[t]) for h, r, t in split_triples],
                   dtype=np.int64).reshape(-1, 3)
    q_ent = np.concatenate([ids[:, 0], ids[:, 2]])
    q_rel = np.concatenate([ids[:, 1], ids[:, 1] + n_rel])
    q_tgt = np.concatenate([ids[:, 2], ids[:, 0]])
    return q_ent, q_rel, q_tgt


def _known_answers(keys, splits, store):
    """All true answers of each (entity, relation) query in ``keys``, from
    the raw triples of every split."""
    ent, rel, n_rel = store.entity_ids, store.relation_ids, store.num_relations
    known = {key: [] for key in keys}
    for triples in splits.values():
        for h, r, t in triples:
            h, r, t = ent[h], rel[r], ent[t]
            if (h, r) in known:
                known[(h, r)].append(t)
            if (t, r + n_rel) in known:
                known[(t, r + n_rel)].append(h)
    return known


def oracle_ranks(scores, targets, answers):
    """Filtered mean-of-ties rank of each row's target, in plain numpy."""
    ranks = np.empty(len(targets), dtype=np.float64)
    for i, (row, target) in enumerate(zip(scores, targets)):
        rivals = np.ones(row.shape[0], dtype=bool)
        rivals[answers[i]] = False
        rivals[target] = False
        s = row[target]
        ranks[i] = (1.0 + np.count_nonzero(row[rivals] > s)
                    + 0.5 * np.count_nonzero(row[rivals] == s))
    return ranks


def check_ranks(checks, label, workload, seed, inputs, store, out, split):
    """Compare the report's ranks with the oracle on whole eval chunks,
    rescored with the chunking ``evaluate`` uses so scores match bit for bit."""
    q_ent, q_rel, q_tgt = _queries(inputs.splits[split], store)
    starts = list(range(0, len(q_ent), EVAL_BATCH))
    if workload.oracle_chunks and workload.oracle_chunks < len(starts):
        pick = np.random.default_rng([seed, 1]).choice(
            len(starts), workload.oracle_chunks, replace=False)
        starts = [starts[i] for i in sorted(pick)]
    chunks = [(lo, min(lo + EVAL_BATCH, len(q_ent))) for lo in starts]
    keys = {(int(q_ent[i]), int(q_rel[i])) for lo, hi in chunks for i in range(lo, hi)}
    known = _known_answers(keys, inputs.splits, store)
    for lo, hi in chunks:
        scores = out.evaluated.score_all(q_ent[lo:hi], q_rel[lo:hi]).data
        answers = [known[(int(q_ent[i]), int(q_rel[i]))] for i in range(lo, hi)]
        expected = oracle_ranks(scores, q_tgt[lo:hi], answers)
        checks.expect(np.array_equal(out.report.ranks[lo:hi], expected),
                      f"{label}: ranks of queries {lo}-{hi} differ from the oracle")


def check_iteration(checks, workload, seed, inputs, it, first):
    """Checks of one iteration; ``first`` is the first iteration's outputs,
    which every later one must repeat exactly (same seed, same results)."""
    for n, out in enumerate(it.outputs):
        label, report, losses = out.kind, out.report, out.losses
        checks.expect(0.0 <= report.mrr <= 1.0, f"{label}: MRR {report.mrr} outside [0, 1]")
        checks.expect(bool(it.rates[label]), f"{label}: no full batch was timed")
        check_ranks(checks, label, workload, seed, inputs, it.store, out, report.split)
        if workload.trains:
            checks.expect(len(losses) == workload.epochs
                          and all(np.isfinite(losses)),
                          f"{label}: missing or non-finite epoch loss {losses}")
            checks.expect(bool(losses) and losses[-1] < losses[0],
                          f"{label}: last epoch loss not below the first: {losses}")
            q_ent, q_rel, _ = _queries(inputs.splits["test"][:256], it.store)
            checks.expect(np.array_equal(out.trained.score_all(q_ent, q_rel).data,
                                         out.evaluated.score_all(q_ent, q_rel).data),
                          f"{label}: restored checkpoint scores differ from the "
                          f"trained model")
        if first is not None:
            ref = first[n]
            checks.expect(losses == ref[0] and np.array_equal(report.ranks, ref[1]),
                          f"{label}: iteration did not repeat the first one's "
                          f"losses and ranks")


def describe(it):
    """Report lines on the models' outputs; MRR is printed, not gated."""
    lines = []
    for out in it.outputs:
        loss = f" final epoch loss {out.losses[-1]!r}" if out.losses else ""
        lines.append(f"model {out.kind}: {out.report.split} MRR "
                     f"{out.report.mrr:.6f}{loss}")
    return lines


def fingerprint(it):
    """What a later iteration with the same seed must reproduce exactly."""
    return [(out.losses, out.report.ranks) for out in it.outputs]
