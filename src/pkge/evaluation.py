"""Filtered ranking evaluation.

Every triple yields two queries: predict the tail from (head, relation) and
predict the head from (tail, reverse relation). A query's candidates are
all entities except the other answers already known to be true anywhere in
the dataset; the rank of the target among the remaining candidates is

    rank = 1 + #{strictly higher scores} + #{tied scores} / 2.

Reported: MRR and Hits@{1,3,10}, overall, per direction, and per relation
category (1-1, 1-N, N-1, N-N).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kg import CATEGORIES, categorize_relations

HITS_AT = (1, 3, 10)


def filtered_rank(scores, target, known_true):
    """Mean-of-ties rank of ``target`` after masking other true answers."""
    scores = np.asarray(scores)
    target_score = scores[target]
    mask = np.ones(scores.shape[0], dtype=bool)
    if known_true:
        mask[np.fromiter(known_true, dtype=np.int64, count=len(known_true))] = False
    mask[target] = False
    rivals = scores[mask]
    greater = int(np.count_nonzero(rivals > target_score))
    ties = int(np.count_nonzero(rivals == target_score))
    return 1.0 + greater + 0.5 * ties


def metrics_from_ranks(ranks):
    """(MRR, {n: Hits@n}) of an array of ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    mrr = float(np.mean(1.0 / ranks))
    hits = {n: float(np.mean(ranks <= n)) for n in HITS_AT}
    return mrr, hits


@dataclass
class GroupMetrics:
    n_queries: int
    mrr: float = None
    hits: dict = None


@dataclass
class EvalReport:
    split: str
    n_queries: int
    mrr: float
    hits: dict
    directions: dict                      # {"tail"|"head": GroupMetrics}
    categories: dict                      # {category: GroupMetrics}
    ranks: np.ndarray = field(repr=False, compare=False, default=None)


def _eval_workers(requested):
    """Effective worker count: the request, capped by PKGE_THREADS."""
    raw = os.environ.get("PKGE_THREADS", "")
    cap = None
    if raw:
        try:
            cap = max(1, int(raw))
        except ValueError:
            raise ConfigError(
                f"PKGE_THREADS must be an integer, got {raw!r}") from None
    if requested is None:
        return cap or 1
    requested = max(1, requested)
    return min(requested, cap) if cap else requested


def check_split(store, split):
    """``split`` must hold triples to evaluate."""
    if len(store.splits[split]) == 0:
        raise ConfigError(f"split {split!r} has no triples to evaluate")


def evaluate(store, model, split, batch_size=512, threshold=1.5,
             category_scope="all", workers=None):
    """Filtered-ranking report for ``split``; both directions of every triple.

    ``workers`` defaults to the PKGE_THREADS environment variable (else 1);
    results do not depend on the worker count or batch size.
    """
    check_split(store, split)
    triples = store.splits[split]
    n = len(triples)
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    r_off = store.num_relations

    q_ent = np.concatenate([triples[:, 0], triples[:, 2]])
    q_rel = np.concatenate([triples[:, 1], triples[:, 1] + r_off])
    q_target = np.concatenate([triples[:, 2], triples[:, 0]])
    total = 2 * n
    ranks = np.empty(total, dtype=np.float64)

    def run_chunk(lo):
        hi = min(lo + batch_size, total)
        scores = model.score_all(q_ent[lo:hi], q_rel[lo:hi]).data
        for i in range(hi - lo):
            key = (int(q_ent[lo + i]), int(q_rel[lo + i]))
            ranks[lo + i] = filtered_rank(scores[i], int(q_target[lo + i]),
                                          store.filter_index.get(key, ()))

    starts = range(0, total, batch_size)
    n_workers = _eval_workers(workers)
    if n_workers == 1:
        for lo in starts:
            run_chunk(lo)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_chunk, starts))

    mrr, hits = metrics_from_ranks(ranks)
    directions = {}
    for name, part in (("tail", ranks[:n]), ("head", ranks[n:])):
        m, h = metrics_from_ranks(part)
        directions[name] = GroupMetrics(n_queries=n, mrr=m, hits=h)

    cats = categorize_relations(store, threshold=threshold, scope=category_scope)
    categories = {}
    rel_col = triples[:, 1]
    for cat in CATEGORIES:
        sel = np.fromiter((cats[int(r)].category == cat for r in rel_col),
                          dtype=bool, count=n)
        cat_ranks = np.concatenate([ranks[:n][sel], ranks[n:][sel]])
        if len(cat_ranks) == 0:
            categories[cat] = GroupMetrics(n_queries=0)
        else:
            m, h = metrics_from_ranks(cat_ranks)
            categories[cat] = GroupMetrics(n_queries=len(cat_ranks), mrr=m, hits=h)

    return EvalReport(split=split, n_queries=total, mrr=mrr, hits=hits,
                      directions=directions, categories=categories, ranks=ranks)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _metric_cells(mrr, hits):
    if mrr is None:
        return ["", "", "", ""]
    return [f"{mrr:.6f}"] + [f"{hits[n]:.6f}" for n in HITS_AT]


def report_rows(report):
    """Rows of (split, direction, category, n_queries, mrr, h@1, h@3, h@10)."""
    rows = [[report.split, "both", "all", str(report.n_queries)]
            + _metric_cells(report.mrr, report.hits)]
    for direction in ("tail", "head"):
        g = report.directions[direction]
        rows.append([report.split, direction, "all", str(g.n_queries)]
                    + _metric_cells(g.mrr, g.hits))
    for cat in CATEGORIES:
        g = report.categories[cat]
        rows.append([report.split, "both", cat, str(g.n_queries)]
                    + _metric_cells(g.mrr, g.hits))
    return rows


def write_report_csv(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("split,direction,category,n_queries,mrr,hits1,hits3,hits10\n")
        for row in report_rows(report):
            fh.write(",".join(row) + "\n")


def format_report(report):
    header = ["split", "direction", "category", "queries", "MRR", "H@1", "H@3", "H@10"]
    rows = [header] + [
        [c if c else "-" for c in row] for row in report_rows(report)]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# relation-dimension sweep
# ---------------------------------------------------------------------------


def sweep_relation_dim(store, model_kinds, base_config, train_config, dims,
                       progress=None):
    """Train each model kind at each relation embedding size; returns rows of
    {model, d_r, best_valid_mrr, test_mrr}, testing the best-validation model."""
    from dataclasses import replace

    from .training import run_experiment

    rows = []
    for kind in model_kinds:
        for dim in dims:
            if kind == "patreformer":
                config = replace(base_config, d_r=dim)
            else:
                # Baselines have one embedding size for entities and
                # relations alike, so the sweep moves both.
                config = replace(base_config, d_e=dim, d_r=dim)
            result, test = run_experiment(store, kind, config, train_config)
            row = {"model": kind, "d_r": dim,
                   "best_valid_mrr": result.best_valid_mrr,
                   "test_mrr": test.mrr}
            rows.append(row)
            if progress:
                progress(row)
    return rows
