"""Filtered ranking evaluation.

Every triple yields two queries: predict the tail from (head, relation) and
predict the head from (tail, reverse relation). A query's candidates are
all entities except the other answers known to be true anywhere in the
dataset (``TripleStore.filter_index``). Counted over the whole score row,
less the counts over those known answers, the rank of the target is

    rank = 1 + #{strictly higher scores} + #{tied scores} / 2.

The whole-row counts walk the tile in blocks of rows, about
``RANK_BLOCK_BYTES`` of scores each, so a block stays in cache while it is
compared twice. Each comparison writes one reused boolean buffer whose rows
are zero-padded to a multiple of 8 columns, and a row's count is the popcount
of its 8-byte words. Counts are integers, so ranks are exact whatever the
block size.

Reported: MRR and Hits@{1,3,10}, overall, per direction, and per relation
category (1-1, 1-N, N-1, N-N).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kg import CATEGORIES, triple_categories
from .tensor import no_grad

HITS_AT = (1, 3, 10)
EVAL_BATCH = 512        # queries scored per tile
RANK_BLOCK_BYTES = 1 << 19   # scores compared per block of rows


def filtered_rank(scores, targets, known_rows, known_answers):
    """Mean-of-ties rank of each row's target among ``scores[row]`` after
    masking the row's other true answers, given as distinct flat
    (row, answer) pairs."""
    n, n_ent = scores.shape
    target_score = scores[np.arange(n), targets][:, None]
    rival = known_answers != targets[known_rows]
    rows = known_rows[rival]
    known = scores[rows, known_answers[rival]]
    block = max(1, RANK_BLOCK_BYTES // (n_ent * scores.itemsize))
    mask = np.zeros((min(block, n), -(-n_ent // 8) * 8), dtype=np.bool_)
    words = mask.view(np.uint64)
    greater = np.empty(n, dtype=np.int64)
    ties = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        row, target = scores[lo:hi], target_score[lo:hi]
        np.greater(row, target, out=mask[:hi - lo, :n_ent])
        greater[lo:hi] = np.bitwise_count(words[:hi - lo]).sum(axis=1)
        np.equal(row, target, out=mask[:hi - lo, :n_ent])
        ties[lo:hi] = np.bitwise_count(words[:hi - lo]).sum(axis=1)
    greater -= np.bincount(rows[known > target_score[rows, 0]], minlength=n)
    # less the target's tie with itself
    ties -= 1 + np.bincount(rows[known == target_score[rows, 0]], minlength=n)
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


def _group_metrics(ranks):
    """GroupMetrics of one group's ranks; an empty group has no MRR or hits."""
    if len(ranks) == 0:
        return GroupMetrics(n_queries=0)
    mrr, hits = metrics_from_ranks(ranks)
    return GroupMetrics(n_queries=len(ranks), mrr=mrr, hits=hits)


@dataclass
class EvalReport:
    split: str
    n_queries: int
    mrr: float
    hits: dict
    directions: dict                      # {"tail"|"head": GroupMetrics}
    categories: dict                      # {category: GroupMetrics}
    ranks: np.ndarray = field(repr=False, compare=False, default=None)


def check_split(store, split):
    """``split`` must hold triples to evaluate."""
    if len(store.splits[split]) == 0:
        raise ConfigError(f"split {split!r} has no triples to evaluate")


def evaluate(store, model, split, batch_size=EVAL_BATCH):
    """Filtered-ranking report for ``split``; both directions of every triple.

    The queries are scored in order with no tape, in tiles of exactly
    ``batch_size`` rows, the last padded with copies of its last query, so a
    query's logits and rank do not depend on the split, subset or order it is
    scored in. Relation categories are ``triple_categories`` at its defaults.
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
    with no_grad():
        for lo in range(0, total, batch_size):
            hi = min(lo + batch_size, total)
            tile = np.minimum(np.arange(lo, lo + batch_size), hi - 1)
            # No name keeps a tile's scores alive while the next is scored.
            ranks[lo:hi] = filtered_rank(
                model.score_all(q_ent[tile], q_rel[tile]).data[:hi - lo],
                q_target[lo:hi],
                *store.filter_index.lookup(q_ent[lo:hi], q_rel[lo:hi]))

    mrr, hits = metrics_from_ranks(ranks)
    directions = {"tail": _group_metrics(ranks[:n]),
                  "head": _group_metrics(ranks[n:])}
    query_cat = np.tile(triple_categories(store, split), 2)
    categories = {cat: _group_metrics(ranks[query_cat == i])
                  for i, cat in enumerate(CATEGORIES)}

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
