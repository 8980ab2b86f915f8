import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkge import evaluation
from pkge.baselines import DistMult
from pkge.errors import ConfigError, NumericError
from pkge.evaluation import (EvalReport, evaluate, filtered_rank,
                             format_report, metrics_from_ranks, report_rows,
                             write_report_csv)
from pkge.kg import build_store, category_counts, load_dataset
from pkge.model import ModelConfig, PatReFormer, build_model

from random_graphs import random_kg


def rank_one(scores, target, known=()):
    """filtered_rank of a chunk of one query with the given known answers."""
    known = np.array(sorted(known), dtype=np.int64)
    ranks = filtered_rank(np.array([scores]), np.array([target]),
                          np.zeros(len(known), dtype=np.int64), known)
    return float(ranks[0])


class TestFilteredRank:
    def test_no_filter_no_ties(self):
        scores = [0.9, 0.5, 0.7, 0.1]
        assert rank_one(scores, 1) == 3.0
        assert rank_one(scores, 0) == 1.0
        assert rank_one(scores, 3) == 4.0

    def test_ties_count_half(self):
        scores = [0.9, 0.5, 0.7, 0.5]
        # one rival above, one tied at 0.5
        assert rank_one(scores, 1) == 3.5
        scores = [0.5, 0.5, 0.5]
        assert rank_one(scores, 0) == 2.0

    def test_known_true_removed_from_rivals(self):
        scores = [0.9, 0.5, 0.7, 0.1]
        assert rank_one(scores, 1, {0}) == 2.0
        assert rank_one(scores, 1, {0, 2}) == 1.0

    def test_target_inside_known_true_is_fine(self):
        scores = [0.9, 0.5, 0.7]
        assert rank_one(scores, 1, {1, 0}) == 2.0

    def test_chunk_of_mixed_queries(self):
        scores = np.array([
            [0.9, 0.5, 0.7, 0.5],     # no known answers, one tie
            [0.2, 0.8, 0.8, 0.1],     # target in its own known set, tie masked
            [0.5, 0.5, 0.5, 0.5],     # all tied, one of them known
            [0.3, 0.9, 0.6, 0.6],     # the only higher score is known
        ])
        targets = np.array([1, 2, 0, 3])
        known_rows = np.array([1, 1, 2, 3])
        known_answers = np.array([1, 2, 3, 1])
        ranks = filtered_rank(scores, targets, known_rows, known_answers)
        assert ranks.tolist() == [3.5, 1.0, 2.0, 1.5]
        for i, target in enumerate(targets):
            known = set(known_answers[known_rows == i].tolist())
            assert rank_one(scores[i], target, known) == ranks[i]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_reference(self, data):
        # Tie-heavy integer scores with signed zeros, on tiles with fewer, as
        # many and more rows than a block, and entity counts off a multiple
        # of 8. Known answers include some rows' targets.
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        n_ent = data.draw(st.integers(1, 3000) | st.sampled_from([1, 7, 8, 9, 135]))
        itemsize = np.dtype(dtype).itemsize
        if data.draw(st.booleans()):
            block_bytes = evaluation.RANK_BLOCK_BYTES
        else:
            block_bytes = data.draw(st.integers(1, 4)) * n_ent * itemsize
        block = max(1, block_bytes // (n_ent * itemsize))
        n = data.draw(st.sampled_from(
            sorted({r for r in (1, block - 1, block, block + 1, 2 * block + 1)
                    if 1 <= r <= 64})))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scores = rng.integers(-2, 3, (n, n_ent)).astype(dtype)
        scores[rng.random(scores.shape) < 0.1] = -0.0
        targets = rng.integers(0, n_ent, n)
        known = rng.random((n, n_ent)) < data.draw(st.floats(0.0, 0.5))
        known[np.arange(n), targets] |= rng.random(n) < 0.5
        known_rows, known_answers = np.nonzero(known)
        order = rng.permutation(len(known_rows))
        with mock.patch.object(evaluation, "RANK_BLOCK_BYTES", block_bytes):
            ranks = filtered_rank(scores, targets, known_rows[order],
                                  known_answers[order])
        want = []
        for i, target in enumerate(targets):
            rivals = ~known[i]
            rivals[target] = False
            row, t = scores[i][rivals], scores[i, target]
            want.append(1.0 + np.sum(row > t) + 0.5 * np.sum(row == t))
        np.testing.assert_array_equal(ranks, want)

    def test_memory_bounded_at_paper_scale(self):
        # A float32 [512, 13234] tile, as at FB15k-237 scale, with ~10k known
        # pairs. Full-tile comparisons would build two 6.8 MB boolean masks;
        # the row blocks reuse one buffer of about 120 kB.
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((512, 13234)).astype(np.float32)
        targets = rng.integers(0, 13234, 512)
        pairs = np.unique(np.stack([rng.integers(0, 512, 10_000),
                                    rng.integers(0, 13234, 10_000)]), axis=1)
        tracemalloc.start()
        try:
            ranks = filtered_rank(scores, targets, *pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ranks.shape == (512,)
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_metrics_hand_case(self):
        mrr, hits = metrics_from_ranks([1.0, 2.0, 4.0, 12.0])
        assert mrr == pytest.approx((1 + 0.5 + 0.25 + 1 / 12) / 4)
        assert hits[1] == 0.25 and hits[3] == 0.5 and hits[10] == 0.75


class TableModel:
    """Stand-in scorer returning rows of a fixed [n_ent, n_rel2, n_ent] table."""

    kind = "table"

    def __init__(self, table):
        self.table = table

    def score_all(self, entities, relations, rng=None):
        class _Out:
            pass

        out = _Out()
        out.data = self.table[np.asarray(entities), np.asarray(relations)]
        return out


def random_store_and_table(seed):
    rng = np.random.default_rng(seed)
    n_ent = int(rng.integers(8, 51))
    n_rel = int(rng.integers(2, 6))
    splits = random_kg(rng, n_entities=n_ent, n_relations=n_rel,
                       n_triples=int(rng.integers(30, 120)))
    store = build_store(splits["train"], splits["valid"], splits["test"])
    # coarse quantization forces plenty of score ties
    table = np.round(rng.random(
        (store.num_entities, 2 * store.num_relations, store.num_entities)
    ).astype(np.float32), 1)
    return store, table


def oracle_ranks(store, table, split):
    """Re-rank every query with explicit loops: filter sets rebuilt from the
    raw splits, rivals counted one comparison at a time."""
    known = {}
    for part in store.splits.values():
        for h, r, t in part:
            known.setdefault((int(h), int(r)), set()).add(int(t))
            known.setdefault((int(t), int(r) + store.num_relations),
                             set()).add(int(h))
    n_ent = store.num_entities

    def rank_of(e, r, target):
        row = table[e, r]
        keep_out = known.get((e, r), set())
        tgt = row[target]
        greater = ties = 0
        for cand in range(n_ent):
            if cand == target or cand in keep_out:
                continue
            if row[cand] > tgt:
                greater += 1
            elif row[cand] == tgt:
                ties += 1
        return 1.0 + greater + 0.5 * ties

    tails, heads = [], []
    for h, r, t in store.splits[split]:
        tails.append(rank_of(int(h), int(r), int(t)))
        heads.append(rank_of(int(t), int(r) + store.num_relations, int(h)))
    return np.array(tails + heads)


class TestEvaluateAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_ranks_match_loop_reranking_exactly(self, seed):
        store, table = random_store_and_table(seed)
        report = evaluate(store, TableModel(table), "test", batch_size=16)
        want = oracle_ranks(store, table, "test")
        np.testing.assert_array_equal(report.ranks, want)
        mrr, hits = metrics_from_ranks(want)
        assert report.mrr == mrr and report.hits == hits

    def test_direction_and_category_groups(self):
        store, table = random_store_and_table(99)
        report = evaluate(store, TableModel(table), "test", batch_size=32)
        want = oracle_ranks(store, table, "test")
        n = len(store.splits["test"])
        assert report.n_queries == 2 * n
        for name, part in (("tail", want[:n]), ("head", want[n:])):
            g = report.directions[name]
            mrr, hits = metrics_from_ranks(part)
            assert g.n_queries == n and g.mrr == mrr and g.hits == hits
        total = sum(g.n_queries for g in report.categories.values())
        assert total == 2 * n
        cat_mrr_weighted = sum(g.mrr * g.n_queries
                               for g in report.categories.values()
                               if g.n_queries)
        assert cat_mrr_weighted / (2 * n) == pytest.approx(report.mrr)

    def test_batch_size_invariance(self):
        store, table = random_store_and_table(5)
        a = evaluate(store, TableModel(table), "test", batch_size=512)
        b = evaluate(store, TableModel(table), "test", batch_size=7)
        np.testing.assert_array_equal(a.ranks, b.ranks)

    def test_argument_validation(self, tiny_store):
        table = np.zeros((tiny_store.num_entities,
                          2 * tiny_store.num_relations,
                          tiny_store.num_entities), dtype=np.float32)
        with pytest.raises(ConfigError):
            evaluate(tiny_store, TableModel(table), "test", batch_size=0)
        empty = build_store([("a", "r", "b")], [], [])
        with pytest.raises(ConfigError):
            evaluate(empty, TableModel(np.zeros((2, 2, 2))), "test")

    def test_hits_are_monotone(self):
        store, table = random_store_and_table(8)
        report = evaluate(store, TableModel(table), "test")
        assert report.hits[1] <= report.hits[3] <= report.hits[10]
        assert 0.0 < report.mrr <= 1.0


class RecordingModel:
    """Passes ``score_all`` through to ``model`` and keeps every logits row
    it returns, keyed by its (entity, relation) query."""

    def __init__(self, model):
        self.model, self.logits = model, {}

    def score_all(self, entities, relations, rng=None):
        out = self.model.score_all(entities, relations, rng)
        for key, row in zip(zip(entities.tolist(), relations.tolist()), out.data):
            self.logits.setdefault(key, []).append(row.copy())
        return out


@pytest.fixture(scope="module")
def blocks_store(data_dir):
    return load_dataset(os.path.join(data_dir, "blocks135"))


SCORING_SETUPS = {
    "cross": ("patreformer", dict(d_r=1000)),
    "full_self": ("patreformer", dict(d_r=1000, attention="full_self")),
    "segmentation-none": ("patreformer", dict(segmentation="none")),
    "transe": ("transe", {}),
    "distmult": ("distmult", {}),
}


@pytest.mark.parametrize("setup", list(SCORING_SETUPS))
def test_query_results_do_not_depend_on_the_split(blocks_store, setup):
    # A query gets the same logits and rank in any subset or order of a
    # split as in the whole split: evaluate scores fixed-height tiles.
    kind, options = SCORING_SETUPS[setup]
    store = blocks_store
    model = build_model(kind, ModelConfig(**options), store.num_entities,
                        store.num_relations_with_reverse,
                        np.random.default_rng(3))
    test = store.splits["test"]
    n = len(test)
    full = RecordingModel(model)
    full_ranks = evaluate(store, full, "test").ranks
    for logits in full.logits.values():
        for row in logits:
            np.testing.assert_array_equal(row, logits[0])

    rng = np.random.default_rng(11)
    picks = [rng.choice(n, size, replace=False) for size in (1, 7, 300)]
    for idx in picks + [rng.permutation(n)]:
        part = RecordingModel(model)
        sub = replace(store, splits={**store.splits, "test": test[idx]})
        ranks = evaluate(sub, part, "test").ranks
        np.testing.assert_array_equal(
            ranks, np.concatenate([full_ranks[idx], full_ranks[n + idx]]))
        for key, logits in part.logits.items():
            for row in logits:
                np.testing.assert_array_equal(row, full.logits[key][0])


class TestReportEmission:
    @pytest.fixture
    def small_report(self):
        store = build_store(
            [("a", "r", "b"), ("a", "r", "c"), ("c", "s", "a")],
            [("b", "r", "c")], [("a", "r", "d")])
        rng = np.random.default_rng(0)
        table = rng.random((store.num_entities, 4, store.num_entities))
        return evaluate(store, TableModel(table), "test")

    def test_row_layout(self, small_report):
        rows = report_rows(small_report)
        assert len(rows) == 7   # both, tail, head, then four categories
        assert rows[0][:4] == ["test", "both", "all", "2"]
        assert rows[1][1] == "tail" and rows[2][1] == "head"
        assert [r[2] for r in rows[3:]] == ["1-1", "1-N", "N-1", "N-N"]

    def test_empty_category_cells(self, small_report):
        rows = report_rows(small_report)
        by_cat = {r[2]: r for r in rows[3:]}
        assert by_cat["N-N"][3] == "0"
        assert by_cat["N-N"][4:] == ["", "", "", ""]

    def test_csv_golden(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(small_report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "split,direction,category,n_queries,mrr,hits1,hits3,hits10"
        assert len(lines) == 8
        assert all(line.count(",") == 7 for line in lines)

    def test_text_table(self, small_report):
        text = format_report(small_report)
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["split", "direction", "category"]
        assert set(lines[1]) <= {"-", " "}
        # empty metric cells render as dashes
        assert " -" in lines[-1] or lines[-1].endswith("-")


class TestEvalWithRealModel:
    def test_distmult_end_to_end(self, tiny_store):
        cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                          segmentation="folding")
        model = DistMult(cfg, tiny_store.num_entities,
                         tiny_store.num_relations_with_reverse,
                         np.random.default_rng(0))
        report = evaluate(tiny_store, model, "valid")
        assert isinstance(report, EvalReport)
        assert len(report.ranks) == 2 * len(tiny_store.splits["valid"])
        assert np.all(report.ranks >= 1.0)
        assert np.all(report.ranks <= tiny_store.num_entities)

    def test_categories_cover_relations_unseen_in_train(self):
        # "q" occurs only in valid/test; categories are counted over all
        # splits, so every test query falls in some category.
        store = build_store([("a", "r", "b"), ("b", "r", "c")],
                            [("a", "q", "c")],
                            [("a", "q", "b"), ("b", "r", "a")])
        cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8)
        model = DistMult(cfg, store.num_entities,
                         store.num_relations_with_reverse,
                         np.random.default_rng(0))
        report = evaluate(store, model, "test")
        assert sum(g.n_queries for g in report.categories.values()) == 4
        counts = category_counts(store, split="test")
        for cat, g in report.categories.items():
            assert g.n_queries == 2 * counts[cat]

    def test_patreformer_eval_builds_no_tape(self, tiny_store, tiny_config):
        model = PatReFormer(tiny_config, tiny_store.num_entities,
                            tiny_store.num_relations_with_reverse,
                            np.random.default_rng(0))
        seen = []
        score_all = model.score_all

        def recording_score_all(*args, **kwargs):
            out = score_all(*args, **kwargs)
            seen.append((out.requires_grad, out._backward, out._prev))
            return out

        model.score_all = recording_score_all
        report = evaluate(tiny_store, model, "test", batch_size=3)
        assert len(seen) == -(-report.n_queries // 3) > 1
        assert all(not rg and bw is None and prev == ()
                   for rg, bw, prev in seen)
        # grad mode is back on once evaluate returns
        assert score_all([0], [0]).requires_grad

    def test_grad_mode_restored_when_scoring_raises(self, tiny_store,
                                                    tiny_config):
        model = PatReFormer(tiny_config, tiny_store.num_entities,
                            tiny_store.num_relations_with_reverse,
                            np.random.default_rng(0))
        calls = []
        score_all = model.score_all

        def failing_score_all(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise NumericError("second chunk")
            return score_all(*args, **kwargs)

        model.score_all = failing_score_all
        with pytest.raises(NumericError, match="second chunk"):
            evaluate(tiny_store, model, "test", batch_size=3)
        assert len(calls) == 2
        assert score_all([0], [0]).requires_grad
