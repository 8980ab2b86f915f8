import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkge.errors import ConfigError, DataFormatError
from pkge.kg import (CATEGORIES, THRESHOLD, build_store, categorize_relations,
                     category_counts, dump_stats_json, load_dataset, load_tsv,
                     triple_categories)
from pkge.synth import write_dataset

from random_graphs import random_kg


class TestLoadTsv:
    def test_reads_triples_in_order(self, tmp_path):
        p = tmp_path / "train.txt"
        p.write_text("a\tr1\tb\nb\tr2\tc\na\tr1\tb\n")
        triples = load_tsv(str(p))
        assert triples == [("a", "r1", "b"), ("b", "r2", "c"), ("a", "r1", "b")]

    def test_blank_lines_skipped(self, tmp_path):
        # the line count still advances past a blank, CRLF ones included
        p = tmp_path / "train.txt"
        p.write_bytes(b"\na\tr1\tb\n\r\nb\tr2\tc\n\nwrong\n")
        with pytest.raises(DataFormatError, match=r"train\.txt:6"):
            load_tsv(str(p))
        p.write_bytes(b"\na\tr1\tb\n\r\nb\tr2\tc\n\n")
        assert load_tsv(str(p)) == [("a", "r1", "b"), ("b", "r2", "c")]

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a\tr\tb\nwrong line\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
            load_tsv(str(p))

    @pytest.mark.parametrize("line", ["\t\t", "a\t\tb", "\tr\tb", "a\tr\t"],
                             ids=["all", "relation", "head", "tail"])
    def test_empty_field_reports_line_and_split(self, tmp_path, line):
        p = tmp_path / "valid.txt"
        p.write_text(f"a\tr\tb\n{line}\n")
        with pytest.raises(DataFormatError,
                           match=r"valid\.txt:2: empty .*\(valid split\)"):
            load_tsv(str(p), split="valid")

    def test_empty_field_fails_load_dataset(self, tmp_path):
        write_dataset(str(tmp_path), {"train": [("a", "r", "b")],
                                      "valid": [("a", "r", "b")],
                                      "test": [("a", "r", "b")]})
        with open(tmp_path / "test.txt", "a", encoding="utf-8") as fh:
            fh.write("a\t\tb\n")
        with pytest.raises(DataFormatError, match=r"test\.txt:2"):
            load_dataset(str(tmp_path))


    @pytest.mark.parametrize("line,name,split", [
        ("a\tr\tb ", "b ", "valid"),          # trailing space after a tail
        ("a\tr \tc", "r ", "test"),           # a relation name
        ("\u00a0a\tr\tb", "\u00a0a", "train"),  # a non-breaking space
    ], ids=["tail", "relation", "head"])
    def test_edge_whitespace_fails_load_dataset(self, tmp_path, line, name,
                                                split):
        splits = {s: [("a", "r", "b")] for s in ("train", "valid", "test")}
        write_dataset(str(tmp_path), splits)
        with open(tmp_path / f"{split}.txt", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(DataFormatError) as exc:
            load_dataset(str(tmp_path))
        assert repr(name) in str(exc.value)
        assert f"{split}.txt" in str(exc.value)
        assert f"({split} split)" in str(exc.value)


def answers(index, entity, relation):
    """Set of the answers ``index`` holds for one query."""
    _, found = index.lookup(np.array([entity]), np.array([relation]))
    return set(found.tolist())


def index_as_dict(index, queries):
    """{query: set of answers} that ``index`` holds for a list of queries."""
    rows, found = index.lookup(*np.array(queries, dtype=np.int64).T)
    got = {}
    for row, answer in zip(rows.tolist(), found.tolist()):
        got.setdefault(queries[row], set()).add(answer)
    return got


def queries_and_answers(triples, num_relations):
    """Reference {(entity, relation incl. reverses): set of answers} of an
    [n, 3] id array, keys in first-occurrence order."""
    want = {}
    for h, r, t in triples.tolist():
        want.setdefault((h, r), set()).add(t)
        want.setdefault((t, r + num_relations), set()).add(h)
    return want


class TestBuildStore:
    def test_first_occurrence_interning(self):
        store = build_store([("b", "r", "a"), ("a", "s", "c")], [], [])
        assert store.entity_ids == {"b": 0, "a": 1, "c": 2}
        assert store.relation_ids == {"r": 0, "s": 1}

    def test_later_splits_extend_vocab(self):
        store = build_store([("a", "r", "b")], [("c", "r", "a")],
                            [("a", "q", "d")])
        assert store.entity_ids == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert store.relation_ids == {"r": 0, "q": 1}

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigError):
            build_store([], [("a", "r", "b")], [])

    def test_reverse_relation_ids(self):
        store = build_store([("a", "r", "b"), ("a", "s", "b")], [], [])
        assert store.num_relations == 2
        assert store.num_relations_with_reverse == 4

    def test_filter_index_both_directions(self):
        store = build_store([("a", "r", "b"), ("a", "r", "c")],
                            [("d", "r", "b")], [])
        a, b, c, d = (store.entity_ids[x] for x in "abcd")
        assert answers(store.filter_index, a, 0) == {b, c}
        assert answers(store.filter_index, b, 1) == {a, d}
        assert answers(store.filter_index, d, 0) == {b}

    def test_lookup_pairs_follow_query_rows(self):
        store = build_store([("a", "r", "b"), ("a", "r", "c")],
                            [("d", "r", "b")], [])
        a, b, c, d = (store.entity_ids[x] for x in "abcd")
        # an unknown query yields no pairs; a repeated one yields its own
        rows, found = store.filter_index.lookup(np.array([a, c, a]),
                                                np.array([0, 0, 0]))
        assert rows.tolist() == [0, 0, 2, 2]
        assert found.tolist() == sorted([b, c]) * 2

    def test_duplicates_kept_in_split(self):
        store = build_store([("a", "r", "b"), ("a", "r", "b")], [], [])
        assert len(store.splits["train"]) == 2

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2),
                              st.integers(0, 8)), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_invariants_on_random_triples(self, raw):
        triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in raw]
        store = build_store(triples, [], [])
        n, m = store.num_entities, store.num_relations
        assert sorted(store.entity_ids.values()) == list(range(n))
        assert sorted(store.relation_ids.values()) == list(range(m))
        ids = store.splits["train"]
        assert ids.shape == (len(triples), 3)
        assert ids[:, [0, 2]].max() < n and ids[:, 1].max() < m
        # every triple's answer in both directions, and nothing else
        want = queries_and_answers(ids, m)
        assert index_as_dict(store.filter_index, list(want)) == want
        assert len(store.filter_index.codes) == sum(map(len, want.values()))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2),
                              st.integers(0, 8)), min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_train_queries_in_first_occurrence_order(self, raw):
        triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in raw]
        cut = len(triples) // 2
        store = build_store(triples[:cut], triples[cut:], [])
        want = queries_and_answers(store.splits["train"], store.num_relations)
        q = store.train_query_targets()
        assert len(q) == len(want)
        assert list(zip(q.entities.tolist(), q.relations.tolist())) == list(want)
        assert index_as_dict(q, list(want)) == want

    def test_train_query_targets(self):
        store = build_store([("a", "r", "b"), ("a", "r", "c"), ("b", "r", "a")],
                            [], [])
        q = store.train_query_targets()
        a, b, c = (store.entity_ids[x] for x in "abc")
        assert answers(q, a, 0) == {b, c}
        assert answers(q, b, 1) == {a}      # reverse direction
        assert answers(q, b, 0) == {a}
        assert answers(q, a, 1) == {b}
        assert len(q) == 5


class TestCategorization:
    @pytest.fixture
    def mixed_store(self):
        train = [
            ("h0", "one2one", "t0"),
            ("h0", "one2many", "t0"), ("h0", "one2many", "t1"),
            ("h0", "many2one", "t0"), ("h1", "many2one", "t0"),
            ("h0", "many2many", "t0"), ("h0", "many2many", "t1"),
            ("h1", "many2many", "t0"), ("h1", "many2many", "t1"),
        ]
        return build_store(train, [], [("h0", "one2many", "t1")])

    @staticmethod
    def by_name(store, cats):
        return {name: CATEGORIES[c]
                for name, c in zip(store.relation_names, cats.tolist())
                if c >= 0}

    def test_categories_and_ratios(self, mixed_store):
        # scope="all" counts the extra test triple of one2many: tph 3.0 and
        # hpt exactly 1.5, which is not above the cut
        cats = categorize_relations(mixed_store)
        assert cats.dtype == np.int64
        assert self.by_name(mixed_store, cats) == {
            "one2one": "1-1", "one2many": "1-N", "many2one": "N-1",
            "many2many": "N-N"}

    def test_train_scope_ratios(self, mixed_store):
        # in train alone one2many has tph 2.0 and hpt 1.0
        cats = categorize_relations(mixed_store, scope="train")
        assert self.by_name(mixed_store, cats) == {
            "one2one": "1-1", "one2many": "1-N", "many2one": "N-1",
            "many2many": "N-N"}

    def test_bad_scope(self, mixed_store):
        with pytest.raises(ConfigError):
            categorize_relations(mixed_store, scope="validonly")

    def test_counts_per_split(self, mixed_store):
        counts = category_counts(mixed_store, split="test")
        assert counts == {"1-1": 0, "1-N": 1, "N-1": 0, "N-N": 0}
        counts = category_counts(mixed_store, split="train")
        assert sum(counts.values()) == 9

    def test_train_scope_skips_unseen_relations(self):
        store = build_store([("a", "r", "b")], [], [("a", "q", "b")])
        counts = category_counts(store, split="test", scope="train")
        assert sum(counts.values()) == 0
        counts_all = category_counts(store, split="test", scope="all")
        assert sum(counts_all.values()) == 1
        assert triple_categories(store, "test", scope="train").tolist() == [-1]
        assert triple_categories(store, "test").tolist() == [0]


def loop_categories(store, scope):
    """Per-triple reference for ``categorize_relations``: relation id ->
    category name, for the relations that occur inside ``scope``."""
    counts, heads, tails = {}, {}, {}
    split_names = ("train", "valid", "test") if scope == "all" else ("train",)
    for split in split_names:
        for h, r, t in store.splits[split]:
            r = int(r)
            counts[r] = counts.get(r, 0) + 1
            heads.setdefault(r, set()).add(int(h))
            tails.setdefault(r, set()).add(int(t))
    out = {}
    for r, n in counts.items():
        tph, hpt = n / len(heads[r]), n / len(tails[r])
        many_tails, many_heads = tph > THRESHOLD, hpt > THRESHOLD
        cat = {(False, False): "1-1", (True, False): "1-N",
               (False, True): "N-1", (True, True): "N-N"}[many_tails, many_heads]
        out[r] = cat
    return out


@pytest.mark.parametrize("scope", ["all", "train"])
@pytest.mark.parametrize("seed", range(6))
def test_categorize_matches_loop_reference(seed, scope):
    # Few triples over many relations, so with scope="train" some relations
    # occur only in valid/test and must be left out.
    rng = np.random.default_rng(seed)
    splits = random_kg(rng, n_entities=int(rng.integers(6, 30)),
                       n_relations=int(rng.integers(1, 12)),
                       n_triples=int(rng.integers(10, 31)))
    store = build_store(splits["train"], splits["valid"], splits["test"])
    got = categorize_relations(store, scope=scope)
    want = loop_categories(store, scope)
    assert got.shape == (store.num_relations,)
    assert {r: CATEGORIES[c] for r, c in enumerate(got.tolist())
            if c >= 0} == want


class TestDatasetIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        splits = random_kg(np.random.default_rng(5), n_entities=10,
                           n_relations=3, n_triples=40)
        write_dataset(str(tmp_path / "kg"), splits)
        store = load_dataset(str(tmp_path / "kg"))
        for name, triples in splits.items():
            assert len(store.splits[name]) == len(triples)
        assert store.num_entities <= 10

    def test_missing_directory_or_split_file(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset directory not found"):
            load_dataset(str(tmp_path / "nope"))
        splits = random_kg(np.random.default_rng(5), n_entities=10,
                           n_relations=3, n_triples=40)
        write_dataset(str(tmp_path / "kg"), splits)
        os.remove(tmp_path / "kg" / "valid.txt")
        with pytest.raises(ConfigError, match="is missing valid.txt"):
            load_dataset(str(tmp_path / "kg"))

    def test_stats_and_json(self, tmp_path, tiny_store):
        stats = tiny_store.stats()
        assert stats["entities"] == tiny_store.num_entities
        assert stats["train"] == len(tiny_store.splits["train"])
        out = tmp_path / "stats.json"
        dump_stats_json(tiny_store, str(out))
        assert json.loads(out.read_text()) == stats

    def test_bundled_datasets_present(self, data_dir):
        for name in ("memo30", "blocks135"):
            store = load_dataset(os.path.join(data_dir, name))
            assert store.num_entities > 0

    def test_categories_tuple(self):
        assert CATEGORIES == ("1-1", "1-N", "N-1", "N-N")
