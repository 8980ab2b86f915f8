import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkge.errors import ConfigError, DataFormatError
from pkge.kg import (CATEGORIES, SPLIT_FILES, THRESHOLD, build_store,
                     categorize_relations, category_counts, dump_stats_json,
                     load_dataset, triple_categories)
from pkge.synth import write_dataset

import reference_loader
from random_graphs import random_kg


def split_dir(tmp_path, split, data):
    """A dataset directory whose ``split`` file holds the bytes ``data``;
    train holds one triple when it is not that split, valid and test none."""
    for s, fname in SPLIT_FILES.items():
        text = data if s == split else b"a\tr\tb\n" if s == "train" else b""
        (tmp_path / fname).write_bytes(text)
    return str(tmp_path)


def triples_of(store, split):
    """The string triples of ``split``, from the store's ids and names."""
    e, r = store.entity_names, store.relation_names
    return [(e[h], r[rel], e[t]) for h, rel, t in store.splits[split].tolist()]


class TestLoadTsv:
    """The parse of one split file inside ``load_dataset``."""

    def test_reads_triples_in_order(self, tmp_path):
        d = split_dir(tmp_path, "train", b"a\tr1\tb\nb\tr2\tc\na\tr1\tb\n")
        assert triples_of(load_dataset(d), "train") == [
            ("a", "r1", "b"), ("b", "r2", "c"), ("a", "r1", "b")]

    def test_blank_lines_skipped(self, tmp_path):
        # the line count still advances past a blank, CRLF ones included
        d = split_dir(tmp_path, "train", b"\na\tr1\tb\n\r\nb\tr2\tc\n\nwrong\n")
        with pytest.raises(DataFormatError, match=r"train\.txt:6"):
            load_dataset(d)
        d = split_dir(tmp_path, "train", b"\na\tr1\tb\n\r\nb\tr2\tc\n\n")
        assert triples_of(load_dataset(d), "train") == [("a", "r1", "b"),
                                                        ("b", "r2", "c")]

    def test_malformed_line_reports_number(self, tmp_path):
        d = split_dir(tmp_path, "train", b"a\tr\tb\nwrong line\n")
        with pytest.raises(DataFormatError, match=r"train\.txt:2"):
            load_dataset(d)

    @pytest.mark.parametrize("line", ["\t\t", "a\t\tb", "\tr\tb", "a\tr\t"],
                             ids=["all", "relation", "head", "tail"])
    def test_empty_field_reports_line_and_split(self, tmp_path, line):
        d = split_dir(tmp_path, "valid", f"a\tr\tb\n{line}\n".encode())
        with pytest.raises(DataFormatError,
                           match=r"valid\.txt:2: empty .*\(valid split\)"):
            load_dataset(d)

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

    @pytest.mark.parametrize("text,name", [
        ("\ufeffa\tr\tb\n", "\ufeffa"),       # a BOM at the file's start
        ("a\tr\tb\ufeff\n", "b\ufeff"),
    ], ids=["start", "end"])
    def test_bom_at_edge_fails_load_dataset(self, tmp_path, text, name):
        d = split_dir(tmp_path, "train", text.encode())
        with pytest.raises(DataFormatError) as exc:
            load_dataset(d)
        assert str(exc.value) == (f"train.txt: name {name!r} has U+FEFF at "
                                  f"its edge (train split)")

    @pytest.mark.parametrize("end,line", [(b"\n", 2001), (b"\r\n", 1715),
                                          (b"\r", 2001)], ids=["lf", "crlf", "cr"])
    def test_non_utf8_names_its_line(self, tmp_path, end, line):
        # the bad byte sits at offset 12,000, past the decoder's first 8 KB
        text = (b"a\tr\tb" + end) * 2000
        text = text[:12000] + b"\xff" + text[12001:12006]
        d = split_dir(tmp_path, "train", text)
        with pytest.raises(DataFormatError) as exc:
            load_dataset(d)
        assert str(exc.value).startswith(
            f"{os.path.join(d, 'train.txt')}:{line}: not valid UTF-8 (train split)")


# Names an 8-byte zero-padded key could confuse: over 8 bytes with a shared
# prefix, and equal but for trailing NULs; multi-byte UTF-8; edge whitespace.
NAMES = ["a", "b", "a\x00", "a\x00\x00", "abcdefgh", "abcdefgh\x00",
         "abcdefghij", "abcdefghik", "abcdefghijklmnopq1", "abcdefghijklmnopq2",
         "abcdefghijklmnop", "abcdefghij\x00", "\u00e9", "\u540d\u524d",
         "\U0001d538x", "b ", "\u00a0c", ""]
LINE = st.one_of(st.lists(st.sampled_from(NAMES), min_size=3, max_size=3),
                 st.lists(st.sampled_from(NAMES), max_size=4)).map("\t".join)
# Bytes that are not UTF-8, inserted somewhere in a file now and then; each
# is refused where it stands (see test_file_refused_before_its_lines).
NOT_UTF8 = st.sampled_from([b""] * 6 + [b"\xff", b"\xe5\x90a", b"\xc3("])
SPLIT_BYTES = st.builds(
    lambda lines, cut, bad, at: (lambda text: text[:at] + bad + text[at:])(
        "".join(l + e for l, e in lines)[:None if cut else -1].encode()),
    st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n", "\r"])),
             max_size=10),
    st.booleans(), NOT_UTF8, st.integers(0, 200))


def outcome(load, directory):
    """The store ``load`` gives, or the type and message of its error. The
    message of a file that is not UTF-8 keeps only its path and split: the
    reference loader gives a position where the package gives a line."""
    try:
        return load(directory)
    except (ConfigError, DataFormatError) as exc:
        msg = re.sub(r"^(.*?)(:\d+)?: not valid UTF-8 \((\w+) split\).*",
                     r"\1: not valid UTF-8 (\3 split)", str(exc), flags=re.S)
        return type(exc), msg


def assert_same_store(got, want):
    assert got.entity_ids == want.entity_ids
    assert got.relation_ids == want.relation_ids
    assert got.entity_names == want.entity_names
    assert got.relation_names == want.relation_names
    for split in SPLIT_FILES:
        assert got.splits[split].dtype == want.splits[split].dtype
        assert np.array_equal(got.splits[split], want.splits[split])
    for part in ("codes", "entities", "relations"):
        assert np.array_equal(getattr(got.filter_index, part),
                              getattr(want.filter_index, part))


@given(st.tuples(SPLIT_BYTES, SPLIT_BYTES, SPLIT_BYTES))
@settings(max_examples=300, deadline=None)
def test_loader_matches_the_reference_loader(texts):
    with tempfile.TemporaryDirectory() as d:
        for fname, text in zip(SPLIT_FILES.values(), texts):
            with open(os.path.join(d, fname), "wb") as fh:
                fh.write(text)
        got = outcome(load_dataset, d)
        want = outcome(reference_loader.load_dataset, d)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_store(got, want)


def test_files_checked_in_split_order(tmp_path):
    # train's malformed line is reported, not the later file's bad byte
    write_dataset(str(tmp_path), {s: [("a", "r", "b")] for s in SPLIT_FILES})
    (tmp_path / "train.txt").write_bytes(b"a\tr\tb\nwrong\n")
    (tmp_path / "valid.txt").write_bytes(b"a\tr\t\xff\n")
    with pytest.raises(DataFormatError, match=r"train\.txt:2: expected 3"):
        load_dataset(str(tmp_path))


def test_file_refused_before_its_lines(tmp_path):
    # the reference's text decoder reports a sequence cut short at the end
    # of the file only after the lines before it, so this one reports line 2
    d = split_dir(tmp_path, "train", b"a\tr\tb\nwrong\n\xe5\x90")
    with pytest.raises(DataFormatError) as exc:
        load_dataset(d)
    assert str(exc.value).startswith(
        f"{os.path.join(d, 'train.txt')}:3: not valid UTF-8 (train split)")


def test_long_name_costs_its_bytes(tmp_path):
    # one 20 KB name beside 10,000 short ones: keying every name on the
    # longest name's 2,500 words would trace ~190 MiB
    lines = [("x" * 20000, "r", "e0")] + [
        (f"e{i}", f"r{i % 7}", f"e{i + 1}") for i in range(5000)]
    write_dataset(str(tmp_path), {"train": lines, "valid": lines[:2],
                                  "test": lines[-2:]})
    tracemalloc.start()
    try:
        store = load_dataset(str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert_same_store(store, reference_loader.load_dataset(str(tmp_path)))


@pytest.mark.parametrize("name", ["memo30", "blocks135"])
def test_bundled_datasets_match_the_reference_loader(data_dir, name):
    d = os.path.join(data_dir, name)
    assert_same_store(load_dataset(d), reference_loader.load_dataset(d))


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

    @pytest.mark.parametrize("bad", [("a\tb", "r", "c"), ("a", "r\n", "c"),
                                     ("a", "r", "c\rd"), ("a", "", "c")],
                             ids=["tab", "lf", "cr", "empty"])
    def test_name_with_separator_rejected(self, bad):
        with pytest.raises(ConfigError) as exc:
            build_store([("a", "r", "b")], [], [("x", "y", "z"), bad])
        assert str(exc.value).startswith(f"test triple {bad!r} ")

    @pytest.mark.parametrize("bad", [(1, "r", 2), ("a\ud800", "r", "b"),
                                     ("a", "r"), ("a", "r", "b", "c"), "abc",
                                     ("a", "r", "\ud83d\ude00")],
                             ids=["ints", "lone-surrogate", "pair", "four",
                                  "string", "surrogate-pair"])
    def test_non_triple_or_unencodable_name_rejected(self, bad):
        # ints were loaded as their decimal names, a surrogate escaped as a
        # UnicodeEncodeError and a short tuple as an unpacking ValueError
        with pytest.raises(ConfigError) as exc:
            build_store([("a", "r", "b")], [bad], [])
        assert str(exc.value).startswith(f"valid triple {bad!r} ")

    def test_list_triples_accepted(self):
        store = build_store([["a", "r", "b"]], [], [])
        assert store.entity_names == ["a", "b"]

    def test_edge_whitespace_kept(self):
        # only load_dataset refuses a name's edge whitespace or U+FEFF
        store = build_store([(" a", "r\ufeff", "b ")], [], [])
        assert store.entity_names == [" a", "b "]
        assert store.relation_names == ["r\ufeff"]

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
