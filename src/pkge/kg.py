"""Triple-store construction: vocabularies, reverse relations, query indexes.

Datasets are directories with tab-separated ``train.txt`` / ``valid.txt`` /
``test.txt`` files, one ``head<TAB>relation<TAB>tail`` triple per line.
Each file is read once as bytes. Line ends, tabs per line and empty fields
come from numpy over the separators' positions, and names are interned by
sorting their zero-padded bytes, so a load makes one ``str`` per distinct
name and no Python object per line, field or triple.
Every relation r gets a synthetic reverse r⁻¹ with id ``r + num_relations``,
so head prediction becomes tail prediction over reversed queries.
"""

import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}

CATEGORIES = ("1-1", "1-N", "N-1", "N-N")
# tph/hpt above which a relation side counts as "N" (Bordes et al., 2013).
THRESHOLD = 1.5
# The splits each categorization scope measures tph/hpt over.
SCOPES = {"all": tuple(SPLIT_FILES), "train": ("train",)}

TAB, LF, CR = 9, 10, 13
_SEPARATOR = np.isin(np.arange(CR + 1), (TAB, LF, CR))   # by byte value
# _MASKS[m] keeps the first m bytes of a little-endian 8-byte word.
_MASKS = np.array([(1 << 8 * m) - 1 for m in range(9)], dtype=np.uint64)
# A byte order mark, refused at a name's edge as whitespace is.
BOM = "\ufeff"
# What no name that ``build_store`` takes may hold: a separator, or a lone
# surrogate, which UTF-8 cannot encode.
_NOT_IN_NAME = re.compile("[\t\n\r\ud800-\udfff]")


class QueryIndex:
    """Each (entity, relation) query of a non-empty int64 [n, 3] array of
    (h, r, t) ids with its answers: (h, r) -> t and, reversed, (t, r + R) -> h.
    Each (query, answer) pair is the code ``(entity * 2R + relation) * N +
    answer``; the codes are sorted and distinct, so one query's answers are
    one ``searchsorted`` range. ``entities`` and ``relations`` list the
    distinct queries by first occurrence: each triple's tail query, then its
    reverse query."""

    def __init__(self, triples, num_entities, num_relations):
        self.num_entities, self.num_relations = num_entities, num_relations
        h, r, t = triples.T
        entities = np.stack([h, t], axis=1).ravel()
        relations = np.stack([r, r + num_relations], axis=1).ravel()
        codes = ((entities * 2 * num_relations + relations) * num_entities
                 + np.stack([t, h], axis=1).ravel())
        order = np.argsort(codes)
        codes = codes[order]
        starts = np.flatnonzero(np.diff(codes // num_entities, prepend=-1))
        first = np.sort(np.minimum.reduceat(order, starts))  # each query's first pair
        self.codes = codes[np.diff(codes, prepend=-1) != 0]
        self.entities, self.relations = entities[first], relations[first]

    def __len__(self):
        return len(self.entities)

    def lookup(self, entities, relations):
        """(rows, answers): every answer of each of the int64 queries, as flat
        pairs, rows ascending and answers ascending within a row."""
        base = (entities * 2 * self.num_relations + relations) * self.num_entities
        lo = np.searchsorted(self.codes, base)
        counts = np.searchsorted(self.codes, base + self.num_entities) - lo
        rows = np.repeat(np.arange(len(base)), counts)
        pos = np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        return rows, self.codes[pos] - base[rows]


@dataclass
class TripleStore:
    """Immutable integer-id view of a dataset plus the filtered-ranking index.

    ``filter_index`` is the QueryIndex of every split: each query with all
    its true answers in the dataset.
    """

    entity_ids: dict
    relation_ids: dict
    entity_names: list
    relation_names: list
    splits: dict            # split name -> int64 array [n, 3] of (h, r, t)
    filter_index: QueryIndex
    num_relations: int      # original relation count, before reversal
    _train_queries: QueryIndex = field(default=None, repr=False)

    @property
    def num_entities(self):
        return len(self.entity_names)

    @property
    def num_relations_with_reverse(self):
        return 2 * self.num_relations

    def stats(self):
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "train": int(len(self.splits["train"])),
            "valid": int(len(self.splits["valid"])),
            "test": int(len(self.splits["test"])),
        }

    def train_query_targets(self):
        """QueryIndex of the train split; built once, cached."""
        if self._train_queries is None:
            self._train_queries = QueryIndex(
                self.splits["train"], self.num_entities, self.num_relations)
        return self._train_queries


def load_dataset(directory):
    """Load the three split files from a dataset directory. A missing
    directory or split file is a ``ConfigError``. Each file's bytes and
    lines are checked in turn, train first, and the names' edges once all
    three have passed: the first fault found is the one reported."""
    if not os.path.isdir(directory):
        raise ConfigError(f"dataset directory not found: {directory}")
    paths = {split: os.path.join(directory, fname)
             for split, fname in SPLIT_FILES.items()}
    for split, path in paths.items():
        if not os.path.isfile(path):
            raise ConfigError(f"dataset directory {directory} is missing "
                              f"{SPLIT_FILES[split]}")
    texts, bounds = {}, {}
    for split, path in paths.items():
        texts[split] = _read_split(path, split)
        bounds[split] = _parse(texts[split], path, split)
    store = _store(texts, bounds)
    for name in store.entity_names + store.relation_names:
        fault = ("whitespace" if name != name.strip() else
                 "U+FEFF" if BOM in (name[0], name[-1]) else None)
        if fault:
            e = store.entity_ids.get(name, -1)
            r = store.relation_ids.get(name, -1)
            split = next(s for s, i in store.splits.items()
                         if (i[:, [0, 2]] == e).any() or (i[:, 1] == r).any())
            raise DataFormatError(f"{SPLIT_FILES[split]}: name {name!r} has "
                                  f"{fault} at its edge ({split} split)")
    return store


def build_store(train, valid, test):
    """The store of in-memory (head, relation, tail) string triples, interned
    as ``load_dataset`` interns a dataset's. A triple must be a tuple or list
    of three names, and a name a non-empty string with no tab, LF, CR or
    lone surrogate in it (UTF-8 cannot encode one); the first triple that
    breaks this is named in a ``ConfigError``. Edge whitespace is not
    checked here."""
    texts, bounds = {}, {}
    for split, triples in zip(SPLIT_FILES, (train, valid, test)):
        bad = next((t for t in triples if not _is_triple(t)), None)
        if bad is not None:
            raise ConfigError(f"{split} triple {bad!r} is not three non-empty "
                              "names free of tabs, line ends and lone surrogates")
        texts[split] = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples).encode()
        bounds[split] = _parse(texts[split], SPLIT_FILES[split], split)
    return _store(texts, bounds)


def _is_triple(triple):
    return (isinstance(triple, (tuple, list)) and len(triple) == 3
            and all(isinstance(name, str) and name and not _NOT_IN_NAME.search(name)
                    for name in triple))


def _read_split(path, split):
    """The bytes of one split file, checked to be UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataFormatError(
            f"cannot read {path} ({split} split): {exc}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise DataFormatError(f"{path}:{line}: not valid UTF-8 ({split} "
                                  f"split): {exc.reason}") from None
    return data


def _parse(text, path, split):
    """Byte bounds in ``text`` of every field of one split file, an int64
    array [n, 6]: per triple, the start of its head and of its tail, the end
    of each, and the start and end of its relation. A line is ended by LF,
    CR LF or a lone CR, as in Python's text mode, and the end of the text
    ends a last line that has none; blank lines are skipped but counted.
    The first malformed line, one with an empty field included, raises
    ``DataFormatError`` naming ``path`` and its number."""
    buf = np.frombuffer(text + b"\n", np.uint8)
    seps = np.flatnonzero(buf <= CR)
    kinds = buf[seps]
    keep = _SEPARATOR[kinds] & ~((kinds == LF) & (buf[seps - 1] == CR))
    seps, kinds = seps[keep], kinds[keep]
    end_at = np.flatnonzero(kinds != TAB)          # index in seps of each line end
    ends = seps[end_at]                            # a CR LF line ends at its CR
    starts = np.concatenate(([0], ends[:-1] + 1 + ((buf[ends[:-1]] == CR)
                                                  & (buf[ends[:-1] + 1] == LF))))
    tabs = np.diff(end_at, prepend=-1) - 1
    ok = tabs == 2
    t1, t2 = seps[end_at[ok] - 2], seps[end_at[ok] - 1]
    s, e = starts[ok], ends[ok]
    bad = ~ok & (ends > starts)
    bad[ok] = (t1 == s) | (t2 == t1 + 1) | (e == t2 + 1)
    if bad.any():
        line = int(np.argmax(bad))
        if ok[line]:
            raise DataFormatError(f"{path}:{line + 1}: empty head, relation "
                                  f"or tail ({split} split)")
        raise DataFormatError(f"{path}:{line + 1}: expected 3 tab-separated "
                              f"fields ({split} split), got {tabs[line] + 1}")
    return np.stack([s, t2 + 1, t1, e, t1 + 1, t2], axis=1)


def _store(texts, bounds):
    """Assign dense ids by first occurrence (train→valid→test, head before
    tail), append reverse relations, and build the all-splits filter index.
    ``texts`` maps each split to its file's bytes, ``bounds`` to the field
    bounds ``_parse`` found in them."""
    if not len(bounds["train"]):
        raise ConfigError("empty train split")
    # 8 NUL bytes after the last file let every field start an 8-byte read
    joined = b"".join(texts.values()) + bytes(8)
    fields = np.concatenate(list(bounds.values()))
    cuts = np.cumsum([len(b) for b in bounds.values()])[:-1]
    offset = 0
    for text, part in zip(texts.values(), np.split(fields, cuts)):
        part += offset                    # to offsets in ``joined``
        offset += len(text)
    ent, entity_names = _intern(joined, fields[:, 0:2].ravel(),
                                fields[:, 2:4].ravel())
    rel, relation_names = _intern(joined, fields[:, 4], fields[:, 5])
    ids = np.stack([ent[0::2], rel, ent[1::2]], axis=1)
    n_rel = len(relation_names)
    return TripleStore(
        entity_ids=dict(zip(entity_names, range(len(entity_names)))),
        relation_ids=dict(zip(relation_names, range(n_rel))),
        entity_names=entity_names,
        relation_names=relation_names,
        splits=dict(zip(texts, np.split(ids, cuts))),
        filter_index=QueryIndex(ids, len(entity_names), n_rel),
        num_relations=n_rel,
    )


def _intern(joined, starts, ends):
    """(ids, names): the id of each name at byte bounds [starts, ends) of
    ``joined``, numbered by first occurrence, and the distinct names in id
    order. Names are grouped exactly on their bytes: those that span the
    same number k of 8-byte words are sorted together on their k
    zero-padded words, and on their length too when one ends in a NUL
    byte, so the work grows with the names' total bytes."""
    words = np.ndarray((len(joined) - 7,), "<u8", joined, strides=(1,))
    lengths = ends - starts
    spans = (lengths + 7) // 8
    nul = np.frombuffer(joined, np.uint8)[ends - 1] == 0
    if spans.max() == 1:
        buckets = [np.arange(len(starts))]
    else:
        by_span = np.argsort(spans, kind="stable")
        buckets = np.split(by_span, np.flatnonzero(np.diff(spans[by_span])) + 1)
    group = np.empty(len(starts), dtype=np.int64)
    firsts, count = [], 0
    for rows in buckets:                  # rows ascending, one span each
        k = int(spans[rows[0]])
        keys = words[starts[rows, None] + 8 * np.arange(k)]
        keys[:, -1] &= _MASKS[lengths[rows] - 8 * (k - 1)]
        if nul[rows].any():
            keys = np.column_stack([keys, lengths[rows].astype(np.uint64)])
        order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
        keys = keys[order]
        new = np.empty(len(rows), dtype=bool)
        new[0] = True
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        group[rows[order]] = count + np.cumsum(new) - 1
        firsts.append(rows[np.minimum.reduceat(order, np.flatnonzero(new))])
        count += len(firsts[-1])
    first = np.concatenate(firsts)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    names = [joined[s:e].decode("utf-8")
             for s, e in zip(starts[first].tolist(), ends[first].tolist())]
    return rank[group], names


def categorize_relations(store, scope="all"):
    """Index into CATEGORIES (1-1 / 1-N / N-1 / N-N) of each original
    relation's category, an int64 array [num_relations]; -1 for a relation
    that never occurs inside ``scope`` (possible when scope="train").

    tph(r) = #triples(r) / #distinct heads(r), hpt analogously over tails,
    computed on ``scope`` ("all" = union of splits, "train" = train only)
    using original (non-reversed) relations.
    """
    if scope not in SCOPES:
        raise ConfigError(f"unknown categorization scope {scope!r}")
    h, r, t = np.concatenate([store.splits[s] for s in SCOPES[scope]]).T
    n_rel, n_ent = store.num_relations, store.num_entities
    counts = np.bincount(r, minlength=n_rel)
    # distinct (relation, head) and (relation, tail) pairs, counted per relation
    heads = np.bincount(np.unique(r * n_ent + h) // n_ent, minlength=n_rel)
    tails = np.bincount(np.unique(r * n_ent + t) // n_ent, minlength=n_rel)
    # counts > THRESHOLD * heads is tph > THRESHOLD without dividing by an
    # absent relation's zero; CATEGORIES is ordered 1-1, 1-N, N-1, N-N
    cats = (counts > THRESHOLD * heads) + 2 * (counts > THRESHOLD * tails)
    return np.where(counts > 0, cats, -1)


def triple_categories(store, split, scope="all"):
    """Index into CATEGORIES of each ``split`` triple's category; -1 when its
    relation never occurs inside the scope."""
    return categorize_relations(store, scope)[store.splits[split][:, 1]]


def category_counts(store, split="test", scope="all"):
    """Number of ``split`` triples per relation category; a relation outside
    the categorization scope counts in none (see triple_categories)."""
    cats = triple_categories(store, split, scope)
    counts = np.bincount(cats[cats >= 0], minlength=len(CATEGORIES))
    return dict(zip(CATEGORIES, counts.tolist()))


def dump_stats_json(store, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store.stats(), fh, indent=2, sort_keys=True)
        fh.write("\n")
