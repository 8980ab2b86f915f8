"""Triple-store construction: vocabularies, reverse relations, query indexes.

Datasets are directories with tab-separated ``train.txt`` / ``valid.txt`` /
``test.txt`` files, one ``head<TAB>relation<TAB>tail`` triple per line.
Every relation r gets a synthetic reverse r⁻¹ with id ``r + num_relations``,
so head prediction becomes tail prediction over reversed queries.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}

CATEGORIES = ("1-1", "1-N", "N-1", "N-N")
# tph/hpt above which a relation side counts as "N" (Bordes et al., 2013).
THRESHOLD = 1.5
# The splits each categorization scope measures tph/hpt over.
SCOPES = {"all": tuple(SPLIT_FILES), "train": ("train",)}


def load_tsv(path, split="train"):
    """Parse one split file into (head, relation, tail) string triples.

    Order-preserving, no deduplication. A malformed line, one with an empty
    field included, raises ``DataFormatError`` naming the line number; bytes
    that are not UTF-8, or a file that cannot be read, raise it naming the
    file.
    """
    triples = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 3 tab-separated fields "
                        f"({split} split), got {len(fields)}"
                    )
                if not all(fields):
                    raise DataFormatError(
                        f"{path}:{lineno}: empty head, relation or tail "
                        f"({split} split)")
                triples.append((fields[0], fields[1], fields[2]))
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not valid UTF-8 ({split} split): {exc}") from None
    except OSError as exc:
        raise DataFormatError(
            f"cannot read {path} ({split} split): {exc}") from None
    return triples


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
    directory or split file is a ``ConfigError``."""
    if not os.path.isdir(directory):
        raise ConfigError(f"dataset directory not found: {directory}")
    for fname in SPLIT_FILES.values():
        if not os.path.isfile(os.path.join(directory, fname)):
            raise ConfigError(f"dataset directory {directory} is missing {fname}")
    raw = {split: load_tsv(os.path.join(directory, fname), split)
           for split, fname in SPLIT_FILES.items()}
    store = build_store(raw["train"], raw["valid"], raw["test"])
    # Edge whitespace in a name is a format error, checked per distinct name.
    for name in store.entity_names + store.relation_names:
        if name != name.strip():
            split = next(s for s in SPLIT_FILES if any(name in t for t in raw[s]))
            raise DataFormatError(f"{SPLIT_FILES[split]}: name {name!r} has "
                                  f"whitespace at its edge ({split} split)")
    return store


def build_store(train, valid, test):
    """Assign dense ids by first occurrence (train→valid→test), append
    reverse relations, and build the all-splits filter index."""
    if not train:
        raise ConfigError("empty train split")
    entity_ids, relation_ids = {}, {}
    splits = {}
    for split, raw in (("train", train), ("valid", valid), ("test", test)):
        ids = np.empty((len(raw), 3), dtype=np.int64)
        # heads before tails, row by row: ids by first occurrence
        ids[:, [0, 2]] = np.array(
            [entity_ids.setdefault(e, len(entity_ids))
             for h, _, t in raw for e in (h, t)], dtype=np.int64).reshape(-1, 2)
        ids[:, 1] = [relation_ids.setdefault(r, len(relation_ids))
                     for _, r, _ in raw]
        splits[split] = ids

    n_rel = len(relation_ids)
    return TripleStore(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        entity_names=list(entity_ids),
        relation_names=list(relation_ids),
        splits=splits,
        filter_index=QueryIndex(np.concatenate(list(splits.values())),
                                len(entity_ids), n_rel),
        num_relations=n_rel,
    )


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
