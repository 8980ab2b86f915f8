"""Triple-store construction: vocabularies, reverse relations, filter index.

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


def load_tsv(path, split="train"):
    """Parse one split file into (head, relation, tail) string triples.

    Order-preserving, no deduplication. Malformed lines raise
    ``DataFormatError`` naming the line number; bytes that are not UTF-8
    raise it naming the file.
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
                triples.append((fields[0], fields[1], fields[2]))
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not valid UTF-8 ({split} split): {exc}") from None
    return triples


@dataclass
class TripleStore:
    """Immutable integer-id view of a dataset plus the filtered-ranking index.

    ``filter_index`` maps (entity, relation-or-reverse id) to the set of all
    true answers across every split; relation ids in [R, 2R) are reverses.
    """

    entity_ids: dict
    relation_ids: dict
    entity_names: list
    relation_names: list
    splits: dict            # split name -> int64 array [n, 3] of (h, r, t)
    filter_index: dict      # (entity id, relation id incl. reverses) -> set
    num_relations: int      # original relation count, before reversal
    _train_queries: dict = field(default=None, repr=False)

    @property
    def num_entities(self):
        return len(self.entity_names)

    @property
    def num_relations_with_reverse(self):
        return 2 * self.num_relations

    def reverse(self, r):
        return r + self.num_relations if r < self.num_relations else r - self.num_relations

    def stats(self):
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "train": int(len(self.splits["train"])),
            "valid": int(len(self.splits["valid"])),
            "test": int(len(self.splits["test"])),
        }

    def train_query_targets(self):
        """Distinct training queries (entity, relation incl. reverses) with
        the set of train-split answers for each; built once, cached."""
        if self._train_queries is None:
            queries = {}
            r_off = self.num_relations
            for h, r, t in self.splits["train"]:
                queries.setdefault((int(h), int(r)), set()).add(int(t))
                queries.setdefault((int(t), int(r) + r_off), set()).add(int(h))
            self._train_queries = queries
        return self._train_queries


def load_dataset(directory):
    """Load the three split files from a dataset directory."""
    raw = {}
    for split, fname in SPLIT_FILES.items():
        raw[split] = load_tsv(os.path.join(directory, fname), split)
    return build_store(raw["train"], raw["valid"], raw["test"])


def build_store(train, valid, test):
    """Assign dense ids by first occurrence (train→valid→test), append
    reverse relations, and build the all-splits filter index."""
    if not train:
        raise ConfigError("empty train split")
    entity_ids, relation_ids = {}, {}
    entity_names, relation_names = [], []

    def intern(name, table, names):
        i = table.get(name)
        if i is None:
            i = len(names)
            table[name] = i
            names.append(name)
        return i

    splits = {}
    for split, raw in (("train", train), ("valid", valid), ("test", test)):
        ids = np.empty((len(raw), 3), dtype=np.int64)
        for row, (h, r, t) in enumerate(raw):
            ids[row, 0] = intern(h, entity_ids, entity_names)
            ids[row, 1] = intern(r, relation_ids, relation_names)
            ids[row, 2] = intern(t, entity_ids, entity_names)
        splits[split] = ids

    n_rel = len(relation_names)
    filter_index = {}
    for ids in splits.values():
        for h, r, t in ids:
            filter_index.setdefault((int(h), int(r)), set()).add(int(t))
            filter_index.setdefault((int(t), int(r) + n_rel), set()).add(int(h))

    return TripleStore(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        entity_names=entity_names,
        relation_names=relation_names,
        splits=splits,
        filter_index=filter_index,
        num_relations=n_rel,
    )


@dataclass(frozen=True)
class RelationCategory:
    """Complexity class of a relation from its average fan-out statistics."""

    category: str   # one of CATEGORIES
    tph: float      # average tails per head
    hpt: float      # average heads per tail


def categorize_relations(store, threshold=1.5, scope="all"):
    """Classify original relations as 1-1 / 1-N / N-1 / N-N.

    tph(r) = #triples(r) / #distinct heads(r), hpt analogously over tails,
    computed on ``scope`` ("all" = union of splits, "train" = train only)
    using original (non-reversed) relations.
    """
    if threshold <= 0:
        raise ConfigError("categorization threshold must be > 0")
    if scope not in ("all", "train"):
        raise ConfigError(f"unknown categorization scope {scope!r}")
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
        tph = n / len(heads[r])
        hpt = n / len(tails[r])
        if tph <= threshold and hpt <= threshold:
            cat = "1-1"
        elif tph > threshold and hpt <= threshold:
            cat = "1-N"
        elif tph <= threshold and hpt > threshold:
            cat = "N-1"
        else:
            cat = "N-N"
        out[r] = RelationCategory(cat, tph, hpt)
    return out


def category_counts(store, split="test", threshold=1.5, scope="all"):
    """Number of ``split`` triples per relation category.

    Relations that never occur inside the categorization scope (possible
    when scope="train") are left out of the counts.
    """
    cats = categorize_relations(store, threshold=threshold, scope=scope)
    counts = {c: 0 for c in CATEGORIES}
    for _, r, _ in store.splits[split]:
        rc = cats.get(int(r))
        if rc is not None:
            counts[rc.category] += 1
    return counts


def dump_stats_json(store, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store.stats(), fh, indent=2, sort_keys=True)
        fh.write("\n")
