"""The dataset loader ``pkge.kg`` replaced, kept as the oracle of the loader
tests: a per-line parse of each split file into string triples and
dictionary interning by first occurrence. Two of its messages differ from
the package's on purpose: a file that is not UTF-8 is named here with the
decoder's position within its chunk, not the line, and a name with U+FEFF
at its edge is accepted here.
"""

import os

import numpy as np

from pkge.errors import ConfigError, DataFormatError
from pkge.kg import SPLIT_FILES, QueryIndex, TripleStore


def load_tsv(path, split="train"):
    """Parse one split file into (head, relation, tail) string triples."""
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


def load_dataset(directory):
    if not os.path.isdir(directory):
        raise ConfigError(f"dataset directory not found: {directory}")
    for fname in SPLIT_FILES.values():
        if not os.path.isfile(os.path.join(directory, fname)):
            raise ConfigError(f"dataset directory {directory} is missing {fname}")
    raw = {split: load_tsv(os.path.join(directory, fname), split)
           for split, fname in SPLIT_FILES.items()}
    store = build_store(raw["train"], raw["valid"], raw["test"])
    for name in store.entity_names + store.relation_names:
        if name != name.strip():
            split = next(s for s in SPLIT_FILES if any(name in t for t in raw[s]))
            raise DataFormatError(f"{SPLIT_FILES[split]}: name {name!r} has "
                                  f"whitespace at its edge ({split} split)")
    return store


def build_store(train, valid, test):
    if not train:
        raise ConfigError("empty train split")
    entity_ids, relation_ids = {}, {}
    splits = {}
    for split, raw in (("train", train), ("valid", valid), ("test", test)):
        ids = np.empty((len(raw), 3), dtype=np.int64)
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
