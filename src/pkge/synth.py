"""Deterministic synthetic knowledge graphs for desk-scale experiments.

Two generators:

* ``memorization_kg`` - small KG whose train/valid/test splits are identical;
  checks that the full pipeline can drive training MRR to ~1.
* ``clustered_kg``   - block-structured KG (entities grouped into clusters,
  relations mapping source clusters to target clusters) at the scale of the
  classic 135-entity biomedical benchmark; supports genuine generalization
  because held-out triples follow the same block structure as training.

All generators are pure functions of their ``numpy.random.Generator``.
"""

import os

import numpy as np

from .kg import SPLIT_FILES


def _name_triples(triples):
    return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples]


def _split_triples(triples, rng, valid_frac=0.1, test_frac=0.1):
    triples = list(triples)
    order = rng.permutation(len(triples))
    n_valid = max(1, int(len(triples) * valid_frac))
    n_test = max(1, int(len(triples) * test_frac))
    valid_idx = order[:n_valid]
    test_idx = order[n_valid:n_valid + n_test]
    train_idx = order[n_valid + n_test:]
    pick = lambda idx: [triples[i] for i in sorted(idx)]
    return {"train": pick(train_idx), "valid": pick(valid_idx), "test": pick(test_idx)}


def _distinct_triples(rng, n_entities, n_relations, n_triples):
    """``n_triples`` distinct (h, r, t) with h != t, each drawn uniformly as
    h, r, t in turn until it is new."""
    seen = set()
    triples = []
    while len(triples) < n_triples:
        h = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        t = int(rng.integers(n_entities))
        if h != t and (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append((h, r, t))
    return triples


def memorization_kg(rng, n_entities=30, n_relations=4, n_triples=200):
    """Random distinct triples with train == valid == test."""
    named = _name_triples(
        _distinct_triples(rng, n_entities, n_relations, n_triples))
    return {split: list(named) for split in SPLIT_FILES}


def clustered_kg(rng, n_entities=135, n_clusters=15, n_relations=46,
                 blocks_per_relation=2.0, density=0.85):
    """Block-structured KG: each relation links a few source clusters to
    target clusters; within a linked block, pairs are true with probability
    ``density``. Splits are 80/10/10 over the full triple set."""
    cluster_of = rng.integers(n_clusters, size=n_entities)
    members = [np.flatnonzero(cluster_of == c) for c in range(n_clusters)]
    p_extra = max(blocks_per_relation - 1.0, 0.0) / n_clusters
    triples = []
    for r in range(n_relations):
        # Every relation gets one block; more join probabilistically.
        first = int(rng.integers(n_clusters))
        for src in range(n_clusters):
            if src != first and rng.random() >= p_extra:
                continue
            dst = int(rng.integers(n_clusters))
            for h in members[src]:
                for t in members[dst]:
                    if h != t and rng.random() < density:
                        triples.append((int(h), r, int(t)))
    return _split_triples(_name_triples(triples), rng)


def write_dataset(directory, splits):
    """Write train/valid/test .txt files in head<TAB>relation<TAB>tail form."""
    os.makedirs(directory, exist_ok=True)
    for split, fname in SPLIT_FILES.items():
        path = os.path.join(directory, fname)
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in splits[split]:
                fh.write(f"{h}\t{r}\t{t}\n")
