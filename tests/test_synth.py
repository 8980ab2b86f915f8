import os

import numpy as np
import pytest

from pkge.synth import clustered_kg, memorization_kg, write_dataset

from random_graphs import random_kg

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "data")


class TestRandomKg:
    def test_shape_and_distinctness(self):
        splits = random_kg(np.random.default_rng(0), 20, 4, 120)
        all_triples = splits["train"] + splits["valid"] + splits["test"]
        assert len(all_triples) == 120
        assert len(set(all_triples)) == 120
        assert len(splits["valid"]) == 12 and len(splits["test"]) == 12
        assert all(h != t for h, _, t in all_triples)

    def test_deterministic(self):
        a = random_kg(np.random.default_rng(3), 20, 4, 120)
        b = random_kg(np.random.default_rng(3), 20, 4, 120)
        assert a == b


class TestMemorizationKg:
    def test_splits_identical(self):
        splits = memorization_kg(np.random.default_rng(7), 30, 4, 200)
        assert splits["train"] == splits["valid"] == splits["test"]
        assert len(splits["train"]) == 200


class TestClusteredKg:
    def test_every_relation_appears(self):
        splits = clustered_kg(np.random.default_rng(11))
        rels = {r for part in splits.values() for _, r, _ in part}
        assert len(rels) == 46

    def test_scale_and_split_fractions(self):
        splits = clustered_kg(np.random.default_rng(11))
        total = sum(len(part) for part in splits.values())
        ents = {e for part in splits.values() for h, _, t in part
                for e in (h, t)}
        assert len(ents) <= 135
        assert abs(len(splits["valid"]) / total - 0.1) < 0.01
        assert abs(len(splits["test"]) / total - 0.1) < 0.01

    def test_deterministic(self):
        a = clustered_kg(np.random.default_rng(2))
        b = clustered_kg(np.random.default_rng(2))
        assert a == b


@pytest.mark.parametrize("name, generate", [
    ("memo30", lambda: memorization_kg(np.random.default_rng(7))),
    ("blocks135", lambda: clustered_kg(np.random.default_rng(11))),
])
def test_bundled_datasets_match_their_draws(tmp_path, name, generate):
    """data/ holds the draws scripts/make_datasets.py makes, byte for byte."""
    write_dataset(str(tmp_path), generate())
    for split in ("train", "valid", "test"):
        with open(tmp_path / f"{split}.txt", "rb") as fh:
            drawn = fh.read()
        with open(os.path.join(DATA, name, f"{split}.txt"), "rb") as fh:
            assert drawn == fh.read(), f"data/{name}/{split}.txt"
