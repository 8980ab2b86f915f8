"""Unstructured random knowledge graphs for the ranking-protocol tests."""

from pkge import synth


def random_kg(rng, n_entities=20, n_relations=4, n_triples=120):
    """Uniform random distinct triples split 80/10/10: the draws of
    ``synth.memorization_kg``, then those of ``synth``'s 80/10/10 split."""
    triples = synth.memorization_kg(rng, n_entities, n_relations, n_triples)["train"]
    return synth._split_triples(triples, rng)
