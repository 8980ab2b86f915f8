"""Translational and bilinear baseline scorers.

Both share the training and evaluation pipeline with the patch model: they
expose ``score_all(entities, relations)`` returning logits against every
entity, with reverse relations handled as extra relation rows. The sigmoid
lives only in the training loss.
"""

import numpy as np

from .params import ParamStore, glorot_uniform
from .tensor import gather_rows, l1_distance, matmul, mul, transpose


class _BaselineBase:
    def __init__(self, config, n_entities, n_relations, rng):
        """``rng=None`` builds a zero skeleton for checkpoint loading."""
        self.config = config
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.params = ParamStore()
        d = config.d_e

        def init(shape):
            if rng is None:
                return np.zeros(shape, dtype=np.float32)
            return glorot_uniform(rng, shape)

        self.params.add("entity.embedding", init((n_entities, d)))
        self.params.add("relation.embedding", init((n_relations, d)))


class TransE(_BaselineBase):
    """Logit(h, r, t) = GAMMA - ||e_h + e_r - e_t||_1 (Bordes et al., 2013)."""

    kind = "transe"
    GAMMA = 12.0

    def score_all(self, entities, relations, training=False, rng=None):
        table = self.params["entity.embedding"]
        e = gather_rows(table, np.asarray(entities))
        r = gather_rows(self.params["relation.embedding"], np.asarray(relations))
        return self.GAMMA - l1_distance(e + r, table)


class DistMult(_BaselineBase):
    """Logit(h, r, t) = sum_i e_h[i] * e_r[i] * e_t[i]."""

    kind = "distmult"

    def score_all(self, entities, relations, training=False, rng=None):
        e = gather_rows(self.params["entity.embedding"], np.asarray(entities))
        r = gather_rows(self.params["relation.embedding"], np.asarray(relations))
        return matmul(mul(e, r), transpose(self.params["entity.embedding"]))
