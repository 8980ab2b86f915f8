"""Translational and bilinear baseline scorers.

Both share the training and evaluation pipeline with the patch model: they
expose ``score_all(entities, relations)`` returning logits against every
entity, with reverse relations handled as extra relation rows. The sigmoid
lives only in the training loss.
"""

import numpy as np

from .params import ParamStore, glorot_uniform
from .tensor import (add, gather_rows, l1_distance, matmul, mul, reduce_sum,
                     relu, reshape, sqrt, transpose)


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
    """Logit(h, r, t) = gamma - ||e_h + e_r - e_t||."""

    kind = "transe"

    def score_all(self, entities, relations, training=False, rng=None):
        table = self.params["entity.embedding"]
        e = gather_rows(table, np.asarray(entities))
        r = gather_rows(self.params["relation.embedding"], np.asarray(relations))
        q = e + r                                            # [B, d]
        if self.config.transe_norm == "l1":
            dist = l1_distance(q, table)
        else:
            # ||q - e||^2 = ||q||^2 + ||e||^2 - 2 q.e as one GEMM, clamped at
            # 0 where rounding takes it below.
            sq = add(reduce_sum(mul(q, q), axis=-1, keepdims=True),
                     reshape(reduce_sum(mul(table, table), axis=-1),
                             (1, self.n_entities)))
            dist = sqrt(relu(add(sq, mul(matmul(q, transpose(table)), -2.0))))
        return self.config.transe_gamma - dist


class DistMult(_BaselineBase):
    """Logit(h, r, t) = sum_i e_h[i] * e_r[i] * e_t[i]."""

    kind = "distmult"

    def score_all(self, entities, relations, training=False, rng=None):
        e = gather_rows(self.params["entity.embedding"], np.asarray(entities))
        r = gather_rows(self.params["relation.embedding"], np.asarray(relations))
        return matmul(mul(e, r), transpose(self.params["entity.embedding"]))
