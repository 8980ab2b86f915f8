"""Translational and bilinear baseline scorers.

Each is one ``score_from_embeddings`` on ``params.Model``, which gives them
the patch model's embedding tables (relations ``d_e`` wide), zero skeleton
and ``score_all``, so they share its training and evaluation pipeline.
Logits go against every entity; the sigmoid lives only in the training loss.
Neither has dropout, so both ignore the dropout stream ``rng``.
"""

from .params import Model
from .tensor import l1_distance, matmul, mul, transpose


class TransE(Model):
    """Logit(h, r, t) = GAMMA - ||e_h + e_r - e_t||_1 (Bordes et al., 2013)."""

    kind = "transe"
    GAMMA = 12.0

    def score_from_embeddings(self, e_emb, r_emb, rng=None):
        return self.GAMMA - l1_distance(e_emb + r_emb, self.params["entity.embedding"])


class DistMult(Model):
    """Logit(h, r, t) = sum_i e_h[i] * e_r[i] * e_t[i] (Yang et al., 2015)."""

    kind = "distmult"

    def score_from_embeddings(self, e_emb, r_emb, rng=None):
        return matmul(mul(e_emb, r_emb), transpose(self.params["entity.embedding"]))
