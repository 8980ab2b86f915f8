"""Named parameter registry, and ``Model``, the base of every model.

Parameters are float32 leaf tensors addressed by dotted names. Frozen
entries (requires_grad=False) travel through checkpoints like everything
else but are invisible to the optimizer.
"""

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, gather_rows


class ParamStore:
    def __init__(self):
        self._params = {}

    def add(self, name, data, trainable=True):
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name}")
        arr = np.ascontiguousarray(data, dtype=np.float32)
        t = Tensor(arr, requires_grad=trainable)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def items(self):
        return list(self._params.items())

    def trainable_items(self):
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None


def glorot_uniform(rng, shape):
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), where fan_in is
    ``shape[0]`` and fan_out ``shape[-1]``."""
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Model:
    """Entity and relation embedding tables, the relation table as wide as
    the ``relation_dim`` config field; each subclass fuses a query's two rows
    into logits against every entity in ``score_from_embeddings``."""

    relation_dim = "d_e"

    def __init__(self, config, n_entities, n_relations, rng):
        """``n_relations`` counts forward and reverse relations together.
        ``rng=None`` builds a zero-valued skeleton of the right shapes, for
        callers about to overwrite every parameter from a checkpoint."""
        self.config = config
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.params = ParamStore()
        self._init_rng = rng
        self.add_drawn("entity.embedding", (n_entities, config.d_e))
        self.add_drawn("relation.embedding",
                       (n_relations, getattr(config, self.relation_dim)))
        self._build()
        del self._init_rng

    def _build(self):
        """Add the parameters past the embedding tables."""

    def add_drawn(self, name, shape, draw=glorot_uniform, trainable=True):
        """Add parameter ``name`` as ``draw(rng, shape)`` from the init
        stream, or as zeros of ``shape`` in a skeleton."""
        rng = self._init_rng
        data = np.zeros(shape, dtype=np.float32) if rng is None else draw(rng, shape)
        self.params.add(name, data, trainable)

    def score_all(self, entities, relations, rng=None):
        """Logits [B, n_entities] for query pairs given as integer id arrays.
        Training passes its dropout stream ``rng``, which turns dropout on;
        inference passes none."""
        e_emb = gather_rows(self.params["entity.embedding"], np.asarray(entities))
        r_emb = gather_rows(self.params["relation.embedding"], np.asarray(relations))
        return self.score_from_embeddings(e_emb, r_emb, rng)
