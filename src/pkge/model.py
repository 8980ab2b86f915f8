"""Patch-refinement link prediction model.

An entity embedding and a relation embedding are each segmented into
fixed-size patches, refined by a stack of residual attention layers, then
flattened and projected back to entity space; the scores against every
entity are logits, the dot products with the entity table. The sigmoid lives
only in the training loss, since ranking depends on order alone.

Attention variants:

* cross          - two towers; entity patches attend to relation patches
  and vice versa. ``update_order`` picks whether the relation tower sees
  the entity patches already updated this layer (sequential) or the ones
  from the previous layer (simultaneous).
* full_self      - both patch sets are concatenated into one sequence that
  self-attends through a single tower.
* separate_self  - each tower self-attends to its own patches only; no
  information crosses between entity and relation.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from .baselines import DistMult, TransE
from .errors import ConfigError
from .params import ParamStore, glorot_uniform
from .segmentation import (build_frozen_basis, build_trainable_basis,
                           segment_folding, segment_mapped, segment_none,
                           validate_patch_shape)
from .tensor import (concat, dropout, gather_rows, layer_norm, matmul, mul,
                     narrow, relu, reshape, softmax_lastdim, transpose)

# Allowed values of each ModelConfig field that names a choice, read by
# ModelConfig.validate and by the command-line flags.
CHOICES = {
    "attention": ("cross", "full_self", "separate_self"),
    "pe": ("none", "trainable", "sinusoidal"),
    "segmentation": ("frozen", "folding", "trainable", "none"),
    "update_order": ("sequential", "simultaneous"),
    "attn_scale": ("model_dim", "head_dim"),
    "transe_norm": ("l1", "l2"),
}

# Named single-field deviations from a base configuration, for ablation runs.
ABLATION_VARIANTS = {
    "full-self-attn": {"attention": "full_self"},
    "sep-self-attn": {"attention": "separate_self"},
    "tpe": {"pe": "trainable"},
    "fpe": {"pe": "sinusoidal"},
    "no-seg": {"segmentation": "none"},
    "folding": {"segmentation": "folding"},
    "trainable-seg": {"segmentation": "trainable"},
    "frozen-seg": {"segmentation": "frozen"},
    "simultaneous": {"update_order": "simultaneous"},
    "sequential": {"update_order": "sequential"},
}


class Config:
    """Base of the option dataclasses: validated on construction, and
    round-tripped through a plain dict for checkpoint headers."""

    def __post_init__(self):
        self.validate()

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Build from a JSON object. Each value must have its field's type:
        an int field takes an integer but not true/false, a float field an
        integer or a float, a str field a string."""
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        for name, value in d.items():
            accepted = (int, float) if types[name] is float else types[name]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(
                    f"{cls.__name__}.{name} must be {types[name].__name__}, "
                    f"got {value!r}")
        return cls(**d)


@dataclass
class ModelConfig(Config):
    d_e: int = 100          # entity embedding size
    d_r: int = 200          # relation embedding size
    d: int = 50             # patch size (model width)
    heads: int = 5
    layers: int = 2
    d_f: int = 200          # feed-forward hidden size
    p1: float = 0.1         # dropout on patches
    p2: float = 0.1         # dropout on attention probs and FFN outputs
    p3: float = 0.2         # dropout on the flattened vector
    attention: str = "cross"
    pe: str = "none"
    segmentation: str = "frozen"
    update_order: str = "sequential"
    attn_scale: str = "model_dim"
    transe_gamma: float = 12.0
    transe_norm: str = "l1"

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.d <= 0 or self.heads <= 0 or self.layers < 1 or self.d_f < 1:
            raise ConfigError("d, heads, d_f must be positive and layers >= 1")
        if self.d % self.heads != 0:
            raise ConfigError(f"patch size {self.d} not divisible by {self.heads} heads")
        if self.d_e <= 0 or self.d_r <= 0:
            raise ConfigError("embedding sizes must be positive")
        if self.segmentation != "none":
            validate_patch_shape(self.d_e, self.d_e // self.d, self.d, "entity embedding")
            validate_patch_shape(self.d_r, self.d_r // self.d, self.d, "relation embedding")
        for name, p in (("p1", self.p1), ("p2", self.p2), ("p3", self.p3)):
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must satisfy 0 <= p < 1, got {p}")
        if not np.isfinite(self.transe_gamma):
            raise ConfigError("transe_gamma must be finite")

    @property
    def k_e(self):
        return 1 if self.segmentation == "none" else self.d_e // self.d

    @property
    def k_r(self):
        return 1 if self.segmentation == "none" else self.d_r // self.d


def sinusoidal_table(k, d):
    """Fixed position encoding: even columns sin, odd columns cos."""
    pos = np.arange(k, dtype=np.float64)[:, None]
    idx = np.arange(0, d, 2, dtype=np.float64)
    ang = pos / np.power(10000.0, idx / d)
    table = np.zeros((k, d), dtype=np.float64)
    table[:, 0::2] = np.sin(ang)
    table[:, 1::2] = np.cos(ang[:, : d // 2])
    return table.astype(np.float32)


def _swap_last_axes(x):
    axes = list(range(len(x.shape)))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(x, tuple(axes))


def scaled_dot_attention(q, k, v, denom, p_drop=0.0, training=False, rng=None):
    """softmax(q kᵀ / sqrt(denom)) v over the last two axes."""
    scores = mul(matmul(q, _swap_last_axes(k)), 1.0 / np.sqrt(denom))
    probs = softmax_lastdim(scores)
    probs = dropout(probs, p_drop, training, rng)
    return matmul(probs, v)


def _split_heads(x, heads):
    *lead, n, d = x.shape
    x = reshape(x, tuple(lead) + (n, heads, d // heads))
    axes = list(range(len(x.shape)))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return transpose(x, tuple(axes))


def _merge_heads(x):
    axes = list(range(len(x.shape)))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    x = transpose(x, tuple(axes))
    *lead, n, heads, ds = x.shape
    return reshape(x, tuple(lead) + (n, heads * ds))


def multi_head_attention(x_q, x_kv, wq, wk, wv, wo, heads, denom,
                         p_drop=0.0, training=False, rng=None):
    """Multi-head attention of queries ``x_q`` over keys/values ``x_kv``.

    Projections are single d-by-d matrices sliced into heads; ``denom`` is
    the squared attention temperature (the model width by default).
    """
    q = _split_heads(matmul(x_q, wq), heads)
    k = _split_heads(matmul(x_kv, wk), heads)
    v = _split_heads(matmul(x_kv, wv), heads)
    ctx = scaled_dot_attention(q, k, v, denom, p_drop, training, rng)
    return matmul(_merge_heads(ctx), wo)


class PatReFormer:
    """Two-tower patch encoder scored by logits against the shared entity
    table."""

    kind = "patreformer"

    def __init__(self, config, n_entities, n_relations, rng):
        """``n_relations`` counts forward and reverse relations together.

        ``rng=None`` builds a zero-valued skeleton of the right shapes, for
        callers about to overwrite every parameter from a checkpoint.
        """
        config.validate()
        self.config = config
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.params = ParamStore()
        self._build(rng)

    # -- construction -------------------------------------------------------

    def _tower_names(self):
        if self.config.attention == "full_self":
            return ("joint",)
        return ("entity", "relation")

    def _build(self, rng):
        cfg = self.config
        p = self.params

        def init(shape):
            if rng is None:
                return np.zeros(shape, dtype=np.float32)
            return glorot_uniform(rng, shape)

        p.add("entity.embedding", init((self.n_entities, cfg.d_e)))
        p.add("relation.embedding", init((self.n_relations, cfg.d_r)))

        for side, dim, k in (("entity", cfg.d_e, cfg.k_e),
                             ("relation", cfg.d_r, cfg.k_r)):
            if cfg.segmentation == "frozen":
                basis = (np.zeros((k, cfg.d, k * cfg.d), dtype=np.float32)
                         if rng is None else build_frozen_basis(k, cfg.d, rng))
                p.add(f"seg.{side}.basis", basis, trainable=False)
            elif cfg.segmentation == "trainable":
                basis = (np.zeros((k, cfg.d, k * cfg.d), dtype=np.float32)
                         if rng is None else build_trainable_basis(k, cfg.d, rng))
                p.add(f"seg.{side}.basis", basis)
            elif cfg.segmentation == "none":
                p.add(f"seg.{side}.proj", init((dim, cfg.d)))

        if cfg.pe == "trainable":
            p.add("pe.entity", np.zeros((cfg.k_e, cfg.d), dtype=np.float32))
            p.add("pe.relation", np.zeros((cfg.k_r, cfg.d), dtype=np.float32))
        elif cfg.pe == "sinusoidal":
            p.add("pe.entity", sinusoidal_table(cfg.k_e, cfg.d), trainable=False)
            p.add("pe.relation", sinusoidal_table(cfg.k_r, cfg.d), trainable=False)

        for tower in self._tower_names():
            for i in range(cfg.layers):
                pre = f"enc.{tower}.{i}"
                for w in ("wq", "wk", "wv", "wo"):
                    p.add(f"{pre}.attn.{w}", init((cfg.d, cfg.d)))
                p.add(f"{pre}.ln1.gamma", np.ones(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ln1.beta", np.zeros(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ffn.w1", init((cfg.d, cfg.d_f)))
                p.add(f"{pre}.ffn.b1", np.zeros(cfg.d_f, dtype=np.float32))
                p.add(f"{pre}.ffn.w2", init((cfg.d_f, cfg.d)))
                p.add(f"{pre}.ffn.b2", np.zeros(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ln2.gamma", np.ones(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ln2.beta", np.zeros(cfg.d, dtype=np.float32))

        flat_width = (cfg.k_e + cfg.k_r) * cfg.d
        p.add("scorer.weight", init((flat_width, cfg.d_e)))
        p.add("scorer.bias", np.zeros(cfg.d_e, dtype=np.float32))

    # -- forward ------------------------------------------------------------

    def _segment(self, side, e):
        cfg = self.config
        if cfg.segmentation == "folding":
            k = cfg.k_e if side == "entity" else cfg.k_r
            return segment_folding(e, k, cfg.d)
        if cfg.segmentation == "none":
            return segment_none(e, self.params[f"seg.{side}.proj"])
        return segment_mapped(e, self.params[f"seg.{side}.basis"])

    def _add_pe(self, side, x):
        if self.config.pe == "none":
            return x
        return x + self.params[f"pe.{side}"]

    def _denom(self):
        cfg = self.config
        return float(cfg.d) if cfg.attn_scale == "model_dim" else cfg.d / cfg.heads

    def _block(self, prefix, x_q, x_kv, training, rng):
        """Post-norm residual block: LN(attn + x), then LN(ffn + x)."""
        cfg = self.config
        p = self.params
        a = multi_head_attention(
            x_q, x_kv,
            p[f"{prefix}.attn.wq"], p[f"{prefix}.attn.wk"],
            p[f"{prefix}.attn.wv"], p[f"{prefix}.attn.wo"],
            cfg.heads, self._denom(), cfg.p2, training, rng)
        x = layer_norm(a + x_q, p[f"{prefix}.ln1.gamma"], p[f"{prefix}.ln1.beta"])
        f = matmul(x, p[f"{prefix}.ffn.w1"]) + p[f"{prefix}.ffn.b1"]
        f = matmul(relu(f), p[f"{prefix}.ffn.w2"]) + p[f"{prefix}.ffn.b2"]
        f = dropout(f, cfg.p2, training, rng)
        return layer_norm(f + x, p[f"{prefix}.ln2.gamma"], p[f"{prefix}.ln2.beta"])

    def encode(self, e_emb, r_emb, training=False, rng=None):
        """Refine segmented embeddings; returns (entity patches, relation patches)."""
        cfg = self.config
        xe = self._segment("entity", e_emb)
        xr = self._segment("relation", r_emb)
        xe = self._add_pe("entity", xe)
        xr = self._add_pe("relation", xr)
        xe = dropout(xe, cfg.p1, training, rng)
        xr = dropout(xr, cfg.p1, training, rng)

        if cfg.attention == "full_self":
            k_e = xe.shape[-2]
            k_r = xr.shape[-2]
            x = concat([xe, xr], axis=-2)
            for i in range(cfg.layers):
                x = self._block(f"enc.joint.{i}", x, x, training, rng)
            xe = narrow(x, -2, 0, k_e)
            xr = narrow(x, -2, k_e, k_r)
        elif cfg.attention == "separate_self":
            for i in range(cfg.layers):
                xe_new = self._block(f"enc.entity.{i}", xe, xe, training, rng)
                xr_new = self._block(f"enc.relation.{i}", xr, xr, training, rng)
                xe, xr = xe_new, xr_new
        else:
            for i in range(cfg.layers):
                if cfg.update_order == "sequential":
                    # The relation tower attends to the already-updated
                    # entity patches within the same layer.
                    xe = self._block(f"enc.entity.{i}", xe, xr, training, rng)
                    xr = self._block(f"enc.relation.{i}", xr, xe, training, rng)
                else:
                    xe_new = self._block(f"enc.entity.{i}", xe, xr, training, rng)
                    xr_new = self._block(f"enc.relation.{i}", xr, xe, training, rng)
                    xe, xr = xe_new, xr_new
        return xe, xr

    def score_from_embeddings(self, e_emb, r_emb, training=False, rng=None):
        """Logits [B, n_entities] from explicit embedding tensors [B, d_e]/[B, d_r]."""
        cfg = self.config
        xe, xr = self.encode(e_emb, r_emb, training, rng)
        lead = xe.shape[:-2]
        flat = concat([reshape(xe, lead + (cfg.k_e * cfg.d,)),
                       reshape(xr, lead + (cfg.k_r * cfg.d,))], axis=-1)
        flat = dropout(flat, cfg.p3, training, rng)
        out = matmul(flat, self.params["scorer.weight"]) + self.params["scorer.bias"]
        return matmul(out, transpose(self.params["entity.embedding"]))

    def score_all(self, entities, relations, training=False, rng=None):
        """Logits [B, n_entities] for query pairs given as integer id arrays."""
        e_emb = gather_rows(self.params["entity.embedding"], np.asarray(entities))
        r_emb = gather_rows(self.params["relation.embedding"], np.asarray(relations))
        return self.score_from_embeddings(e_emb, r_emb, training, rng)


MODELS = {cls.kind: cls for cls in (PatReFormer, TransE, DistMult)}
MODEL_KINDS = tuple(MODELS)


def build_model(kind, config, n_entities, n_relations, rng):
    if kind not in MODELS:
        raise ConfigError(f"model must be one of {MODEL_KINDS}, got {kind!r}")
    return MODELS[kind](config, n_entities, n_relations, rng)
