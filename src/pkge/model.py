"""Patch-refinement link prediction model.

An entity embedding and a relation embedding are each segmented into
fixed-size patches, refined by a stack of residual attention layers, then
flattened and projected back to entity space; the scores against every
entity are logits, the dot products with the entity table. The sigmoid lives
only in the training loss, since ranking depends on order alone. The tables,
zero skeleton and id lookup come from ``params.Model``.

Attention variants:

* cross          - two towers; entity patches attend to relation patches
  and vice versa. ``update_order`` picks whether the relation tower sees
  the entity patches already updated this layer (sequential) or the ones
  from the previous layer (simultaneous).
* full_self      - both patch sets are concatenated into one sequence that
  self-attends through a single tower.
* separate_self  - each tower self-attends to its own patches only; no
  information crosses between entity and relation.

``update_order`` matters only for ``cross``: the other two layouts give the
same outputs under either order.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from .baselines import DistMult, TransE
from .errors import ConfigError
from .params import Model
from .segmentation import (build_frozen_basis, build_trainable_basis,
                           segment_folding, segment_mapped, segment_none,
                           validate_patch_shape)
from .tensor import (attention, concat, dropout, feed_forward, matmul,
                     reshape, transpose)

# Allowed values of each ModelConfig field that names a choice, read by
# ModelConfig.validate and by the command-line flags.
CHOICES = {
    "attention": ("cross", "full_self", "separate_self"),
    "pe": ("none", "trainable", "sinusoidal"),
    "segmentation": ("frozen", "folding", "trainable", "none"),
    "update_order": ("sequential", "simultaneous"),
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
    written out as a plain dict. Subclasses are frozen, so construction
    (``replace`` included) is the only validation."""

    def __post_init__(self):
        self.validate()

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
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

    @classmethod
    def from_dict(cls, d):
        """Build from a checkpoint header's JSON object. Each value must
        have its field's type: an int field takes an integer but not
        true/false, a float field an integer or a float, a str field a
        string."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {d!r}")
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
        for name, p in (("p1", self.p1), ("p2", self.p2), ("p3", self.p3)):
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must satisfy 0 <= p < 1, got {p}")

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


def multi_head_attention(x_q, x_kv, wq, wk, wv, wo, gamma, beta, heads,
                         p_drop=0.0, rng=None):
    """Post-norm attention sublayer LN(x_q + MHA(x_q, x_kv)) with the layer
    norm's affine ``gamma``/``beta``, as one tape node (``tensor.attention``).

    Projections are single d-by-d matrices sliced into heads; scores are
    scaled by 1/sqrt(d), d the model width. The probabilities are dropped
    out at ``p_drop`` only when a dropout stream ``rng`` is given.
    """
    return attention(x_q, x_kv, wq, wk, wv, wo, gamma, beta, heads, p_drop, rng)


class PatReFormer(Model):
    """Two-tower patch encoder scored by logits against the shared entity
    table."""

    kind = "patreformer"
    relation_dim = "d_r"

    # -- construction -------------------------------------------------------

    def _build(self):
        cfg = self.config
        p = self.params

        for side, dim, k in (("entity", cfg.d_e, cfg.k_e),
                             ("relation", cfg.d_r, cfg.k_r)):
            if cfg.segmentation in ("frozen", "trainable"):
                frozen = cfg.segmentation == "frozen"
                build = build_frozen_basis if frozen else build_trainable_basis
                self.add_drawn(f"seg.{side}.basis", (k, cfg.d, k * cfg.d),
                               lambda rng, _: build(k, cfg.d, rng),
                               trainable=not frozen)
            elif cfg.segmentation == "none":
                self.add_drawn(f"seg.{side}.proj", (dim, cfg.d))

        if cfg.pe == "trainable":
            p.add("pe.entity", np.zeros((cfg.k_e, cfg.d), dtype=np.float32))
            p.add("pe.relation", np.zeros((cfg.k_r, cfg.d), dtype=np.float32))
        elif cfg.pe == "sinusoidal":
            p.add("pe.entity", sinusoidal_table(cfg.k_e, cfg.d), trainable=False)
            p.add("pe.relation", sinusoidal_table(cfg.k_r, cfg.d), trainable=False)

        towers = (("joint",) if cfg.attention == "full_self"
                  else ("entity", "relation"))
        for tower in towers:
            for i in range(cfg.layers):
                pre = f"enc.{tower}.{i}"
                for w in ("wq", "wk", "wv", "wo"):
                    self.add_drawn(f"{pre}.attn.{w}", (cfg.d, cfg.d))
                p.add(f"{pre}.ln1.gamma", np.ones(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ln1.beta", np.zeros(cfg.d, dtype=np.float32))
                self.add_drawn(f"{pre}.ffn.w1", (cfg.d, cfg.d_f))
                p.add(f"{pre}.ffn.b1", np.zeros(cfg.d_f, dtype=np.float32))
                self.add_drawn(f"{pre}.ffn.w2", (cfg.d_f, cfg.d))
                p.add(f"{pre}.ffn.b2", np.zeros(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ln2.gamma", np.ones(cfg.d, dtype=np.float32))
                p.add(f"{pre}.ln2.beta", np.zeros(cfg.d, dtype=np.float32))

        self.add_drawn("scorer.weight", ((cfg.k_e + cfg.k_r) * cfg.d, cfg.d_e))
        p.add("scorer.bias", np.zeros(cfg.d_e, dtype=np.float32))

    # -- forward ------------------------------------------------------------

    def _patches(self, side, emb, rng):
        """Segment one side's embeddings, add its position signal, and drop
        out at p1 when a dropout stream ``rng`` is given."""
        cfg = self.config
        if cfg.segmentation == "folding":
            x = segment_folding(emb, cfg.k_e if side == "entity" else cfg.k_r, cfg.d)
        elif cfg.segmentation == "none":
            x = segment_none(emb, self.params[f"seg.{side}.proj"])
        else:
            x = segment_mapped(emb, self.params[f"seg.{side}.basis"])
        if cfg.pe != "none":
            x = x + self.params[f"pe.{side}"]
        return dropout(x, cfg.p1, rng)

    def _block(self, prefix, x_q, x_kv, rng):
        """Post-norm residual block of two tape nodes: x = LN(x_q + attn),
        then LN(x + dropout(ffn(x))), both dropping out at p2 only when a
        dropout stream ``rng`` is given."""
        cfg = self.config
        p = self.params
        x = multi_head_attention(
            x_q, x_kv,
            p[f"{prefix}.attn.wq"], p[f"{prefix}.attn.wk"],
            p[f"{prefix}.attn.wv"], p[f"{prefix}.attn.wo"],
            p[f"{prefix}.ln1.gamma"], p[f"{prefix}.ln1.beta"],
            cfg.heads, cfg.p2, rng)
        return feed_forward(x, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"],
                            p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"],
                            p[f"{prefix}.ln2.gamma"], p[f"{prefix}.ln2.beta"],
                            cfg.p2, rng)

    def encode(self, e_emb, r_emb, rng=None):
        """Refined patches [..., k_e + k_r, d]: entity, then relation patches.
        Dropout runs only when a dropout stream ``rng`` is given."""
        cfg = self.config
        xe = self._patches("entity", e_emb, rng)
        xr = self._patches("relation", r_emb, rng)

        if cfg.attention == "full_self":
            x = concat([xe, xr], axis=-2)
            for i in range(cfg.layers):
                x = self._block(f"enc.joint.{i}", x, x, rng)
            return x

        # Keys/values per tower: its own patches (separate_self) or the other
        # tower's from the previous layer (cross); under the sequential order
        # the relation tower reads the entity patches updated in this layer.
        cross = cfg.attention == "cross"
        for i in range(cfg.layers):
            xe_new = self._block(f"enc.entity.{i}", xe, xr if cross else xe, rng)
            r_kv = (xe_new if cfg.update_order == "sequential" else xe) if cross else xr
            xr = self._block(f"enc.relation.{i}", xr, r_kv, rng)
            xe = xe_new
        return concat([xe, xr], axis=-2)

    def score_from_embeddings(self, e_emb, r_emb, rng=None):
        """Logits [B, n_entities] from explicit embedding tensors [B, d_e]/[B, d_r];
        a dropout stream ``rng`` turns on p1-p3 dropout, as in training."""
        x = self.encode(e_emb, r_emb, rng)
        flat = reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
        flat = dropout(flat, self.config.p3, rng)
        out = matmul(flat, self.params["scorer.weight"]) + self.params["scorer.bias"]
        return matmul(out, transpose(self.params["entity.embedding"]))


MODELS = {cls.kind: cls for cls in (PatReFormer, TransE, DistMult)}
MODEL_KINDS = tuple(MODELS)


def check_model(kind, config):
    """Raise ``ConfigError`` unless a ``kind`` model can be built from
    ``config``: PatReFormer's embeddings must factor into its patch grid,
    which the baselines do not have."""
    if kind not in MODELS:
        raise ConfigError(f"model must be one of {MODEL_KINDS}, got {kind!r}")
    if kind == "patreformer" and config.segmentation != "none":
        validate_patch_shape(config.d_e, config.k_e, config.d, "entity embedding")
        validate_patch_shape(config.d_r, config.k_r, config.d, "relation embedding")


def build_model(kind, config, n_entities, n_relations, rng):
    check_model(kind, config)
    return MODELS[kind](config, n_entities, n_relations, rng)
