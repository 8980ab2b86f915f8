from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from pkge.errors import ConfigError
from pkge.model import (ABLATION_VARIANTS, ModelConfig, PatReFormer,
                        build_model, multi_head_attention, sinusoidal_table)
from pkge.tensor import Tensor
from pkge.training import TrainConfig

N_ENT, N_REL2 = 6, 8


def tiny_cfg(**over):
    base = dict(d_e=8, d_r=12, d=4, heads=2, layers=2, d_f=8,
                p1=0.0, p2=0.0, p3=0.0)
    base.update(over)
    return ModelConfig(**base)


def make(cfg, seed=0):
    return PatReFormer(cfg, N_ENT, N_REL2, np.random.default_rng(seed))


class TestConfig:
    def test_defaults_validate(self):
        cfg = ModelConfig()
        assert cfg.k_e == 2 and cfg.k_r == 4

    def test_patch_grid_must_divide(self):
        # the grid is PatReFormer's: the baselines take the same config
        cfg = tiny_cfg(d_e=10)
        with pytest.raises(ConfigError, match="does not factor"):
            build_model("patreformer", cfg, N_ENT, N_REL2,
                        np.random.default_rng(0))
        for kind in ("transe", "distmult"):
            build_model(kind, cfg, N_ENT, N_REL2, np.random.default_rng(0))

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_cfg(heads=3)

    def test_variant_names_checked(self):
        for key in ("attention", "pe", "segmentation", "update_order"):
            with pytest.raises(ConfigError):
                tiny_cfg(**{key: "bogus"})

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            tiny_cfg(p2=1.0)
        with pytest.raises(ConfigError):
            tiny_cfg(p3=-0.1)

    def test_none_segmentation_is_one_patch(self):
        cfg = tiny_cfg(segmentation="none", d_e=10)  # no divisibility demand
        assert cfg.k_e == 1 and cfg.k_r == 1

    def test_dict_roundtrip(self):
        cfg = tiny_cfg(attention="full_self")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"d_eeee": 3})

    @pytest.mark.parametrize("cls, name, bad", [(ModelConfig, "d", 3),
                                                (ModelConfig, "layers", 0),
                                                (ModelConfig, "d_f", 0),
                                                (TrainConfig, "lr", -1.0)])
    def test_frozen_and_replace_validates(self, cls, name, bad):
        cfg = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, bad)
        with pytest.raises(ConfigError):
            replace(cfg, **{name: bad})

    def test_ablation_table_fields_exist(self):
        for overrides in ABLATION_VARIANTS.values():
            tiny_cfg(**overrides)


class TestSinusoidalTable:
    def test_position_zero_alternates_zero_one(self):
        table = sinusoidal_table(3, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=0)

    def test_known_values(self):
        table = sinusoidal_table(4, 4)
        pos = 2
        np.testing.assert_allclose(
            table[pos],
            [np.sin(pos), np.cos(pos),
             np.sin(pos / 100.0), np.cos(pos / 100.0)],
            rtol=1e-6)

    def test_odd_width(self):
        table = sinusoidal_table(2, 5)
        assert table.shape == (2, 5)
        # last column is sin for odd widths
        np.testing.assert_allclose(table[1, 4],
                                   np.sin(1 / 10000.0 ** (4 / 5)), rtol=1e-6)


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def np_residual_norm(x, a):
    """LN(x + a) over the last axis, with unit gamma and zero beta."""
    z = (x + a).astype(np.float64)
    z -= z.mean(axis=-1, keepdims=True)
    return z / np.sqrt(np.square(z).mean(axis=-1, keepdims=True) + 1e-5)


def unit_affine(d):
    return Tensor(np.ones(d, np.float32)), Tensor(np.zeros(d, np.float32))


class TestAttentionOps:
    def test_scaled_dot_matches_numpy(self):
        # One head with identity query, key and output projections is scaled
        # dot-product attention of q over keys k and values k·wv, here under
        # the sublayer's residual norm.
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 3, 4)).astype(np.float32)
        k = rng.standard_normal((2, 5, 4)).astype(np.float32)
        wv = rng.standard_normal((4, 4)).astype(np.float32)
        eye = Tensor(np.eye(4, dtype=np.float32))
        out = multi_head_attention(Tensor(q), Tensor(k), eye, eye, Tensor(wv),
                                   eye, *unit_affine(4), heads=1)
        want = np_softmax(q @ k.swapaxes(-1, -2) / 2.0) @ (k @ wv)
        np.testing.assert_allclose(out.data, np_residual_norm(q, want),
                                   rtol=1e-5, atol=1e-6)

    def test_multi_head_matches_per_head_slices(self):
        rng = np.random.default_rng(1)
        d, heads, ds = 6, 3, 2
        xq = rng.standard_normal((2, 4, d)).astype(np.float32)
        xkv = rng.standard_normal((2, 5, d)).astype(np.float32)
        mats = [rng.standard_normal((d, d)).astype(np.float32) * 0.3
                for _ in range(4)]
        wq, wk, wv, wo = mats
        out = multi_head_attention(Tensor(xq), Tensor(xkv), Tensor(wq),
                                   Tensor(wk), Tensor(wv), Tensor(wo),
                                   *unit_affine(d), heads=heads)
        q, k, v = xq @ wq, xkv @ wk, xkv @ wv
        ctx = []
        for h in range(heads):
            s = slice(h * ds, (h + 1) * ds)
            probs = np_softmax(q[..., s] @ k[..., s].swapaxes(-1, -2)
                               / np.sqrt(d))
            ctx.append(probs @ v[..., s])
        want = np.concatenate(ctx, axis=-1) @ wo
        np.testing.assert_allclose(out.data, np_residual_norm(xq, want),
                                   rtol=1e-5, atol=1e-6)

    def test_attention_rows_mix_values_only(self):
        # with uniform scores (a zero query projection) every attention row
        # is the mean of the values
        xq = Tensor(np.ones((1, 3, 4), dtype=np.float32))
        v = Tensor(np.random.default_rng(2)
                   .standard_normal((1, 5, 4)).astype(np.float32))
        zero = Tensor(np.zeros((4, 4), dtype=np.float32))
        eye = Tensor(np.eye(4, dtype=np.float32))
        out = multi_head_attention(xq, v, zero, eye, eye, eye, *unit_affine(4),
                                   heads=1)
        want = np.broadcast_to(v.data.mean(axis=1, keepdims=True), (1, 3, 4))
        np.testing.assert_allclose(out.data, np_residual_norm(xq.data, want),
                                   rtol=1e-5, atol=1e-6)


class TestParamInventory:
    def test_default_names_trainability(self):
        m = make(tiny_cfg())
        names = {n for n, _ in m.params.items()}
        assert "entity.embedding" in names and "relation.embedding" in names
        assert "seg.entity.basis" in names and "seg.relation.basis" in names
        assert not m.params["seg.entity.basis"].requires_grad
        assert m.params["entity.embedding"].requires_grad
        for tower in ("entity", "relation"):
            for i in range(2):
                assert f"enc.{tower}.{i}.attn.wq" in names
                assert f"enc.{tower}.{i}.ffn.w2" in names
        assert "scorer.weight" in names and "scorer.bias" in names
        assert not any(n.startswith("pe.") for n in names)

    def test_variant_params(self):
        m = make(tiny_cfg(attention="full_self", pe="trainable",
                          segmentation="trainable"))
        names = {n for n, _ in m.params.items()}
        assert any(n.startswith("enc.joint.") for n in names)
        assert not any(n.startswith("enc.entity.") for n in names)
        assert m.params["pe.entity"].requires_grad
        assert m.params["seg.entity.basis"].requires_grad

        m = make(tiny_cfg(pe="sinusoidal", segmentation="none"))
        assert not m.params["pe.entity"].requires_grad
        assert m.params["seg.entity.proj"].shape == (8, 4)
        assert m.params["scorer.weight"].shape == (2 * 4, 8)

    def test_scorer_width_tracks_patch_counts(self):
        m = make(tiny_cfg())
        assert m.params["scorer.weight"].shape == ((2 + 3) * 4, 8)

    def test_skeleton_matches_seeded_shapes(self):
        cfg = tiny_cfg()
        seeded = make(cfg)
        blank = PatReFormer(cfg, N_ENT, N_REL2, rng=None)
        assert ([n for n, _ in seeded.params.items()]
                == [n for n, _ in blank.params.items()])
        for name, _ in seeded.params.items():
            assert seeded.params[name].shape == blank.params[name].shape
        assert np.all(blank.params["entity.embedding"].data == 0)
        assert np.all(blank.params["enc.entity.0.ln1.gamma"].data == 1)

    def test_init_deterministic_per_seed(self):
        a, b, c = make(tiny_cfg(), 5), make(tiny_cfg(), 5), make(tiny_cfg(), 6)
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data)
        assert not np.array_equal(a.params["scorer.weight"].data,
                                  c.params["scorer.weight"].data)


# -- straight-line forward oracle --------------------------------------------

def oracle_scores(model, ents, rels):
    """Recompute score_all's logits in plain float64 numpy, mirroring the
    layer algebra directly rather than going through the tensor graph."""
    cfg = model.config
    P = {n: t.data.astype(np.float64) for n, t in model.params.items()}

    def segment(side, x, k):
        if cfg.segmentation == "folding":
            return x.reshape(len(x), k, cfg.d)
        if cfg.segmentation == "none":
            return (x @ P[f"seg.{side}.proj"])[:, None, :]
        basis = P[f"seg.{side}.basis"]
        return np.einsum("bn,kdn->bkd", x, basis)

    def ln(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + 1e-5) + b

    ds = cfg.d // cfg.heads

    def block(pre, xq, xkv):
        q, k, v = xq @ P[pre + ".attn.wq"], xkv @ P[pre + ".attn.wk"], \
            xkv @ P[pre + ".attn.wv"]
        ctx = []
        for h in range(cfg.heads):
            s = slice(h * ds, (h + 1) * ds)
            probs = np_softmax(q[..., s] @ k[..., s].swapaxes(-1, -2)
                               / np.sqrt(cfg.d))
            ctx.append(probs @ v[..., s])
        a = np.concatenate(ctx, axis=-1) @ P[pre + ".attn.wo"]
        x = ln(a + xq, P[pre + ".ln1.gamma"], P[pre + ".ln1.beta"])
        f = np.maximum(x @ P[pre + ".ffn.w1"] + P[pre + ".ffn.b1"], 0.0)
        f = f @ P[pre + ".ffn.w2"] + P[pre + ".ffn.b2"]
        return ln(f + x, P[pre + ".ln2.gamma"], P[pre + ".ln2.beta"])

    xe = segment("entity", P["entity.embedding"][ents], cfg.k_e)
    xr = segment("relation", P["relation.embedding"][rels], cfg.k_r)
    if cfg.pe != "none":
        xe = xe + P["pe.entity"]
        xr = xr + P["pe.relation"]

    if cfg.attention == "full_self":
        x = np.concatenate([xe, xr], axis=1)
        for i in range(cfg.layers):
            x = block(f"enc.joint.{i}", x, x)
        xe, xr = x[:, :cfg.k_e], x[:, cfg.k_e:]
    elif cfg.attention == "separate_self":
        for i in range(cfg.layers):
            xe, xr = block(f"enc.entity.{i}", xe, xe), \
                block(f"enc.relation.{i}", xr, xr)
    else:
        for i in range(cfg.layers):
            if cfg.update_order == "sequential":
                xe = block(f"enc.entity.{i}", xe, xr)
                xr = block(f"enc.relation.{i}", xr, xe)
            else:
                xe, xr = block(f"enc.entity.{i}", xe, xr), \
                    block(f"enc.relation.{i}", xr, xe)

    flat = np.concatenate([xe.reshape(len(ents), -1),
                           xr.reshape(len(rels), -1)], axis=-1)
    out = flat @ P["scorer.weight"] + P["scorer.bias"]
    return out @ P["entity.embedding"].T


ORACLE_CASES = {
    "base": {},
    "simultaneous": {"update_order": "simultaneous"},
    "full-self": {"attention": "full_self"},
    "separate-self": {"attention": "separate_self"},
    "sinusoidal-pe": {"pe": "sinusoidal"},
    "trainable-pe": {"pe": "trainable"},
    "folding-seg": {"segmentation": "folding"},
    "trainable-seg": {"segmentation": "trainable"},
    "no-seg": {"segmentation": "none"},
    "one-layer": {"layers": 1},
}


class TestForwardOracle:
    @pytest.mark.parametrize("over", ORACLE_CASES.values(),
                             ids=ORACLE_CASES.keys())
    def test_matches_numpy_recomputation(self, over):
        model = make(tiny_cfg(**over), seed=3)
        if "pe" in over and over["pe"] == "trainable":
            # zero-init would hide a wrong PE application
            pe_rng = np.random.default_rng(9)
            for side in ("entity", "relation"):
                t = model.params[f"pe.{side}"]
                t.data[...] = pe_rng.standard_normal(t.shape) * 0.1
        ents = np.array([0, 3, 5])
        rels = np.array([1, 6, 2])
        got = model.score_all(ents, rels).data
        want = oracle_scores(model, ents, rels)
        assert got.shape == (3, N_ENT)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_scores_are_oracle_logits(self):
        # every entity as a query head, so logits of both signs occur
        model = make(tiny_cfg(), seed=5)
        ents, rels = np.arange(N_ENT), np.zeros(N_ENT, int)
        got = model.score_all(ents, rels).data
        want = oracle_scores(model, ents, rels)
        assert (want < 0).any() and (want > 0).any()
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestVariantBehavior:
    def test_separate_self_has_no_cross_flow(self):
        model = make(tiny_cfg(attention="separate_self"), seed=6)
        e = Tensor(np.random.default_rng(0)
                   .standard_normal((2, 8)).astype(np.float32))
        r1 = Tensor(np.random.default_rng(1)
                    .standard_normal((2, 12)).astype(np.float32))
        r2 = Tensor(np.random.default_rng(2)
                    .standard_normal((2, 12)).astype(np.float32))
        k_e = model.config.k_e
        x1, x2 = model.encode(e, r1).data, model.encode(e, r2).data
        # entity patches ignore the relation entirely
        assert np.array_equal(x1[..., :k_e, :], x2[..., :k_e, :])
        assert not np.allclose(x1[..., k_e:, :], x2[..., k_e:, :])

    def test_cross_attention_mixes_towers(self):
        model = make(tiny_cfg(), seed=6)
        e = Tensor(np.ones((1, 8), dtype=np.float32))
        r1 = Tensor(np.zeros((1, 12), dtype=np.float32))
        r2 = Tensor(np.ones((1, 12), dtype=np.float32))
        k_e = model.config.k_e
        xe1 = model.encode(e, r1).data[..., :k_e, :]
        xe2 = model.encode(e, r2).data[..., :k_e, :]
        assert not np.allclose(xe1, xe2)

    @pytest.mark.parametrize("attention", ["cross", "separate_self", "full_self"])
    def test_encode_returns_one_patch_sequence(self, attention):
        # entity patches then relation patches, one tensor for every layout
        cfg = tiny_cfg(attention=attention)
        e = Tensor(np.ones((3, 8), dtype=np.float32))
        r = Tensor(np.zeros((3, 12), dtype=np.float32))
        x = make(cfg, seed=6).encode(e, r)
        assert isinstance(x, Tensor)
        assert x.shape == (3, cfg.k_e + cfg.k_r, cfg.d)

    def test_update_orders_differ(self):
        seq = make(tiny_cfg(update_order="sequential"), seed=7)
        sim = make(tiny_cfg(update_order="simultaneous"), seed=7)
        s1 = seq.score_all([0], [1]).data
        s2 = sim.score_all([0], [1]).data
        assert not np.allclose(s1, s2)

    @pytest.mark.parametrize("attention", ["separate_self", "full_self"])
    def test_update_order_matters_only_for_cross(self, attention):
        # The order only picks which entity patches the cross-attending
        # relation tower reads; the other layouts must ignore it, dropout
        # draws included.
        models = [make(tiny_cfg(attention=attention, update_order=order,
                                p1=0.1, p2=0.2, p3=0.3), seed=7)
                  for order in ("sequential", "simultaneous")]
        for stream in (False, True):
            seq, sim = (m.score_all([0, 3, 5], [1, 2, 1],
                                    np.random.default_rng(11) if stream else None).data
                        for m in models)
            np.testing.assert_array_equal(seq, sim)

    def test_trainable_pe_starts_neutral(self):
        # zero-initialized trainable tables leave scores untouched
        plain = make(tiny_cfg(), seed=9)
        pe = make(tiny_cfg(pe="trainable"), seed=9)
        np.testing.assert_array_equal(plain.score_all([1], [2]).data,
                                      pe.score_all([1], [2]).data)

    def test_sinusoidal_pe_changes_scores(self):
        plain = make(tiny_cfg(), seed=9)
        pe = make(tiny_cfg(pe="sinusoidal"), seed=9)
        assert not np.allclose(plain.score_all([1], [2]).data,
                               pe.score_all([1], [2]).data)


class TestDropoutModes:
    def test_training_consumes_rng_eval_does_not(self):
        cfg = tiny_cfg(p1=0.3, p2=0.3, p3=0.3)
        model = make(cfg, seed=10)
        ents, rels = [0, 1], [2, 3]
        eval_a = model.score_all(ents, rels).data
        eval_b = model.score_all(ents, rels).data
        np.testing.assert_array_equal(eval_a, eval_b)

        rng = np.random.default_rng(0)
        train_a = model.score_all(ents, rels, rng).data
        rng = np.random.default_rng(0)
        train_b = model.score_all(ents, rels, rng).data
        np.testing.assert_array_equal(train_a, train_b)
        assert not np.allclose(train_a, eval_a)


class TestFactory:
    def test_builds_each_kind(self):
        cfg = tiny_cfg(d_r=8)
        rng = np.random.default_rng(0)
        for kind in ("patreformer", "transe", "distmult"):
            m = build_model(kind, cfg, N_ENT, N_REL2, rng)
            assert m.kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_model("rotate", tiny_cfg(), N_ENT, N_REL2,
                        np.random.default_rng(0))
