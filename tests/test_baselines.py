import tracemalloc

import numpy as np
import pytest

from pkge import tensor
from pkge.baselines import DistMult, TransE
from pkge.model import ModelConfig, build_model
from pkge.tensor import Tensor, no_grad
from pkge.training import bce_smoothed_loss


def cfg(**over):
    base = dict(d_e=2, d_r=2, d=2, heads=1, layers=1, d_f=4,
                p1=0.0, p2=0.0, p3=0.0, segmentation="folding")
    base.update(over)
    return ModelConfig(**base)


def scores(model, entity, relation):
    """Logits of one query against every entity, as a 1-d array."""
    return model.score_all([entity], [relation]).data[0]


def plant(model, entities, relations):
    model.params["entity.embedding"].data[...] = np.asarray(
        entities, dtype=np.float32)
    model.params["relation.embedding"].data[...] = np.asarray(
        relations, dtype=np.float32)


class TestTransE:
    def test_l1_hand_example(self):
        m = TransE(cfg(), 3, 2, np.random.default_rng(0))
        plant(m, [[0, 0], [1, 0], [0, 1]], [[1, 0], [0, -1]])
        # h=0, r=0: translated point is [1, 0]
        got = scores(m, 0, 0)
        d = [1.0, 0.0, 2.0]   # L1 distances to each entity row
        np.testing.assert_allclose(got, 12.0 - np.array(d), rtol=1e-6)

    def test_reverse_relation_row_used(self):
        m = TransE(cfg(), 3, 2, np.random.default_rng(0))
        plant(m, [[0, 0], [1, 0], [0, 1]], [[1, 0], [0, -1]])
        got = scores(m, 1, 1)   # [1,0] + [0,-1] = [1,-1]
        d = [2.0, 1.0, 3.0]
        np.testing.assert_allclose(got, 12.0 - np.array(d), rtol=1e-6)

    def test_exact_match_scores_highest(self):
        rng = np.random.default_rng(1)
        m = TransE(cfg(d_e=8), 10, 4, rng)
        emb = m.params["entity.embedding"].data
        rel = m.params["relation.embedding"].data
        # make entity 7 sit exactly at e_2 + r_3
        emb[7] = emb[2] + rel[3]
        got = scores(m, 2, 3)
        assert got.argmax() == 7
        np.testing.assert_allclose(got[7], 12.0, rtol=1e-6)

    def test_batch_oracle(self):
        rng = np.random.default_rng(2)
        m = TransE(cfg(d_e=6), 8, 4, rng)
        ents, rels = np.array([0, 5, 3]), np.array([1, 0, 3])
        got = m.score_all(ents, rels).data
        E = m.params["entity.embedding"].data.astype(np.float64)
        R = m.params["relation.embedding"].data.astype(np.float64)
        q = E[ents] + R[rels]
        dist = np.abs(q[:, None, :] - E[None]).sum(axis=-1)
        np.testing.assert_allclose(got, 12.0 - dist, rtol=1e-5, atol=1e-6)

    def test_l1_logits_exact(self):
        # Each distance is one float64 sum over d of float32 |q - e|, cast
        # to float32, as the [B, N, d] broadcast computed it.
        m = TransE(cfg(d_e=100), 300, 4, np.random.default_rng(6))
        ents, rels = np.arange(0, 300, 7), np.arange(43) % 4
        E = m.params["entity.embedding"].data
        q = E[ents] + m.params["relation.embedding"].data[rels]
        dist = np.abs(q[:, None] - E[None]).sum(-1, dtype=np.float64)
        want = np.float32(12.0) - dist.astype(np.float32)
        np.testing.assert_array_equal(m.score_all(ents, rels).data, want)

    # 4 MB holds all 300 rows for one query but splits the batch's rows
    # 243 + 57: a partial last block of a block larger than the default.
    @pytest.mark.parametrize("block_bytes",
                             sorted({1, 4096, 1 << 22, tensor.L1_BLOCK_BYTES}))
    def test_query_logits_independent_of_batch_and_blocks(self, monkeypatch,
                                                          block_bytes):
        m = TransE(cfg(d_e=100), 300, 4, np.random.default_rng(6))
        ents, rels = np.arange(0, 300, 7), np.arange(43) % 4
        alone = m.score_all(ents[5:6], rels[5:6]).data[0]
        monkeypatch.setattr(tensor, "L1_BLOCK_BYTES", block_bytes)
        np.testing.assert_array_equal(m.score_all(ents, rels).data[5], alone)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransEMemory:
    # One [B, N, d] float32 array here is 51.2 MB; scoring holds none.
    B, N, D = 64, 2000, 100
    BOUND = B * N * D * 4 // 2

    def model(self):
        return TransE(cfg(d_e=self.D), self.N, 8, np.random.default_rng(0))

    def batch(self):
        rng = np.random.default_rng(1)
        answers = (np.arange(self.B), rng.integers(0, self.N, self.B))
        return rng.integers(0, self.N, self.B), rng.integers(0, 8, self.B), answers

    def test_training_step_bounded(self):
        m = self.model()
        ents, rels, answers = self.batch()

        def step():
            bce_smoothed_loss(m.score_all(ents, rels), answers).backward()
        assert traced_peak(step) < self.BOUND
        assert m.params["entity.embedding"].grad.shape == (self.N, self.D)

    def test_inference_bounded(self):
        m = self.model()
        ents, rels, _ = self.batch()

        def score():
            with no_grad():
                assert m.score_all(ents, rels).shape == (self.B, self.N)
        assert traced_peak(score) < self.BOUND


class TestDistMult:
    def test_hand_example(self):
        m = DistMult(cfg(), 3, 2, np.random.default_rng(0))
        plant(m, [[1, 2], [0, 1], [2, 0]], [[3, 4], [1, 1]])
        got = scores(m, 0, 0)   # query vector e*r = [3, 8]
        logits = [3 * 1 + 8 * 2, 3 * 0 + 8 * 1, 3 * 2 + 8 * 0]
        np.testing.assert_allclose(got, logits, rtol=1e-6)

    def test_batch_oracle(self):
        rng = np.random.default_rng(3)
        m = DistMult(cfg(d_e=6), 8, 4, rng)
        ents, rels = np.array([1, 7]), np.array([0, 2])
        got = m.score_all(ents, rels).data
        E = m.params["entity.embedding"].data.astype(np.float64)
        R = m.params["relation.embedding"].data.astype(np.float64)
        want = (E[ents] * R[rels]) @ E.T
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_symmetric_in_head_and_tail(self):
        # e_h * r . e_t == e_t * r . e_h, a defining property of the
        # bilinear-diagonal form
        rng = np.random.default_rng(4)
        m = DistMult(cfg(d_e=6), 5, 2, rng)
        s_ht = scores(m, 1, 0)[3]
        s_th = scores(m, 3, 0)[1]
        np.testing.assert_allclose(s_ht, s_th, rtol=1e-6)


# Every model kind, PatReFormer under each way of building its parameters:
# a drawn frozen or trainable basis, a drawn projection with a fixed position
# table, and folding with trainable position encodings.
CONTRACT_MODELS = {
    "patreformer-frozen": ("patreformer", {}),
    "patreformer-trainable": ("patreformer", {"segmentation": "trainable"}),
    "patreformer-none": ("patreformer", {"segmentation": "none", "pe": "sinusoidal"}),
    "patreformer-folding": ("patreformer", {"pe": "trainable", "p1": 0.3,
                                            "p2": 0.3, "p3": 0.3}),
    "transe": ("transe", {}),
    "distmult": ("distmult", {}),
}


def contract_model(name, rng):
    kind, over = CONTRACT_MODELS[name]
    config = cfg(**{"d_e": 4, "d_r": 6, "segmentation": "frozen", **over})
    return build_model(kind, config, 5, 7, rng)


class TestCommon:
    """What every kind shares through ``params.Model``, and the baselines'
    tables."""

    @pytest.mark.parametrize("name", CONTRACT_MODELS)
    @pytest.mark.parametrize("stream", [False, True])
    def test_score_all_is_the_fusion_of_the_gathered_rows(self, name, stream):
        m = contract_model(name, np.random.default_rng(5))
        ents, rels = np.array([0, 4, 4, 2]), np.array([6, 2, 0, 6])
        e = Tensor(m.params["entity.embedding"].data[ents])
        r = Tensor(m.params["relation.embedding"].data[rels])
        drop = (lambda: np.random.default_rng(8)) if stream else (lambda: None)
        got = m.score_all(ents, rels, drop()).data
        want = m.score_from_embeddings(e, r, drop()).data
        assert got.shape == (4, 5)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", CONTRACT_MODELS)
    def test_no_stream_scores_equal_no_grad_scores(self, name):
        # Without a dropout stream, scores on the tape are the inference
        # scores, dropout rates above zero included.
        m = contract_model(name, np.random.default_rng(5))
        ents, rels = np.array([0, 4, 4, 2]), np.array([6, 2, 0, 6])
        got = m.score_all(ents, rels)
        with no_grad():
            want = m.score_all(ents, rels)
        assert got.requires_grad and not want.requires_grad
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("name", CONTRACT_MODELS)
    def test_skeleton_is_the_seeded_model_with_draws_zeroed(self, name):
        # A parameter that two seeds draw differently came from the init
        # stream: the skeleton holds zeros there, and the fixed value elsewhere.
        a, b = (contract_model(name, np.random.default_rng(s)) for s in (1, 2))
        blank = contract_model(name, None)
        assert ([n for n, _ in blank.params.items()]
                == [n for n, _ in a.params.items()])
        drawn = 0
        for param, t in a.params.items():
            want = t.data
            if not np.array_equal(want, b.params[param].data):
                want, drawn = np.zeros_like(want), drawn + 1
            np.testing.assert_array_equal(blank.params[param].data, want,
                                          strict=True)
            assert blank.params[param].requires_grad == t.requires_grad, param
        assert drawn >= 2    # the embedding tables at least

    @pytest.mark.parametrize("cls", [TransE, DistMult])
    def test_skeleton_and_tables(self, cls):
        m = cls(cfg(d_e=4), 5, 6, None)
        assert m.params["entity.embedding"].shape == (5, 4)
        assert m.params["relation.embedding"].shape == (6, 4)
        assert np.all(m.params["entity.embedding"].data == 0)

    @pytest.mark.parametrize("cls", [TransE, DistMult])
    def test_scores_are_oracle_logits(self, cls):
        m = cls(cfg(d_e=4), 5, 6, np.random.default_rng(5))
        ents, rels = np.array([0, 4]), np.array([5, 2])
        E = m.params["entity.embedding"].data.astype(np.float64)
        R = m.params["relation.embedding"].data.astype(np.float64)
        if cls is TransE:
            q = E[ents] + R[rels]
            want = 12.0 - np.abs(q[:, None, :] - E[None]).sum(axis=-1)
        else:
            want = (E[ents] * R[rels]) @ E.T
        got = m.score_all(ents, rels).data
        assert got.shape == (2, 5)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
