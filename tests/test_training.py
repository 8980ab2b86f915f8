import numpy as np
import pytest

from pkge.errors import (CheckpointError, ConfigError, NumericError,
                         VocabMismatchError)
from pkge.kg import build_store
from pkge.model import ModelConfig, PatReFormer
from pkge.params import ParamStore
from pkge.tensor import Tensor
from pkge import training
from pkge.evaluation import evaluate
from pkge.training import (Adam, TrainConfig, bce_smoothed_loss, check_vocab,
                           load_checkpoint, restore_model, run_experiment,
                           save_checkpoint, seed_streams, smooth_targets,
                           train_model)


def tiny_model(seed=0, n_ent=6, n_rel2=8, **over):
    base = dict(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                p1=0.0, p2=0.0, p3=0.0)
    base.update(over)
    cfg = ModelConfig(**base)
    return PatReFormer(cfg, n_ent, n_rel2, np.random.default_rng(seed))


class TestSeedStreams:
    def test_streams_are_independent_and_reproducible(self):
        a = seed_streams(3)
        b = seed_streams(3)
        assert set(a) == {"init", "data", "dropout"}
        for name in a:
            assert a[name].random() == b[name].random()
        fresh = seed_streams(3)
        draws = {name: fresh[name].random() for name in fresh}
        assert len(set(draws.values())) == 3


class TestTrainConfig:
    def test_validation(self):
        for bad in (dict(lr=0.0), dict(epochs=0), dict(label_smoothing=0.5),
                    dict(label_smoothing=-0.01), dict(eval_batch=0)):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_dict_roundtrip(self):
        cfg = TrainConfig(lr=0.01, epochs=7)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"momentum": 0.9})


class TestSmoothedLoss:
    def test_targets_take_exact_float32_values(self):
        y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        out = smooth_targets(y, 0.1).data
        assert out.dtype == np.float32
        assert set(np.unique(out)) == {np.float32(0.1), np.float32(0.9)}
        plain = smooth_targets(y, 0.0).data
        assert set(np.unique(plain)) == {np.float32(0.0), np.float32(1.0)}

    def test_hand_value_no_smoothing(self):
        scores = Tensor(np.array([[0.9, 0.1]], dtype=np.float32))
        targets = np.array([[1.0, 0.0]])
        loss = bce_smoothed_loss(scores, targets, 0.0)
        assert loss.item() == pytest.approx(-np.log(0.9), rel=1e-5)

    def test_hand_value_with_smoothing(self):
        scores = Tensor(np.array([[0.9, 0.1]], dtype=np.float32))
        targets = np.array([[1.0, 0.0]])
        loss = bce_smoothed_loss(scores, targets, 0.1)
        want = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        assert loss.item() == pytest.approx(want, rel=1e-5)

    def test_saturated_scores_stay_finite(self):
        scores = Tensor(np.array([[0.0, 1.0]], dtype=np.float32))
        loss = bce_smoothed_loss(scores, np.array([[1.0, 0.0]]), 0.0)
        assert np.isfinite(loss.item())
        # terms are -log of the float32 clamp bounds
        lo = np.float32(1e-7)
        hi = np.float32(1.0) - np.float32(1.0 - 1e-7)
        want = -(np.log(lo) + np.log(hi)) / 2.0
        assert loss.item() == pytest.approx(want, rel=1e-5)

    def test_mean_over_all_cells(self):
        scores = Tensor(np.full((2, 4), 0.5, dtype=np.float32))
        loss = bce_smoothed_loss(scores, np.zeros((2, 4)), 0.0)
        assert loss.item() == pytest.approx(-np.log(0.5), rel=1e-5)


class TestParamStore:
    def test_add_and_flags(self):
        store = ParamStore()
        store.add("w", np.ones((2, 2), dtype=np.float32))
        store.add("frozen", np.ones(3, dtype=np.float32), trainable=False)
        assert store["w"].requires_grad
        assert not store["frozen"].requires_grad
        assert [n for n, _ in store.trainable_items()] == ["w"]
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(1, dtype=np.float32))

    def test_load_arrays_validates_names_and_shapes(self):
        store = ParamStore()
        store.add("w", np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ConfigError):
            store.load_arrays({})
        with pytest.raises(ConfigError):
            store.load_arrays({"w": np.ones((2, 2), dtype=np.float32),
                               "extra": np.ones(1, dtype=np.float32)})
        with pytest.raises(ConfigError):
            store.load_arrays({"w": np.ones((4,), dtype=np.float32)})
        store.load_arrays({"w": np.full((2, 2), 7.0, dtype=np.float32)})
        assert np.all(store["w"].data == 7.0)

    def test_zero_grad(self):
        store = ParamStore()
        store.add("w", np.ones(2, dtype=np.float32))
        store["w"].grad = np.ones(2, dtype=np.float32)
        store.zero_grad()
        assert store["w"].grad is None


class TestAdam:
    def one_param_store(self, value):
        store = ParamStore()
        store.add("x", np.array(value, dtype=np.float32))
        return store

    def test_first_step_magnitude(self):
        store = self.one_param_store([1.0, -2.0])
        adam = Adam(store, lr=0.1)
        store["x"].grad = np.array([1.0, -1.0], dtype=np.float32)
        adam.step()
        # bias-corrected m-hat = g, v-hat = g*g, so the first update is
        # lr * sign(g) / (1 + eps)
        delta = 0.1 / (1.0 + 1e-8)
        np.testing.assert_allclose(store["x"].data, [1.0 - delta, -2.0 + delta],
                                   rtol=1e-6)

    def test_trajectory_matches_reference_implementation(self):
        store = self.one_param_store([3.0, -1.5, 0.5])
        adam = Adam(store, lr=0.05)
        x = np.array([3.0, -1.5, 0.5], dtype=np.float64)
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 11):
            g = x.copy()   # gradient of 0.5*sum(x^2)
            store["x"].grad = store["x"].data.copy()
            adam.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            x = x - np.float32(0.05) * mh / (np.sqrt(vh) + 1e-8)
            np.testing.assert_allclose(store["x"].data, x, rtol=1e-5)

    def test_frozen_params_never_move(self):
        store = ParamStore()
        store.add("w", np.ones(2, dtype=np.float32))
        store.add("locked", np.ones(2, dtype=np.float32), trainable=False)
        adam = Adam(store, lr=0.5)
        assert "locked" not in adam.m
        store["w"].grad = np.ones(2, dtype=np.float32)
        store["locked"].grad = np.ones(2, dtype=np.float32)  # even if set
        adam.step()
        assert np.all(store["locked"].data == 1.0)
        assert not np.all(store["w"].data == 1.0)

    def test_missing_grad_is_skipped(self):
        store = self.one_param_store([1.0])
        adam = Adam(store, lr=0.5)
        adam.step()
        assert np.all(store["x"].data == 1.0)

    def test_nonfinite_grad_raises_with_name(self):
        store = self.one_param_store([1.0])
        adam = Adam(store, lr=0.5)
        store["x"].grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(NumericError, match="'x'"):
            adam.step()


class TestCheckpointRoundtrip:
    def test_parameters_and_flags_survive(self, tmp_path):
        model = tiny_model(seed=1)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        restored, ck = restore_model(path)
        assert restored.kind == "patreformer"
        assert restored.config == model.config
        assert restored.n_entities == model.n_entities
        for name, t in model.params.items():
            got = restored.params[name]
            assert np.array_equal(got.data, t.data)
            assert got.requires_grad == t.requires_grad
        assert ck["optimizer"] is None

    def test_optimizer_state_roundtrip(self, tmp_path):
        model = tiny_model(seed=2)
        adam = Adam(model.params, lr=0.01)
        scores = model.score_all([0, 1], [2, 3], training=True,
                                 rng=np.random.default_rng(0))
        loss = bce_smoothed_loss(scores, np.zeros((2, 6)), 0.1)
        model.params.zero_grad()
        loss.backward()
        adam.step()
        path = str(tmp_path / "with_opt.ckpt")
        save_checkpoint(path, model, optimizer=adam)

        restored, ck = restore_model(path)
        fresh = Adam(restored.params, lr=0.01)
        fresh.load_state(ck["optimizer"]["step"], ck["optimizer"]["arrays"])
        assert fresh.step_count == 1
        for name in adam.m:
            np.testing.assert_array_equal(fresh.m[name], adam.m[name])
            np.testing.assert_array_equal(fresh.v[name], adam.v[name])

    def test_vocab_check(self, tmp_path):
        model = tiny_model(seed=3, n_ent=5, n_rel2=4)
        store = build_store([("a", "r", "b"), ("c", "r", "d"), ("e", "r", "a")],
                            [], [])
        assert store.num_entities == 5 and store.num_relations_with_reverse == 2
        with pytest.raises(VocabMismatchError):
            check_vocab(model, store)


class TestAtomicCheckpoint:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model = tiny_model(seed=5)
        path = str(tmp_path / "best.ckpt")
        save_checkpoint(path, model)
        saved = {name: t.data.copy() for name, t in model.params.items()}

        def failing_crc32(data):
            raise OSError("disk full")

        # the second save dies after the header and payload are written
        monkeypatch.setattr(training.zlib, "crc32", failing_crc32)
        model.params["entity.embedding"].data = (
            model.params["entity.embedding"].data + 1.0)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        monkeypatch.undo()

        restored, _ = restore_model(path)
        for name, arr in saved.items():
            assert np.array_equal(restored.params[name].data, arr)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]


class TestCheckpointValidation:
    @pytest.fixture
    def ckpt(self, tmp_path):
        model = tiny_model(seed=4)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_bad_magic(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[:4] = b"ELF\x7f"
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(ckpt)

    def test_unsupported_version(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[4:8] = np.uint32(99).tobytes()
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(ckpt)

    def test_flipped_payload_bit_fails_checksum(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[-20] ^= 0x01   # inside the payload, ahead of the trailing CRC
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(ckpt)

    def test_truncation(self, ckpt):
        blob = open(ckpt, "rb").read()
        open(ckpt, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)

    def test_corrupt_header_json(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[14] = 0xFF   # stomp the JSON header
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)


class TestTrainLoop:
    @pytest.fixture
    def train_setup(self, memo_store):
        mcfg = dict(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                    p1=0.0, p2=0.0, p3=0.0, segmentation="folding")
        tcfg = TrainConfig(lr=0.01, batch_size=64, epochs=5, eval_every=2,
                           seed=1, eval_batch=256)
        return memo_store, mcfg, tcfg

    def run(self, store, mcfg, tcfg, out_dir=None):
        model = PatReFormer(ModelConfig(**mcfg), store.num_entities,
                            store.num_relations_with_reverse,
                            seed_streams(tcfg.seed)["init"])
        return model, train_model(store, model, tcfg, out_dir=out_dir)

    def test_history_shape_and_eval_schedule(self, train_setup, tmp_path):
        store, mcfg, tcfg = train_setup
        _, result = self.run(store, mcfg, tcfg, out_dir=str(tmp_path))
        assert len(result.history) == 5
        evals = [mrr for _, _, mrr in result.history]
        assert evals[0] is None and evals[2] is None      # epochs 1, 3
        assert all(evals[i] is not None for i in (1, 3, 4))
        assert result.best_epoch in (2, 4, 5)
        assert 0.0 <= result.best_valid_mrr <= 1.0

    def test_loss_goes_down(self, train_setup):
        store, mcfg, tcfg = train_setup
        _, result = self.run(store, mcfg, tcfg)
        losses = [loss for _, loss, _ in result.history]
        assert losses[-1] < losses[0]

    def test_outputs_written(self, train_setup, tmp_path):
        store, mcfg, tcfg = train_setup
        _, result = self.run(store, mcfg, tcfg, out_dir=str(tmp_path))
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,valid_mrr"
        assert len(log) == 6
        assert log[1].endswith(",")          # epoch 1: no validation column
        restored, _ = restore_model(result.checkpoint_path)
        check_vocab(restored, store)

    def test_same_seed_reproduces_exactly(self, train_setup):
        store, mcfg, tcfg = train_setup
        _, a = self.run(store, mcfg, tcfg)
        _, b = self.run(store, mcfg, tcfg)
        assert a.history == b.history

    def test_seed_changes_trajectory(self, train_setup):
        store, mcfg, tcfg = train_setup
        _, a = self.run(store, mcfg, tcfg)
        other = TrainConfig(**{**tcfg.to_dict(), "seed": 2})
        _, b = self.run(store, mcfg, other)
        assert a.history != b.history


class TestRunExperiment:
    def test_tests_the_checkpointed_best_model(self, memo_store, tmp_path):
        # this run peaks on validation before its last epoch, so the best
        # parameters are not the final ones
        mcfg = ModelConfig(d_e=16, d_r=16, d=4, heads=2, layers=1, d_f=16)
        tcfg = TrainConfig(lr=0.1, epochs=8, eval_every=2, seed=2)
        result, report = run_experiment(memo_store, "patreformer", mcfg, tcfg,
                                        out_dir=str(tmp_path))
        assert result.best_epoch < tcfg.epochs
        restored, _ = restore_model(result.checkpoint_path)
        for name, arr in result.best_params.items():
            assert np.array_equal(restored.params[name].data, arr)
        again = evaluate(memo_store, restored, "test",
                         batch_size=tcfg.eval_batch)
        assert np.array_equal(report.ranks, again.ranks)
