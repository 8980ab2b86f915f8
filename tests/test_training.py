import zlib

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
                           restore_model, run_experiment, save_checkpoint,
                           seed_streams, train_model)


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
                    dict(label_smoothing=-0.01)):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)


def reference_bce(z, y):
    """-mean(y·log σ(z) + (1-y)·log(1-σ(z))) and its gradient, in float64."""
    z, y = np.asarray(z, dtype=np.float64), np.asarray(y, dtype=np.float64)
    sig = 1.0 / (1.0 + np.exp(-z))
    loss = -np.mean(y * np.log(sig) + (1.0 - y) * np.log(1.0 - sig))
    return loss, (sig - y) / z.size


def dense_bce(z, targets, label_smoothing):
    """The loss against a dense [B, N] target, op for op as the package
    computed it before the answers became (row, answer) pairs: {0,1}
    ``targets`` smoothed in float32 to y = t·(1-eps) + (1-t)·eps, cells
    max(z, 0) + log1p(exp(-|z|)) - y·z summed in float64, and the gradient
    (sigmoid(z) - y) · (1 / count). Returns the loss and gradient arrays."""
    x = np.asarray(z)
    t = np.asarray(targets, dtype=np.float32)
    hi, lo = np.float32(1.0 - label_smoothing), np.float32(label_smoothing)
    y = np.asarray(t * hi + (1 - t) * lo, dtype=x.dtype)
    e = np.exp(-np.abs(x))
    cells = np.maximum(x, 0) + np.log1p(e) - y * x
    loss = np.asarray(cells.sum(dtype=np.float64) / x.size, dtype=x.dtype)
    sig = np.maximum(e, (x >= 0).astype(x.dtype)) / (1.0 + e)
    return loss, (sig - y) * (np.ones((), dtype=x.dtype) / x.size)


def answer_grid(rng, n_rows=7, n_cols=40):
    """{0,1} targets whose rows hold 0, 1, many, all and random answers."""
    t = np.zeros((n_rows, n_cols), dtype=np.float32)
    t[1, 17] = 1.0                                          # one answer
    t[2, rng.choice(n_cols, 23, replace=False)] = 1.0       # many
    t[3] = 1.0                                              # every entity
    t[4:] = rng.random((n_rows - 4, n_cols)) < 0.2          # row 0 has none
    return t


class TestSmoothedLoss:
    def test_targets_take_exact_float32_values(self, monkeypatch):
        seen = []
        real = training.bce_with_logits

        def spy(z, answers, lo, hi):
            seen.append((lo, hi))
            return real(z, answers, lo, hi)

        monkeypatch.setattr(training, "bce_with_logits", spy)
        answers = (np.array([0, 0, 1]), np.array([0, 2, 1]))
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        bce_smoothed_loss(logits, answers, 0.1)
        bce_smoothed_loss(logits, answers, 0.0)
        (lo, hi), plain = seen
        assert type(lo) is np.float32 and type(hi) is np.float32
        assert (lo, hi) == (np.float32(0.1), np.float32(0.9))
        assert all(type(v) is np.float32 for v in plain)
        assert plain == (np.float32(0.0), np.float32(1.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_pairs_match_the_dense_target_bit_for_bit(self, dtype, smoothing):
        rng = np.random.default_rng(11)
        targets = answer_grid(rng)
        z = rng.uniform(-20.0, 20.0, size=targets.shape).astype(dtype)
        z[0, :3] = [0.0, -0.0, 80.0]
        want_loss, want_grad = dense_bce(z, targets, smoothing)
        logits = Tensor(z, requires_grad=True)
        loss = bce_smoothed_loss(logits, np.nonzero(targets), smoothing)
        loss.backward()
        assert loss.data.dtype == logits.grad.dtype == dtype
        assert loss.data.tobytes() == want_loss.tobytes()
        assert logits.grad.tobytes() == want_grad.tobytes()
        # The mean can hide a cell's last bits; a one-cell loss is that cell.
        for i, j in np.ndindex(z.shape):
            cell = (slice(i, i + 1), slice(j, j + 1))
            one = bce_smoothed_loss(Tensor(z[cell]), np.nonzero(targets[cell]),
                                    smoothing)
            want_one, _ = dense_bce(z[cell], targets[cell], smoothing)
            assert one.data.tobytes() == want_one.tobytes(), (i, j)

    def test_hand_value_no_smoothing(self):
        # sigmoid(ln 9) = 0.9 and sigmoid(-ln 9) = 0.1
        logits = Tensor(np.array([[np.log(9.0), -np.log(9.0)]], dtype=np.float32))
        loss = bce_smoothed_loss(logits, ([0], [0]), 0.0)
        assert loss.item() == pytest.approx(-np.log(0.9), rel=1e-6)

    def test_hand_value_with_smoothing(self):
        logits = Tensor(np.array([[np.log(9.0), -np.log(9.0)]], dtype=np.float32))
        loss = bce_smoothed_loss(logits, ([0], [0]), 0.1)
        want = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        assert loss.item() == pytest.approx(want, rel=1e-6)

    def test_saturated_scores_stay_finite(self):
        # confidently wrong in row 0, confidently right in row 1
        z = np.array([[-100.0, 100.0], [100.0, -100.0]], dtype=np.float32)
        targets = np.array([[1.0, 0.0], [1.0, 0.0]])
        logits = Tensor(z, requires_grad=True)
        loss = bce_smoothed_loss(logits, np.nonzero(targets), 0.0)
        loss.backward()
        softplus = np.logaddexp(0.0, z.astype(np.float64)) - targets * z
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(softplus.mean(), rel=1e-6)
        # the wrong cells still learn, at the full rate (sigmoid - y) / count
        np.testing.assert_allclose(logits.grad[0], [-0.25, 0.25], rtol=1e-6)
        np.testing.assert_allclose(logits.grad[1], [0.0, 0.0], atol=1e-30)

    def test_mean_over_all_cells(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = bce_smoothed_loss(logits, np.nonzero(np.zeros((2, 4))), 0.0)
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_matches_float64_reference(self, smoothing):
        rng = np.random.default_rng(7)
        z = rng.uniform(-15.0, 15.0, size=(6, 40))
        targets = (rng.random((6, 40)) < 0.2).astype(np.float32)
        y = np.where(targets > 0, np.float32(1.0 - smoothing),
                     np.float32(smoothing))
        want_loss, want_grad = reference_bce(z, y)
        logits = Tensor(z, requires_grad=True)
        loss = bce_smoothed_loss(logits, np.nonzero(targets), smoothing)
        loss.backward()
        assert loss.item() == pytest.approx(want_loss, rel=1e-6)
        np.testing.assert_allclose(logits.grad, want_grad, rtol=1e-6, atol=1e-15)
        # float32 logits give the same loss to float32 accuracy
        loss32 = bce_smoothed_loss(Tensor(z.astype(np.float32)),
                                   np.nonzero(targets), smoothing)
        assert loss32.item() == pytest.approx(want_loss, rel=1e-6)


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

    def test_header_holds_the_five_fields_and_no_offsets_or_flags(
            self, tmp_path):
        model = tiny_model(seed=2, segmentation="trainable", pe="sinusoidal")
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        header = restore_model(path)[1]
        assert training.CHECKPOINT_VERSION == 2
        assert sorted(header) == sorted(training.HEADER_FIELDS)
        assert header["tensors"] == [[name, list(t.shape)]
                                     for name, t in model.params.items()]
        blob = open(path, "rb").read()
        assert int.from_bytes(blob[4:8], "little") == 2
        assert zlib.crc32(blob[:-4]) == int.from_bytes(blob[-4:], "little")

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

    def test_failed_open_leaves_the_tmp_path_alone(self, tmp_path):
        # A directory where the temporary file goes: the open's error is the
        # one raised, with no cleanup error over it, and the directory stays.
        (tmp_path / "best.ckpt.tmp").mkdir()
        with pytest.raises(IsADirectoryError) as err:
            save_checkpoint(str(tmp_path / "best.ckpt"), tiny_model(seed=5))
        assert err.value.__context__ is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt.tmp"]
        assert (tmp_path / "best.ckpt.tmp").is_dir()


class TestCheckpointValidation:
    @pytest.fixture
    def ckpt(self, tmp_path):
        model = tiny_model(seed=4)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            restore_model(str(tmp_path / "nope.ckpt"))

    def test_bad_magic(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[:4] = b"ELF\x7f"
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            restore_model(ckpt)

    def test_unsupported_version(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[4:8] = np.uint32(99).tobytes()
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            restore_model(ckpt)

    def test_flipped_payload_bit_fails_checksum(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[-20] ^= 0x01   # inside the payload, ahead of the trailing CRC
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            restore_model(ckpt)

    def test_truncation(self, ckpt):
        blob = open(ckpt, "rb").read()
        open(ckpt, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            restore_model(ckpt)

    def test_corrupt_header_json(self, ckpt, rewrite_checkpoint):
        # stomp the JSON header with a byte that is not UTF-8
        rewrite_checkpoint(ckpt, edit_body=lambda b: b[:14] + b"\xff" + b[15:])
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            restore_model(ckpt)

    def test_header_nested_past_the_recursion_limit(self, ckpt,
                                                    rewrite_checkpoint):
        head = b"[" * 100_000
        rewrite_checkpoint(ckpt, edit_body=lambda b: (
            b[:8] + len(head).to_bytes(4, "little") + head))
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            restore_model(ckpt)

    def test_header_length_past_the_end(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[8:12] = np.uint32(len(blob)).tobytes()
        open(ckpt, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            restore_model(ckpt)

    def test_header_not_an_object(self, ckpt, rewrite_checkpoint):
        rewrite_checkpoint(ckpt, lambda h: [h])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            restore_model(ckpt)

    @pytest.mark.parametrize("key", ["model", "config", "n_entities",
                                     "n_relations", "tensors"])
    def test_header_missing_field(self, ckpt, rewrite_checkpoint, key):
        rewrite_checkpoint(ckpt, lambda h: {k: v for k, v in h.items()
                                            if k != key})
        with pytest.raises(CheckpointError, match=f"missing field '{key}'"):
            restore_model(ckpt)

    @pytest.mark.parametrize("value", [None, {"step": 1, "tensors": []}])
    def test_header_extra_field(self, ckpt, rewrite_checkpoint, value):
        # the optimizer entry earlier writers added
        rewrite_checkpoint(ckpt, lambda h: h.update(optimizer=value))
        with pytest.raises(CheckpointError,
                           match=r"unknown header fields \['optimizer'\]"):
            restore_model(ckpt)

    def test_tensor_past_the_payload(self, ckpt, rewrite_checkpoint):
        rewrite_checkpoint(ckpt, edit_body=lambda b: b[:-4])
        with pytest.raises(CheckpointError, match="payload holds"):
            restore_model(ckpt)

    def test_tensor_listed_twice(self, ckpt, rewrite_checkpoint):
        rewrite_checkpoint(ckpt, lambda h: h["tensors"].append(h["tensors"][0]))
        with pytest.raises(CheckpointError, match="tensor list"):
            restore_model(ckpt)

    def test_trainable_flag_mismatch(self, ckpt, rewrite_checkpoint):
        # the frozen basis saved as trainable: the config alone sets the
        # flags, so any flag in the file is refused
        def edit(header):
            for entry in header["tensors"]:
                if entry[0] == "seg.entity.basis":
                    entry.append(True)
        rewrite_checkpoint(ckpt, edit)
        with pytest.raises(CheckpointError, match="tensor list"):
            restore_model(ckpt)


# This run peaks on validation before its last epoch, so the best
# parameters are not the final ones.
PEAKS_EARLY = (ModelConfig(d_e=16, d_r=16, d=4, heads=2, layers=1, d_f=16),
               TrainConfig(lr=0.1, epochs=8, eval_every=2, seed=2))


class TestTrainLoop:
    @pytest.fixture
    def train_setup(self, memo_store):
        mcfg = dict(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                    p1=0.0, p2=0.0, p3=0.0, segmentation="folding")
        tcfg = TrainConfig(lr=0.01, batch_size=64, epochs=5, eval_every=2,
                           seed=1)
        return memo_store, mcfg, tcfg

    def run(self, store, mcfg, tcfg, out_dir=None, progress=None):
        model = PatReFormer(ModelConfig(**mcfg), store.num_entities,
                            store.num_relations_with_reverse,
                            seed_streams(tcfg.seed)["init"])
        return model, train_model(store, model, tcfg, out_dir=out_dir,
                                  progress=progress)

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

    def test_log_keeps_the_epochs_before_a_crash(self, train_setup, tmp_path):
        store, mcfg, tcfg = train_setup

        def crash_at_epoch_3(epoch, loss, mrr):
            if epoch == 3:
                raise RuntimeError("crash")

        with pytest.raises(RuntimeError):
            self.run(store, mcfg, tcfg, out_dir=str(tmp_path / "crashed"),
                     progress=crash_at_epoch_3)
        self.run(store, mcfg, tcfg, out_dir=str(tmp_path / "full"))
        crashed = (tmp_path / "crashed" / "train_log.csv").read_bytes()
        full = (tmp_path / "full" / "train_log.csv").read_bytes()
        assert crashed.decode().splitlines()[0] == "epoch,loss,valid_mrr"
        assert len(crashed.splitlines()) == 4        # header and epochs 1-3
        assert full.startswith(crashed)

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

    def test_leaves_the_model_at_its_best_validation_parameters(
            self, memo_store, tmp_path):
        mcfg, tcfg = PEAKS_EARLY
        model = PatReFormer(mcfg, memo_store.num_entities,
                            memo_store.num_relations_with_reverse,
                            seed_streams(tcfg.seed)["init"])
        result = train_model(memo_store, model, tcfg, out_dir=str(tmp_path))
        assert result.best_epoch < tcfg.epochs
        restored, _ = restore_model(result.checkpoint_path)
        assert ([n for n, _ in restored.params.items()]
                == [n for n, _ in model.params.items()])
        for name, t in model.params.items():
            assert np.array_equal(t.data, restored.params[name].data), name
        assert evaluate(memo_store, model, "valid").mrr == result.best_valid_mrr


class TestRunExperiment:
    def test_tests_the_checkpointed_best_model(self, memo_store, tmp_path):
        mcfg, tcfg = PEAKS_EARLY
        result, report = run_experiment(memo_store, "patreformer", mcfg, tcfg,
                                        out_dir=str(tmp_path))
        assert result.best_epoch < tcfg.epochs
        restored, _ = restore_model(result.checkpoint_path)
        again = evaluate(memo_store, restored, "test")
        assert np.array_equal(report.ranks, again.ranks)
