import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pkge
from pkge import cli, kg
from pkge.baselines import DistMult, TransE
from pkge.cli import (_add_config_flags, _parser, format_run_config, main,
                      parse_config_file, resolve_run_config)
from pkge.errors import CheckpointError, ConfigError
from pkge.evaluation import evaluate, write_report_csv
from pkge.kg import SPLIT_FILES, load_dataset
from pkge.model import CHOICES, ModelConfig, PatReFormer
from pkge.synth import write_dataset
from pkge.training import TrainConfig, restore_model, save_checkpoint

TINY_MODEL = [
    "--d-e", "8", "--d-r", "8", "--d", "4", "--heads", "2", "--layers", "1",
    "--d-f", "8", "--p1", "0", "--p2", "0", "--p3", "0",
    "--segmentation", "folding",
]

def schedule(epochs):
    return ["--lr", "0.01", "--batch-size", "128", "--epochs", str(epochs),
            "--eval-every", "1"]


@pytest.fixture
def memo_dir(data_dir):
    return os.path.join(data_dir, "memo30")


@pytest.fixture
def blocks_dir(data_dir):
    return os.path.join(data_dir, "blocks135")


def copy_dataset(src, dst, **replace_files):
    """Copy a dataset directory, overwriting the named split files
    (``valid=b""`` empties valid.txt)."""
    shutil.copytree(src, dst)
    for split, content in replace_files.items():
        with open(os.path.join(dst, f"{split}.txt"), "wb") as fh:
            fh.write(content)
    return str(dst)


def tiny_memo_model(seed=0):
    cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                      p1=0.0, p2=0.0, p3=0.0, segmentation="folding")
    return PatReFormer(cfg, 30, 8, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory the generated-input tests overwrite one file in."""
    return tmp_path_factory.mktemp("scratch")


class TestConfigFile:
    def test_parse_comments_and_spacing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment line\n\nlr = 0.5\nd=25   # trailing\n")
        assert parse_config_file(str(p)) == {"lr": "0.5", "d": "25"}

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(str(tmp_path / "missing.cfg"))
        p = tmp_path / "bad.cfg"
        p.write_text("no equals sign\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(str(p))

    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr=0.5\nd=25\nmodel=distmult\n")
        args = _parser().parse_args(
            ["train", "--data", "x", "--out", "y",
             "--config", str(p), "--lr", "0.25"])
        kind, model_cfg, train_cfg = resolve_run_config(args)
        assert kind == "distmult"            # from file
        assert train_cfg.lr == 0.25          # flag beats file
        assert model_cfg.d == 25             # file beats default
        assert model_cfg.d_e == 100          # untouched default

    def test_unknown_key_and_bad_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("momentum=0.9\n")
        args = _parser().parse_args(
            ["train", "--data", "x", "--out", "y", "--config", str(p)])
        with pytest.raises(ConfigError, match="momentum"):
            resolve_run_config(args)
        p.write_text("epochs=ten\n")
        with pytest.raises(ConfigError, match="epochs"):
            resolve_run_config(args)

    # Lines: an option at its default or one of its choices, or any key
    # (every option, the model, the options earlier versions had, other
    # text) with any value (numbers, choices, other text).
    VALID = st.sampled_from(
        [(k, str(v)) for k, v in {**ModelConfig().to_dict(),
                                  **TrainConfig().to_dict()}.items()]
        + [(k, c) for k, choices in CHOICES.items() for c in choices]
        + [("model", kind) for kind in ("patreformer", "transe", "distmult")])
    KEYS = st.one_of(
        st.sampled_from(["model", *ModelConfig().to_dict(),
                         *TrainConfig().to_dict(), "transe_norm",
                         "transe_gamma", "attn_scale"]),
        st.text(min_size=1, max_size=8))
    VALUES = st.one_of(
        st.integers(-3, 300).map(str), st.floats().map(str),
        st.sampled_from([c for choices in CHOICES.values() for c in choices]
                        + ["patreformer", "transe", "distmult", "l1",
                           "model_dim"]),
        st.text(max_size=8))

    @given(st.lists(st.one_of(VALID, st.tuples(KEYS, VALUES)), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_generated_file_gives_configs_or_a_config_error(
            self, scratch, lines):
        path = scratch / "run.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in lines),
                        encoding="utf-8", errors="surrogatepass")
        args = _parser().parse_args(
            ["train", "--data", "x", "--out", "y", "--config", str(path)])
        removed = {"transe_norm", "transe_gamma", "attn_scale"}
        try:
            kind, model_cfg, train_cfg = resolve_run_config(args)
        except ConfigError:
            return
        assert isinstance(model_cfg, ModelConfig)
        assert isinstance(train_cfg, TrainConfig)
        assert not removed & {k for k, _ in lines}

    def test_echo_format(self):
        args = _parser().parse_args(["train", "--data", "x", "--out", "y"])
        kind, model_cfg, train_cfg = resolve_run_config(args)
        echo = format_run_config(kind, model_cfg, train_cfg)
        lines = echo.splitlines()
        assert lines[0] == "model=patreformer"
        assert "d_e=100" in lines and "lr=0.001" in lines
        assert len(lines) == 1 + 13 + 6   # model + model cfg + train cfg
        # the echo itself round-trips as a config file
        assert echo.endswith("\n")


def deny_open(monkeypatch, module, denied):
    """Make ``module``'s ``open`` raise PermissionError on the path
    ``denied``, as a file without read permission does for a user that
    ``chmod`` binds (root reads past it)."""
    def fake_open(path, *args, **kwargs):
        if os.fspath(path) == os.fspath(denied):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return open(path, *args, **kwargs)
    monkeypatch.setattr(module, "open", fake_open, raising=False)


class TestExitCodes:
    def test_missing_dataset_dir(self, tmp_path, capsys):
        rc = main(["stats", "--data", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_stats_json(self, memo_dir, tmp_path, capsys):
        rc = main(["stats", "--data", memo_dir,
                   "--json", str(tmp_path / "missing" / "stats.json")])
        assert rc == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("command, blocked", [
        ("train", "best.ckpt.tmp"), ("eval", "eval_test.csv"),
        ("ablate", "ablation.csv"), ("sweep-dim", "sweep.csv")])
    def test_unwritable_output_file(self, memo_dir, tmp_path, capsys, command,
                                    blocked):
        # A directory where the command writes its file; ablate and
        # sweep-dim reach the write only after all their training.
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_memo_model())
        argv = {
            "train": ["--out", str(out)] + TINY_MODEL + schedule(1),
            "eval": ["--checkpoint", ckpt, "--out", str(out)],
            "ablate": ["--variant", "sep-self-attn", "--out", str(out)]
                      + TINY_MODEL + schedule(1),
            "sweep-dim": ["--dims", "4", "--models", "distmult",
                          "--out", str(out)] + SWEEP_MODEL + schedule(1),
        }[command]
        rc = main([command, "--data", memo_dir] + argv)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert blocked in err[0]

    def test_checkpoint_tmp_directory_is_left_in_place(self, memo_dir, tmp_path,
                                                       capsys, monkeypatch):
        # The error line comes from the failed open of best.ckpt.tmp; the
        # cleanup does not try to remove the directory that stands there.
        tmp = tmp_path / "o" / "best.ckpt.tmp"
        tmp.mkdir(parents=True)
        remove, removed = os.remove, []

        def spy(path, *args, **kwargs):
            removed.append(str(path))
            return remove(path, *args, **kwargs)
        monkeypatch.setattr(os, "remove", spy)
        rc = main(["train", "--data", memo_dir, "--out", str(tmp.parent)]
                  + TINY_MODEL + schedule(1))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "Is a directory" in err[0] and str(tmp) in err[0]
        assert str(tmp) not in removed and tmp.is_dir()

    def test_invalid_hyperparameter(self, memo_dir, tmp_path):
        rc = main(["train", "--data", memo_dir, "--out", str(tmp_path),
                   "--d-e", "7"])
        assert rc == 2

    @pytest.mark.parametrize("kind, rc", [("distmult", 0), ("patreformer", 2)])
    def test_patch_grid_checked_for_patreformer_only(self, memo_dir, tmp_path,
                                                     capsys, kind, rc):
        # 64 does not factor into patches of the default size 50; only
        # PatReFormer segments its embeddings
        out = tmp_path / "o"
        assert main(["train", "--data", memo_dir, "--out", str(out),
                     "--model", kind, "--d-e", "64", "--epochs", "1"]) == rc
        if rc:
            assert "does not factor" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [["train", "--d-r", "20"],
                                      ["sweep-dim", "--dims", "20"]])
    def test_embedding_smaller_than_a_patch(self, blocks_dir, tmp_path, capsys,
                                            argv):
        # 20 // 50 gives zero patches; the error names the option's value.
        out = tmp_path / "o"
        assert main(argv[:1] + ["--data", blocks_dir, "--out", str(out)]
                    + argv[1:]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "relation embedding size 20" in err[0]
        assert not out.exists()

    def test_config_file_model_names_no_kind(self, memo_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=rotate\n")
        out = tmp_path / "o"
        rc = main(["train", "--data", memo_dir, "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 2
        assert "'rotate'" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_config_file_model_names_the_kind(self, memo_dir, tmp_path,
                                                     capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=rotate\n")
        out = tmp_path / "o"
        assert main(["ablate", "--data", memo_dir, "--variant", "tpe",
                     "--out", str(out), "--config", str(cfg)]) == 2
        assert "'rotate'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_split_file(self, memo_dir, tmp_path, capsys):
        data = copy_dataset(memo_dir, tmp_path / "d")
        os.remove(os.path.join(data, "valid.txt"))
        assert main(["stats", "--data", data]) == 2
        assert "missing valid.txt" in capsys.readouterr().err

    def test_unreadable_checkpoint(self, memo_dir, tmp_path, capsys):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"this is not a checkpoint")
        rc = main(["eval", "--data", memo_dir, "--checkpoint", str(bad)])
        assert rc == 3
        assert "magic" in capsys.readouterr().err

    def test_vocab_mismatch(self, memo_dir, tmp_path):
        cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8,
                          p1=0.0, p2=0.0, p3=0.0, segmentation="folding")
        model = PatReFormer(cfg, 5, 4, np.random.default_rng(0))
        path = str(tmp_path / "wrong_vocab.ckpt")
        save_checkpoint(path, model)
        rc = main(["eval", "--data", memo_dir, "--checkpoint", path])
        assert rc == 3

    def test_nonfinite_parameters(self, memo_dir, tmp_path, capsys):
        model = tiny_memo_model()
        model.params["entity.embedding"].data[...] = np.inf
        path = str(tmp_path / "inf.ckpt")
        save_checkpoint(path, model)
        rc = main(["eval", "--data", memo_dir, "--checkpoint", path])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["patreformer", "transe", "distmult"])
    def test_nonfinite_parameters_one_error_line(self, memo_dir, tmp_path, kind):
        # A separate process, so numpy's floating-point warnings would reach
        # stderr rather than pytest's warning capture.
        cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8)
        rng = np.random.default_rng(0)
        model = {"patreformer": tiny_memo_model,
                 "transe": lambda: TransE(cfg, 30, 8, rng),
                 "distmult": lambda: DistMult(cfg, 30, 8, rng)}[kind]()
        model.params["entity.embedding"].data[...] = np.inf
        path = str(tmp_path / "inf.ckpt")
        save_checkpoint(path, model)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pkge.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pkge", "eval", "--data", memo_dir,
             "--checkpoint", path],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "entity.embedding" in err[0]

    def test_invalid_utf8_split_file(self, memo_dir, tmp_path, capsys):
        data = copy_dataset(memo_dir, tmp_path / "d",
                            valid=b"e1\tr\xff\te2\n")
        rc = main(["stats", "--data", data])
        assert rc == 3
        assert "valid.txt" in capsys.readouterr().err

    def test_unreadable_split_file(self, memo_dir, monkeypatch, capsys):
        deny_open(monkeypatch, kg, os.path.join(memo_dir, "valid.txt"))
        rc = main(["stats", "--data", memo_dir])
        assert rc == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "valid.txt" in err[0] and "Permission denied" in err[0]
        assert captured.out == ""

    def test_empty_field_in_split_file(self, memo_dir, tmp_path, capsys):
        data = copy_dataset(memo_dir, tmp_path / "d",
                            test=b"e1\tr\te2\n\t\t\n")
        rc = main(["stats", "--data", data])
        assert rc == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "test.txt:2" in err[0] and "test split" in err[0]
        assert captured.out == ""

    def test_edge_whitespace_in_split_file(self, memo_dir, tmp_path, capsys):
        data = copy_dataset(memo_dir, tmp_path / "d",
                            valid=b"e1\tr\te2 \n")
        rc = main(["stats", "--data", data])
        assert rc == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'e2 '" in err[0] and "valid split" in err[0]
        assert captured.out == ""

    def test_eval_batch_config_key(self, memo_dir, tmp_path, capsys):
        # evaluation tiles have one fixed height, which no option sets
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eval_batch=512\n")
        rc = main(["train", "--data", memo_dir, "--out", str(tmp_path / "o"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key 'eval_batch'" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "o"))

    def test_removed_transe_keys_at_their_value_train(self, memo_dir,
                                                      tmp_path, capsys):
        # config.txt files written while TransE and attention had options
        # carry these keys; they are unknown keys now, whatever their value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("transe_norm=l1\ntranse_gamma=12\nattn_scale=model_dim\n")
        out = tmp_path / "o"
        rc = main(["train", "--data", memo_dir, "--out", str(out),
                   "--config", str(cfg), "--model", "transe"]
                  + TINY_MODEL + schedule(1))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: unknown config key 'transe_norm'"]
        assert not out.exists()

    @pytest.mark.parametrize("line", ["transe_norm=l2", "transe_gamma=5.0",
                                      "attn_scale=head_dim"])
    def test_removed_transe_key_at_another_value(self, memo_dir, tmp_path,
                                                 capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(["train", "--data", memo_dir, "--out", str(tmp_path / "o"),
                   "--config", str(cfg), "--model", "transe"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and line.split("=")[0] in err[0]
        assert not os.path.exists(str(tmp_path / "o"))

    def test_invalid_utf8_config_file(self, memo_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"lr=0.1\n\xfe\xff=1\n")
        rc = main(["train", "--data", memo_dir, "--out", str(tmp_path / "o"),
                   "--config", str(cfg)])
        assert rc == 2

    def test_unreadable_config_file(self, memo_dir, tmp_path, monkeypatch,
                                    capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=0.1\n")
        deny_open(monkeypatch, cli, cfg)
        out = tmp_path / "o"
        rc = main(["train", "--data", memo_dir, "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "run.cfg" in err[0] and "Permission denied" in err[0]
        assert captured.out == "" and not out.exists()

    def test_out_is_a_regular_file(self, memo_dir, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["train", "--data", memo_dir, "--out", str(out)]
                  + TINY_MODEL + schedule(1))
        assert rc == 2

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_nonfinite_lr(self, memo_dir, tmp_path, capsys, lr):
        out = tmp_path / "o"
        rc = main(["train", "--data", memo_dir, "--out", str(out)]
                  + TINY_MODEL + schedule(1) + ["--lr", lr])
        assert rc == 2
        captured = capsys.readouterr()
        assert "lr must be finite" in captured.err
        assert not any(line.startswith("epoch ")
                       for line in captured.out.splitlines())
        assert not (out / "config.txt").exists()

    def test_negative_seed(self, memo_dir, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["train", "--data", memo_dir, "--out", str(out)]
                  + TINY_MODEL + schedule(1) + ["--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "seed must be >= 0" in captured.err
        assert not any(line.startswith("epoch ")
                       for line in captured.out.splitlines())
        assert not (out / "config.txt").exists()

    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_categorize_threshold_is_a_usage_error(self, memo_dir, capsys,
                                                   value):
        # the cut is Bordes et al.'s fixed 1.5, not an option
        with pytest.raises(SystemExit) as exc:
            main(["categorize", "--data", memo_dir, "--threshold", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--threshold" in captured.err
        assert "N-N" not in captured.out

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_empty_eval_split_fails_before_training(self, memo_dir, tmp_path,
                                                    capsys, split):
        data = copy_dataset(memo_dir, tmp_path / "d", **{split: b""})
        rc = main(["train", "--data", data, "--out", str(tmp_path / "o"),
                   "--epochs", "20", "--eval-every", "10"] + TINY_MODEL)
        assert rc == 2
        captured = capsys.readouterr()
        assert f"split {split!r} has no triples" in captured.err
        assert not any(line.startswith("epoch ")
                       for line in captured.out.splitlines())
        # the dataset is still fine for commands that do not evaluate
        assert main(["stats", "--data", data]) == 0
        assert main(["categorize", "--data", data, "--split", "train"]) == 0


HEADER_FAULTS = {
    "negative-entities": lambda h: h.update(n_entities=-3),
    "string-entities": lambda h: h.update(n_entities="x"),
    "unknown-model": lambda h: h.update(model="foo"),
    # an entity table of 8e14 floats, more than any address space holds:
    # exit 3, not a MemoryError
    "huge-entities": lambda h: h.update(n_entities=10**14),
    # model config values of the wrong JSON type, each equal to the saved one
    "float-d": lambda h: h["config"].update(d=4.0),
    "float-layers": lambda h: h["config"].update(layers=1.0),
    "float-heads": lambda h: h["config"].update(heads=2.0),
    "bool-layers": lambda h: h["config"].update(layers=True),
}
# Options TransE and attention no longer have, each at a value other than
# the one it once took; the error names the option as an unknown key.
REMOVED_OPTION_FAULTS = {"transe_norm-l2": ("transe_norm", "l2"),
                         "transe_gamma-5.0": ("transe_gamma", 5.0),
                         "attn_scale-head_dim": ("attn_scale", "head_dim")}
HEADER_FAULTS.update({
    fault: lambda h, key=key, value=value: h["config"].update({key: value})
    for fault, (key, value) in REMOVED_OPTION_FAULTS.items()})
# Each top-level field set to each kind of JSON value; string-entities above
# already covers n_entities="x".
JSON_VALUES = {"null": None, "true": True, "1": 1, "-1": -1, "1.5": 1.5,
               "str": "x", "empty-list": [], "list": [1], "empty-object": {},
               "object": {"a": 1}}
HEADER_FAULTS.update({
    f"{key}-{label}": lambda h, key=key, value=value: h.update({key: value})
    for key in ("model", "config", "n_entities", "n_relations", "tensors")
    for label, value in JSON_VALUES.items()
    if (key, label) != ("n_entities", "str")})


def distmult_checkpoint(path):
    cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8)
    save_checkpoint(path, DistMult(cfg, 30, 8, np.random.default_rng(0)))


def eval_error(memo_dir, path, capsys):
    """``pkge eval``'s exit code on ``path`` and its one stderr line."""
    rc = main(["eval", "--data", memo_dir, "--checkpoint", path])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return rc, err[0]


@pytest.mark.parametrize("fault", list(HEADER_FAULTS))
def test_bad_checkpoint_header_exits_3(memo_dir, tmp_path, capsys,
                                       rewrite_checkpoint, fault):
    path = str(tmp_path / "distmult.ckpt")
    distmult_checkpoint(path)
    rewrite_checkpoint(path, HEADER_FAULTS[fault])
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3
    # the header check refused it, not the checksum
    assert "checksum" not in err
    if fault in REMOVED_OPTION_FAULTS:
        assert REMOVED_OPTION_FAULTS[fault][0] in err


def replace_entry(index, entry):
    def edit(header):
        header["tensors"][index] = entry
    return edit


# A tensor list or payload that is not the layout of the model the header's
# config builds (DistMult: entity [30, 8], then relation [8, 8]): (header
# edit, body edit, the error's words).
LAYOUT_FAULTS = {
    "renamed-tensor": (replace_entry(0, ["entity.embeddings", [30, 8]]), None,
                       "tensor list"),
    "changed-shape": (replace_entry(1, ["relation.embedding", [8, 9]]), None,
                      "tensor list"),
    "swapped-order": (lambda h: h["tensors"].reverse(), None, "tensor list"),
    "extra-entry": (lambda h: h["tensors"].append(["extra", [1]]), None,
                    "tensor list"),
    "missing-entry": (lambda h: h.update(tensors=h["tensors"][:-1]), None,
                      "tensor list"),
    "payload-4-bytes-short": (None, lambda b: b[:-4], "payload holds"),
    "payload-4-bytes-long": (None, lambda b: b + bytes(4), "payload holds"),
}


@pytest.mark.parametrize("fault", list(LAYOUT_FAULTS))
def test_checkpoint_layout_fault_exits_3(memo_dir, tmp_path, capsys,
                                         rewrite_checkpoint, fault):
    edit_header, edit_body, words = LAYOUT_FAULTS[fault]
    path = str(tmp_path / "distmult.ckpt")
    distmult_checkpoint(path)
    rewrite_checkpoint(path, edit_header, edit_body)
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3 and words in err


def test_removed_transe_options_at_their_value_restore(memo_dir, tmp_path,
                                                       capsys,
                                                       rewrite_checkpoint):
    # checkpoints written while TransE and attention had options carry
    # these keys; the config has no such fields, so they are refused
    path = str(tmp_path / "distmult.ckpt")
    distmult_checkpoint(path)
    rewrite_checkpoint(path, lambda h: h["config"].update(
        transe_norm="l1", transe_gamma=12.0, attn_scale="model_dim"))
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3
    assert "['attn_scale', 'transe_gamma', 'transe_norm']" in err


def write_version_1(path, model):
    """Write ``model`` as the version-1 format did: each manifest entry with
    its byte offset and trainable flag, and a CRC of the payload alone."""
    entries, chunks, offset = [], [], 0
    for name, t in model.params.items():
        chunks.append(np.asarray(t.data, dtype="<f4").tobytes())
        entries.append({"name": name, "shape": list(t.shape), "offset": offset,
                        "trainable": t.requires_grad})
        offset += len(chunks[-1])
    head = json.dumps({"model": model.kind, "config": model.config.to_dict(),
                       "n_entities": model.n_entities,
                       "n_relations": model.n_relations,
                       "tensors": entries}).encode("utf-8")
    payload = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(b"PKGE" + (1).to_bytes(4, "little")
                 + len(head).to_bytes(4, "little") + head + payload
                 + zlib.crc32(payload).to_bytes(4, "little"))


def test_version_1_checkpoint_exits_3(memo_dir, tmp_path, capsys):
    path = str(tmp_path / "v1.ckpt")
    write_version_1(path, tiny_memo_model())
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3 and "unsupported checkpoint version 1" in err


# Header edits that keep every parameter's name and shape but change the
# model the payload runs in. The CRC covers the header, so a file edited
# without it being recomputed is refused.
SAME_LAYOUT_EDITS = {"update_order": "simultaneous",
                     "attention": "separate_self", "heads": 10}


@pytest.mark.parametrize("key", list(SAME_LAYOUT_EDITS))
def test_header_edit_without_its_crc_exits_3(memo_dir, tmp_path, capsys, key):
    cfg = ModelConfig(d_e=20, d_r=20, d=10, heads=2, layers=1, d_f=8,
                      p1=0.0, p2=0.0, p3=0.0)
    path = str(tmp_path / "patreformer.ckpt")
    save_checkpoint(path, PatReFormer(cfg, 30, 8, np.random.default_rng(0)))
    blob = open(path, "rb").read()
    end = 12 + int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:end])
    header["config"][key] = SAME_LAYOUT_EDITS[key]
    head = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob[:8] + len(head).to_bytes(4, "little") + head + blob[end:])
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3 and "checksum mismatch" in err


# A tensor entry that carries a trainable flag, as version-1 files did, each
# value written on the entries saved with the flag it is truthy or falsy
# like. The config alone sets the flags, so the file is refused.
FLAG_FAULTS = {"str-false": ("false", True), "zero": (0, False),
               "empty-list": ([], False)}


def patreformer_checkpoint_with_flags(path, value, saved, rewrite_checkpoint):
    """A frozen-basis PatReFormer checkpoint whose entries of parameters
    with ``requires_grad`` ``saved`` carry ``value`` as a third element."""
    cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8)
    model = PatReFormer(cfg, 30, 8, np.random.default_rng(0))
    save_checkpoint(path, model)
    names = {name for name, t in model.params.items()
             if t.requires_grad is saved}
    assert names

    def edit(header):
        for entry in header["tensors"]:
            if entry[0] in names:
                entry.append(value)
    rewrite_checkpoint(path, edit)


@pytest.mark.parametrize("fault", list(FLAG_FAULTS))
def test_non_boolean_trainable_flag_exits_3(memo_dir, tmp_path, capsys,
                                            rewrite_checkpoint, fault):
    path = str(tmp_path / "patreformer.ckpt")
    patreformer_checkpoint_with_flags(path, *FLAG_FAULTS[fault],
                                      rewrite_checkpoint)
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3 and "tensor list" in err


def test_absent_trainable_flag_means_trainable(memo_dir, tmp_path):
    # no entry carries a flag; the restored model takes each from its config
    cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8)
    model = PatReFormer(cfg, 30, 8, np.random.default_rng(0))
    path = str(tmp_path / "patreformer.ckpt")
    save_checkpoint(path, model)
    restored, header = restore_model(path)
    assert all(len(entry) == 2 for entry in header["tensors"])
    assert restored.params["entity.embedding"].requires_grad is True
    assert restored.params["seg.entity.basis"].requires_grad is False
    assert ([t.requires_grad for _, t in restored.params.items()]
            == [t.requires_grad for _, t in model.params.items()])
    assert main(["eval", "--data", memo_dir, "--checkpoint", path]) == 0


class TestCheckpointBytes:
    """Every one-byte change and every cut of a small checkpoint is refused:
    the CRC-32 covers each byte before it, and the lengths come first."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ckpt") / "distmult.ckpt")
        distmult_checkpoint(path)
        return open(path, "rb").read()

    @staticmethod
    def changed(blob, pos, value):
        return blob[:pos] + bytes([value]) + blob[pos + 1:]

    def assert_refused(self, path, data):
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(CheckpointError):
            restore_model(path)

    @pytest.mark.parametrize("mask", [0x01, 0xFF])
    def test_every_changed_byte_is_refused(self, blob, tmp_path, mask):
        path = str(tmp_path / "c.ckpt")
        for pos in range(len(blob)):
            self.assert_refused(path, self.changed(blob, pos, blob[pos] ^ mask))

    def test_every_cut_is_refused(self, blob, tmp_path):
        path = str(tmp_path / "c.ckpt")
        for n in range(len(blob)):
            self.assert_refused(path, blob[:n])
        with open(path, "wb") as fh:
            fh.write(blob)
        restore_model(path)     # the whole file reads

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_eval_exits_3_with_one_error_line(self, blob, data_dir,
                                              scratch, data):
        if data.draw(st.booleans(), label="cut"):
            faulty = blob[:data.draw(st.integers(0, len(blob) - 1), label="n")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            value = data.draw(st.integers(0, 255).filter(
                lambda v: v != blob[pos]), label="value")
            faulty = self.changed(blob, pos, value)
        path = scratch / "c.ckpt"
        path.write_bytes(faulty)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["eval", "--data", os.path.join(data_dir, "memo30"),
                       "--checkpoint", str(path)])
        lines = err.getvalue().splitlines()
        assert rc == 3 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_patreformer_checkpoint_off_its_patch_grid_exits_3(memo_dir, tmp_path,
                                                          capsys,
                                                          rewrite_checkpoint):
    path = str(tmp_path / "patreformer.ckpt")
    save_checkpoint(path, tiny_memo_model())
    rewrite_checkpoint(path, lambda h: h["config"].update(d_e=10))
    rc, err = eval_error(memo_dir, path, capsys)
    assert rc == 3 and "does not factor" in err


# Each command that takes the option set, with its other required flags.
OPTION_COMMANDS = {
    "train": ["train", "--data", "d", "--out", "o"],
    "ablate": ["ablate", "--data", "d", "--variant", "all"],
    "sweep-dim": ["sweep-dim", "--data", "d", "--dims", "8"],
}
OPTION_FIELDS = [f for cls in (ModelConfig, TrainConfig) for f in fields(cls)]


def resolve_options(command, *extra):
    """Every option value ``command`` resolves from its flags, as one dict."""
    args = _parser().parse_args(OPTION_COMMANDS[command] + list(extra))
    model_cfg, train_cfg = resolve_run_config(args)[1:]
    return {**model_cfg.to_dict(), **train_cfg.to_dict()}


def flag_of(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("command", list(OPTION_COMMANDS))
@pytest.mark.parametrize("field", OPTION_FIELDS, ids=lambda f: f.name)
class TestOptionSurface:
    """Every config field is a ``--flag`` and a config-file key of the same
    type; a value the field cannot take is a usage error."""

    def test_flag_has_the_field_type(self, command, field):
        args = _parser().parse_args(OPTION_COMMANDS[command]
                                    + [flag_of(field.name), str(field.default)])
        value = getattr(args, field.name)
        assert type(value) is type(field.default) and value == field.default

    def test_bad_value_exits_2(self, command, field, capsys):
        with pytest.raises(SystemExit) as exc:
            main(OPTION_COMMANDS[command] + [flag_of(field.name), "bogus"])
        assert exc.value.code == 2
        assert flag_of(field.name) in capsys.readouterr().err

    def test_config_file_takes_the_key(self, command, field, tmp_path):
        value = CHOICES.get(field.name, (field.default,))[-1]
        path = tmp_path / "run.cfg"
        path.write_text(f"{field.name}={value}\n")
        got = resolve_options(command, "--config", str(path))[field.name]
        assert type(got) is type(field.default) and got == value


@pytest.mark.parametrize("command", list(OPTION_COMMANDS))
@pytest.mark.parametrize("name", list(CHOICES))
def test_every_choice_passes(command, name):
    for choice in CHOICES[name]:
        assert resolve_options(command, flag_of(name), choice)[name] == choice


@pytest.mark.parametrize("command", [*OPTION_COMMANDS, "eval"])
def test_eval_batch_flag_exits_2(command, capsys):
    argv = OPTION_COMMANDS.get(command,
                               ["eval", "--data", "d", "--checkpoint", "c"])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--eval-batch", "512"])
    assert exc.value.code == 2
    assert "--eval-batch" in capsys.readouterr().err


def test_readme_option_table_matches_the_flags():
    # The README's option table lists exactly the flags every training-style
    # command registers, so a removed option cannot linger in the docs.
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [line.split("|")[1] for line in fh if line.startswith("| `--")]
    documented = {flag for cell in rows for flag in re.findall(r"--[\w-]+", cell)}
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    registered = {opt for action in parser._actions
                  for opt in action.option_strings if opt.startswith("--")}
    assert documented == registered - {"--help"}


class TestTransEEvalAtScale:
    """``pkge eval`` of TransE checkpoints over a 13,234-entity vocabulary,
    the size of FB15k-237's: a chain e0 -> e1 -> ... whose held-out links
    the checkpoint's embeddings nearly satisfy."""

    N_ENTITIES = 13234
    HELD_OUT = range(500, 13000, 1000)

    @pytest.fixture(scope="class")
    def chain_dir(self, tmp_path_factory):
        chain = [(f"e{i}", f"r{i % 4}", f"e{i + 1}")
                 for i in range(self.N_ENTITIES - 1)]
        held = [chain[i] for i in self.HELD_OUT]
        directory = str(tmp_path_factory.mktemp("chain"))
        write_dataset(directory, {
            "train": [t for i, t in enumerate(chain) if i not in self.HELD_OUT],
            "valid": held, "test": held})
        return directory

    def test_cli_mrr_matches_in_process(self, chain_dir, tmp_path):
        store = load_dataset(chain_dir)
        assert store.num_entities == self.N_ENTITIES
        cfg = ModelConfig(d_e=16, d_r=16, d=4, heads=2)
        rng = np.random.default_rng(0)
        model = TransE(cfg, store.num_entities,
                       store.num_relations_with_reverse, rng)
        ent = model.params["entity.embedding"].data
        rel = model.params["relation.embedding"].data
        rel[store.num_relations:] = -rel[:store.num_relations]
        for h, r, t in store.splits["test"]:
            ent[t] = ent[h] + rel[r] + rng.normal(scale=0.02, size=16)
        path = str(tmp_path / "transe.ckpt")
        save_checkpoint(path, model)

        out = tmp_path / "out"
        assert main(["eval", "--data", chain_dir, "--checkpoint", path,
                     "--out", str(out)]) == 0
        report = evaluate(store, restore_model(path)[0], "test")
        write_report_csv(report, str(tmp_path / "in_process.csv"))
        cli_csv = (out / "eval_test.csv").read_text()
        assert cli_csv == (tmp_path / "in_process.csv").read_text()
        assert cli_csv.splitlines()[1].split(",")[4] == f"{report.mrr:.6f}"
        # far above chance (about 1e-3), and below 1: the ranks spread
        assert 0.1 < report.mrr < 1.0


class TestStatsAndCategorize:
    def test_stats_output(self, memo_dir, capsys, tmp_path):
        json_path = str(tmp_path / "stats.json")
        rc = main(["stats", "--data", memo_dir, "--json", json_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entities: 30" in out
        assert "train: 200" in out
        stats = json.loads(open(json_path).read())
        assert stats["entities"] == 30 and stats["relations"] == 4

    def test_categorize_blocks_dataset(self, blocks_dir, capsys):
        rc = main(["categorize", "--data", blocks_dir, "--split", "test"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scope all (threshold 1.5):" in out
        # the clustered dataset is built from dense blocks: everything N-N
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] == "N-N":
                assert cells[2] == "617"

    def test_categorize_both_scopes(self, memo_dir, capsys):
        rc = main(["categorize", "--data", memo_dir, "--scope", "both"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scope all (threshold 1.5):" in out
        assert "scope train (threshold 1.5):" in out


class TestGeneratedSplitFiles:
    """Split files of generated lines and bytes, one of them sometimes
    missing, through ``stats``, ``categorize`` and ``eval`` in-process: each
    exits 0, 2 or 3 and writes at most one line to stderr, an ``error:``
    line, never a traceback. A file holds triples over the vocabulary of a
    fixed DistMult checkpoint, alone or among other lines, so ``eval`` also
    reaches evaluation."""

    ENTITIES, RELATIONS = ("a", "b", "c", "d"), ("r", "s")
    TRIPLE = st.tuples(st.sampled_from(ENTITIES), st.sampled_from(RELATIONS),
                       st.sampled_from(ENTITIES)).map(
                           lambda t: "\t".join(t).encode())
    NOISE = st.one_of(
        st.binary(max_size=12),
        st.text(alphabet="ar\t \r\x00\x85é", max_size=8).map(str.encode))
    SPLIT_FILE = st.one_of(st.lists(TRIPLE, max_size=8),
                           st.lists(st.one_of(TRIPLE, NOISE), max_size=8)).map(
                               b"\n".join)

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ckpt") / "distmult.ckpt")
        cfg = ModelConfig(d_e=8, d_r=8)
        save_checkpoint(path, DistMult(cfg, len(self.ENTITIES),
                                       2 * len(self.RELATIONS),
                                       np.random.default_rng(0)))
        return path

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3), (argv, lines)
        assert len(lines) == (rc != 0)
        assert all(line.startswith("error:") for line in lines)

    @given(files=st.fixed_dictionaries(dict.fromkeys(SPLIT_FILES, SPLIT_FILE)),
           missing=st.sampled_from((None, None, None, *SPLIT_FILES)),
           split=st.sampled_from(tuple(SPLIT_FILES)))
    @settings(max_examples=120, deadline=None)
    def test_exit_0_2_or_3_with_at_most_one_error_line(
            self, scratch, checkpoint, files, missing, split):
        data = scratch / "dataset"
        data.mkdir(exist_ok=True)
        for name, content in files.items():
            path = data / SPLIT_FILES[name]
            if name == missing:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(content)
        self.run(["stats", "--data", str(data)])
        self.run(["categorize", "--data", str(data), "--scope", "both",
                  "--split", split])
        self.run(["eval", "--data", str(data), "--checkpoint", checkpoint,
                  "--split", split])


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    data = os.path.join(os.path.dirname(__file__), os.pardir, "data", "memo30")
    out = str(tmp_path_factory.mktemp("run"))
    rc = main(["train", "--data", data, "--out", out, "--seed", "3"]
              + TINY_MODEL + schedule(2))
    assert rc == 0
    return data, out


class TestTrainCommand:
    def test_outputs(self, trained_run):
        _, out = trained_run
        for fname in ("config.txt", "train_log.csv", "best.ckpt",
                      "eval_test.csv"):
            assert os.path.isfile(os.path.join(out, fname)), fname
        config = open(os.path.join(out, "config.txt")).read()
        assert config.startswith("model=patreformer\n")
        assert "d_e=8" in config and "epochs=2" in config
        assert "eval_batch" not in config
        log = open(os.path.join(out, "train_log.csv")).read().splitlines()
        assert log[0] == "epoch,loss,valid_mrr"
        assert len(log) == 3
        report = open(os.path.join(out, "eval_test.csv")).read().splitlines()
        assert len(report) == 8

    def test_eval_reuses_checkpoint(self, trained_run, tmp_path, capsys):
        data, out = trained_run
        ckpt = os.path.join(out, "best.ckpt")
        rc = main(["eval", "--data", data, "--checkpoint", ckpt,
                   "--split", "valid", "--out", str(tmp_path)])
        assert rc == 0
        assert os.path.isfile(str(tmp_path / "eval_valid.csv"))
        stdout = capsys.readouterr().out
        assert "split" in stdout and "MRR" in stdout

    def test_eval_has_no_workers_flag(self, trained_run, tmp_path, capsys):
        # evaluation has one serial path; a thread-count flag is a usage error
        data, out = trained_run
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--data", data,
                  "--checkpoint", os.path.join(out, "best.ckpt"),
                  "--out", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "eval_test.csv"))

    def test_eval_matches_train_report(self, trained_run, tmp_path):
        # the test-split report written at the end of training must be
        # reproducible from the saved checkpoint alone
        data, out = trained_run
        ckpt = os.path.join(out, "best.ckpt")
        rc = main(["eval", "--data", data, "--checkpoint", ckpt,
                   "--split", "test", "--out", str(tmp_path)])
        assert rc == 0
        a = open(os.path.join(out, "eval_test.csv")).read()
        b = open(str(tmp_path / "eval_test.csv")).read()
        assert a == b

    def test_rerun_removes_the_previous_runs_files(self, memo_dir, tmp_path,
                                                   monkeypatch):
        # a rerun that dies before its first epoch leaves only its own
        # config.txt, not the previous run's log, checkpoint and report
        out = tmp_path / "o"
        assert main(["train", "--data", memo_dir, "--out", str(out)]
                    + TINY_MODEL + schedule(1)) == 0
        assert sorted(os.listdir(out)) == [
            "best.ckpt", "config.txt", "eval_test.csv", "train_log.csv"]

        class Killed(Exception):
            pass

        def killed(*args, **kwargs):
            raise Killed
        monkeypatch.setattr(cli, "run_experiment", killed)
        with pytest.raises(Killed):
            main(["train", "--data", memo_dir, "--out", str(out),
                  "--model", "distmult"] + schedule(1))
        assert os.listdir(out) == ["config.txt"]
        assert (out / "config.txt").read_text().startswith("model=distmult\n")

    def test_run_file_that_cannot_be_removed(self, memo_dir, tmp_path, capsys):
        # a directory where a run file goes: exit 2 before any training
        out = tmp_path / "o"
        (out / "best.ckpt").mkdir(parents=True)
        rc = main(["train", "--data", memo_dir, "--out", str(out)]
                  + TINY_MODEL + schedule(1))
        assert rc == 2
        captured = capsys.readouterr()
        assert "cannot remove best.ckpt" in captured.err
        assert "epoch " not in captured.out

    def test_kill_anywhere(self, memo_dir, tmp_path, capsys):
        # A 20-epoch run (about 2 s) SIGKILLed at 4 seeded instants: a seeded
        # delay after its log holds a seeded number of epochs, one in each
        # quarter of the run. Each time best.ckpt is absent or restores
        # through eval to this run's config, and train_log.csv is a byte
        # prefix of an uninterrupted run's; a stale best.ckpt.tmp may remain.
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pkge.__file__)))

        def start(out):
            return subprocess.Popen(
                [sys.executable, "-m", "pkge", "train", "--data", memo_dir,
                 "--epochs", "20", "--eval-every", "5", "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)

        full = tmp_path / "full"
        assert start(full).wait(timeout=120) == 0
        run_files = ("config.txt", "train_log.csv", "best.ckpt", "eval_test.csv")
        want = {f: (full / f).read_bytes() for f in run_files}
        rng = np.random.default_rng(6)
        for quarter in range(4):
            epochs = 5 * quarter + int(rng.integers(0, 5))
            out = tmp_path / f"killed{quarter}"
            log = out / "train_log.csv"
            proc = start(out)
            # the header and one row per epoch
            while proc.poll() is None and (
                    not log.exists() or log.read_bytes().count(b"\n") <= epochs):
                time.sleep(0.005)
            time.sleep(rng.uniform(0.0, 0.1))
            proc.kill()
            proc.wait(timeout=60)
            left = set(os.listdir(out))
            assert left <= set(run_files) | {"best.ckpt.tmp"}, epochs
            got = {f: (out / f).read_bytes() for f in run_files if f in left}
            for f in ("config.txt", "train_log.csv"):
                assert want[f].startswith(got.get(f, b"")), (epochs, f)
            assert got.get("eval_test.csv", want["eval_test.csv"]) == want["eval_test.csv"]
            if "best.ckpt" in got:
                assert got["config.txt"] == want["config.txt"]
                ckpt = str(out / "best.ckpt")
                assert main(["eval", "--data", memo_dir, "--checkpoint", ckpt]) == 0
                _, header = restore_model(ckpt)
                config = got["config.txt"].decode().splitlines()
                assert f"model={header['model']}" in config
                for key, value in header["config"].items():
                    assert f"{key}={value}" in config, key
        capsys.readouterr()

    def test_same_bytes_under_one_and_two_blas_threads(self, blocks_dir, tmp_path):
        # At the default d_r = 200 no product in a step sums differently
        # under 1 and 2 OpenBLAS threads, and every backward row or column
        # sum stays off BLAS, so the run files match byte for byte.
        def run(threads):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.path.dirname(os.path.dirname(pkge.__file__)))
            proc = subprocess.run(
                [sys.executable, "-m", "pkge", "train", "--data", blocks_dir,
                 "--epochs", "2", "--eval-every", "2", "--out", str(out)],
                capture_output=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return {f: (out / f).read_bytes()
                    for f in ("train_log.csv", "best.ckpt", "eval_test.csv")}
        assert run(1) == run(2)


class TestAblateCommand:
    def test_single_variant(self, memo_dir, tmp_path, capsys):
        out = str(tmp_path / "ab")
        rc = main(["ablate", "--data", memo_dir, "--variant", "sep-self-attn",
                   "--out", out] + TINY_MODEL + schedule(1))
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "base test_mrr" in stdout
        assert "variant sep-self-attn" in stdout
        rows = open(os.path.join(out, "ablation.csv")).read().splitlines()
        assert rows[0] == "variant,test_mrr,delta_vs_base"
        assert len(rows) == 3
        assert rows[1].startswith("base,")
        assert rows[2].startswith("sep-self-attn,")

    def test_base_row_matches_train(self, memo_dir, tmp_path):
        # this run peaks on validation at epoch 6 of 8: both commands must
        # test the best-validation model, not the last one
        flags = ["--d-e", "16", "--d-r", "16", "--d", "4", "--heads", "2",
                 "--layers", "1", "--d-f", "16", "--lr", "0.1",
                 "--epochs", "8", "--eval-every", "2", "--seed", "2"]
        train_out, ablate_out = str(tmp_path / "t"), str(tmp_path / "a")
        assert main(["train", "--data", memo_dir, "--out", train_out]
                    + flags) == 0
        assert main(["ablate", "--data", memo_dir, "--variant", "folding",
                     "--out", ablate_out] + flags) == 0

        log = open(os.path.join(train_out, "train_log.csv")).read().splitlines()
        valid = {int(row.split(",")[0]): float(row.split(",")[2])
                 for row in log[1:] if row.split(",")[2]}
        assert max(valid, key=valid.get) != 8
        overall = open(os.path.join(train_out, "eval_test.csv")).readlines()[1]
        base = open(os.path.join(ablate_out, "ablation.csv")).readlines()[1]
        assert base.split(",")[1] == overall.split(",")[4]

    def test_variants_equal_to_the_base_reuse_its_run(self, memo_dir,
                                                     tmp_path, monkeypatch):
        # At this base (folding, sequential), the folding and sequential
        # variants are the base config: 11 rows from 9 runs.
        runs = []
        real = cli.run_experiment

        def counting(store, kind, cfg, *args, **kwargs):
            runs.append(cfg)
            return real(store, kind, cfg, *args, **kwargs)
        monkeypatch.setattr(cli, "run_experiment", counting)
        out = tmp_path / "ab"
        rc = main(["ablate", "--data", memo_dir, "--variant", "all",
                   "--out", str(out)] + TINY_MODEL + schedule(1))
        assert rc == 0
        assert len(runs) == 9 and len(set(runs)) == 9
        mrrs = dict(line.split(",")[:2] for line in
                    (out / "ablation.csv").read_text().splitlines()[1:])
        assert len(mrrs) == 11
        assert mrrs["folding"] == mrrs["sequential"] == mrrs["base"]

    def test_baselines_rejected(self, memo_dir):
        rc = main(["ablate", "--data", memo_dir, "--variant", "folding",
                   "--model", "distmult"] + TINY_MODEL + schedule(1))
        assert rc == 2

    def test_bad_variant_fails_before_training(self, memo_dir, tmp_path,
                                               capsys):
        # the base takes these sizes unsegmented; folding cannot, since 32
        # does not factor into patches of 5
        out = tmp_path / "o"
        rc = main(["ablate", "--data", memo_dir, "--variant", "all",
                   "--out", str(out), "--segmentation", "none",
                   "--d-e", "32", "--d-r", "10", "--d", "5", "--heads", "5",
                   "--layers", "1", "--d-f", "8"] + schedule(1))
        assert rc == 2
        captured = capsys.readouterr()
        assert "does not factor" in captured.err
        assert "base test_mrr" not in captured.out
        assert not (out / "ablation.csv").exists()


# TINY_MODEL without --d-r, which sweep-dim takes from --dims
SWEEP_MODEL = TINY_MODEL[:2] + TINY_MODEL[4:]


class TestSweepCommand:
    def test_sweep_csv(self, memo_dir, tmp_path, capsys):
        out = str(tmp_path / "sw")
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "4,8",
                   "--models", "distmult", "--out", out]
                  + SWEEP_MODEL + schedule(1))
        assert rc == 0
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert rows[0] == "model,d_r,best_valid_mrr,test_mrr"
        assert len(rows) == 3
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["distmult", "4"], ["distmult", "8"]]
        for row in rows[1:]:
            assert all(0.0 <= float(mrr) <= 1.0 for mrr in row.split(",")[2:])
        assert "test_mrr" in capsys.readouterr().out

    def test_bad_dims(self, memo_dir, capsys):
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "a,b",
                   "--models", "distmult"])
        assert rc == 2
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "4",
                   "--models", "rotate"])
        assert rc == 2
        capsys.readouterr()
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", ",",
                   "--models", "distmult"])
        assert rc == 2
        assert "--dims is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("models", [",", ""])
    def test_empty_models(self, memo_dir, tmp_path, capsys, models):
        out = tmp_path / "o"
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "4",
                   "--models", models, "--out", str(out)])
        assert rc == 2
        assert "--models is empty" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("dims,models", [("8,-4", "distmult"),
                                             ("8,6", "patreformer")])
    def test_bad_size_fails_before_training(self, memo_dir, tmp_path, capsys,
                                            dims, models):
        out = tmp_path / "o"
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", dims,
                   "--models", models, "--out", str(out)]
                  + SWEEP_MODEL + schedule(1))
        assert rc == 2
        assert "model " not in capsys.readouterr().out
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_model_kind_rejected(self, memo_dir, tmp_path, capsys, source):
        # --models names the kinds; a --model or model= key would be ignored
        out = tmp_path / "o"
        argv = ["sweep-dim", "--data", memo_dir, "--dims", "8",
                "--out", str(out)] + SWEEP_MODEL + schedule(1)
        if source == "flag":
            argv += ["--model", "transe"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("model=transe\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--models" in captured.err
        assert "model " not in captured.out
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_relation_size_rejected(self, memo_dir, tmp_path, capsys, source):
        # --dims names the relation sizes; a --d-r or d_r= key would be ignored
        out = tmp_path / "o"
        argv = ["sweep-dim", "--data", memo_dir, "--dims", "8", "--models",
                "distmult", "--out", str(out)] + SWEEP_MODEL + schedule(1)
        if source == "flag":
            argv += ["--d-r", "12"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("d_r=12\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--dims" in captured.err
        assert "model " not in captured.out
        assert not (out / "sweep.csv").exists()
