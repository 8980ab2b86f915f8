import json
import os
import shutil
from dataclasses import fields

import numpy as np
import pytest

from pkge.baselines import DistMult
from pkge.cli import (_parser, format_run_config, main, parse_config_file,
                      resolve_run_config)
from pkge.errors import ConfigError
from pkge.model import CHOICES, ModelConfig, PatReFormer
from pkge.training import TrainConfig, save_checkpoint

TINY_MODEL = [
    "--d-e", "8", "--d-r", "8", "--d", "4", "--heads", "2", "--layers", "1",
    "--d-f", "8", "--p1", "0", "--p2", "0", "--p3", "0",
    "--segmentation", "folding",
]

def schedule(epochs):
    return ["--lr", "0.01", "--batch-size", "128", "--epochs", str(epochs),
            "--eval-every", "1", "--eval-batch", "256"]


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

    def test_echo_format(self):
        args = _parser().parse_args(["train", "--data", "x", "--out", "y"])
        kind, model_cfg, train_cfg = resolve_run_config(args)
        echo = format_run_config(kind, model_cfg, train_cfg)
        lines = echo.splitlines()
        assert lines[0] == "model=patreformer"
        assert "d_e=100" in lines and "lr=0.001" in lines
        assert len(lines) == 1 + 16 + 7   # model + model cfg + train cfg
        # the echo itself round-trips as a config file
        assert echo.endswith("\n")


class TestExitCodes:
    def test_missing_dataset_dir(self, tmp_path, capsys):
        rc = main(["stats", "--data", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_hyperparameter(self, memo_dir, tmp_path):
        rc = main(["train", "--data", memo_dir, "--out", str(tmp_path),
                   "--d-e", "7"])
        assert rc == 2

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

    def test_invalid_utf8_split_file(self, memo_dir, tmp_path, capsys):
        data = copy_dataset(memo_dir, tmp_path / "d",
                            valid=b"e1\tr\xff\te2\n")
        rc = main(["stats", "--data", data])
        assert rc == 3
        assert "valid.txt" in capsys.readouterr().err

    def test_invalid_utf8_config_file(self, memo_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"lr=0.1\n\xfe\xff=1\n")
        rc = main(["train", "--data", memo_dir, "--out", str(tmp_path / "o"),
                   "--config", str(cfg)])
        assert rc == 2

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

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_nonfinite_categorize_threshold(self, memo_dir, capsys, threshold):
        rc = main(["categorize", "--data", memo_dir, "--threshold", threshold])
        assert rc == 2
        captured = capsys.readouterr()
        assert "threshold must be finite" in captured.err
        assert not any(line.startswith("epoch ")
                       for line in captured.out.splitlines())
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


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header in place; the payload and
    its CRC stay as they were."""
    with open(path, "rb") as fh:
        blob = fh.read()
    n = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + n])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob[:8] + len(head).to_bytes(4, "little") + head
                 + blob[12 + n:])


HEADER_FAULTS = {
    "negative-entities": lambda h: h.update(n_entities=-3),
    "string-entities": lambda h: h.update(n_entities="x"),
    "missing-offset": lambda h: h["tensors"][0].pop("offset"),
    "unknown-model": lambda h: h.update(model="foo"),
    # model config values of the wrong JSON type, each equal to the saved one
    "float-d": lambda h: h["config"].update(d=4.0),
    "float-layers": lambda h: h["config"].update(layers=1.0),
    "float-heads": lambda h: h["config"].update(heads=2.0),
    "bool-layers": lambda h: h["config"].update(layers=True),
}


@pytest.mark.parametrize("fault", list(HEADER_FAULTS))
def test_bad_checkpoint_header_exits_3(memo_dir, tmp_path, capsys, fault):
    cfg = ModelConfig(d_e=8, d_r=8, d=4, heads=2, layers=1, d_f=8)
    path = str(tmp_path / "distmult.ckpt")
    save_checkpoint(path, DistMult(cfg, 30, 8, np.random.default_rng(0)))
    rewrite_header(path, HEADER_FAULTS[fault])
    rc = main(["eval", "--data", memo_dir, "--checkpoint", path])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")



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
        rc = main(["categorize", "--data", memo_dir, "--scope", "both",
                   "--threshold", "2.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scope all (threshold 2.0):" in out
        assert "scope train (threshold 2.0):" in out


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
        log = open(os.path.join(out, "train_log.csv")).read().splitlines()
        assert log[0] == "epoch,loss,valid_mrr"
        assert len(log) == 3
        report = open(os.path.join(out, "eval_test.csv")).read().splitlines()
        assert len(report) == 8

    def test_eval_reuses_checkpoint(self, trained_run, tmp_path, capsys):
        data, out = trained_run
        ckpt = os.path.join(out, "best.ckpt")
        rc = main(["eval", "--data", data, "--checkpoint", ckpt,
                   "--split", "valid", "--out", str(tmp_path),
                   "--workers", "2"])
        assert rc == 0
        assert os.path.isfile(str(tmp_path / "eval_valid.csv"))
        stdout = capsys.readouterr().out
        assert "split" in stdout and "MRR" in stdout

    def test_eval_matches_train_report(self, trained_run, tmp_path):
        # the test-split report written at the end of training must be
        # reproducible from the saved checkpoint alone
        data, out = trained_run
        ckpt = os.path.join(out, "best.ckpt")
        rc = main(["eval", "--data", data, "--checkpoint", ckpt,
                   "--split", "test", "--out", str(tmp_path),
                   "--eval-batch", "256"])
        assert rc == 0
        a = open(os.path.join(out, "eval_test.csv")).read()
        b = open(str(tmp_path / "eval_test.csv")).read()
        assert a == b


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

    def test_baselines_rejected(self, memo_dir):
        rc = main(["ablate", "--data", memo_dir, "--variant", "folding",
                   "--model", "distmult"] + TINY_MODEL + schedule(1))
        assert rc == 2


class TestSweepCommand:
    def test_sweep_csv(self, memo_dir, tmp_path, capsys):
        out = str(tmp_path / "sw")
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "4,8",
                   "--models", "distmult", "--out", out]
                  + TINY_MODEL + schedule(1))
        assert rc == 0
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert rows[0] == "model,d_r,best_valid_mrr,test_mrr"
        assert len(rows) == 3
        assert rows[1].startswith("distmult,4,")
        assert rows[2].startswith("distmult,8,")
        assert "test_mrr" in capsys.readouterr().out

    def test_bad_dims(self, memo_dir):
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "a,b",
                   "--models", "distmult"])
        assert rc == 2
        rc = main(["sweep-dim", "--data", memo_dir, "--dims", "4",
                   "--models", "rotate"])
        assert rc == 2
