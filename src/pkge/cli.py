"""Command-line interface.

Subcommands: train, eval, ablate, sweep-dim, stats, categorize.

Configuration precedence is flags > config file > built-in defaults. Config
files are flat ``key=value`` lines ('#' starts a comment); keys are the
model and training option names shown by ``--help``.

Exit codes: 0 success, 2 usage or configuration error, 3 data or checkpoint
mismatch, 4 numeric failure.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

from .errors import (CheckpointError, ConfigError, DataFormatError,
                     NumericError)
from .evaluation import (evaluate, format_report, sweep_relation_dim,
                         write_report_csv)
from .kg import (CATEGORIES, category_counts, categorize_relations,
                 dump_stats_json, load_dataset)
from .model import ABLATION_VARIANTS, MODEL_KINDS, ModelConfig
from .training import (TrainConfig, check_vocab, restore_model,
                       run_experiment)

_MODEL_DEFAULTS = ModelConfig()
_TRAIN_DEFAULTS = TrainConfig()
_MODEL_KEYS = [f.name for f in fields(ModelConfig)]
_TRAIN_KEYS = [f.name for f in fields(TrainConfig)]


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _coerce(key, raw, proto):
    kind = type(proto)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from None
    return raw


def parse_config_file(path):
    """Flat key=value option file."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key] = raw
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from None
    return values


def resolve_run_config(args):
    """Merge defaults, config file, and flags into concrete config objects."""
    values = {"model": "patreformer"}
    for key in _MODEL_KEYS:
        values[key] = getattr(_MODEL_DEFAULTS, key)
    for key in _TRAIN_KEYS:
        values[key] = getattr(_TRAIN_DEFAULTS, key)

    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = raw if key == "model" else _coerce(key, raw, values[key])

    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    kind = values.pop("model")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model must be one of {MODEL_KINDS}, got {kind!r}")
    model_cfg = ModelConfig(**{k: values[k] for k in _MODEL_KEYS})
    train_cfg = TrainConfig(**{k: values[k] for k in _TRAIN_KEYS})
    return kind, model_cfg, train_cfg


def format_run_config(kind, model_cfg, train_cfg):
    lines = [f"model={kind}"]
    lines += [f"{k}={getattr(model_cfg, k)}" for k in _MODEL_KEYS]
    lines += [f"{k}={getattr(train_cfg, k)}" for k in _TRAIN_KEYS]
    return "\n".join(lines) + "\n"


def _load_store(data_dir):
    if not os.path.isdir(data_dir):
        raise ConfigError(f"dataset directory not found: {data_dir}")
    for fname in ("train.txt", "valid.txt", "test.txt"):
        if not os.path.isfile(os.path.join(data_dir, fname)):
            raise ConfigError(f"dataset directory {data_dir} is missing {fname}")
    return load_dataset(data_dir)


def _make_out_dir(path):
    """Create an optional ``--out`` directory up front, before any training."""
    if not path:
        return
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _print_progress(epoch, loss, valid_mrr):
    if valid_mrr is None:
        print(f"epoch {epoch}  loss {loss:.6f}")
    else:
        print(f"epoch {epoch}  loss {loss:.6f}  valid_mrr {valid_mrr:.6f}")


def cmd_train(args):
    store = _load_store(args.data)
    kind, model_cfg, train_cfg = resolve_run_config(args)
    echo = format_run_config(kind, model_cfg, train_cfg)
    print(echo, end="")
    _make_out_dir(args.out)
    with open(os.path.join(args.out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(echo)

    result, report = run_experiment(store, kind, model_cfg, train_cfg,
                                    out_dir=args.out, progress=_print_progress)
    print(f"best epoch {result.best_epoch}  valid_mrr {result.best_valid_mrr:.6f}")
    write_report_csv(report, os.path.join(args.out, "eval_test.csv"))
    print(format_report(report))
    return 0


def cmd_eval(args):
    store = _load_store(args.data)
    _make_out_dir(args.out)
    model, _ = restore_model(args.checkpoint)
    check_vocab(model, store)
    report = evaluate(store, model, args.split, batch_size=args.eval_batch,
                      workers=args.workers)
    if args.out:
        write_report_csv(report,
                         os.path.join(args.out, f"eval_{args.split}.csv"))
    print(format_report(report))
    return 0


def cmd_ablate(args):
    store = _load_store(args.data)
    kind, base_cfg, train_cfg = resolve_run_config(args)
    if kind != "patreformer":
        raise ConfigError("ablate applies to the patreformer model only")
    names = list(ABLATION_VARIANTS) if args.variant == "all" else [args.variant]
    _make_out_dir(args.out)

    def test_mrr(cfg):
        return run_experiment(store, kind, cfg, train_cfg)[1].mrr

    print(format_run_config(kind, base_cfg, train_cfg), end="")
    base_mrr = test_mrr(base_cfg)
    print(f"base test_mrr {base_mrr:.6f}")
    rows = []
    for name in names:
        mrr = test_mrr(replace(base_cfg, **ABLATION_VARIANTS[name]))
        rows.append((name, mrr, mrr - base_mrr))
        print(f"variant {name}  test_mrr {mrr:.6f}  delta {mrr - base_mrr:+.6f}")

    if args.out:
        with open(os.path.join(args.out, "ablation.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("variant,test_mrr,delta_vs_base\n")
            fh.write(f"base,{base_mrr:.6f},0.000000\n")
            for name, mrr, delta in rows:
                fh.write(f"{name},{mrr:.6f},{delta:+.6f}\n")
    return 0


def cmd_sweep_dim(args):
    store = _load_store(args.data)
    kind, base_cfg, train_cfg = resolve_run_config(args)
    try:
        dims = [int(part) for part in args.dims.split(",") if part]
    except ValueError:
        raise ConfigError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    if not dims:
        raise ConfigError("--dims is empty")
    kinds = [part.strip() for part in args.models.split(",") if part.strip()]
    for k in kinds:
        if k not in MODEL_KINDS:
            raise ConfigError(f"unknown model {k!r} in --models")
    _make_out_dir(args.out)

    def progress(row):
        print(f"model {row['model']}  d_r {row['d_r']}  "
              f"test_mrr {row['test_mrr']:.6f}")

    rows = sweep_relation_dim(store, kinds, base_cfg, train_cfg, dims,
                              progress=progress)
    if args.out:
        with open(os.path.join(args.out, "sweep.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("model,d_r,best_valid_mrr,test_mrr\n")
            for row in rows:
                fh.write(f"{row['model']},{row['d_r']},"
                         f"{row['best_valid_mrr']:.6f},{row['test_mrr']:.6f}\n")
    return 0


def cmd_stats(args):
    store = _load_store(args.data)
    stats = store.stats()
    for key in ("entities", "relations", "train", "valid", "test"):
        print(f"{key}: {stats[key]}")
    if args.json:
        dump_stats_json(store, args.json)
    return 0


def cmd_categorize(args):
    store = _load_store(args.data)
    scopes = ("all", "train") if args.scope == "both" else (args.scope,)
    for scope in scopes:
        cats = categorize_relations(store, threshold=args.threshold, scope=scope)
        rel_counts = {c: 0 for c in CATEGORIES}
        for rc in cats.values():
            rel_counts[rc.category] += 1
        triple_counts = category_counts(store, split=args.split,
                                        threshold=args.threshold, scope=scope)
        print(f"scope {scope} (threshold {args.threshold}):")
        print(f"  {'category':<8} {'relations':>9} {args.split + ' triples':>14}")
        for cat in CATEGORIES:
            print(f"  {cat:<8} {rel_counts[cat]:>9} {triple_counts[cat]:>14}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(sub):
    sub.add_argument("--config", help="key=value option file")
    sub.add_argument("--model", choices=MODEL_KINDS)
    g = sub.add_argument_group("model options")
    g.add_argument("--d-e", dest="d_e", type=int)
    g.add_argument("--d-r", dest="d_r", type=int)
    g.add_argument("--d", dest="d", type=int)
    g.add_argument("--heads", type=int)
    g.add_argument("--layers", type=int)
    g.add_argument("--d-f", dest="d_f", type=int)
    g.add_argument("--p1", type=float)
    g.add_argument("--p2", type=float)
    g.add_argument("--p3", type=float)
    g.add_argument("--attention", choices=("cross", "full_self", "separate_self"))
    g.add_argument("--pe", choices=("none", "trainable", "sinusoidal"))
    g.add_argument("--segmentation", choices=("frozen", "folding", "trainable", "none"))
    g.add_argument("--update-order", dest="update_order",
                   choices=("sequential", "simultaneous"))
    g.add_argument("--attn-scale", dest="attn_scale",
                   choices=("model_dim", "head_dim"))
    g.add_argument("--transe-gamma", dest="transe_gamma", type=float)
    g.add_argument("--transe-norm", dest="transe_norm", choices=("l1", "l2"))
    t = sub.add_argument_group("training options")
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--label-smoothing", dest="label_smoothing", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--eval-every", dest="eval_every", type=int)
    t.add_argument("--eval-batch", dest="eval_batch", type=int)


def _parser():
    parser = argparse.ArgumentParser(
        prog="pkge", description="Patch-refinement link prediction")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model and report test metrics")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--out", help="directory for the report CSV")
    p.add_argument("--eval-batch", dest="eval_batch", type=int, default=512)
    p.add_argument("--workers", type=int, default=None,
                   help="scoring threads (capped by PKGE_THREADS)")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("ablate", help="compare architecture variants")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", required=True,
                   choices=tuple(ABLATION_VARIANTS) + ("all",))
    p.add_argument("--out", help="directory for ablation.csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("sweep-dim", help="sweep the relation embedding size")
    p.add_argument("--data", required=True)
    p.add_argument("--dims", required=True,
                   help="comma-separated relation embedding sizes")
    p.add_argument("--models", default="patreformer",
                   help="comma-separated model kinds")
    p.add_argument("--out", help="directory for sweep.csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep_dim)

    p = subs.add_parser("stats", help="dataset summary")
    p.add_argument("--data", required=True)
    p.add_argument("--json", help="also write the summary to this JSON file")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("categorize", help="relation category breakdown")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--scope", choices=("all", "train", "both"), default="all")
    p.add_argument("--threshold", type=float, default=1.5)
    p.set_defaults(func=cmd_categorize)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
