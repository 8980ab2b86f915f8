"""Command-line interface.

Subcommands: train, eval, ablate, sweep-dim, stats, categorize.

Configuration precedence is flags > config file > built-in defaults. Config
files are flat ``key=value`` lines ('#' starts a comment); keys are the
model and training option names shown by ``--help``, and any other key is
an error.

Exit codes: 0 success, 2 usage or configuration error or an output file
that cannot be written, 3 data or checkpoint mismatch, 4 numeric failure.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .errors import (CheckpointError, ConfigError, DataFormatError,
                     NumericError)
from .evaluation import evaluate, format_report, write_report_csv
from .kg import (CATEGORIES, SCOPES, SPLIT_FILES, THRESHOLD, category_counts,
                 categorize_relations, dump_stats_json, load_dataset)
from .model import (ABLATION_VARIANTS, CHOICES, MODEL_KINDS, ModelConfig,
                    check_model)
from .training import (CKPT_NAME, LOG_NAME, TrainConfig, check_vocab,
                       restore_model, run_experiment)

_MODEL_KEYS = [f.name for f in fields(ModelConfig)]
_TRAIN_KEYS = [f.name for f in fields(TrainConfig)]
# What ``train`` writes into ``--out``.
_RUN_FILES = ("config.txt", LOG_NAME, CKPT_NAME, "eval_test.csv")


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _coerce(key, raw, proto):
    kind = type(proto)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from None


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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def resolve_run_config(args):
    """Merge defaults, config file, and flags into concrete config objects.
    The model kind is left to ``check_model``, which every command calls."""
    values = {"model": "patreformer", **ModelConfig().to_dict(),
              **TrainConfig().to_dict()}

    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw, values[key])

    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    kind = values.pop("model")
    model_cfg = ModelConfig(**{k: values[k] for k in _MODEL_KEYS})
    train_cfg = TrainConfig(**{k: values[k] for k in _TRAIN_KEYS})
    return kind, model_cfg, train_cfg


def format_run_config(kind, model_cfg, train_cfg):
    lines = [f"model={kind}"]
    lines += [f"{k}={getattr(model_cfg, k)}" for k in _MODEL_KEYS]
    lines += [f"{k}={getattr(train_cfg, k)}" for k in _TRAIN_KEYS]
    return "\n".join(lines) + "\n"


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
    store = load_dataset(args.data)
    kind, model_cfg, train_cfg = resolve_run_config(args)
    check_model(kind, model_cfg)
    echo = format_run_config(kind, model_cfg, train_cfg)
    print(echo, end="")
    _make_out_dir(args.out)
    # A previous run's files go first: a rerun that dies before it rewrites
    # them would otherwise leave them beside its own.
    for fname in _RUN_FILES:
        try:
            os.remove(os.path.join(args.out, fname))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ConfigError(f"cannot remove {fname} from {args.out}: "
                              f"{exc}") from None
    with open(os.path.join(args.out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(echo)

    result, report = run_experiment(store, kind, model_cfg, train_cfg,
                                    out_dir=args.out, progress=_print_progress)
    print(f"best epoch {result.best_epoch}  valid_mrr {result.best_valid_mrr:.6f}")
    write_report_csv(report, os.path.join(args.out, "eval_test.csv"))
    print(format_report(report))
    return 0


def cmd_eval(args):
    store = load_dataset(args.data)
    _make_out_dir(args.out)
    model, _ = restore_model(args.checkpoint)
    check_vocab(model, store)
    report = evaluate(store, model, args.split)
    if args.out:
        write_report_csv(report,
                         os.path.join(args.out, f"eval_{args.split}.csv"))
    print(format_report(report))
    return 0


def cmd_ablate(args):
    store = load_dataset(args.data)
    kind, base_cfg, train_cfg = resolve_run_config(args)
    if kind != "patreformer":
        raise ConfigError("ablate applies to the patreformer model only, "
                          f"got {kind!r}")
    names = list(ABLATION_VARIANTS) if args.variant == "all" else [args.variant]
    # Built and checked before any training: a variant the base sizes
    # cannot take fails before the first run.
    variants = [(name, replace(base_cfg, **ABLATION_VARIANTS[name]))
                for name in names]
    for cfg in [base_cfg] + [cfg for _, cfg in variants]:
        check_model(kind, cfg)
    _make_out_dir(args.out)

    def test_mrr(cfg):
        return run_experiment(store, kind, cfg, train_cfg)[1].mrr

    print(format_run_config(kind, base_cfg, train_cfg), end="")
    base_mrr = test_mrr(base_cfg)
    print(f"base test_mrr {base_mrr:.6f}")
    rows = []
    for name, cfg in variants:
        # A variant equal to the base (``frozen-seg`` and ``sequential`` at
        # the defaults) would train the same run again, seed included.
        mrr = base_mrr if cfg == base_cfg else test_mrr(cfg)
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
    store = load_dataset(args.data)
    from_file = parse_config_file(args.config) if args.config else {}
    for key, source in (("model", "--models"), ("d_r", "--dims")):
        if getattr(args, key) is not None or key in from_file:
            raise ConfigError(
                f"sweep-dim takes {key} from {source}, not from "
                f"--{key.replace('_', '-')} or a config file's {key}= key")
    _, base_cfg, train_cfg = resolve_run_config(args)
    try:
        dims = [int(part) for part in args.dims.split(",") if part]
    except ValueError:
        raise ConfigError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    if not dims:
        raise ConfigError("--dims is empty")
    kinds = [part.strip() for part in args.models.split(",") if part.strip()]
    if not kinds:
        raise ConfigError("--models is empty")
    # Every config is built and checked before the first run. The baselines
    # have one embedding size for entities and relations alike, so their
    # sweep moves both.
    runs = [(kind, replace(base_cfg, d_r=dim) if kind == "patreformer"
             else replace(base_cfg, d_e=dim, d_r=dim))
            for kind in kinds for dim in dims]
    for kind, cfg in runs:
        check_model(kind, cfg)
    _make_out_dir(args.out)

    rows = []
    for kind, cfg in runs:
        result, report = run_experiment(store, kind, cfg, train_cfg)
        rows.append(f"{kind},{cfg.d_r},{result.best_valid_mrr:.6f},"
                    f"{report.mrr:.6f}\n")
        print(f"model {kind}  d_r {cfg.d_r}  test_mrr {report.mrr:.6f}")
    if args.out:
        with open(os.path.join(args.out, "sweep.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("model,d_r,best_valid_mrr,test_mrr\n")
            fh.writelines(rows)
    return 0


def cmd_stats(args):
    store = load_dataset(args.data)
    if args.json:
        dump_stats_json(store, args.json)
    for key, value in store.stats().items():
        print(f"{key}: {value}")
    return 0


def cmd_categorize(args):
    store = load_dataset(args.data)
    scopes = tuple(SCOPES) if args.scope == "both" else (args.scope,)
    for scope in scopes:
        cats = categorize_relations(store, scope)
        rel_counts = np.bincount(cats[cats >= 0], minlength=len(CATEGORIES))
        triple_counts = category_counts(store, args.split, scope)
        print(f"scope {scope} (threshold {THRESHOLD}):")
        print(f"  {'category':<8} {'relations':>9} {args.split + ' triples':>14}")
        for cat, n_rel in zip(CATEGORIES, rel_counts.tolist()):
            print(f"  {cat:<8} {n_rel:>9} {triple_counts[cat]:>14}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(sub):
    """One ``--flag`` per ModelConfig and TrainConfig field, named like the
    config-file key with dashes and typed like the field's default."""
    sub.add_argument("--config", help="key=value option file")
    sub.add_argument("--model", choices=MODEL_KINDS)
    for title, cls in (("model options", ModelConfig),
                       ("training options", TrainConfig)):
        group = sub.add_argument_group(title)
        for f in fields(cls):
            group.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type=type(f.default), choices=CHOICES.get(f.name))


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
    p.add_argument("--split", choices=tuple(SPLIT_FILES), default="test")
    p.add_argument("--out", help="directory for the report CSV")
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
    p.add_argument("--split", choices=tuple(SPLIT_FILES), default="test")
    p.add_argument("--scope", choices=(*SCOPES, "both"), default="all")
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
    except OSError as exc:
        # Reads are mapped where they happen: this is a file not written.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
