#!/usr/bin/env python3
"""Train the patch model and both baselines on one dataset with an identical
budget and seed, then print the filtered-ranking test reports side by side.

Defaults reproduce the desk-scale benchmark on data/blocks135.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pkge.evaluation import format_report, write_report_csv
from pkge.kg import load_dataset
from pkge.model import MODEL_KINDS, ModelConfig
from pkge.training import TrainConfig, run_experiment


def run_one(store, kind, model_cfg, train_cfg):
    t0 = time.perf_counter()
    result, report = run_experiment(store, kind, model_cfg, train_cfg)
    elapsed = time.perf_counter() - t0
    print(f"\n== {kind} ==  best epoch {result.best_epoch}  "
          f"valid MRR {result.best_valid_mrr:.4f}  {elapsed:.0f}s")
    print(format_report(report))
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default="data/blocks135")
    ap.add_argument("--out", default="runs/benchmark")
    ap.add_argument("--models", default=",".join(MODEL_KINDS))
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--eval-every", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    store = load_dataset(args.data)
    print(f"dataset {args.data}: {store.stats()}")
    model_cfg = ModelConfig()
    train_cfg = TrainConfig(epochs=args.epochs, eval_every=args.eval_every,
                            seed=args.seed)
    os.makedirs(args.out, exist_ok=True)

    summary = []
    for kind in (k.strip() for k in args.models.split(",") if k.strip()):
        report = run_one(store, kind, model_cfg, train_cfg)
        write_report_csv(report, os.path.join(args.out, f"test_{kind}.csv"))
        summary.append((kind, report.mrr, report.hits))

    print("\n== summary (test split) ==")
    print(f"{'model':<12} {'MRR':>8} {'H@1':>8} {'H@3':>8} {'H@10':>8}")
    for kind, mrr, hits in summary:
        print(f"{kind:<12} {mrr:>8.4f} {hits[1]:>8.4f} "
              f"{hits[3]:>8.4f} {hits[10]:>8.4f}")


if __name__ == "__main__":
    main()
