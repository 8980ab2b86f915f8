#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr 17 \\
        --seed 1701 --pairs 10 [--workloads train-patreformer,eval-large]

For each workload and each of ``--pairs`` seeds (``--seed``, ``--seed`` + 1,
...) the benchmark command of the change's ``BENCHMARK.json`` runs once on
each side, ``--workload W --seed S --seconds T --trace 0``, where T is the
``run_seconds`` of that ``BENCHMARK.json``. Even pairs run the parent first,
odd pairs the change. Every run starts in a fresh copy of its checkout's
working tree, so no run sees another's build or work files. The report is
rewritten after every run, so a session cut short keeps the runs it made.
It names what each side ran twice: by git HEAD when the side is a git
checkout (``commits``), and by a SHA-256 over the files its runs copy,
taken before the first run (``tree_sha256``), which an exported tree has too.

Each run records its return code, wall time, the benchmark's result line
(the last line of stdout), its ``env`` line, and the child-process rusage
around it: minor page faults and user and system CPU seconds. Right before
each run the harness times two fixed calibration kernels, a pure-Python
loop and a seeded numpy product, and records both times with the run, so a
reader can tell a slow host phase from a slow change. The summary gives
each side's median of the rusage figures and of the calibration times,
and, per workload and end-to-end metric, each side's median and quartiles,
the pairs the change won (ties count for neither side), the parent's
interquartile range as a share of its median, whether the change's median
is worse than the parent's by more than the metric's bound, and whether a
claim that the change improves the metric holds (``claim_met``): the change
won at least 9 in 10 of the completed pairs, and its median beats the
parent's by more than the parent's interquartile range. A metric is
``unresolved`` when the parent's interquartile range, as a share of its
median, exceeds the metric's bound and not every change run beats every
parent run: its spread then hides a change as large as the bound. At the end one
line per workload and metric prints the medians, the pairs won and these
verdicts.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

SIDES = ("parent", "change")
# Left out of each fresh copy: version control and what runs leave behind.
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".bench_work", ".hypothesis")


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def commit_of(checkout):
    """HEAD of the checkout and whether its working tree differs from it, or
    None when it is not a git checkout."""
    try:
        head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"head": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def tree_digest(checkout):
    """SHA-256 over the files ``run_once`` copies from ``checkout``: each
    relative path, in sorted order, then its size and bytes. Names that
    ``SKIP`` matches are left out, as in the copy."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(checkout, followlinks=True):
        skipped = SKIP(dirpath, dirnames + filenames)
        dirnames[:] = [d for d in dirnames if d not in skipped]
        paths += [os.path.join(dirpath, f) for f in filenames if f not in skipped]
    digest = hashlib.sha256()
    for rel in sorted(os.path.relpath(p, checkout) for p in paths):
        with open(os.path.join(checkout, rel), "rb") as fh:
            data = fh.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def calibrate():
    """Seconds taken by two fixed kernels in this process, each the median
    of three timings: a pure-Python loop of 200,000 steps and the product
    of a seeded 512 x 512 float64 matrix with itself."""
    def median_time(kernel):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return round(statistics.median(times), 6)

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i % 7
        return total

    a = np.random.default_rng(0).standard_normal((512, 512))
    return {"python_s": median_time(python_loop),
            "numpy_s": median_time(lambda: a @ a)}


def run_once(checkout, command, workload, seed, seconds, work_root):
    """One benchmark run in a fresh copy of ``checkout``, calibrated right
    before it; returns its record."""
    copy = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        tree = os.path.join(copy, "tree")
        shutil.copytree(checkout, tree, ignore=SKIP)
        argv = list(command) + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"]
        calibration = calibrate()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = parse_json(lines[-1]) if lines else None
    env = next((parse_json(line[4:]) for line in lines if line.startswith("env ")),
               None)
    return {
        "returncode": proc.returncode,
        "wall_s": round(wall, 3),
        "ru_minflt": after.ru_minflt - before.ru_minflt,
        "user_cpu_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_cpu_s": round(after.ru_stime - before.ru_stime, 3),
        "calibration": calibration,
        "result": result,
        "env": env,
        "stderr_tail": proc.stderr.splitlines()[-5:] if proc.returncode else [],
    }


def parse_json(text):
    """``text`` as JSON, or None when it is not."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def succeeded(run):
    return bool(run["result"] and run["result"].get("correct"))


def metric_value(run, name):
    """The run's value of metric ``name``, or None if the run failed."""
    metric = run["result"].get("metrics", {}).get(name) if succeeded(run) else None
    return None if metric is None else metric["value"]


def side_medians(runs, value):
    """{side: median of ``value(run)`` over that side's ``runs``}, for each
    side with a run."""
    return {side: statistics.median(value(r) for r in runs if r["side"] == side)
            for side in SIDES if any(r["side"] == side for r in runs)}


def summarize(runs, workloads, metrics):
    """{workload: {"runs", "failed", "metrics": {name: ...}, "rusage": ...,
    "calibration": ...}}."""
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        entry = {
            "runs": len(mine),
            "failed": {side: sum(1 for r in mine
                                 if r["side"] == side and not succeeded(r))
                       for side in SIDES},
            "metrics": {},
        }
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            values = {side: [v for r in mine if r["side"] == side
                             for v in [metric_value(r, name)] if v is not None]
                      for side in SIDES}
            if not all(values.values()):
                entry["metrics"][name] = None
                continue
            wins = ties = completed = 0
            for pair in pairs.values():
                if len(pair) < 2:
                    continue
                p, c = (metric_value(pair[side], name) for side in SIDES)
                if p is None or c is None:
                    continue
                completed += 1
                ties += p == c
                wins += (c < p) if lower else (c > p)
            stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side])))
                     for side in SIDES}
            parent_median = stats["parent"]["median"]
            change_median = stats["change"]["median"]
            worse_by = ((change_median - parent_median) if lower
                        else (parent_median - change_median))
            parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            beats_all = (max(values["change"]) < min(values["parent"]) if lower
                         else min(values["change"]) > max(values["parent"]))
            entry["metrics"][name] = {
                **stats,
                "change_wins": wins,
                "ties": ties,
                "pairs": sum(1 for pair in pairs.values() if len(pair) == 2),
                "parent_iqr_share": parent_iqr / parent_median,
                "change_over_parent": change_median / parent_median,
                "bound": spec.get("bound"),
                "worse_than_bound": (spec.get("bound") is not None
                                     and worse_by / parent_median > spec["bound"]),
                "claim_met": (completed > 0 and 10 * wins >= 9 * completed
                              and -worse_by > parent_iqr),
                "unresolved": (spec.get("bound") is not None
                               and parent_iqr / parent_median > spec["bound"]
                               and not beats_all),
            }
        entry["rusage"] = {
            key: side_medians(mine, lambda r: r[key])
            for key in ("ru_minflt", "user_cpu_s", "sys_cpu_s", "wall_s")}
        entry["calibration"] = {
            key: side_medians(mine, lambda r: r["calibration"][key])
            for key in ("python_s", "numpy_s")}
        summary[workload] = entry
    return summary


def summary_lines(summary):
    """One line per workload and end-to-end metric: both sides' medians, the
    pairs the change won out of all pairs, and the verdicts of ``summarize``."""
    lines = []
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            head = f"{workload} {name}:"
            if m is None:
                lines.append(f"{head} no successful run on one side")
                continue
            lines.append(
                f"{head} parent {m['parent']['median']:.6g} change "
                f"{m['change']['median']:.6g} won {m['change_wins']}/{m['pairs']} "
                f"parent_iqr_share {m['parent_iqr_share']:.3f} "
                f"worse_than_bound {m['worse_than_bound']} "
                f"claim_met {m['claim_met']} unresolved {m['unresolved']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="the parent checkout")
    ap.add_argument("--change", required=True, help="the change checkout")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default every workload of BENCHMARK.json")
    ap.add_argument("--out", default=None,
                    help="default BENCH_<pr>.json in the change checkout")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = load_spec(args.change)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        ap.error(f"unknown workloads {unknown}; BENCHMARK.json lists {known}")
    seconds = spec["run_seconds"]
    seeds = [args.seed + i for i in range(args.pairs)]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    out = args.out or os.path.join(checkouts["change"], f"BENCH_{args.pr}.json")

    runs = []
    commits = {side: commit_of(path) for side, path in checkouts.items()}
    trees = {side: tree_digest(path) for side, path in checkouts.items()}

    def write_report():
        report = {
            "command": list(spec["command"]) + [
                "--workload", "W", "--seed", "S", "--seconds", str(seconds),
                "--trace", "0"],
            "pr": args.pr,
            "commits": commits,
            "tree_sha256": trees,
            "workloads": workloads,
            "seeds": seeds,
            "order": "pair i runs the parent first when i is even, the change "
                     "first when odd; each run in a fresh copy of its checkout",
            "summary": summarize(runs, workloads, spec["end_to_end"]),
            "runs": runs,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")

    work_root = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        for workload in workloads:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    record = run_once(checkouts[side], spec["command"], workload,
                                      seed, seconds, work_root)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, "first": order[0], **record})
                    write_report()
                    print(f"{workload} seed {seed} {side}: rc {record['returncode']} "
                          f"wall {record['wall_s']:.1f}s "
                          f"{'ok' if succeeded(runs[-1]) else 'FAILED'}", flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for line in summary_lines(summarize(runs, workloads, spec["end_to_end"])):
        print(line)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
