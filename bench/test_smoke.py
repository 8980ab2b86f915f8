"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit and
direction, that a corrupted rank fails the oracle, and that the benchmark
fails, without a result, when the program is not there.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY_MODEL = {"d_e": 20, "d_r": 40, "d": 10, "heads": 2, "d_f": 20}
TINY = {
    name: replace(w, model_config=TINY_MODEL)
    for name, w in wl.WORKLOADS.items()
}
TINY["eval-large"] = replace(
    TINY["eval-large"], eval_triples=600,
    graph={"n_entities": 300, "n_clusters": 15, "n_relations": 16,
           "blocks_per_relation": 2.0})

with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_spec_matches_the_driver():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(m["better"] == "lower" for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted(name, trace):
    result, lines = run.run_workload(TINY[name], seed=3, seconds=0, trace=bool(trace))
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[1]: line.split()[2:] for line in lines
               if line.startswith("metric ")}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        value, unit, better = printed[m["name"]][:3]
        assert float(value) == got["value"]
        assert unit == m["unit"] and better == f"better={m['better']}"
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("env ") for line in lines)


def test_corrupted_rank_fails_the_oracle(monkeypatch):
    real = wl.evaluation.evaluate

    def corrupted(*args, **kwargs):
        report = real(*args, **kwargs)
        report.ranks[0] += 1.0
        return report

    monkeypatch.setattr(wl.evaluation, "evaluate", corrupted)
    result, lines = run.run_workload(TINY["eval-large"], seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("differ from the oracle" in line for line in lines)
    rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(rate.split()[1]) > 0


def test_fails_without_the_program():
    bare = os.path.join(wl.ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "eval-large", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
