"""scripts/bench_pairs.py driven with a stub benchmark command, so no real
workload runs: alternation, fresh copies, rusage, failures and the summary."""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Prints an env line and a result line whose metrics depend on the side (read
# from SIDE) and the seed; QPS, when present, replaces the side's base rate,
# and BADENV makes the env line unparsable. Fails when its working directory
# already holds the marker of an earlier run, or when FAIL names this workload
# and seed.
STUB = r'''
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if os.path.exists("RAN"):
    sys.exit("not a fresh copy")
open("RAN", "w").close()
side = open("SIDE").read().strip()
seed = int(args["--seed"])
if os.path.exists("FAIL") and open("FAIL").read().split() == [args["--workload"], str(seed)]:
    sys.exit("failed on purpose")
base = float(open("QPS").read()) if os.path.exists("QPS") else (
    100.0 if side == "parent" else 120.0)
qps = base + seed
run_s = 1.0 if side == "parent" else (0.9 if seed % 2 else 1.0)
print("metric queries_per_s", qps)
print("env " + ("{not json" if os.path.exists("BADENV") else
                json.dumps({"workload": args["--workload"], "seed": seed})))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "queries_per_s": {"value": qps, "unit": "1/s"},
    "run_s": {"value": run_s, "unit": "s"}}}))
'''

SPEC = {
    "command": [sys.executable, "stub.py"],
    "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [{"name": "queries_per_s", "better": "higher", "bound": 0.25},
                   {"name": "run_s", "better": "lower", "bound": 0.25}],
}


def checkout(path, side, **files):
    """A stub checkout; ``files`` maps an extra file name (FAIL, QPS, BADENV)
    to its text."""
    os.makedirs(path)
    with open(os.path.join(path, "BENCHMARK.json"), "w") as fh:
        json.dump(SPEC, fh)
    for name, text in dict(files, **{"stub.py": STUB, "SIDE": side}).items():
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)
    return str(path)


@pytest.fixture
def report(tmp_path, capsys):
    # Requests capsys, so a test that also does reads what main printed.
    parent = checkout(tmp_path / "parent", "parent", FAIL="w2 11")
    change = checkout(tmp_path / "change", "change")
    assert bench_pairs.main(["--parent", parent, "--change", change, "--pr", "99",
                             "--seed", "10", "--pairs", "3"]) == 0
    with open(os.path.join(change, "BENCH_99.json")) as fh:
        return json.load(fh)


def test_pairs_alternate_and_cover_every_workload(report):
    runs = report["runs"]
    assert report["workloads"] == ["w1", "w2"] and report["seeds"] == [10, 11, 12]
    assert len(runs) == 2 * 3 * 2
    for w in ("w1", "w2"):
        mine = [r for r in runs if r["workload"] == w]
        assert [(r["seed"], r["side"]) for r in mine] == [
            (10, "parent"), (10, "change"), (11, "change"), (11, "parent"),
            (12, "parent"), (12, "change")]
        assert [r["first"] for r in mine[::2]] == ["parent", "change", "parent"]


def test_each_run_records_result_env_and_rusage(report):
    for r in report["runs"]:
        assert r["ru_minflt"] >= 0 and r["user_cpu_s"] >= 0 and r["sys_cpu_s"] >= 0
        assert r["wall_s"] > 0
        if r["returncode"] == 0:     # a run in a reused copy would fail
            assert r["result"]["correct"]
            assert r["env"] == {"workload": r["workload"], "seed": r["seed"]}
    failed = [r for r in report["runs"] if r["returncode"] != 0]
    assert [(r["workload"], r["seed"], r["side"]) for r in failed] == [
        ("w2", 11, "parent")]
    assert failed[0]["result"] is None and failed[0]["stderr_tail"]


def test_each_run_records_both_calibration_times(report):
    for r in report["runs"]:
        assert set(r["calibration"]) == {"python_s", "numpy_s"}
        assert all(t > 0 for t in r["calibration"].values())


def test_calibration_runs_right_before_each_run(tmp_path, monkeypatch):
    parent = checkout(tmp_path / "parent", "parent")
    change = checkout(tmp_path / "change", "change")
    events, real_run = [], bench_pairs.subprocess.run

    def calibrate():
        events.append("calibrate")
        return {"python_s": len(events), "numpy_s": 0.5}

    def run(argv, **kwargs):
        if "--workload" in argv:          # not the harness's git queries
            events.append("run")
        return real_run(argv, **kwargs)

    monkeypatch.setattr(bench_pairs, "calibrate", calibrate)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", parent, "--change", change, "--pr", "1",
                      "--seed", "1", "--pairs", "2", "--workloads", "w1",
                      "--out", str(out)])
    assert events == ["calibrate", "run"] * 4
    report = json.loads(out.read_text())
    assert [r["calibration"]["python_s"] for r in report["runs"]] == [1, 3, 5, 7]
    # pair 0 runs the parent first (1, 3), pair 1 the change first (5, 7)
    assert report["summary"]["w1"]["calibration"] == {
        "python_s": {"parent": 4, "change": 4},
        "numpy_s": {"parent": 0.5, "change": 0.5}}


def test_summary_medians_quartiles_and_wins(report):
    w1 = report["summary"]["w1"]
    assert w1["runs"] == 6 and w1["failed"] == {"parent": 0, "change": 0}
    qps = w1["metrics"]["queries_per_s"]
    assert qps["parent"]["median"] == 111.0 and qps["change"]["median"] == 131.0
    assert qps["parent"]["q1"] <= 111.0 <= qps["parent"]["q3"]
    assert (qps["change_wins"], qps["ties"], qps["pairs"]) == (3, 0, 3)
    assert not qps["worse_than_bound"]
    assert qps["change_over_parent"] == pytest.approx(131.0 / 111.0)
    run_s = w1["metrics"]["run_s"]
    assert (run_s["change_wins"], run_s["ties"]) == (1, 2)
    assert run_s["parent_iqr_share"] == 0.0
    assert set(w1["rusage"]) == {"ru_minflt", "user_cpu_s", "sys_cpu_s", "wall_s"}

    w2 = report["summary"]["w2"]
    assert w2["failed"] == {"parent": 1, "change": 0}
    assert w2["metrics"]["queries_per_s"]["pairs"] == 3
    assert w2["metrics"]["queries_per_s"]["change_wins"] == 2   # one pair failed


def test_claim_met_from_the_stub_runs(report):
    w1 = report["summary"]["w1"]["metrics"]
    assert w1["queries_per_s"]["claim_met"]          # 3/3 wins, +20 against IQR 2
    assert not w1["run_s"]["claim_met"]              # 1 win, 2 ties
    # The failed pair counts for neither side: 2/2 completed pairs won.
    assert report["summary"]["w2"]["metrics"]["queries_per_s"]["claim_met"]


def test_summary_lines_printed_at_the_end(report, capsys):
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("wrote ")
    assert out[-5:-1] == bench_pairs.summary_lines(report["summary"])
    assert out[-5:-1] == [
        "w1 queries_per_s: parent 111 change 131 won 3/3 parent_iqr_share "
        "0.018 worse_than_bound False claim_met True unresolved False",
        "w1 run_s: parent 1 change 1 won 1/3 parent_iqr_share 0.000 "
        "worse_than_bound False claim_met False unresolved False",
        "w2 queries_per_s: parent 111 change 131 won 2/3 parent_iqr_share "
        "0.027 worse_than_bound False claim_met True unresolved False",
        # The change's 0.9 s at seed 11 has no parent run to beat.
        "w2 run_s: parent 1 change 1 won 0/3 parent_iqr_share 0.000 "
        "worse_than_bound False claim_met False unresolved False"]


def test_summary_line_for_a_metric_without_runs():
    summary = {"w": {"metrics": {"run_s": None}}}
    assert bench_pairs.summary_lines(summary) == [
        "w run_s: no successful run on one side"]


def synthetic_runs(parent, change):
    """Run records of one workload whose pair i measured ``parent[i]`` and
    ``change[i]`` queries/s."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(bench_pairs.SIDES, values):
            runs.append({"workload": "w", "pair": pair, "side": side,
                         "result": {"correct": True, "metrics": {
                             "queries_per_s": {"value": value}}},
                         "ru_minflt": 0, "user_cpu_s": 0.0, "sys_cpu_s": 0.0,
                         "wall_s": 1.0,
                         "calibration": {"python_s": 0.01, "numpy_s": 0.01}})
    return runs


PARENT_QPS = [100.0 + i for i in range(10)]      # median 104.5, IQR 5.5


@pytest.mark.parametrize("change, met", [
    ([v + 10 for v in PARENT_QPS[:9]] + [90.0], True),         # 9/10 wins
    ([v + 10 for v in PARENT_QPS[:8]] + [90.0, 90.0], False),  # 8/10 wins
    ([v + 10 for v in PARENT_QPS[:9]] + [109.0], True),        # 9 wins, 1 tie
    ([v + 10 for v in PARENT_QPS[:8]] + [108.0, 109.0], False),  # 8 wins, 2 ties
    ([v + 5 for v in PARENT_QPS], False),     # 10/10, but +5 is inside the IQR
])
def test_claim_met_needs_nine_in_ten_wins_and_a_gain_past_the_iqr(change, met):
    spec = [{"name": "queries_per_s", "better": "higher", "bound": 0.25}]
    qps = bench_pairs.summarize(synthetic_runs(PARENT_QPS, change), ["w"],
                                spec)["w"]["metrics"]["queries_per_s"]
    assert qps["parent"]["q3"] - qps["parent"]["q1"] == pytest.approx(5.5)
    assert qps["claim_met"] is met


WIDE_PARENT = [60.0, 80.0, 100.0, 120.0, 140.0] * 2     # IQR 40% of 100


@pytest.mark.parametrize("parent, change, unresolved", [
    (WIDE_PARENT, [v + 5 for v in WIDE_PARENT], True),    # spread past the bound
    (WIDE_PARENT, [150.0] * 10, False),                   # every run beats every one
    (PARENT_QPS, [v - 5 for v in PARENT_QPS], False),     # IQR 5% of the median
])
def test_unresolved_when_the_parent_spread_exceeds_the_bound(parent, change,
                                                             unresolved):
    spec = [{"name": "queries_per_s", "better": "higher", "bound": 0.25}]
    qps = bench_pairs.summarize(synthetic_runs(parent, change), ["w"],
                                spec)["w"]["metrics"]["queries_per_s"]
    assert qps["unresolved"] is unresolved
    assert f"unresolved {unresolved}" in bench_pairs.summary_lines(
        {"w": {"metrics": {"queries_per_s": qps}}})[0]


@pytest.mark.parametrize("change_qps, flagged", [("80", False), ("50", True)])
def test_worse_than_bound_flagged(tmp_path, change_qps, flagged):
    # The parent's median is 101; 81 is 20% worse, 51 is 50% worse (bound 25%).
    parent = checkout(tmp_path / "parent", "parent")
    change = checkout(tmp_path / "change", "change", QPS=change_qps)
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", parent, "--change", change, "--pr", "1",
                      "--seed", "1", "--pairs", "1", "--workloads", "w1",
                      "--out", str(out)])
    qps = json.loads(out.read_text())["summary"]["w1"]["metrics"]["queries_per_s"]
    assert qps["change_wins"] == 0
    assert qps["worse_than_bound"] is flagged


def test_unknown_workload_rejected(tmp_path):
    parent = checkout(tmp_path / "parent", "parent")
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", parent, "--change", parent, "--pr", "1",
                          "--seed", "1", "--workloads", "nope"])


def test_unparsable_env_line_recorded_as_none(tmp_path):
    parent = checkout(tmp_path / "parent", "parent", BADENV="")
    change = checkout(tmp_path / "change", "change")
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", parent, "--change", change, "--pr", "1",
                      "--seed", "1", "--pairs", "1", "--workloads", "w1",
                      "--out", str(out)])
    runs = {r["side"]: r for r in json.loads(out.read_text())["runs"]}
    assert runs["parent"]["env"] is None and runs["parent"]["result"]["correct"]
    assert runs["change"]["env"] == {"workload": "w1", "seed": 1}


def test_report_written_after_each_run(tmp_path, monkeypatch):
    # A session that stops after its second run still leaves both records.
    parent = checkout(tmp_path / "parent", "parent")
    change = checkout(tmp_path / "change", "change")
    out = tmp_path / "pairs.json"
    real, calls = bench_pairs.run_once, []

    def stop_at_third(*a):
        calls.append(a)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*a)

    monkeypatch.setattr(bench_pairs, "run_once", stop_at_third)
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(["--parent", parent, "--change", change, "--pr", "1",
                          "--seed", "1", "--pairs", "2", "--workloads", "w1",
                          "--out", str(out)])
    report = json.loads(out.read_text())
    assert [(r["seed"], r["side"]) for r in report["runs"]] == [
        (1, "parent"), (1, "change")]
    assert report["summary"]["w1"]["metrics"]["queries_per_s"]["pairs"] == 1


def test_report_names_each_tree_by_its_digest(tmp_path):
    # The stub checkouts are not git checkouts: no commit, but a digest.
    trees = {side: checkout(tmp_path / side, side) for side in bench_pairs.SIDES}
    want = {side: bench_pairs.tree_digest(path) for side, path in trees.items()}
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", trees["parent"], "--change", trees["change"],
                      "--pr", "1", "--seed", "1", "--pairs", "1",
                      "--workloads", "w1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["commits"] == {"parent": None, "change": None}
    assert report["tree_sha256"] == want
    assert len(want["parent"]) == 64 and want["parent"] != want["change"]


def test_digest_follows_every_copied_byte_and_only_those(tmp_path):
    tree = checkout(tmp_path / "tree", "parent")
    before = bench_pairs.tree_digest(tree)
    for skipped in ("__pycache__", ".git", os.path.join("src", "__pycache__")):
        os.makedirs(os.path.join(tree, skipped))
        with open(os.path.join(tree, skipped, "x.pyc"), "wb") as fh:
            fh.write(b"\0")
    assert bench_pairs.tree_digest(tree) == before
    with open(os.path.join(tree, "SIDE"), "r+b") as fh:
        fh.write(b"q")       # "parent" becomes "qarent"
    assert bench_pairs.tree_digest(tree) != before
