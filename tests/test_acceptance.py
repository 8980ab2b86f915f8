"""Gate suite: twelve end-to-end checks over the full pipeline.

Each check prints one PASS/FAIL line with its measured numbers (bypassing
capture so the lines are visible in any run), then asserts. The slow checks
train real models on the bundled synthetic datasets. The two checks against
the official benchmark datasets skip unless the files are present under
``data/wn18rr`` and ``data/fb15k237``.
"""

import filecmp
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from pkge.cli import main
from pkge.evaluation import evaluate, metrics_from_ranks
from pkge.kg import category_counts, load_dataset
from pkge.model import (ABLATION_VARIANTS, ModelConfig, PatReFormer,
                        build_model, multi_head_attention)
from pkge.params import glorot_uniform
from pkge.segmentation import (build_frozen_basis, build_trainable_basis,
                               orthonormality_deviation, segment_folding,
                               segment_mapped, segment_none)
from pkge.tensor import Tensor, matmul, mul
from pkge.training import (Adam, TrainConfig, bce_smoothed_loss, restore_model,
                           run_experiment, save_checkpoint, seed_streams,
                           train_model)

from gradcheck import check_gradients
from reference_ops import layer_norm, reduce_sum, softmax_lastdim
from test_evaluation import TableModel, oracle_ranks, random_store_and_table
from test_gradients import model_loss_fn

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

WN18RR_DIR = os.path.join(DATA, "wn18rr")
FB15K237_DIR = os.path.join(DATA, "fb15k237")


@pytest.fixture
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(tag, ok, detail):
        line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        return ok

    return emit


def small_config(**over):
    base = dict(d_e=16, d_r=16, d=4, heads=2, layers=1, d_f=16,
                p1=0.0, p2=0.0, p3=0.0)
    base.update(over)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------


def test_p01_gradient_accuracy(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    worst_prim = 0.0

    def prim(fn, arrays):
        nonlocal worst_prim
        worst_prim = max(worst_prim,
                         check_gradients(fn, arrays, h=1e-4, rtol=1e-4,
                                         atol=1e-10))

    a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
    prim(lambda x, y: reduce_sum(matmul(x, y)), [a, b])
    x = rng.standard_normal((3, 6))
    g, be = np.ones(6), np.zeros(6)
    w1 = rng.standard_normal((3, 6))
    w2 = rng.standard_normal((3, 6))
    prim(lambda t: reduce_sum(mul(layer_norm(t, Tensor(g), Tensor(be)), w1)),
         [x])
    prim(lambda t: reduce_sum(mul(softmax_lastdim(t), w2)), [x])
    logits = rng.standard_normal((2, 7))
    targets = np.zeros((2, 7), dtype=np.float32)
    targets[0, 1] = targets[1, 4] = 1.0
    prim(lambda t: bce_smoothed_loss(t, np.nonzero(targets), 0.1), [logits])
    wq, wk, wv, wo = (rng.standard_normal((4, 4)) * 0.4 for _ in range(4))
    xs = rng.standard_normal((2, 3, 4))
    # The attention sublayer ends in a layer norm, whose rows sum to
    # sum(gamma · x̂): a gamma that is not constant keeps the sum from
    # vanishing.
    ln_gamma, ln_beta = Tensor(np.linspace(0.5, 1.5, 4)), Tensor(np.zeros(4))
    prim(lambda t, q, k, v, o: reduce_sum(
        multi_head_attention(t, t, q, k, v, o, ln_gamma, ln_beta, heads=2)),
        [xs, wq, wk, wv, wo])

    model = build_model("patreformer", small_config(d_e=8, d_r=8),
                        5, 4, seed_streams(3)["init"])
    ents, rels = np.array([0, 1]), np.array([0, 2])
    targ = np.zeros((2, 5), dtype=np.float32)
    targ[0, 3] = targ[1, 1] = 1.0
    fn, arrays = model_loss_fn(model, ents, rels, targ)
    worst_model = check_gradients(fn, arrays, h=1e-4, rtol=1e-3, atol=1e-10)

    elapsed = time.perf_counter() - t0
    ok = worst_prim < 1e-4 and worst_model < 1e-3 and elapsed < 60
    announce("P1 gradient accuracy", ok,
             f"worst primitive {worst_prim:.2e} < 1e-4, "
             f"worst full-model {worst_model:.2e} < 1e-3, {elapsed:.1f}s")
    assert ok


def test_p02_frozen_basis_immutability(announce, memo_store):
    dev0 = orthonormality_deviation(
        build_frozen_basis(2, 50, np.random.default_rng(0)))

    model = PatReFormer(small_config(), memo_store.num_entities,
                        memo_store.num_relations_with_reverse,
                        seed_streams(0)["init"])
    before = {side: model.params[f"seg.{side}.basis"].data.copy()
              for side in ("entity", "relation")}
    adam = Adam(model.params, lr=1e-3)
    queries = memo_store.train_query_targets()
    rng = np.random.default_rng(1)
    for _ in range(100):
        picks = rng.integers(len(queries), size=8)
        ents = queries.entities[picks]
        rels = queries.relations[picks]
        model.params.zero_grad()
        loss = bce_smoothed_loss(model.score_all(ents, rels),
                                 queries.lookup(ents, rels), 0.1)
        loss.backward()
        adam.step()
    assert adam.step_count == 100

    unchanged = all(
        np.array_equal(model.params[f"seg.{side}.basis"].data, before[side])
        for side in ("entity", "relation"))
    dev_after = max(
        orthonormality_deviation(model.params[f"seg.{side}.basis"].data)
        for side in ("entity", "relation"))
    ok = dev0 <= 1e-6 and unchanged and dev_after <= 1e-6
    announce("P2 frozen basis immutability", ok,
             f"init deviation {dev0:.2e}, bit-identical after 100 Adam steps: "
             f"{unchanged}, deviation {dev_after:.2e}")
    assert ok


def test_p03_segmentation_consistency(announce):
    rng = np.random.default_rng(2)
    k, d = 4, 6
    e = rng.standard_normal((5, k * d)).astype(np.float32)

    folded = segment_folding(Tensor(e), k, d)
    roundtrip = np.array_equal(folded.data.reshape(5, k * d), e)

    unit = Tensor(np.eye(k * d, dtype=np.float32).reshape(k, d, k * d))
    unit_match = np.array_equal(segment_mapped(Tensor(e), unit).data,
                                folded.data)

    frozen = Tensor(build_frozen_basis(k, d, np.random.default_rng(3)))
    trainable = Tensor(build_trainable_basis(k, d, np.random.default_rng(4)))
    proj = Tensor(glorot_uniform(np.random.default_rng(5), (k * d, d)))
    schemes = {
        "folding": lambda t: segment_folding(t, k, d),
        "frozen": lambda t: segment_mapped(t, frozen),
        "trainable": lambda t: segment_mapped(t, trainable),
        "none": lambda t: segment_none(t, proj),
    }
    x = rng.standard_normal((3, k * d)).astype(np.float32)
    y = rng.standard_normal((3, k * d)).astype(np.float32)
    al, be = np.float32(0.5), np.float32(-0.25)
    worst_lin = max(
        float(np.max(np.abs(fn(Tensor(al * x + be * y)).data
                            - (al * fn(Tensor(x)).data
                               + be * fn(Tensor(y)).data))))
        for fn in schemes.values())

    ok = roundtrip and unit_match and worst_lin <= 1e-6
    announce("P3 segmentation consistency", ok,
             f"fold round-trip exact: {roundtrip}, unit basis == fold: "
             f"{unit_match}, linearity residual {worst_lin:.2e} <= 1e-6")
    assert ok


def test_p04_ranking_matches_loop_oracle(announce):
    mismatches = 0
    total_queries = 0
    for seed in range(10):
        store, table = random_store_and_table(seed)
        report = evaluate(store, TableModel(table), "test", batch_size=16)
        want = oracle_ranks(store, table, "test")
        total_queries += len(want)
        if not np.array_equal(report.ranks, want):
            mismatches += 1
            continue
        mrr, hits = metrics_from_ranks(want)
        if report.mrr != mrr or report.hits != hits:
            mismatches += 1
    ok = mismatches == 0
    announce("P4 ranking protocol vs loop oracle", ok,
             f"10 random graphs, {total_queries} queries, "
             f"{mismatches} disagreements")
    assert ok


def test_p05_memorization(announce):
    t0 = time.perf_counter()
    store = load_dataset(os.path.join(DATA, "memo30"))
    model = PatReFormer(ModelConfig(), store.num_entities,
                        store.num_relations_with_reverse,
                        seed_streams(0)["init"])
    cfg = TrainConfig(epochs=300, eval_every=25, seed=0)
    result = train_model(store, model, cfg)
    elapsed = time.perf_counter() - t0
    ok = result.best_valid_mrr >= 0.95 and elapsed < 300
    announce("P5 memorization capacity", ok,
             f"MRR {result.best_valid_mrr:.4f} >= 0.95 at epoch "
             f"{result.best_epoch} <= 300, {elapsed:.0f}s < 300s")
    assert ok


def _train_and_test_best(store, kind, model_cfg, train_cfg):
    return run_experiment(store, kind, model_cfg, train_cfg)[1].mrr


def test_p06_benchmark_parity(announce):
    t0 = time.perf_counter()
    store = load_dataset(os.path.join(DATA, "blocks135"))
    train_cfg = TrainConfig(epochs=200, eval_every=50, seed=0)
    model_cfg = ModelConfig()
    ours = _train_and_test_best(store, "patreformer", model_cfg, train_cfg)
    ref = _train_and_test_best(store, "distmult", model_cfg, train_cfg)
    elapsed = time.perf_counter() - t0
    ok = ours >= ref - 0.01 and elapsed < 1800
    announce("P6 benchmark parity", ok,
             f"patreformer test MRR {ours:.4f} vs distmult {ref:.4f} "
             f"(margin {ours - ref:+.4f} >= -0.01), same budget/seed, "
             f"{elapsed:.0f}s")
    assert ok


REFERENCE_STATS = {
    "wn18rr": {"entities": 40943, "relations": 11,
               "train": 86835, "valid": 3034, "test": 3134},
    "fb15k237": {"entities": 14541, "relations": 237,
                 "train": 272115, "valid": 17535, "test": 20466},
}


def test_p07_reference_dataset_stats(announce):
    missing = [n for n, d in (("wn18rr", WN18RR_DIR),
                              ("fb15k237", FB15K237_DIR))
               if not os.path.isdir(d)]
    if missing:
        pytest.skip(f"official datasets not bundled; place the split files "
                    f"under data/{{{','.join(missing)}}} to enable")
    results = {}
    for name, directory in (("wn18rr", WN18RR_DIR),
                            ("fb15k237", FB15K237_DIR)):
        results[name] = load_dataset(directory).stats()
    ok = results == REFERENCE_STATS
    announce("P7 reference dataset statistics", ok,
             "; ".join(f"{n}: {results[n]}" for n in results))
    assert ok


def test_p08_reference_category_counts(announce):
    if not os.path.isdir(FB15K237_DIR):
        pytest.skip("official dataset not bundled; place the split files "
                    "under data/fb15k237 to enable")
    store = load_dataset(FB15K237_DIR)
    want = {"1-1": 192, "1-N": 1293, "N-1": 4185, "N-N": 14796}
    got_by_scope = {scope: category_counts(store, split="test", scope=scope)
                    for scope in ("all", "train")}
    matched = [s for s, got in got_by_scope.items() if got == want]
    ok = bool(matched)
    announce("P8 reference category counts", ok,
             f"expected {want}; matched scope: {matched or got_by_scope}")
    assert ok


def test_p09_relation_dim_robustness(announce):
    t0 = time.perf_counter()
    store = load_dataset(os.path.join(DATA, "blocks135"))
    train_cfg = TrainConfig(epochs=160, eval_every=20, seed=0)
    runs = {dim: ModelConfig(d_r=dim) for dim in (100, 500, 1000)}
    mrr = {dim: _train_and_test_best(store, "patreformer", cfg, train_cfg)
           for dim, cfg in runs.items()}
    elapsed = time.perf_counter() - t0
    ok = mrr[1000] >= mrr[100] - 0.02 and elapsed < 2700
    announce("P9 relation-dimension robustness", ok,
             f"test MRR 100:{mrr[100]:.4f} 500:{mrr[500]:.4f} "
             f"1000:{mrr[1000]:.4f}; drop {mrr[100] - mrr[1000]:+.4f} "
             f"<= 0.02, {elapsed:.0f}s")
    assert ok


def test_p10_ablation_grid(announce, memo_store):
    t0 = time.perf_counter()
    train_cfg = TrainConfig(epochs=15, eval_every=15, seed=0)
    base = ModelConfig()
    # With one validation, at the last epoch, each run tests its last-epoch
    # model.
    runs = {name: replace(base, **overrides)
            for name, overrides in ABLATION_VARIANTS.items()}
    # Each distinct config trains once: at this base frozen-seg and
    # sequential are the base itself, so 10 variants take 9 trainings.
    trained = {cfg: _train_and_test_best(memo_store, "patreformer", cfg,
                                         train_cfg)
               for cfg in dict.fromkeys(runs.values())}
    results = {name: trained[cfg] for name, cfg in runs.items()}
    finite = all(0.0 < v <= 1.0 for v in results.values())

    # the separate-tower variant must keep entity patches blind to relations
    sep = PatReFormer(replace(base, attention="separate_self", p1=0.0,
                              p2=0.0, p3=0.0),
                      memo_store.num_entities,
                      memo_store.num_relations_with_reverse,
                      seed_streams(1)["init"])
    rng = np.random.default_rng(2)
    e = Tensor(rng.standard_normal((2, base.d_e)).astype(np.float32))
    r1 = Tensor(rng.standard_normal((2, base.d_r)).astype(np.float32))
    r2 = Tensor(rng.standard_normal((2, base.d_r)).astype(np.float32))
    no_cross = np.array_equal(sep.encode(e, r1).data[..., :base.k_e, :],
                              sep.encode(e, r2).data[..., :base.k_e, :])

    elapsed = time.perf_counter() - t0
    ok = len(results) == 10 and finite and no_cross
    announce("P10 ablation grid", ok,
             f"{len(results)}/10 variants from {len(trained)} trainings, "
             f"all MRR finite: {finite}, "
             f"separate towers leak-free: {no_cross}, {elapsed:.0f}s")
    assert ok


def test_p11_bit_reproducibility(announce, tmp_path, capsys):
    flags = ["--d-e", "16", "--d-r", "16", "--d", "4", "--heads", "2",
             "--layers", "1", "--d-f", "16", "--epochs", "4",
             "--eval-every", "2", "--seed", "7", "--lr", "0.01",
             "--batch-size", "128"]
    data = os.path.join(DATA, "memo30")
    outputs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        rc = main(["train", "--data", data, "--out", out] + flags)
        assert rc == 0
        outputs.append((out, capsys.readouterr().out))

    files = ("config.txt", "train_log.csv", "best.ckpt", "eval_test.csv")
    same_files = all(
        filecmp.cmp(os.path.join(outputs[0][0], f),
                    os.path.join(outputs[1][0], f), shallow=False)
        for f in files)
    same_stdout = outputs[0][1] == outputs[1][1]
    ok = same_files and same_stdout
    announce("P11 bit-level reproducibility", ok,
             f"two same-seed runs: files byte-identical: {same_files}, "
             f"stdout identical: {same_stdout}")
    assert ok


def test_p12_checkpoint_fidelity(announce, memo_store, tmp_path):
    model = PatReFormer(small_config(p3=0.1), memo_store.num_entities,
                        memo_store.num_relations_with_reverse,
                        seed_streams(4)["init"])
    cfg = TrainConfig(epochs=3, eval_every=3, seed=4)
    train_model(memo_store, model, cfg)
    path = str(tmp_path / "fidelity.ckpt")
    save_checkpoint(path, model)

    before = evaluate(memo_store, model, "test")
    restored, ck = restore_model(path)
    params_equal = all(
        np.array_equal(restored.params[n].data, t.data)
        for n, t in model.params.items())
    after = evaluate(memo_store, restored, "test")
    ranks_equal = np.array_equal(before.ranks, after.ranks)
    ok = params_equal and ranks_equal and before.mrr == after.mrr
    announce("P12 checkpoint fidelity", ok,
             f"params identical: {params_equal}, re-evaluated ranks "
             f"identical: {ranks_equal}, MRR {after.mrr:.6f}")
    assert ok
