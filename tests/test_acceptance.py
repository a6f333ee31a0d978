"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. The ablation criterion trains 2 variants x 5 seeds on 10k samples
and takes a few minutes single-threaded.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from facecond.cli import main as cli_main
from facecond.datapipe import AnnotationRecord, filter_by_rating, save_manifest
from facecond.evalkit import (
    compute_avg_f1,
    compute_mae,
    compute_mean_attr_accuracy,
    compute_uar_war,
    default_negation_cues,
    default_taxonomy,
    extract_prediction,
    EvalRecord,
)
from facecond.frgca import frgca_forward, init_frgca
from facecond.geometry import LandmarkClip, default_partition, save_landmarks, rpp_mask
from facecond.gradcheck import MODULE_TOLERANCE, PIPELINE_TOLERANCE, run_full_suite
from facecond.toytrain import (
    TrainConfig,
    ablation_experiment,
    init_model,
    model_arrays,
    synth_dataset,
    train,
)
from facecond.toytrain.training import forward_loss

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion, detail=""):
    print(f"\nACCEPTANCE criterion {criterion} PASS {detail}".rstrip())


def rel_diff(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------


def test_criterion_01_partition_completeness():
    start = time.perf_counter()
    partition = default_partition()
    seen = []
    for _, idx in partition.groups:
        seen.extend(idx)
    assert len(partition.groups) == 9
    assert len(seen) == 68
    assert sorted(seen) == list(range(68))
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    report(1, f"(partition complete, {elapsed * 1e6:.0f} us)")


def test_criterion_02_rpp_mask_oracle():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 26))
        m = int(rng.integers(1, 12))
        regions = rng.normal(scale=2.0, size=(m, 2))
        patches = rng.normal(scale=2.0, size=(n, 2))
        mask = rpp_mask(regions, patches)
        assert np.all(mask <= 0.0)
        oracle = np.empty((n, m))
        for j in range(n):
            for i in range(m):
                oracle[j, i] = -math.hypot(
                    patches[j, 0] - regions[i, 0], patches[j, 1] - regions[i, 1]
                )
        worst = max(worst, rel_diff(mask, oracle))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    report(2, f"(1000 configs, max rel err {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_03_softmax_mask_invariants():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst_row = 0.0
    worst_shift = 0.0
    worst_simple = 0.0
    for case in range(500):
        T = int(rng.integers(1, 3))
        N = int(rng.integers(1, 7))
        M = int(rng.integers(1, 10))
        heads = int(rng.choice([1, 2, 4]))
        d = int(heads * rng.integers(1, 4))
        params = init_frgca(d, heads=heads, seed=case)
        h_v = rng.normal(size=(T, N, d))
        h_l = rng.normal(size=(T, M, d))
        mask = -np.abs(rng.normal(size=(T, N, M)))

        attn = frgca_forward(h_v, h_l, mask, params, return_cache=True)[1].attn
        worst_row = max(worst_row, float(np.abs(attn.sum(axis=-1) - 1.0).max()))

        out = frgca_forward(h_v, h_l, mask, params)
        shifted = frgca_forward(h_v, h_l, mask + 5.3, params)
        worst_shift = max(worst_shift, rel_diff(out, shifted))

        simple = frgca_forward(h_v, h_l, None, params, variant="simple")
        zero = frgca_forward(h_v, h_l, np.zeros_like(mask), params, variant="frgca")
        worst_simple = max(worst_simple, rel_diff(simple, zero))
    elapsed = time.perf_counter() - start
    assert worst_row < 1e-9
    assert worst_shift < 1e-12
    assert worst_simple < 1e-12
    assert elapsed < 5.0
    report(3, f"(500 cases, row err {worst_row:.1e}, shift err {worst_shift:.1e}, {elapsed:.2f} s)")


def test_criterion_04_gradient_suite():
    start = time.perf_counter()
    results = {}
    for seed in (0, 1):
        rep = run_full_suite(seed)
        assert rep["passed"], rep
        for name, entry in rep["checks"].items():
            results[name] = max(results.get(name, 0.0), entry["max_rel_error"])
    elapsed = time.perf_counter() - start
    assert results["frlp"] < MODULE_TOLERANCE
    assert results["frgca"] < MODULE_TOLERANCE
    assert results["vision"] < MODULE_TOLERANCE
    assert results["pipeline"] < PIPELINE_TOLERANCE
    assert elapsed < 30.0
    report(4, f"(max module err {max(results['frlp'], results['frgca'], results['vision']):.1e}, "
              f"pipeline err {results['pipeline']:.1e}, {elapsed:.1f} s)")


def test_criterion_05_context_saving_invariant():
    rng = np.random.default_rng(11)
    for case in range(100):
        T = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        heads = int(rng.choice([1, 2]))
        d = int(heads * rng.integers(1, 5))
        vocab = int(rng.integers(4, 12))
        config = TrainConfig(
            stage="finetune", frames=T, grid_rows=rows, grid_cols=cols, d=d,
            heads=heads, d_raw=3, vocab=vocab, seed=case,
            variant=str(rng.choice(["frgca", "simple", "none"])),
        )
        model = init_model(config)
        n = rows * cols
        h_v = rng.normal(size=(T, n, d))
        clip = LandmarkClip(rng.uniform(0.1, 0.9, size=(T, 68, 2)))
        sample_instruction = [vocab - 2, vocab - 1]
        sample_response = [int(rng.integers(0, vocab))]
        from facecond.toytrain.synth import SynthSample

        sample = SynthSample(
            raw=rng.normal(size=(T, n, 3)), clip=clip,
            instruction_ids=tuple(sample_instruction),
            response_ids=tuple(sample_response), label=sample_response[0],
        )
        loss, (_, attn_cache, decoder_cache) = forward_loss(model, sample, config)
        seq = decoder_cache.sequence
        # visual block is exactly T*N rows; landmark tokens never enter
        assert seq.n_visual == T * n
        assert seq.length == T * n + len(sample_instruction) + len(sample_response)
        assert math.isfinite(loss)
    report(5, "(100 configs, visual block always T*N)")


def test_criterion_06_freeze_contract():
    start = time.perf_counter()
    for seed in (0, 1):
        cfg_common = dict(
            grid_rows=2, grid_cols=2, d=8, heads=2, d_raw=4, vocab=16,
            variant="frgca", seed=seed, learning_rate=1e-3,
        )
        data = synth_dataset(seed=seed, size=8, n_patches=4, d_raw=4, vocab=16)

        cfg = TrainConfig(stage="pretrain", **cfg_common)
        model = init_model(cfg)
        before = {k: v.tobytes() for k, v in model_arrays(model).items()}
        train(cfg, data, model=model)
        after = {k: v.tobytes() for k, v in model_arrays(model).items()}
        for key in after:
            if key.split(".", 1)[0] in ("vision", "decoder"):
                assert after[key] == before[key], f"{key} changed during pretrain"

        cfg = TrainConfig(stage="finetune", **cfg_common)
        model = init_model(cfg)
        before = {k: v.tobytes() for k, v in model_arrays(model).items()}
        train(cfg, data, model=model)
        after = {k: v.tobytes() for k, v in model_arrays(model).items()}
        changed_groups = {
            k.split(".", 1)[0] for k in after if after[k] != before[k]
        }
        assert changed_groups == {"frlp", "frgca", "vision", "decoder"}
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, f"(2 seeds, {elapsed:.1f} s)")


def test_criterion_07_ablation_direction():
    start = time.perf_counter()
    results = ablation_experiment(
        variants=("frgca", "none"),
        seeds=(0, 1, 2, 3, 4),
        train_size=10_000,
        eval_size=1_000,
    )
    elapsed = time.perf_counter() - start
    loss_frgca = results["frgca"]["mean_eval_loss"]
    loss_none = results["none"]["mean_eval_loss"]
    acc_frgca = results["frgca"]["mean_eval_accuracy"]
    acc_none = results["none"]["mean_eval_accuracy"]
    assert loss_frgca < loss_none, results
    assert acc_frgca >= acc_none + 0.05, results
    assert elapsed < 600.0
    report(7, f"(loss {loss_frgca:.3f} < {loss_none:.3f}, "
              f"acc {acc_frgca:.3f} vs {acc_none:.3f}, {elapsed:.0f} s)")


def test_criterion_08_eval_parsing_fixtures():
    start = time.perf_counter()
    taxonomies = {t: default_taxonomy(t) for t in ("expression", "attribute", "deepfake")}
    cues = default_negation_cues()
    files = {
        "expression": "eval_expression.jsonl",
        "au": "eval_au.jsonl",
        "attribute": "eval_attribute.jsonl",
        "age": "eval_age.jsonl",
        "deepfake": "eval_deepfake.jsonl",
    }
    total = 0
    anchors = {"exp-001": "happiness", "age-001": 25, "au-001": [1, 2, 12]}
    seen_anchors = {}
    for task, filename in files.items():
        docs = [
            json.loads(line)
            for line in (FIXTURES / filename).read_text().splitlines()
            if line.strip()
        ]
        assert len(docs) == 50, (task, len(docs))
        for doc in docs:
            record = EvalRecord(
                id=doc["id"], task=doc["task"], generated=doc["generated"],
                ground_truth=tuple(doc["ground_truth"])
                if isinstance(doc["ground_truth"], list) else doc["ground_truth"],
            )
            got = extract_prediction(record, taxonomies, cues)
            expected = doc["expected"]
            if isinstance(got, set):
                got = sorted(got)
            if isinstance(expected, list):
                expected = sorted(expected)
            assert got == expected, (doc["id"], expected, got)
            if doc["id"] in anchors:
                seen_anchors[doc["id"]] = got
            total += 1
    assert total == 250
    assert seen_anchors == anchors  # paper-anchored cases present and correct
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(8, f"(250 fixtures, 100% agreement, {elapsed:.2f} s)")


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    classes = ["c0", "c1", "c2"]
    attrs = ["a0", "a1", "a2", "a3", "a4"]
    au_list = (1, 2, 4, 6)
    for _ in range(1000):
        n = int(rng.integers(1, 15))

        # UAR / WAR + accuracy identity
        gts = [classes[i] for i in rng.integers(0, 3, size=n)]
        preds = [
            None if rng.random() < 0.15 else classes[i]
            for i in rng.integers(0, 3, size=n)
        ]
        uar, war = compute_uar_war(preds, gts, classes)
        accuracy = sum(p == g for p, g in zip(preds, gts)) / n
        recalls = []
        for cls in classes:
            members = [i for i, g in enumerate(gts) if g == cls]
            if members:
                recalls.append(sum(preds[i] == cls for i in members) / len(members))
        assert rel_diff(war, accuracy) < 1e-12
        assert rel_diff(uar, sum(recalls) / len(recalls)) < 1e-12

        # average F1
        pred_sets = [set(int(a) for a in rng.choice(au_list, size=2)) for _ in range(n)]
        gt_sets = [set(int(a) for a in rng.choice(au_list, size=2)) for _ in range(n)]
        _, mean_f1 = compute_avg_f1(pred_sets, gt_sets, au_list)
        brute = []
        for au in au_list:
            tp = sum(au in p and au in g for p, g in zip(pred_sets, gt_sets))
            fp = sum(au in p and au not in g for p, g in zip(pred_sets, gt_sets))
            fn = sum(au not in p and au in g for p, g in zip(pred_sets, gt_sets))
            brute.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
        assert rel_diff(mean_f1, sum(brute) / len(brute)) < 1e-12

        # MAE with failure penalty
        ages_gt = [int(v) for v in rng.integers(1, 90, size=n)]
        ages_pred = [
            None if rng.random() < 0.1 else int(v) for v in rng.integers(1, 90, size=n)
        ]
        mae = compute_mae(ages_pred, ages_gt)
        brute_mae = sum(
            abs((p if p is not None else 0) - g) for p, g in zip(ages_pred, ages_gt)
        ) / n
        assert rel_diff(mae, brute_mae) < 1e-12

        # mean attribute accuracy
        gt_vectors = rng.integers(0, 2, size=(n, len(attrs)))
        pred_attr = [
            {attrs[j] for j in range(len(attrs)) if rng.random() < 0.4}
            for _ in range(n)
        ]
        gt_attr = [{attrs[j] for j in range(len(attrs)) if row[j]} for row in gt_vectors]
        _, mean_acc = compute_mean_attr_accuracy(pred_attr, gt_attr, attrs)
        brute_acc = np.mean(
            [
                sum((attrs[j] in pred_attr[i]) == bool(gt_vectors[i][j]) for i in range(n)) / n
                for j in range(len(attrs))
            ]
        )
        assert rel_diff(mean_acc, brute_acc) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(9, f"(1000 instances, {elapsed:.2f} s)")


def _record(i, rating):
    return AnnotationRecord(
        id=f"r{i:04d}", task="expression", media_path="p", media_type="image",
        label="happiness", description="d",
        ratings={"overall": rating} if rating is not None else {},
    )


def test_criterion_10_filtering_semantics():
    start = time.perf_counter()
    fixture = [_record(i, r) for i, r in enumerate(range(1, 11))]
    kept, removed = filter_by_rating(fixture, threshold=6)
    assert sorted(r.overall_rating for r in kept) == [7, 8, 9, 10]
    assert len(removed) == 6

    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        manifest = [
            _record(i, int(rng.integers(1, 11)) if rng.random() < 0.9 else None)
            for i in range(n)
        ]
        t = int(rng.integers(0, 10))
        kept_low, removed_low = filter_by_rating(manifest, t)
        kept_high, _ = filter_by_rating(manifest, t + 1)
        assert len(kept_high) <= len(kept_low)  # monotone in the threshold
        assert len(kept_low) + len(removed_low) == n
        assert {r.id for r in kept_low}.isdisjoint({r.id for r in removed_low})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(10, f"(threshold fixture + 1000 fuzz manifests, {elapsed:.2f} s)")


def test_criterion_11_cli_determinism(tmp_path):
    rng = np.random.default_rng(21)
    lm = tmp_path / "lm.json"
    clip = LandmarkClip(rng.uniform(0.1, 0.9, size=(1, 68, 2)))
    save_landmarks(str(lm), "clip", clip)
    tok = tmp_path / "tok.json"
    tok.write_text(
        json.dumps({"id": "clip", "tokens": rng.normal(size=(1, 16, 8)).tolist()}) + "\n"
    )
    manifest = tmp_path / "manifest.jsonl"
    save_manifest(
        str(manifest),
        [_record(i, int(rng.integers(1, 11))) for i in range(30)],
    )
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"expression": ["Describe the {media}.", "Explain this {media}."]}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"expression": {"happiness": 1.0}}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "stage": "pretrain", "grid_rows": 2, "grid_cols": 2, "d": 8, "heads": 2,
        "d_raw": 4, "vocab": 16, "seed": 3, "train_size": 6, "eval_size": 4,
    }))
    records = FIXTURES / "eval_deepfake.jsonl"

    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        commands = [
            ["mask", "--landmarks", str(lm), "--rows", "4", "--cols", "4",
             "--out", str(base / "mask.json")],
            ["enrich", "--landmarks", str(lm), "--tokens", str(tok), "--rows", "4",
             "--cols", "4", "--heads", "2", "--seed", "5",
             "--attention-out", str(base / "attention.json"),
             "--out", str(base / "enriched.json")],
            ["gradcheck", "--seed", "0", "--out", str(base / "gradcheck.json")],
            ["train", "--config", str(train_cfg), "--out", str(base / "run")],
            ["eval", "--records", str(records), "--out", str(base / "report.json"),
             "--confusion-out", str(base / "confusion.csv")],
            ["filter", "--manifest", str(manifest), "--threshold", "6",
             "--out-kept", str(base / "kept.jsonl"),
             "--out-removed", str(base / "removed.jsonl"),
             "--summary-out", str(base / "filter_summary.json")],
            ["pair", "--manifest", str(manifest), "--bank", str(bank), "--seed", "4",
             "--out", str(base / "paired.jsonl")],
            ["split", "--manifest", str(manifest), "--target", str(target),
             "--per-task", "5", "--out", str(base / "split.jsonl"),
             "--summary-out", str(base / "split_summary.json")],
        ]
        for argv in commands:
            assert cli_main(argv) == 0, argv
        return sorted(p for p in base.rglob("*") if p.is_file())

    first = run_all("one")
    second = run_all("two")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    report(11, f"({len(first)} output files byte-identical across reruns)")
