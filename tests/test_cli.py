import json
from pathlib import Path

import numpy as np
import pytest

from facecond.cli import main
from facecond.datapipe import AnnotationRecord, save_manifest
from facecond.geometry import frames_from_array, save_landmarks

FIXTURES = Path(__file__).parent / "fixtures"


def write_landmarks(path, seed=0, frames=1):
    rng = np.random.default_rng(seed)
    clip = frames_from_array(rng.uniform(0.1, 0.9, size=(frames, 68, 2)))
    save_landmarks(str(path), "clip-0", clip)
    return clip


def write_tokens(path, seed=0, frames=1, n=16, d=8):
    rng = np.random.default_rng(seed)
    tokens = rng.normal(size=(frames, n, d))
    path.write_text(json.dumps({"id": "clip-0", "tokens": tokens.tolist()}) + "\n")
    return tokens


def write_manifest(path, n=20, seed=0, task="expression"):
    rng = np.random.default_rng(seed)
    records = [
        AnnotationRecord(
            id=f"r{i:03d}",
            task=task,
            media_path=f"v/{i}.mp4",
            media_type="video",
            label=["happiness", "sadness"][i % 2],
            description=f"text {i}",
            ratings={"overall": int(rng.integers(1, 11))},
        )
        for i in range(n)
    ]
    save_manifest(str(path), records)
    return records


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code != 0


def test_mask_subcommand(tmp_path):
    lm = tmp_path / "lm.json"
    out = tmp_path / "mask.json"
    write_landmarks(lm, frames=2)
    assert main(["mask", "--landmarks", str(lm), "--rows", "4", "--cols", "4",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    masks = np.asarray(doc["masks"])
    assert masks.shape == (2, 16, 9)
    assert np.all(masks <= 0)
    assert doc["region_names"][0] == "face_boundary"


def test_enrich_subcommand_with_attention(tmp_path):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    out = tmp_path / "enriched.json"
    att = tmp_path / "attention.json"
    write_landmarks(lm)
    write_tokens(tok, n=16, d=8)
    code = main([
        "enrich", "--landmarks", str(lm), "--tokens", str(tok),
        "--rows", "4", "--cols", "4", "--heads", "2", "--seed", "3",
        "--attention-out", str(att), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.asarray(doc["tokens"]).shape == (1, 16, 8)
    maps = json.loads(att.read_text())
    assert len(maps) == 2  # T=1, heads=2
    weights = np.asarray(maps[0]["weights"])
    assert weights.shape == (16, 9)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)


def test_enrich_variant_none_is_identity(tmp_path):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    out = tmp_path / "enriched.json"
    write_landmarks(lm)
    tokens = write_tokens(tok, n=4, d=4)
    code = main([
        "enrich", "--landmarks", str(lm), "--tokens", str(tok),
        "--rows", "2", "--cols", "2", "--variant", "none", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.array_equal(np.asarray(doc["tokens"]), tokens)


def test_enrich_rejects_non_finite_tokens_naming_the_file(tmp_path, capsys):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    write_landmarks(lm)
    tok.write_text(json.dumps({"id": "clip-0", "tokens": [[[0.0, float("nan")]]]}) + "\n")
    code = main([
        "enrich", "--landmarks", str(lm), "--tokens", str(tok),
        "--rows", "1", "--cols", "1", "--variant", "none",
        "--out", str(tmp_path / "enriched.json"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert str(tok) in err["message"] and "non-finite" in err["message"]


def test_gradcheck_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["gradcheck", "--seed", "0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pipeline" in printed and "PASS" in printed
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(v["max_rel_error"] < 1e-4 for k, v in report["checks"].items()
               if k != "pipeline")


def test_train_subcommand(tmp_path):
    cfg = {
        "stage": "pretrain",
        "epochs": 1,
        "seed": 1,
        "grid_rows": 2,
        "grid_cols": 2,
        "d": 8,
        "heads": 2,
        "d_raw": 4,
        "vocab": 16,
        "variant": "frgca",
        "train_size": 12,
        "eval_size": 6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["steps"] == 12
    assert "eval_loss" in summary
    trace_lines = (out_dir / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,lr,loss"
    assert len(trace_lines) == 13
    assert (out_dir / "checkpoint.json").exists()


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lerning_rate": 0.5, "train_size": 2}))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == f"{cfg_path}: unknown train config keys: ['lerning_rate']"
    assert not out_dir.exists()


def test_eval_subcommand_with_fixtures(tmp_path):
    out = tmp_path / "report.json"
    conf = tmp_path / "confusion.csv"
    code = main([
        "eval", "--records", str(FIXTURES / "eval_deepfake.jsonl"),
        "--out", str(out), "--confusion-out", str(conf), "--threads", "2",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert "deepfake" in report["tasks"]
    assert conf.read_text().startswith("gt\\pred,real,fake,nomatch")


def test_filter_subcommand_threshold_semantics(tmp_path):
    manifest = tmp_path / "m.jsonl"
    records = [
        AnnotationRecord(
            id=f"r{r}", task="expression", media_path="p", media_type="image",
            label="happiness", description="d", ratings={"overall": r},
        )
        for r in (5, 6, 7)
    ]
    save_manifest(str(manifest), records)
    kept = tmp_path / "kept.jsonl"
    removed = tmp_path / "removed.jsonl"
    summary = tmp_path / "summary.json"
    code = main([
        "filter", "--manifest", str(manifest), "--threshold", "6",
        "--out-kept", str(kept), "--out-removed", str(removed),
        "--summary-out", str(summary),
    ])
    assert code == 0
    assert len(kept.read_text().splitlines()) == 1
    assert len(removed.read_text().splitlines()) == 2
    assert json.loads(summary.read_text())["kept"] == 1


def test_pair_subcommand(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, n=10)
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"expression": ["Describe the {media} emotion."]}))
    out = tmp_path / "paired.jsonl"
    code = main(["pair", "--manifest", str(manifest), "--bank", str(bank),
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(l["instruction"] == "Describe the video emotion." for l in lines)


def test_split_subcommand(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, n=60, seed=4)
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"expression": {"happiness": 0.5, "sadness": 0.5}}))
    out = tmp_path / "split.jsonl"
    summary = tmp_path / "split_summary.json"
    code = main(["split", "--manifest", str(manifest), "--target", str(target),
                 "--per-task", "10", "--out", str(out),
                 "--summary-out", str(summary)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 10
    labels = [l["label"] for l in lines]
    assert labels.count("happiness") == 5 and labels.count("sadness") == 5


def test_missing_input_file_gives_json_error(tmp_path, capsys):
    code = main(["mask", "--landmarks", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    write_landmarks(lm)
    write_tokens(tok, n=16, d=8)
    outputs = []
    for run in range(2):
        out = tmp_path / f"enriched-{run}.json"
        main(["enrich", "--landmarks", str(lm), "--tokens", str(tok),
              "--rows", "4", "--cols", "4", "--heads", "2", "--seed", "7",
              "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_subcommands_do_not_mutate_inputs(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, n=10)
    before = manifest.read_bytes()
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"expression": ["About this {media}."]}))
    main(["pair", "--manifest", str(manifest), "--bank", str(bank),
          "--out", str(tmp_path / "o.jsonl")])
    assert manifest.read_bytes() == before


def test_config_file_supplies_defaults(tmp_path):
    lm = tmp_path / "lm.json"
    write_landmarks(lm)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": 2, "cols": 2}))
    out = tmp_path / "mask.json"
    assert main(["mask", "--landmarks", str(lm), "--config", str(cfg),
                 "--out", str(out)]) == 0
    masks = np.asarray(json.loads(out.read_text())["masks"])
    assert masks.shape == (1, 4, 9)
