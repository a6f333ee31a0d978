import ast
import csv
import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import facecond
from facecond.checkpoint import load_arrays, save_arrays, save_model
from facecond.cli import build_parser, main
from facecond.evalkit import BP4D_AUS, DISFA_AUS
from facecond.datapipe import AnnotationRecord, save_manifest
from facecond.geometry import LandmarkClip, save_landmarks
from facecond.toytrain import TrainConfig, init_model, model_arrays
from make_golden import CASES

FIXTURES = Path(__file__).parent / "fixtures"


def write_landmarks(path, seed=0, frames=1):
    rng = np.random.default_rng(seed)
    clip = LandmarkClip(rng.uniform(0.1, 0.9, size=(frames, 68, 2)))
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


@pytest.mark.parametrize("level", ["verbose", "", "10"], ids=["unknown_name", "empty", "number"])
def test_an_unknown_log_level_is_a_json_error(tmp_path, capsys, monkeypatch, level):
    lm = tmp_path / "lm.json"
    out = tmp_path / "mask.json"
    write_landmarks(lm)
    monkeypatch.setenv("FACECOND_LOG", level)
    assert main(["mask", "--landmarks", str(lm), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        f"FACECOND_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, got {level!r}")
    assert not out.exists()


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


@pytest.mark.parametrize("heads", ["0", "-8"])
def test_enrich_rejects_heads_below_one(tmp_path, capsys, heads):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    out = tmp_path / "enriched.json"
    write_landmarks(lm)
    write_tokens(tok, n=16, d=8)
    with pytest.raises(SystemExit) as excinfo:
        main(["enrich", "--landmarks", str(lm), "--tokens", str(tok),
              "--rows", "4", "--cols", "4", "--heads", heads, "--out", str(out)])
    assert excinfo.value.code == 2
    assert f"argument --heads: expected an integer >= 1, got {heads}" in capsys.readouterr().err
    assert not out.exists()


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


def test_enrich_variant_none_has_no_attention_maps(tmp_path, capsys):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    out = tmp_path / "enriched.json"
    att = tmp_path / "attention.json"
    write_landmarks(lm)
    write_tokens(tok, n=4, d=4)
    code = main([
        "enrich", "--landmarks", str(lm), "--tokens", str(tok), "--rows", "2", "--cols", "2",
        "--variant", "none", "--attention-out", str(att), "--out", str(out),
    ])
    assert code == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "variant 'none' has no attention maps to export"
    assert not out.exists() and not att.exists()


@pytest.mark.parametrize("seed, d, heads", [(0, 8, 2), (3, 16, 4)])
def test_enrich_from_a_seed_init_checkpoint_matches_seed_init(tmp_path, seed, d, heads):
    """Every golden enrich case: an attending variant gives the same output
    and attention bytes from a checkpoint as from seed init; variant "none"
    gives the same output with a checkpoint as without one."""
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    ck = tmp_path / "ck.json"
    write_landmarks(lm, seed=seed, frames=2)
    write_tokens(tok, seed=seed, frames=2, n=16, d=d)
    save_model(str(ck), init_model(TrainConfig(seed=seed, d=d, heads=heads)))
    common = ["enrich", "--landmarks", str(lm), "--tokens", str(tok), "--rows", "4", "--cols", "4"]
    for variant, mode in CASES:
        runs = [("checkpoint", ["--checkpoint", str(ck)])]
        if variant == "none":
            runs.append(("without", []))
        else:
            runs.append(("seed", ["--seed", str(seed), "--heads", str(heads)]))
        outputs = {}
        for name, flags in runs:
            out, att = tmp_path / f"{name}.json", tmp_path / f"{name}_attention.json"
            flags = flags + ["--variant", variant, "--token-mode", mode, "--out", str(out)]
            if variant != "none":
                flags += ["--attention-out", str(att)]
            assert main(common + flags) == 0, (variant, mode, name)
            outputs[name] = (out.read_bytes(), att.read_bytes() if variant != "none" else None)
        first, second = outputs.values()
        assert first == second, (variant, mode)


def _narrow_frgca(arrays):
    """`arrays` with the FRGCA tensors of a d=4 model beside its d=8 FRLP."""
    narrow = model_arrays(init_model(TrainConfig(d=4, heads=2)))
    return {**arrays, **{k: v for k, v in narrow.items() if k.startswith("frgca.")}}


@pytest.mark.parametrize(
    "variant, edit, token_dim, message",
    [
        ("frgca", lambda arrays: {k: v for k, v in arrays.items() if k != "frgca.w_v.bias"}, 8,
         "{ck}: checkpoint is missing tensor 'frgca.w_v.bias'"),
        ("frgca", lambda arrays: {**arrays, "frgca.w_k.bias": np.zeros(8)}, 8,
         "{ck}: checkpoint has unknown tensor 'frgca.w_k.bias'"),
        ("frgca", _narrow_frgca, 8, "{ck}: frgca.w_q.weight has shape (4, 4), expected (4, 8)"),
        ("frgca", lambda arrays: arrays, 16,
         "{ck}: frlp.local.0.weight has shape (8, 34), expected (16, 34)"),
        ("none", None, 8, "[Errno 2] No such file or directory: '{ck}'"),
        ("none", lambda arrays: arrays, 16,
         "{ck}: frlp.local.0.weight has shape (8, 34), expected (16, 34)"),
    ],
    ids=["missing_tensor", "key_bias", "frgca_narrower_than_frlp", "tokens_wider_than_checkpoint",
         "none_missing_checkpoint", "none_tokens_wider_than_checkpoint"],
)
def test_enrich_checkpoint_errors_name_the_file(tmp_path, capsys, variant, edit, token_dim, message):
    """A bad checkpoint fails before --out is written, for variant "none"
    too; an ``edit`` of None removes the checkpoint file."""
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    ck = tmp_path / "ck.json"
    out = tmp_path / "enriched.json"
    write_landmarks(lm)
    write_tokens(tok, n=16, d=token_dim)
    save_model(str(ck), init_model(TrainConfig(d=8, heads=2)))
    if edit is None:
        ck.unlink()
    else:
        arrays, meta = load_arrays(str(ck))
        save_arrays(str(ck), edit(arrays), meta)
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok), "--checkpoint", str(ck),
                 "--variant", variant, "--rows", "4", "--cols", "4", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == message.format(ck=ck)
    assert not out.exists()


@pytest.mark.parametrize("variant", ["frgca", "none"])
@pytest.mark.parametrize(
    "landmark_frames, grid, message",
    [
        (3, ["--rows", "4", "--cols", "4"],
         "{tok}: tokens have 2 frames but landmark file {lm} has 3"),
        (2, ["--rows", "4", "--cols", "5"],
         "{tok}: 16 visual tokens per frame do not match grid 4x5"),
    ],
    ids=["frames", "grid"],
)
def test_enrich_names_the_tokens_file_when_landmarks_or_grid_disagree(
    tmp_path, capsys, variant, landmark_frames, grid, message
):
    lm, tok, out = tmp_path / "lm.json", tmp_path / "tokens.json", tmp_path / "enriched.json"
    write_landmarks(lm, frames=landmark_frames)
    write_tokens(tok, frames=2, n=16, d=8)
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok), *grid, "--heads", "2",
                 "--variant", variant, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == message.format(tok=tok, lm=lm)
    assert not out.exists()


@pytest.mark.parametrize(
    "bad", [True, None, float("nan"), "1.5"], ids=["bool", "null", "nan", "numeric_string"]
)
def test_enrich_rejects_a_checkpoint_value_that_is_not_a_number(tmp_path, capsys, bad):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    ck = tmp_path / "ck.json"
    out = tmp_path / "enriched.json"
    write_landmarks(lm)
    write_tokens(tok, n=16, d=8)
    save_model(str(ck), init_model(TrainConfig(d=8, heads=2)))
    doc = json.loads(ck.read_text())
    doc["tensors"]["frgca.w_v.bias"]["data"][1] = bad
    ck.write_text(json.dumps(doc))
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok), "--checkpoint", str(ck),
                 "--rows", "4", "--cols", "4", "--out", str(out)]) == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith(f"{ck}: tensor 'frgca.w_v.bias': data[1] is "), message
    assert not out.exists()


@pytest.mark.parametrize("options", ["seed_init", "checkpoint", "variant_none"])
def test_enrich_rejects_zero_width_tokens_naming_the_file(tmp_path, capsys, options):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    ck = tmp_path / "ck.json"
    out = tmp_path / "enriched.json"
    write_landmarks(lm)
    tok.write_text(json.dumps({"id": "clip-0", "tokens": [[[]]]}) + "\n")
    save_model(str(ck), init_model(TrainConfig(d=8, heads=2)))
    flags = {"seed_init": [], "checkpoint": ["--checkpoint", str(ck)],
             "variant_none": ["--variant", "none"]}[options]
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok),
                 "--rows", "1", "--cols", "1", *flags, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        f"{tok}: tokens have width 0; a token needs at least one number")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "tokens, message",
    [
        ([[[0.5], [0.5, 0.5]]], r"tokens\[0\]\[1\] has 2 entries, not 1$"),
        ([[["x"]]], r'tokens\[0\]\[0\]\[0\] is "x", not a number$'),
        ([[["0.5"]]], r'tokens\[0\]\[0\]\[0\] is "0\.5", not a number$'),
        ([[[True]]], r"tokens\[0\]\[0\]\[0\] is true, not a number$"),
        ([[[0.5, 0.25]], [[1.5, True]]], r"tokens\[1\]\[0\]\[1\] is true, not a number$"),
        ([[[2, False]]], r"tokens\[0\]\[0\]\[1\] is false, not a number$"),
        ([[[None]]], r"tokens\[0\]\[0\]\[0\] is null, not a number$"),
    ],
    ids=["ragged", "string", "numeric_string", "bool", "bool_among_floats", "bool_among_ints", "null"],
)
def test_enrich_rejects_tokens_that_are_not_numbers_naming_the_file(tmp_path, capsys, tokens, message):
    lm = tmp_path / "lm.json"
    tok = tmp_path / "tokens.json"
    write_landmarks(lm)
    tok.write_text(json.dumps({"id": "clip-0", "tokens": tokens}) + "\n")
    out = tmp_path / "enriched.json"
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok),
                 "--rows", "1", "--cols", "1", "--variant", "none", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert re.match(re.escape(f"{tok}: ") + message, err["message"]), err["message"]
    assert not out.exists()


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
    out_dir = tmp_path / "run"
    for config, message in [
        ({"lerning_rate": 0.5, "train_size": 2}, "unknown train config keys: ['lerning_rate']"),
        ({"train_size": 2.9}, "config key 'train_size' must be an integer >= 1, got 2.9"),
        ({"train_size": "abc"}, "config key 'train_size' must be an integer >= 1, got 'abc'"),
        ({"train_size": 0}, "config key 'train_size' must be an integer >= 1, got 0"),
        ({"train_size": 2, "eval_size": True},
         "config key 'eval_size' must be an integer >= 0, got True"),
        ({"train_size": 2, "eval_size": -1},
         "config key 'eval_size' must be an integer >= 0, got -1"),
        ({"train_size": 2, "task_kind": "bogus"},
         "config key 'task_kind' must be one of ('region', 'global'), got 'bogus'"),
        ({"epochs": 2.5}, "config key 'epochs' must be an integer, got 2.5"),
        ({"d": "8"}, "config key 'd' must be an integer, got '8'"),
        ({"seed": True}, "config key 'seed' must be an integer, got True"),
        ({"seed": -2, "train_size": 2}, "seed must be >= 0"),
        ({"learning_rate": -0.5, "train_size": 2}, "learning_rate must be > 0"),
        ({"learning_rate": 0, "train_size": 2}, "learning_rate must be > 0"),
        ({"d_attn": 8.0}, "config key 'd_attn' must be an integer or null, got 8.0"),
        ({"learning_rate": "0.1"},
         "config key 'learning_rate' must be a finite number or null, got '0.1'"),
        ({"learning_rate": float("inf")},
         "config key 'learning_rate' must be a finite number or null, got inf"),
        ({"learning_rate": False},
         "config key 'learning_rate' must be a finite number or null, got False"),
        ({"learning_rate": 10**399},
         f"config key 'learning_rate' must be a finite number or null, got {10**399}"),
        ({"variant": ["frgca"]}, "config key 'variant' must be a string, got ['frgca']"),
        # values the model and data builders reject
        ({"heads": 3}, "d_attn=16 not divisible by heads=3"),
        ({"d": 0}, "d must be >= 1, got 0"),
        ({"frames": 9}, "clip has 9 frames, exceeds max of 8"),
        ({"vocab": 5}, "vocab 5 too small: need 9 label tokens plus 2 instruction tokens"),
        ({"grid_rows": 0}, "grid_rows must be >= 1, got 0"),
        ({"grid_cols": 0}, "grid_cols must be >= 1, got 0"),
        ({"d_attn": 0, "train_size": 2}, "d_attn must be >= 1, got 0"),
        ({"d_attn": -8, "train_size": 2}, "d_attn must be >= 1, got -8"),
        ({"max_context": 1, "train_size": 2},
         "sample 0 has sequence length 19, beyond max_context 1"),
    ]:
        cfg_path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert [str(w.message) for w in caught] == [], config
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == f"{cfg_path}: {message}"
        assert not out_dir.exists()


def test_eval_subcommand_with_fixtures(tmp_path):
    out = tmp_path / "report.json"
    conf = tmp_path / "confusion.csv"
    code = main([
        "eval", "--records", str(FIXTURES / "eval_deepfake.jsonl"),
        "--out", str(out), "--confusion-out", str(conf),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert "deepfake" in report["tasks"]
    assert conf.read_text().startswith("gt\\pred,real,fake,nomatch")


def test_eval_confusion_out_for_two_tasks_writes_neither_file(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_bytes((FIXTURES / "eval_expression.jsonl").read_bytes()
                        + (FIXTURES / "eval_deepfake.jsonl").read_bytes())
    out, conf = tmp_path / "r.json", tmp_path / "c.csv"
    assert main(["eval", "--records", str(records), "--out", str(out),
                 "--confusion-out", str(conf)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        "--confusion-out needs exactly one applicable task, found ['deepfake', 'expression']")
    assert not out.exists() and not conf.exists()


def test_eval_confusion_csv_quotes_a_class_name_with_a_comma(tmp_path):
    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps({"happy, excited": ["happy"], "sad": ["sad"]}))
    records = tmp_path / "records.jsonl"
    records.write_text("".join(
        json.dumps({"id": f"r{i}", "task": "expression", "generated": text, "ground_truth": gt}) + "\n"
        for i, (text, gt) in enumerate([("So happy.", "happy, excited"), ("Sad.", "sad")])
    ))
    conf = tmp_path / "confusion.csv"
    assert main(["eval", "--records", str(records), "--taxonomy", "expression", str(tax),
                 "--out", str(tmp_path / "report.json"), "--confusion-out", str(conf)]) == 0
    with open(conf, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gt\\pred", "happy, excited", "sad", "nomatch"]
    assert [len(row) for row in rows] == [len(rows[0])] * 3
    assert rows[1] == ["happy, excited", "1", "0", "0"]


def test_eval_report_bytes_do_not_depend_on_record_order(tmp_path):
    lines = [
        line
        for task in ("age", "attribute", "au", "deepfake", "expression")
        for line in (FIXTURES / f"eval_{task}.jsonl").read_text().splitlines()
    ]
    reports = set()
    for seed in (None, 1, 2, 3):
        if seed is not None:
            random.Random(seed).shuffle(lines)
        records = tmp_path / "records.jsonl"
        records.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--records", str(records), "--out", str(out)]) == 0
        reports.add(out.read_bytes())
    assert len(reports) == 1


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


def test_split_counts_no_null_or_boolean_label_under_a_class(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    lines = [
        {"id": f"r{i}", "task": "age", "label": label, "ratings": {"overall": 9 - i},
         "media": {"path": f"v/{i}.mp4", "type": "video"}, "description": "d"}
        for i, label in enumerate([None, "None", 37, True])
    ]
    manifest.write_text("".join(json.dumps(line) + "\n" for line in lines))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"age": {"None": 1, "37": 1, "True": 1}}))
    out = tmp_path / "split.jsonl"
    code = main(["split", "--manifest", str(manifest), "--target", str(target),
                 "--per-task", "3", "--out", str(out)])
    assert code == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == f"{target}: task 'age' class 'True': need 1 records, have 0"
    assert not out.exists()
    target.write_text(json.dumps({"age": {"None": 1, "37": 1}}))
    code = main(["split", "--manifest", str(manifest), "--target", str(target),
                 "--per-task", "2", "--out", str(out)])
    assert code == 0
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["r1", "r2"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_split_rejects_a_negative_per_task(tmp_path, capsys, via):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, n=60, seed=4)
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"expression": {"happiness": 0.5, "sadness": 0.5}}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"per_task": -3}))
    out = tmp_path / "split.jsonl"
    argv = ["split", "--manifest", str(manifest), "--target", str(target), "--out", str(out)]
    if via == "flag":
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--per-task", "-3"])
        assert excinfo.value.code == 2
        assert "argument --per-task: expected an integer >= 0, got -3" in capsys.readouterr().err
    else:
        assert main(argv + ["--config", str(config)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["message"] == (
            f"{config}: config key 'per_task' must be an integer >= 0, got -3")
    assert not out.exists()


@pytest.mark.parametrize(
    "weights",
    [{"happiness": 1e308, "sadness": 1}, {"happiness": 1e308, "sadness": 1e308}],
    ids=["share_overflows", "total_overflows"],
)
def test_split_weights_whose_shares_overflow_name_the_target_and_task(tmp_path, capsys, weights):
    argv = runnable_argv(tmp_path, "split")
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"expression": weights}))
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError",
        "message": f"{target}: task 'expression': the weights' shares of 2 records overflow",
    }
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_split_per_task_beyond_float_range_names_the_target_and_task(tmp_path, capsys, via):
    argv = runnable_argv(tmp_path, "split")
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"expression": {"happiness": 1, "sadness": 1}}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"per_task": 10**309}))
    at = argv.index("--per-task")
    argv[at:at + 2] = ["--per-task", str(10**309)] if via == "flag" else ["--config", str(config)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError",
        "message": f"{target}: task 'expression': the weights' shares of {10**309} records overflow",
    }
    assert not (tmp_path / "out").exists()


def test_train_names_the_config_for_a_size_numpy_cannot_allocate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_raw": 10**20, "train_size": 2}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError", "message": f"{cfg}: Maximum allowed dimension exceeded"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--rows", "--cols"])
def test_mask_names_the_grid_for_a_side_beyond_any_array_length(tmp_path, capsys, flag):
    # numpy rejects a length of 10**30 before it allocates anything
    argv = runnable_argv(tmp_path, "mask")
    argv[argv.index(flag) + 1] = str(10**30)
    rows, cols = (10**30, 4) if flag == "--rows" else (4, 10**30)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError",
        "message": f"patch grid {rows} x {cols} has more patches than an array can index"}
    assert not (tmp_path / "out").exists()


def test_manifest_line_that_is_not_utf8_is_a_malformed_line(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, n=4)
    first, *rest = manifest.read_bytes().splitlines(keepends=True)
    manifest.write_bytes(first + b'{"id": "caf\xe9"}\n' + b"".join(rest))
    summary = tmp_path / "summary.json"
    assert main(["filter", "--manifest", str(manifest), "--out-kept", str(tmp_path / "k.jsonl"),
                 "--out-removed", str(tmp_path / "r.jsonl"), "--summary-out", str(summary)]) == 0
    report = json.loads(summary.read_text())
    assert report["input"] == 4
    assert [e["line"] for e in report["parse_errors"]] == [2]
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"expression": ["Describe the {media} emotion."]}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"expression": {"happiness": 0.5, "sadness": 0.5}}))
    out = tmp_path / "out.jsonl"
    for argv in (["pair", "--bank", str(bank)], ["split", "--target", str(target)]):
        assert main([*argv, "--manifest", str(manifest), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"].startswith(
            f"{manifest}: manifest has 1 malformed lines (first: line 2: 'utf-8' codec"
        ), err["message"]
        assert not out.exists()


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

    def patches(*flags):
        assert main(["mask", "--landmarks", str(lm), *flags, "--out", str(out)]) == 0
        return np.asarray(json.loads(out.read_text())["masks"]).shape[1]

    assert patches("--config", str(cfg)) == 4
    assert patches("--rows", "4", "--config", str(cfg)) == 8  # explicit flags win
    assert patches() == 256  # one call's config does not leak into the next


SUBCOMMANDS = ("mask", "enrich", "gradcheck", "train", "eval", "filter", "pair", "split")


def runnable_argv(tmp_path, command):
    """argv on which `command` succeeds, writing tmp_path/out."""
    lm, tok = tmp_path / "lm.json", tmp_path / "tokens.json"
    manifest, bank, target = tmp_path / "m.jsonl", tmp_path / "bank.json", tmp_path / "target.json"
    write_landmarks(lm)
    write_tokens(tok, n=16, d=8)
    write_manifest(manifest, n=10)
    bank.write_text(json.dumps({"expression": ["Describe the {media}."]}))
    target.write_text(json.dumps({"expression": {"happiness": 0.5, "sadness": 0.5}}))
    out = str(tmp_path / "out")
    return [command] + {
        "mask": ["--landmarks", str(lm), "--rows", "4", "--cols", "4"],
        "enrich": ["--landmarks", str(lm), "--tokens", str(tok), "--rows", "4", "--cols", "4",
                   "--heads", "2"],
        "gradcheck": [],
        "eval": ["--records", str(FIXTURES / "eval_deepfake.jsonl")],
        "filter": ["--manifest", str(manifest), "--out-removed", str(tmp_path / "removed")],
        "pair": ["--manifest", str(manifest), "--bank", str(bank)],
        "split": ["--manifest", str(manifest), "--target", str(target), "--per-task", "2"],
        "train": [],
    }[command] + ["--out-kept" if command == "filter" else "--out", out]


AU_LIST_TAKES = "one of ('disfa', 'bp4d') or a non-empty list of distinct AU numbers >= 1"
AU_LIST_WANTED = re.escape(f"config key 'au_list' must be {AU_LIST_TAKES}, ")


@pytest.mark.parametrize(
    "command, config, message",
    [pytest.param(c, '{"rwos": 2}', rf"unknown {c} config keys: \['rwos'\]", id=f"{c}-unknown_key")
     for c in SUBCOMMANDS]
    + [
        pytest.param("enrich", '{"variant": "bogus"}',
                     r"config key 'variant' must be one of \('frgca', 'simple', 'none'\), got 'bogus'$",
                     id="enrich-bad_choice"),
        pytest.param("mask", '{"rows": "x"}',
                     r"config key 'rows' must be an integer >= 1, got 'x'$", id="mask-bad_int"),
        pytest.param("filter", '{"threshold": 6.5}',
                     r"config key 'threshold' must be an integer, got 6.5$", id="filter-float_int"),
        pytest.param("eval", '{"au_list": [1, "x"]}', AU_LIST_WANTED + r"got \[1, 'x'\]$",
                     id="eval-bad_au_entry"),
        pytest.param("eval", '{"au_list": [1, 2, 1]}', AU_LIST_WANTED + r"got \[1, 2, 1\]$",
                     id="eval-repeated_au"),
        pytest.param("mask", '{"rows": 2', r"malformed JSON", id="mask-malformed_json"),
        pytest.param("mask", '[2]', r"document is \[2\], not an object", id="mask-not_an_object"),
    ]
    + [
        pytest.param(c, '{"seed": -1}', r"config key 'seed' must be an integer >= 0, got -1$",
                     id=f"{c}-negative_seed")
        for c in ("enrich", "gradcheck", "pair")
    ]
    + [
        pytest.param(c, f'{{"{key}": 0}}', rf"config key '{key}' must be an integer >= 1, got 0$",
                     id=f"{c}-zero_{key}")
        for c in ("mask", "enrich") for key in ("rows", "cols")
    ]
    + [
        pytest.param("enrich", '{"heads": 0}', r"config key 'heads' must be an integer >= 1, got 0$",
                     id="enrich-zero_heads")
    ],
)
def test_config_errors_name_the_file_and_write_nothing(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(runnable_argv(tmp_path, command) + ["--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert re.match(re.escape(f"{cfg}: ") + message, err["message"]), err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("mask", "--landmarks"),
        ("enrich", "--tokens"),
        ("enrich", "--checkpoint"),
        ("eval", "--taxonomy"),
        ("eval", "--negation-cues"),
        ("pair", "--bank"),
        ("split", "--target"),
        ("train", "--config"),
    ],
    ids=lambda v: v.lstrip("-"),
)
def test_truncated_json_input_fails_naming_the_file(tmp_path, capsys, command, flag):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"tokens": [[[0.5, ')
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "out")]
    else:
        argv = runnable_argv(tmp_path, command)
    if flag in argv:
        argv[argv.index(flag) + 1] = str(truncated)
    else:
        argv += [flag, *(["deepfake"] if flag == "--taxonomy" else []), str(truncated)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"].startswith(f"{truncated}: malformed JSON: "), err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, doc, message",
    [
        ("mask", "--landmarks", {"id": None, "frames": [[[0.5, 0.5]] * 68]},
         "'id' is null, not a string"),
        ("mask", "--landmarks", {"id": ["x"], "frames": [[[0.5, 0.5]] * 68]},
         "'id' is [\"x\"], not a string"),
        ("enrich", "--tokens", {"id": 5, "tokens": [[[0.5] * 8] * 16]}, "'id' is 5, not a string"),
        ("pair", "--manifest",
         {"id": None, "task": "expression", "media": {"path": 7, "type": "video"},
          "label": "happiness", "description": 5},
         "manifest has 1 malformed lines (first: line 1: 'id' is null, not a string)"),
        ("split", "--manifest",
         {"id": "r", "task": "expression", "media": {"path": 7, "type": "video"},
          "label": "happiness", "description": "d"},
         "manifest has 1 malformed lines (first: line 1: media 'path' is 7, not a string)"),
    ],
    ids=["mask-null_id", "mask-list_id", "enrich-number_token_id", "pair-null_id",
         "split-number_media_path"],
)
def test_a_field_of_the_wrong_kind_fails_naming_the_file_and_writes_nothing(
    tmp_path, capsys, command, flag, doc, message
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc) + "\n")
    argv = runnable_argv(tmp_path, command)
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == f"{bad}: {message}"
    assert not (tmp_path / "out").exists()


def test_filter_lists_a_record_with_a_null_id_as_malformed(tmp_path):
    manifest = tmp_path / "m.jsonl"
    [good] = write_manifest(manifest, n=1)
    bad = {**good.to_json_obj(), "id": None, "description": 5, "media": {"path": 7, "type": "video"}}
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    kept, removed, summary = (tmp_path / n for n in ("kept.jsonl", "removed.jsonl", "s.json"))
    assert main(["filter", "--manifest", str(manifest), "--threshold", "0", "--out-kept", str(kept),
                 "--out-removed", str(removed), "--summary-out", str(summary)]) == 0
    assert json.loads(summary.read_text())["parse_errors"] == [
        {"line": 2, "message": "'id' is null, not a string"}]
    assert kept.read_text() == json.dumps(good.to_json_obj(), sort_keys=True) + "\n"


def test_a_non_ascii_id_and_null_optionals_pass_through_byte_for_byte(tmp_path):
    lm, tok = tmp_path / "lm.json", tmp_path / "tokens.json"
    out = {name: tmp_path / f"{name}.json" for name in ("mask", "mask_ascii", "enrich",
                                                        "enrich_named")}
    clip = write_landmarks(lm)
    tokens = write_tokens(tok, n=16, d=8)
    grid = ["--rows", "4", "--cols", "4"]
    assert main(["mask", "--landmarks", str(lm), *grid, "--out", str(out["mask_ascii"])]) == 0
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok), *grid, "--heads", "2",
                 "--out", str(out["enrich_named"])]) == 0
    save_landmarks(str(lm), "clip-é中", clip)
    tok.write_text(json.dumps({"id": None, "tokens": tokens.tolist()}) + "\n")
    assert main(["mask", "--landmarks", str(lm), *grid, "--out", str(out["mask"])]) == 0
    assert main(["enrich", "--landmarks", str(lm), "--tokens", str(tok), *grid, "--heads", "2",
                 "--out", str(out["enrich"])]) == 0
    renamed = b'"id": "clip-\\u00e9\\u4e2d"'
    assert out["mask"].read_bytes() == out["mask_ascii"].read_bytes().replace(b'"id": "clip-0"', renamed)
    assert out["enrich"].read_bytes() == out["enrich_named"].read_bytes().replace(
        b'"id": "clip-0"', renamed)

    manifest, kept = tmp_path / "m.jsonl", tmp_path / "kept.jsonl"
    doc = {"id": "r-é", "task": "expression", "media": {"path": "v/é.mp4", "type": "video"},
           "label": "happiness", "description": "d", "ratings": {"overall": 9}}
    manifest.write_text(json.dumps({**doc, "instruction": None}) + "\n", encoding="utf-8")
    assert main(["filter", "--manifest", str(manifest), "--out-kept", str(kept),
                 "--out-removed", str(tmp_path / "removed.jsonl")]) == 0
    assert kept.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode()

    records, report = tmp_path / "records.jsonl", tmp_path / "report.json"
    line = {"id": "e-é", "task": "deepfake", "generated": "It looks fake.", "ground_truth": "fake"}
    records.write_text(json.dumps(line) + "\n")
    assert main(["eval", "--records", str(records), "--out", str(report)]) == 0
    want = report.read_bytes()
    records.write_text(json.dumps({**line, "chunk_group": None}) + "\n")
    assert main(["eval", "--records", str(records), "--out", str(report)]) == 0
    assert report.read_bytes() == want


def test_pair_names_the_bank_the_task_and_the_record_the_bank_lacks(tmp_path, capsys):
    argv = runnable_argv(tmp_path, "pair")
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"au": ["Describe the {media}."]}))
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError",
        "message": f"{bank}: record 'r000': instruction bank has no task 'expression'",
    }
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", ["expresion", "au", "age"])
def test_eval_rejects_a_taxonomy_for_a_task_without_one(tmp_path, capsys, task):
    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps({"happiness": ["happy"], "sadness": ["sad"]}))
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(FIXTURES / "eval_expression.jsonl"),
                 "--taxonomy", task, str(tax), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == (
        f"--taxonomy {task}: no taxonomy for task {task!r}; "
        "expected one of ('expression', 'attribute', 'deepfake')")
    assert not out.exists()


def test_eval_rejects_an_override_taxonomy_with_no_classes(tmp_path, capsys):
    tax = tmp_path / "tx.json"
    tax.write_text("{}")
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(FIXTURES / "eval_expression.jsonl"),
                 "--taxonomy", "expression", str(tax), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == f"{tax}: taxonomy has no classes"
    assert not out.exists()


def test_eval_scores_a_digit_run_beyond_the_int_limit_as_a_failed_parse(tmp_path):
    digits = "9" * 4301
    records = tmp_path / "records.jsonl"
    records.write_text("".join(json.dumps(record) + "\n" for record in [
        {"id": "a1", "task": "age", "generated": "About 30.", "ground_truth": 30},
        {"id": "a2", "task": "age", "generated": f"about {digits} years", "ground_truth": 40},
        {"id": "u1", "task": "au", "generated": f"AU{digits} and AU4.", "ground_truth": [4]},
    ]))
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(records), "--out", str(out)]) == 0
    tasks = json.loads(out.read_text())["tasks"]
    assert tasks["age"]["parse_failure_rate"] == 0.5
    assert tasks["au"]["per_au_f1"]["4"] == 1.0  # the long code is skipped, AU4 still read


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("mask", ["--seed", "1"], "unrecognized arguments: --seed 1"),
        ("eval", ["--threads", "2"], "unrecognized arguments: --threads 2"),
        ("eval", ["--au-list", "1,x"], "argument --au-list: AU entries ['x'] in '1,x'"),
        ("eval", ["--au-list", "1,1,2"],
         "argument --au-list: AUs [1] in '1,1,2' are listed more than once"),
        *(
            (command, ["--seed", "-1"], "argument --seed: expected an integer >= 0, got -1")
            for command in ("enrich", "gradcheck", "train", "pair")
        ),
        *(
            (command, [flag, "0"], f"argument {flag}: expected an integer >= 1, got 0")
            for command in ("mask", "enrich") for flag in ("--rows", "--cols")
        ),
        ("mask", ["--rows", "x"], "argument --rows: invalid int value: 'x'"),
    ],
    ids=["mask-seed", "eval-threads", "eval-bad_au_entry", "eval-repeated_au", "enrich-negative_seed",
         "gradcheck-negative_seed", "train-negative_seed", "pair-negative_seed", "mask-zero_rows",
         "mask-zero_cols", "enrich-zero_rows", "enrich-zero_cols", "mask-non_integer_rows"],
)
def test_dead_and_malformed_flags_are_usage_errors(tmp_path, capsys, command, flags, message):
    with pytest.raises(SystemExit) as excinfo:
        main(runnable_argv(tmp_path, command) + flags)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, config, want",
    [
        ([], None, DISFA_AUS),
        (["--au-list", "bp4d"], None, BP4D_AUS),
        (["--au-list", "1, 2"], None, (1, 2)),
        ([], {"au_list": "bp4d"}, BP4D_AUS),
        ([], {"au_list": [4, 6]}, (4, 6)),
    ],
    ids=["default", "flag_name", "flag_numbers", "config_name", "config_numbers"],
)
def test_au_list_from_flag_or_config(tmp_path, flags, config, want):
    out = tmp_path / "report.json"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = flags + ["--config", str(tmp_path / "cfg.json")]
    assert main(["eval", "--records", str(FIXTURES / "eval_au.jsonl"), *flags,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tasks"]["au"]["au_list"] == list(want)


def test_au_list_below_1_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(runnable_argv(tmp_path, "eval") + ["--au-list", "0,1"])
    assert excinfo.value.code == 2
    assert ("argument --au-list: AUs [0] in '0,1' are below 1, where AU numbers start"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_au_list_below_1_in_config_names_the_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"au_list": [0, 1]}')
    assert main(runnable_argv(tmp_path, "eval") + ["--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == f"{cfg}: config key 'au_list' must be {AU_LIST_TAKES}, got [0, 1]"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cues", ['"not"', '["not", 3]', '{"not": 1}'],
                         ids=["string", "mixed_list", "object"])
def test_eval_rejects_negation_cues_that_are_not_a_list_of_strings(tmp_path, capsys, cues):
    path = tmp_path / "cues.json"
    path.write_text(cues)
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(FIXTURES / "eval_expression.jsonl"),
                 "--negation-cues", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == f"{path}: document is {cues}, not a list of strings"
    assert not out.exists()


@pytest.mark.parametrize(
    "cues, bad",
    [(["", "not"], "'' is empty"), (["not", "  "], "'  ' is empty"),
     (["Not"], "'Not' is not lowercase"), (["never", "NO "], "'NO ' is not lowercase")],
    ids=["empty", "spaces_only", "capitalised", "upper_with_space"],
)
def test_eval_rejects_empty_or_non_lowercase_negation_cues(tmp_path, capsys, cues, bad):
    path = tmp_path / "cues.json"
    path.write_text(json.dumps(cues))
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(FIXTURES / "eval_expression.jsonl"),
                 "--negation-cues", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == f"{path}: negation cue {bad}"
    assert not out.exists()


def test_eval_reads_negation_cues_with_surrounding_spaces(tmp_path):
    path = tmp_path / "cues.json"
    path.write_text(json.dumps(["no ", " not", "never"]))
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(FIXTURES / "eval_expression.jsonl"),
                 "--negation-cues", str(path), "--out", str(out)]) == 0


def test_filter_names_a_missing_key(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, n=3)
    first, *rest = manifest.read_bytes().splitlines(keepends=True)
    no_media = {k: v for k, v in json.loads(first).items() if k != "media"}
    manifest.write_bytes(first + json.dumps(no_media).encode() + b"\n" + b"".join(rest))
    summary = tmp_path / "summary.json"
    assert main(["filter", "--manifest", str(manifest), "--out-kept", str(tmp_path / "k.jsonl"),
                 "--out-removed", str(tmp_path / "r.jsonl"), "--summary-out", str(summary)]) == 0
    report = json.loads(summary.read_text())
    assert report["parse_errors"] == [{"line": 2, "message": "missing key 'media'"}]


def test_eval_names_a_missing_key(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    first, second, *_ = (FIXTURES / "eval_expression.jsonl").read_bytes().splitlines(keepends=True)
    no_truth = {k: v for k, v in json.loads(second).items() if k != "ground_truth"}
    records.write_bytes(first + json.dumps(no_truth).encode() + b"\n")
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(records), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == f"{records}:2: bad eval record: missing key 'ground_truth'"
    assert not out.exists()


def test_eval_names_the_records_file_for_a_ground_truth_outside_the_classes(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    first, *rest = (FIXTURES / "eval_expression.jsonl").read_bytes().splitlines(keepends=True)
    record = {**json.loads(first), "ground_truth": "x"}
    records.write_bytes(json.dumps(record).encode() + b"\n" + b"".join(rest))
    out = tmp_path / "report.json"
    assert main(["eval", "--records", str(records), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError",
        "message": f"{records}: record {record['id']!r}: unknown expression class 'x'",
    }
    assert not out.exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_prints_help(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: facecond {command}")


_PRIVATE_ARGPARSE = ("_actions", "_get_value", "_check_value")


def _private_argparse_uses(tree: ast.Module):
    """(line, name) of each use of argparse's private `_actions`,
    `_get_value` or `_check_value` in `tree`, in line order."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in _PRIVATE_ARGPARSE)


def test_no_module_reaches_into_argparse_internals():
    src = Path(facecond.__file__).parent
    uses = [f"{path.relative_to(src).as_posix()}:{line} {name}"
            for path in sorted(src.rglob("*.py"))
            for line, name in _private_argparse_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert uses == []


def test_argparse_guard_sees_each_private_member():
    tree = ast.parse("a = {x.dest: x for x in p._actions}\nv = p._get_value(a, s)\n"
                     "p._check_value(a, v)\np.actions")
    assert _private_argparse_uses(tree) == [(1, "_actions"), (2, "_get_value"), (3, "_check_value")]


# each subcommand's --config keys, each with a value of the wrong JSON kind
# and the words for what the key takes
WRONG_KIND = {
    "mask": {"rows": ("4", "an integer >= 1"), "cols": (4.0, "an integer >= 1")},
    "enrich": {
        "seed": ("0", "an integer >= 0"),
        "variant": (4, "one of ('frgca', 'simple', 'none')"),
        "token_mode": (["both"], "one of ('both', 'local_only', 'global_only')"),
        "heads": (True, "an integer >= 1"),
        "rows": ("4", "an integer >= 1"),
        "cols": (None, "an integer >= 1"),
    },
    "gradcheck": {"seed": (0.0, "an integer >= 0")},
    "train": {
        "stage": (1, "a string"),
        "learning_rate": ("0.1", "a finite number or null"),
        "epochs": (1.0, "an integer"),
        "seed": ("0", "an integer"),
        "frames": (None, "an integer"),
        "grid_rows": ("4", "an integer"),
        "grid_cols": ([4], "an integer"),
        "d": ("8", "an integer"),
        "d_attn": (8.5, "an integer or null"),
        "heads": (False, "an integer"),
        "d_raw": ({"d": 8}, "an integer"),
        "vocab": ("16", "an integer"),
        "variant": (["frgca"], "a string"),
        "tokens": (None, "a string"),
        "max_context": (2048.0, "an integer"),
        "train_size": ("2", "an integer >= 1"),
        "eval_size": (0.5, "an integer >= 0"),
        "task_kind": (1, "one of ('region', 'global')"),
    },
    "eval": {"au_list": (4, AU_LIST_TAKES)},
    "filter": {"threshold": ("6", "an integer")},
    "pair": {"seed": (True, "an integer >= 0")},
    "split": {"per_task": ("500", "an integer >= 0")},
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_config_key_words_a_wrong_kind_the_same_way(tmp_path, capsys, command):
    assert set(build_parser()[1][command][1]) == set(WRONG_KIND[command])
    cfg = tmp_path / "cfg.json"
    for key, (value, takes) in WRONG_KIND[command].items():
        cfg.write_text(json.dumps({key: value}))
        assert main(runnable_argv(tmp_path, command) + ["--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["message"] == (
            f"{cfg}: config key {key!r} must be {takes}, got {value!r}")
        assert not (tmp_path / "out").exists()
    if command == "eval":  # an AU list is a JSON list
        cfg.write_text(json.dumps({"au_list": [1, 2]}))
        assert main(["eval", "--records", str(FIXTURES / "eval_au.jsonl"), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out").read_text())["tasks"]["au"]["au_list"] == [1, 2]
