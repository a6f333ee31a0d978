"""Regenerate tests/fixtures/train_golden.json.

    PYTHONPATH=src python tests/make_golden.py

The file pins 20 toy training steps for each attention variant, token
mode and stage: the (step, lr, loss) reprs, a sha256 of the trained
parameters in ``model_arrays`` key order, and a sha256 of the
``save_model`` checkpoint bytes. It also pins ``facecond enrich`` on one seeded 2-frame clip: a
sha256 of the ``--out`` bytes for each attention variant and token mode,
and of the ``--attention-out`` bytes with both token sets. It pins the
manifest pipeline on one fixed manifest: a sha256 of every file that
``facecond filter``, ``pair`` and ``split`` write, of one
``save_landmarks`` file, and of the ``facecond mask`` output for a 3-frame
clip. It pins ``facecond eval`` on each of the five ``eval_*.jsonl``
fixtures: a sha256 of the report, and of the ``--confusion-out`` CSV for
the two single-label tasks. It pins ``facecond gradcheck``: a sha256 of
the ``--out`` report for each of seeds 0, 1 and 2. It pins a sha256 of
``facecond --help`` and of ``facecond <command> --help`` for every subcommand, at COLUMNS=80, so an
added, removed or renamed option shows. Rerun only when a change is meant
to alter those outputs; tests/test_golden.py compares against the
committed file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np

from facecond.checkpoint import save_model
from facecond.cli import build_parser, main
from facecond.frlp import TOKEN_MODES
from facecond.geometry import LandmarkClip, save_landmarks
from facecond.toytrain import TrainConfig, model_arrays, synth_dataset, train

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN_PATH = os.path.join(FIXTURES, "train_golden.json")
STAGES = ("pretrain", "finetune")
STEPS = 20
SEED = 3
# (variant, token mode); variant "none" reads no landmark tokens
CASES = (
    *((variant, mode) for variant in ("frgca", "simple") for mode in TOKEN_MODES),
    ("none", "both"),
)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_key(variant: str, token_mode: str, stage: str) -> str:
    mode = "" if token_mode == "both" else f"{token_mode}/"
    return f"{variant}/{mode}{stage}"


def run_case(variant: str, token_mode: str, stage: str) -> dict:
    cfg = TrainConfig(
        stage=stage, variant=variant, tokens=token_mode, learning_rate=3e-3, seed=SEED
    )
    data = synth_dataset(
        seed=SEED, size=STEPS, frames=cfg.frames, n_patches=cfg.n_patches,
        d_raw=cfg.d_raw, vocab=cfg.vocab,
    )
    result = train(cfg, data)
    params = hashlib.sha256()
    for key, arr in model_arrays(result.model).items():
        params.update(key.encode())
        params.update(arr.tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        save_model(path, result.model)
        checkpoint = _sha256_file(path)
    return {
        "trace": [f"{step!r} {lr!r} {loss!r}" for step, lr, loss in result.trace],
        "params_sha256": params.hexdigest(),
        "checkpoint_sha256": checkpoint,
    }


def enrich_key(variant: str, token_mode: str) -> str:
    return "enrich/none" if variant == "none" else f"enrich/{variant}/{token_mode}"


def run_enrich_case(variant: str, token_mode: str) -> dict:
    """``facecond enrich`` on a 2-frame 4x4-patch clip with d=8, two heads
    and seed-initialized parameters; attention maps are exported for the
    attending variants with both token sets."""
    rng = np.random.default_rng(SEED)
    clip = LandmarkClip(rng.uniform(0.1, 0.9, size=(2, 68, 2)))
    tokens = rng.normal(size=(2, 16, 8))
    with tempfile.TemporaryDirectory() as tmp:
        landmarks = os.path.join(tmp, "landmarks.json")
        token_path = os.path.join(tmp, "tokens.json")
        out = os.path.join(tmp, "enriched.json")
        attention = os.path.join(tmp, "attention.json")
        save_landmarks(landmarks, "clip-0", clip)
        with open(token_path, "w", encoding="utf-8") as fh:
            json.dump({"id": "clip-0", "tokens": tokens.tolist()}, fh)
        argv = [
            "enrich", "--landmarks", landmarks, "--tokens", token_path, "--out", out,
            "--rows", "4", "--cols", "4", "--heads", "2", "--seed", str(SEED),
            "--variant", variant, "--token-mode", token_mode,
        ]
        with_maps = variant != "none" and token_mode == "both"
        if with_maps:
            argv += ["--attention-out", attention]
        if main(argv) != 0:
            raise RuntimeError(f"enrich failed for {variant}/{token_mode}")
        result = {"out_sha256": _sha256_file(out)}
        if with_maps:
            result["attention_sha256"] = _sha256_file(attention)
    return result


PIPELINE_STEPS = ("filter", "pair", "split")
LANDMARKS_KEY = "landmarks"
MASK_KEY = "mask"


def pipeline_key(step: str) -> str:
    return f"pipeline/{step}"


def _manifest_lines() -> list[str]:
    """36 records over two tasks, some unrated or already instructed, then
    a truncated line and a record rated out of range, which ``filter``
    reports as parse errors. Written with ``json.dumps`` so the input does
    not depend on the writer under test."""
    rng = np.random.default_rng(SEED)
    labels = {"expression": ("happiness", "sadness", "neutral"), "deepfake": ("real", "fake")}
    lines = []
    for i in range(36):
        task = ("expression", "deepfake")[i % 2]
        obj = {
            "id": f"r{i:03d}",
            "task": task,
            "media": {"path": f"media/{i}.mp4", "type": ("video", "image")[i % 3 == 0]},
            "label": labels[task][i // 2 % len(labels[task])],
            "description": f"d\u00e9scription {i}",
        }
        if i % 7 != 3:
            obj["ratings"] = {"overall": int(rng.integers(5, 11)), "label_accuracy": 9}
        if i % 5 == 4:
            obj["instruction"] = "Already instructed."
        lines.append(json.dumps(obj, sort_keys=True))
    lines.append('{"id": "bad", "task": ')
    lines.append(json.dumps({"id": "r999", "task": "expression", "media": {"path": "m", "type": "image"},
                             "label": "happiness", "description": "d", "ratings": {"overall": 11}}))
    return lines


def run_pipeline_case() -> dict:
    """``facecond filter``, then ``pair`` on the kept records, then ``split``
    on the paired ones; returns each step's output hashes by golden key."""
    bank = {
        "expression": ["Describe the {media}.", "What does the face in this {media} show?"],
        "deepfake": ["Is this {media} real or fake?"],
    }
    target = {"deepfake": {"fake": 1, "real": 1}, "expression": {"happiness": 2, "neutral": 1, "sadness": 1}}
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: os.path.join(tmp, name) for name in (
            "manifest.jsonl", "bank.json", "target.json", "kept.jsonl", "removed.jsonl",
            "filter.json", "paired.jsonl", "split.jsonl", "split.json")}
        with open(path["manifest.jsonl"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(_manifest_lines()) + "\n")
        with open(path["bank.json"], "w", encoding="utf-8") as fh:
            json.dump(bank, fh)
        with open(path["target.json"], "w", encoding="utf-8") as fh:
            json.dump(target, fh)
        argvs = {
            "filter": ["filter", "--manifest", path["manifest.jsonl"], "--threshold", "6",
                       "--out-kept", path["kept.jsonl"], "--out-removed", path["removed.jsonl"],
                       "--summary-out", path["filter.json"]],
            "pair": ["pair", "--manifest", path["kept.jsonl"], "--bank", path["bank.json"],
                     "--seed", str(SEED), "--out", path["paired.jsonl"]],
            "split": ["split", "--manifest", path["paired.jsonl"], "--target", path["target.json"],
                      "--per-task", "4", "--out", path["split.jsonl"],
                      "--summary-out", path["split.json"]],
        }
        for step in PIPELINE_STEPS:
            if main(argvs[step]) != 0:
                raise RuntimeError(f"{step} failed")
        return {
            pipeline_key("filter"): {
                "kept_sha256": _sha256_file(path["kept.jsonl"]),
                "removed_sha256": _sha256_file(path["removed.jsonl"]),
                "summary_sha256": _sha256_file(path["filter.json"]),
            },
            pipeline_key("pair"): {"out_sha256": _sha256_file(path["paired.jsonl"])},
            pipeline_key("split"): {
                "out_sha256": _sha256_file(path["split.jsonl"]),
                "summary_sha256": _sha256_file(path["split.json"]),
            },
        }


def run_landmarks_case() -> dict:
    """``save_landmarks`` on one seeded 3-frame clip."""
    rng = np.random.default_rng(SEED)
    clip = LandmarkClip(rng.uniform(-0.5, 1.5, size=(3, 68, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "landmarks.json")
        save_landmarks(path, "clip-\u00e9", clip)
        return {"sha256": _sha256_file(path)}


def run_mask_case() -> dict:
    """``facecond mask`` on one seeded 3-frame clip over a 3x5 patch grid."""
    rng = np.random.default_rng(SEED + 1)
    clip = LandmarkClip(rng.uniform(-0.5, 1.5, size=(3, 68, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        landmarks = os.path.join(tmp, "landmarks.json")
        out = os.path.join(tmp, "masks.json")
        save_landmarks(landmarks, "clip-0", clip)
        if main(["mask", "--landmarks", landmarks, "--rows", "3", "--cols", "5", "--out", out]) != 0:
            raise RuntimeError("mask failed")
        return {"sha256": _sha256_file(out)}


EVAL_TASKS = ("age", "attribute", "au", "deepfake", "expression")
# the single-label tasks, whose report has a confusion matrix
CONFUSION_TASKS = ("deepfake", "expression")


def eval_key(task: str) -> str:
    return f"eval/{task}"


def run_eval_case(task: str) -> dict:
    """``facecond eval`` on ``fixtures/eval_<task>.jsonl`` with the bundled
    taxonomies and negation cues."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        confusion = os.path.join(tmp, "confusion.csv")
        argv = ["eval", "--records", os.path.join(FIXTURES, f"eval_{task}.jsonl"), "--out", out]
        if task in CONFUSION_TASKS:
            argv += ["--confusion-out", confusion]
        if main(argv) != 0:
            raise RuntimeError(f"eval failed for {task}")
        result = {"report_sha256": _sha256_file(out)}
        if task in CONFUSION_TASKS:
            result["confusion_sha256"] = _sha256_file(confusion)
    return result


GRADCHECK_SEEDS = (0, 1, 2)


def gradcheck_key(seed: int) -> str:
    return f"gradcheck/{seed}"


def run_gradcheck_case(seed: int) -> dict:
    """``facecond gradcheck --seed <seed>``: the finite-difference report,
    whose errors carry every bit of the analytic gradients."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "gradcheck.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["gradcheck", "--seed", str(seed), "--out", out])
        if code != 0:
            raise RuntimeError(f"gradcheck failed for seed {seed}")
        return {"sha256": _sha256_file(out)}


# "" is the top-level parser
HELP_COMMANDS = ("", *build_parser()[1])


def help_key(command: str) -> str:
    return f"help/{command}" if command else "help"


def run_help_case(command: str) -> dict:
    """``facecond [<command>] --help`` with an 80-column terminal."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out):
        try:
            main([command, "--help"] if command else ["--help"])
        except SystemExit as exc:
            if exc.code != 0:
                raise RuntimeError(f"--help exited with {exc.code} for {command!r}") from None
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def compute() -> dict:
    golden = {
        train_key(variant, mode, stage): run_case(variant, mode, stage)
        for variant, mode in CASES
        for stage in STAGES
    }
    for variant, mode in CASES:
        golden[enrich_key(variant, mode)] = run_enrich_case(variant, mode)
    golden.update(run_pipeline_case())
    golden[LANDMARKS_KEY] = run_landmarks_case()
    golden[MASK_KEY] = run_mask_case()
    for task in EVAL_TASKS:
        golden[eval_key(task)] = run_eval_case(task)
    for seed in GRADCHECK_SEEDS:
        golden[gradcheck_key(seed)] = run_gradcheck_case(seed)
    for command in HELP_COMMANDS:
        golden[help_key(command)] = run_help_case(command)
    return golden


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
