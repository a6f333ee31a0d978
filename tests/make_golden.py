"""Regenerate tests/fixtures/train_golden.json.

    PYTHONPATH=src python tests/make_golden.py

The file pins 20 toy training steps for each attention variant and stage:
the (step, lr, loss) reprs, a sha256 of the trained parameters in
``model_arrays`` key order, and a sha256 of the ``save_model`` checkpoint
bytes. It also pins ``facecond enrich`` on one seeded 2-frame clip: a
sha256 of the ``--out`` bytes for each attention variant and token mode,
and of the ``--attention-out`` bytes with both token sets. Rerun only when
a change is meant to alter those outputs; tests/test_golden.py compares
against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from facecond.checkpoint import save_model
from facecond.cli import main
from facecond.frlp import TOKEN_MODES
from facecond.geometry import frames_from_array, save_landmarks
from facecond.toytrain import TrainConfig, model_arrays, synth_dataset, train

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "train_golden.json")
VARIANTS = ("frgca", "none")
STAGES = ("pretrain", "finetune")
STEPS = 20
SEED = 3
ENRICH_CASES = (
    *((variant, mode) for variant in ("frgca", "simple") for mode in TOKEN_MODES),
    ("none", "both"),
)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_case(variant: str, stage: str) -> dict:
    cfg = TrainConfig(stage=stage, variant=variant, learning_rate=3e-3, seed=SEED)
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
    clip = frames_from_array(rng.uniform(0.1, 0.9, size=(2, 68, 2)))
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


def compute() -> dict:
    golden = {
        f"{variant}/{stage}": run_case(variant, stage) for variant in VARIANTS for stage in STAGES
    }
    for variant, mode in ENRICH_CASES:
        golden[enrich_key(variant, mode)] = run_enrich_case(variant, mode)
    return golden


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
