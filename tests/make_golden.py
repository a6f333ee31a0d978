"""Regenerate tests/fixtures/train_golden.json.

    PYTHONPATH=src python tests/make_golden.py

The file pins 20 toy training steps for each attention variant and stage:
the (step, lr, loss) reprs, a sha256 of the trained parameters in
``model_arrays`` key order, and a sha256 of the ``save_model`` checkpoint
bytes. Rerun only when a change is meant to alter those outputs;
tests/test_golden.py compares against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from facecond.checkpoint import save_model
from facecond.toytrain import TrainConfig, model_arrays, synth_dataset, train

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "train_golden.json")
VARIANTS = ("frgca", "none")
STAGES = ("pretrain", "finetune")
STEPS = 20
SEED = 3


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
        with open(path, "rb") as fh:
            checkpoint = hashlib.sha256(fh.read()).hexdigest()
    return {
        "trace": [f"{step!r} {lr!r} {loss!r}" for step, lr, loss in result.trace],
        "params_sha256": params.hexdigest(),
        "checkpoint_sha256": checkpoint,
    }


def compute() -> dict:
    return {f"{variant}/{stage}": run_case(variant, stage) for variant in VARIANTS for stage in STAGES}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
