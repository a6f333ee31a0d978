"""Write perfbench/golden.json: the per-step loss traces of the training
workloads and the fingerprint of one enrich output, which every run
compares against.

    python3 perfbench/make_golden.py

Rerun only when a change to facecond is meant to change these outputs,
and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from facecond.toytrain import synth_dataset, train  # noqa: E402

TOY_STEPS = 32
PAPER_STEPS = 2


def losses(cfg, data) -> list[float]:
    return [loss for _, _, loss in train(cfg, data).trace]


def main() -> None:
    toy = workloads.ToyAblation(tiny=False)
    toy_data = synth_dataset(seed=0, size=TOY_STEPS)
    paper = workloads.PaperStep(tiny=False)
    paper_cfg = paper.config(0)
    work_dir = HERE.parent / ".perfbench_work" / "make_golden"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        projections = workloads.EnrichClip(tiny=False).golden_output(str(work_dir))
    finally:
        shutil.rmtree(work_dir)
    golden = {
        "toy_ablation": {v: losses(toy.config(v, 0), toy_data) for v in ("frgca", "none")},
        "paper_step": {"frgca": losses(paper_cfg, paper._data(paper_cfg, 0, PAPER_STEPS))},
        "enrich_clip": {"frame_projections": projections},
    }
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
