"""The benchmark's own tests: a tiny-size run of every workload, plain
and traced, emits every metric that BENCHMARK.json names, and the input
generator is deterministic per seed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Named end-to-end figures each workload prints above its result line.
NAMED = {
    "toy_ablation": ["train_samples_per_s", "train_none_samples_per_s", "eval_samples_per_s", "eval_loss"],
    "paper_step": ["train_samples_per_s", "eval_samples_per_s"],
    "enrich_clip": ["enrich_ms_p50", "enrich_ms_tail"],
    "text_pipeline": ["eval_records_per_s", "manifest_records_per_s"],
}
COMMON = ["setup_s", "error_rate", "peak_rss_mb"]


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_emits_every_end_to_end_metric(workload):
    result, stdout = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = [line.split()[1] for line in stdout.splitlines() if line.startswith("metric ")]
    assert printed[: len(COMMON)] == COMMON
    assert printed[len(COMMON):] == NAMED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_span(workload):
    result, _ = run_bench(workload, trace=1)
    assert result["correct"] is True
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    calls = {k[: -len(".calls")]: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    entered = {
        "toy_ablation": ["geometry.masks", "frlp.forward", "frlp.backward", "frgca.forward", "frgca.backward",
                         "projector.forward", "projector.backward", "decoder.forward", "decoder.backward",
                         "training.step", "training.adamw"],
        "paper_step": ["frgca.forward", "frgca.backward", "projector.forward", "projector.backward"],
        "enrich_clip": ["geometry.load_landmarks", "checkpoint.load", "cli.decode", "cli.encode", "frgca.forward"],
        "text_pipeline": ["evalkit.load", "evalkit.aggregate", "datapipe.load", "datapipe.filter",
                          "datapipe.pair", "datapipe.split", "datapipe.save"]
        + [f"evalkit.extract.{t}" for t in ("expression", "attribute", "deepfake", "au", "age")],
    }[workload]
    assert all(calls[name] > 0 for name in entered), {n: calls[n] for n in entered}


@pytest.fixture(scope="module")
def table():
    return gen.PhraseTable(gen.load_taxonomies(str(ROOT / "src/facecond/evalkit/resources")))


def test_text_generators_are_deterministic_per_seed(table):
    assert gen.eval_records(5, 60, table) == gen.eval_records(5, 60, table)
    assert gen.eval_records(5, 60, table) != gen.eval_records(6, 60, table)
    assert gen.manifest(5, 400, 10, table) == gen.manifest(5, 400, 10, table)
    assert gen.manifest(5, 400, 10, table) != gen.manifest(6, 400, 10, table)


def test_clip_generator_is_deterministic_per_seed(tmp_path):
    def files(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        clips = gen.enrich_clips(seed, str(out), 2, 2, 16, 4)
        return [Path(c.landmarks).read_bytes() + Path(c.tokens).read_bytes() for c in clips]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a2") != files(6, "c")
