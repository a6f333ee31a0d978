"""The four benchmark workloads.

Each workload is a closed loop: one client in one process, and every
request waits for the one before it. `setup` makes the inputs from the
seed (it counts in setup_s); `round` issues one round of requests and
appends one Op per user-visible operation; `patches` lists the wrappers
a traced round installs. Output checks run outside the timed calls, and
a failed check marks its operation failed.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import facecond.checkpoint as ckpt
import facecond.cli as cli
import facecond.datapipe as datapipe
import facecond.evalkit.report as report
import facecond.toytrain.training as training
from facecond.evalkit import (
    DISFA_AUS,
    Taxonomy,
    default_negation_cues,
    default_taxonomy,
    load_eval_records,
    score_records,
)
from facecond.frgca import frgca_forward
from facecond.frlp import frlp_forward, select_tokens
from facecond.geometry import PatchGrid, clip_rpp_masks, default_partition, load_landmarks
from facecond.toytrain import TrainConfig, init_model, synth_dataset

import gen

# Relative tolerance of the golden outputs: summation order may change
# the last bits when BLAS or a vectorised path reorders sums (2e-12 was
# measured for a GEMM rewrite of the FRGCA backward pass), while a 1e-4
# change to the FRGCA residual moves the paper-shape losses by 7e-7.
GOLDEN_RTOL = 1e-9


@dataclass
class Op:
    kind: str
    round: int
    seconds: float = 0.0
    items: int = 0
    traced: bool = False
    pace: float = 1.0  # machine pace measured just before the op's round
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def rate(self) -> float:
        return self.items / self.seconds


def _median_rate(ops: list[Op], kind: str, paced: bool = False) -> float:
    """Median over plain ops of items/s; `paced` scales each to the
    reference machine speed."""
    return statistics.median(
        op.rate * (op.pace if paced else 1.0) for op in ops if op.kind == kind and not op.traced
    )


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it;
    None when that is below the median."""
    p = 100 * (n - 10) // n if n > 10 else 0
    return p if p > 50 else None


def _close(a: list[float], b: list[float], rtol: float) -> bool:
    return len(a) == len(b) and bool(np.allclose(a, b, rtol=rtol, atol=0.0))


class Workload:
    tracer = None  # set by the runner for traced rounds
    overhead_kind = ""  # operation whose traced and plain times give the overhead
    min_rounds = 1  # rounds a run makes even when --seconds has passed
    pace_kind = "python"  # calibration loop whose slowdowns track this workload's

    def reference(self, ops, golden) -> None:
        """Checks against fixed golden inputs, before the measured loop."""

    def patches(self, tracer) -> list:
        return []

    def after_trace(self, tracer) -> None:
        """Untimed counting after the traced rounds."""

    def new_op(self, ops, kind, rnd, items, traced=False) -> Op:
        op = Op(kind, rnd, items=items, traced=traced)
        ops.append(op)
        if traced:
            self.tracer.request = f"{kind}-{rnd}"
        return op

    def overhead_pct(self, ops) -> float:
        """Traced minus plain median time of one operation, in percent."""
        times = {False: [], True: []}
        for op in ops:
            if op.kind == self.overhead_kind and not op.failed:
                times[op.traced].append(op.seconds)
        return 100.0 * (statistics.median(times[True]) / statistics.median(times[False]) - 1.0)


# ---------------------------------------------------------------------------
# training workloads


def _training_patches(tracer) -> list:
    t = training
    return [
        (t, "train", tracer.wrap(t.train, "training.train")),
        (t, "evaluate", tracer.wrap(t.evaluate, "training.evaluate")),
        (t, "forward_loss", tracer.wrap_open(t.forward_loss, "training.step", under="training.train")),
        (t.AdamW, "step", tracer.wrap_close(t.AdamW.step, "training.step", inner="training.adamw")),
        (t, "vision_project", tracer.wrap(t.vision_project, "projector.forward")),
        (t, "vision_backward", tracer.wrap(t.vision_backward, "projector.backward")),
        (t, "frlp_forward", tracer.wrap(t.frlp_forward, "frlp.forward")),
        (t, "frlp_backward", tracer.wrap(t.frlp_backward, "frlp.backward")),
        (t, "clip_rpp_masks", tracer.wrap(t.clip_rpp_masks, "geometry.masks")),
        (t, "frgca_forward", tracer.wrap(t.frgca_forward, "frgca.forward")),
        (t, "frgca_backward", tracer.wrap(t.frgca_backward, "frgca.backward")),
        (t, "sequence_assemble", tracer.wrap_open(t.sequence_assemble, "decoder.forward")),
        (t, "autoregressive_loss", tracer.wrap_close(t.autoregressive_loss, "decoder.forward")),
        (t, "decoder_backward", tracer.wrap(t.decoder_backward, "decoder.backward")),
    ]


def _losses(result) -> list[float]:
    return [loss for _, _, loss in result.trace]


class _TrainingWorkload(Workload):
    overhead_kind = "train_frgca"

    def __init__(self) -> None:
        self.first_losses: dict[tuple, list[float]] = {}

    def patches(self, tracer) -> list:
        return _training_patches(tracer)

    def _train(self, ops, rnd, traced, kind, cfg, data, model=None, key=None):
        """train(); its losses must repeat bit for bit whenever the same
        `key` (same model state, same data) comes round again."""
        op = self.new_op(ops, kind, rnd, len(data), traced)
        start = perf_counter()
        result = training.train(cfg, data, model=model)
        op.seconds = perf_counter() - start
        losses = _losses(result)
        op.check(len(losses) == len(data), f"{kind}: {len(losses)} steps for {len(data)} samples")
        op.check(all(np.isfinite(losses)), f"{kind}: non-finite loss")
        first = self.first_losses.setdefault((kind, key), losses)
        op.check(losses == first, f"{kind}: round {rnd} losses differ from an earlier run of the same input")
        return result

    def _evaluate(self, ops, rnd, traced, kind, model, data, cfg):
        op = self.new_op(ops, kind, rnd, len(data), traced)
        start = perf_counter()
        loss, accuracy = training.evaluate(model, data, cfg)
        op.seconds = perf_counter() - start
        op.check(np.isfinite(loss) and 0.0 <= accuracy <= 1.0, f"{kind}: loss {loss}, accuracy {accuracy}")
        return op, loss, accuracy

    def _golden(self, ops, kind, cfg, data, expected):
        op = self.new_op(ops, kind, -1, len(data))
        losses = _losses(training.train(cfg, data))
        op.check(
            _close(losses, expected, GOLDEN_RTOL),
            f"{kind}: losses {losses} differ from golden {expected} beyond rtol {GOLDEN_RTOL}",
        )


class ToyAblation(_TrainingWorkload):
    """Why: at T=1, a 4x4 grid and d=16 the tensors are tiny, so per-call
    Python sets the time (the AdamW loop over 35 arrays, mask rebuilds, 9
    FRLP matmuls). Variant `none` skips masks and attention, so a change
    to those moves the frgca rate and leaves the `none` rate alone.

    One pass trains both variants over the seeded set in chunks, one
    train() request per chunk continuing the same model, then evaluates
    both on the held-out set and checks the criterion-07 margins. Short
    requests give the median many samples per run."""

    name = "toy_ablation"

    def __init__(self, tiny: bool) -> None:
        super().__init__()
        # 2000 steps in chunks of 250 clear the criterion-07 margins for
        # every seed tried; the tiny smoke-test size is too small to
        # learn, so it skips the margin check
        self.check_margin = not tiny
        self.train_size = 40 if tiny else 2000
        self.chunk = 10 if tiny else 250
        self.eval_size = 20 if tiny else 300
        self.min_rounds = self.train_size // self.chunk
        self.models: dict = {}
        self.eval_loss = None

    def config(self, variant: str, seed: int) -> TrainConfig:
        return TrainConfig(stage="finetune", learning_rate=3e-3, variant=variant, seed=seed)

    def setup(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.train_set = synth_dataset(seed=seed, size=self.train_size)
        self.eval_set = synth_dataset(seed=seed + 10_000, size=self.eval_size)

    def reference(self, ops, golden) -> None:
        data = synth_dataset(seed=0, size=len(golden["frgca"]))
        for variant in ("frgca", "none"):
            self._golden(ops, f"golden_{variant}", self.config(variant, 0), data, golden[variant])

    def round(self, rnd, ops, traced=False) -> None:
        k = rnd % self.min_rounds
        cfg_f, cfg_n = self.config("frgca", self.seed), self.config("none", self.seed)
        if k == 0:  # a fresh pass; traced and plain rounds keep their own models
            self.models[traced] = (init_model(cfg_f), init_model(cfg_n))
        model_f, model_n = self.models[traced]
        chunk = self.train_set[k * self.chunk:(k + 1) * self.chunk]
        self._train(ops, rnd, traced, "train_frgca", cfg_f, chunk, model_f, key=k)
        self._train(ops, rnd, traced, "train_none", cfg_n, chunk, model_n, key=k)
        if k != self.min_rounds - 1:
            return
        op, loss_f, acc_f = self._evaluate(ops, rnd, traced, "eval_frgca", model_f, self.eval_set, cfg_f)
        _, loss_n, acc_n = self._evaluate(ops, rnd, traced, "eval_none", model_n, self.eval_set, cfg_n)
        if self.check_margin:
            op.check(loss_f < loss_n, f"held-out loss frgca {loss_f:.4f} is not below none {loss_n:.4f}")
            op.check(
                acc_f >= acc_n + 0.05,
                f"held-out accuracy frgca {acc_f:.3f} does not beat none {acc_n:.3f} by 0.05",
            )
        self.eval_loss = loss_f

    def rates(self, ops) -> tuple[float, float]:
        return _median_rate(ops, "train_frgca", True), _median_rate(ops, "train_none", True)

    def named_metrics(self, ops) -> list[tuple[str, float, str]]:
        return [
            ("train_samples_per_s", _median_rate(ops, "train_frgca"), "samples/s"),
            ("train_none_samples_per_s", _median_rate(ops, "train_none"), "samples/s"),
            ("eval_samples_per_s", _median_rate(ops, "eval_frgca"), "samples/s"),
            ("eval_loss", self.eval_loss, "nats"),
        ]


class PaperStep(_TrainingWorkload):
    """Why: at T=8, a 16x16 grid, d=256 and H=8 dense math sets the time
    (FRGCA and projector weight gradients via einsum) and Python overhead
    is negligible. Stage `pretrain` freezes theta and phi but still
    computes their gradients. The control is forward-only evaluate(), so
    a backward-pass change moves the primary rate and not the control."""

    name = "paper_step"
    pace_kind = "dense"

    def __init__(self, tiny: bool) -> None:
        super().__init__()
        self.tiny = tiny
        self.train_size = 4
        self.eval_size = 4

    def config(self, seed: int, tiny: bool = False) -> TrainConfig:
        if tiny:
            return TrainConfig(stage="pretrain", frames=2, grid_rows=4, grid_cols=4, d=32, heads=8,
                               d_raw=16, seed=seed)
        # T*N+3 = 2051 tokens exceed the default context of 2048
        return TrainConfig(stage="pretrain", frames=8, grid_rows=16, grid_cols=16, d=256, heads=8,
                           d_raw=64, max_context=4096, seed=seed)

    def _data(self, cfg: TrainConfig, seed: int, size: int):
        return synth_dataset(seed=seed, size=size, frames=cfg.frames, n_patches=cfg.n_patches,
                             d_raw=cfg.d_raw, vocab=cfg.vocab)

    def setup(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.cfg = self.config(seed, self.tiny)
        self.train_set = self._data(self.cfg, seed, self.train_size)
        self.eval_set = self._data(self.cfg, seed + 10_000, self.eval_size)

    def reference(self, ops, golden) -> None:
        cfg = self.config(0)
        self._golden(ops, "golden_frgca", cfg, self._data(cfg, 0, len(golden["frgca"])), golden["frgca"])

    def round(self, rnd, ops, traced=False) -> None:
        result = self._train(ops, rnd, traced, "train_frgca", self.cfg, self.train_set)
        self._evaluate(ops, rnd, traced, "eval_frgca", result.model, self.eval_set, self.cfg)

    def rates(self, ops) -> tuple[float, float]:
        return _median_rate(ops, "train_frgca", True), _median_rate(ops, "eval_frgca", True)

    def named_metrics(self, ops) -> list[tuple[str, float, str]]:
        return [
            ("train_samples_per_s", _median_rate(ops, "train_frgca"), "samples/s"),
            ("eval_samples_per_s", _median_rate(ops, "eval_frgca"), "samples/s"),
        ]


# ---------------------------------------------------------------------------
# enrich_clip


def _read_tokens(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["tokens"], dtype=np.float64)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def frame_projections(tokens: np.ndarray) -> list[float]:
    """Each frame of a (T, N, d) output projected on fixed weights: a
    compact fingerprint that any real change to the values moves."""
    weights = np.random.default_rng(2504).normal(size=tokens.shape[1:])
    return [float(np.sum(frame * weights)) for frame in tokens]


class EnrichClip(Workload):
    """Why: `facecond enrich` is forward only; JSON decoding and encoding
    in the CLI plus the checkpoint load take nearly all of its latency,
    and it is the one workload whose user-facing number is latency. The
    control is `--variant none`, which skips the checkpoint, FRLP and
    FRGCA and keeps the JSON in and out."""

    name = "enrich_clip"
    overhead_kind = "enrich"

    def __init__(self, tiny: bool) -> None:
        self.pool = 2 if tiny else 4
        self.grid = PatchGrid(4, 4) if tiny else PatchGrid(16, 16)
        self.shape = (2 if tiny else 8, self.grid.num_patches, 8 if tiny else 64)
        self.first_bytes: dict[str, bytes] = {}

    def setup(self, seed: int, work_dir: str) -> None:
        self.work_dir = work_dir
        self.clips, self.checkpoint = self._inputs(seed, work_dir, self.pool, self.grid, self.shape)
        self.out = os.path.join(work_dir, "enriched.json")
        self.out_none = os.path.join(work_dir, "enriched_none.json")
        self.out_replay = os.path.join(work_dir, "enriched_replay.json")

    @staticmethod
    def _inputs(seed, work_dir, count, grid, shape):
        T, N, d = shape
        clips = gen.enrich_clips(seed, work_dir, count, T, N, d)
        checkpoint = os.path.join(work_dir, "checkpoint.json")
        model = init_model(TrainConfig(d=d, heads=8, grid_rows=grid.rows, grid_cols=grid.cols, seed=seed))
        ckpt.save_model(checkpoint, model)
        return clips, checkpoint

    def _cli(self, clip, out, extra, grid=None) -> tuple[int, float]:
        grid = grid or self.grid
        argv = ["enrich", "--landmarks", clip.landmarks, "--tokens", clip.tokens, "--out", out,
                "--rows", str(grid.rows), "--cols", str(grid.cols)] + extra
        start = perf_counter()
        rc = cli.main(argv)
        return rc, perf_counter() - start

    def golden_output(self, work_dir: str) -> list[float]:
        """frame_projections of `enrich` on a fixed full-size clip (seed 0)."""
        grid = PatchGrid(16, 16)
        (clip,), checkpoint = self._inputs(0, work_dir, 1, grid, (8, grid.num_patches, 64))
        out = os.path.join(work_dir, "golden_enriched.json")
        rc, _ = self._cli(clip, out, ["--checkpoint", checkpoint], grid)
        if rc != 0:
            raise RuntimeError(f"enrich exited with {rc} on the golden clip")
        return frame_projections(_read_tokens(out))

    def reference(self, ops, golden) -> None:
        op = self.new_op(ops, "golden_enrich", -1, 1)
        ref_dir = os.path.join(self.work_dir, "golden")
        os.makedirs(ref_dir, exist_ok=True)
        got = self.golden_output(ref_dir)
        want = golden["frame_projections"]
        op.check(_close(got, want, GOLDEN_RTOL), f"golden clip: {got} differ from {want} beyond rtol {GOLDEN_RTOL}")

    def _check_output(self, op, clip, data: bytes) -> None:
        tokens = np.asarray(json.loads(data)["tokens"])
        op.check(tokens.shape == clip.shape, f"{clip.clip_id}: output shape {tokens.shape} != {clip.shape}")
        first = self.first_bytes.setdefault(clip.clip_id, data)
        op.check(data == first, f"{clip.clip_id}: output bytes differ from the first run of the same clip")

    def round(self, rnd, ops, traced=False) -> None:
        clip = self.clips[rnd % len(self.clips)]
        if traced:
            self._replay(rnd, ops, clip)
            return
        op = self.new_op(ops, "enrich", rnd, 1)
        rc, op.seconds = self._cli(clip, self.out, ["--checkpoint", self.checkpoint])
        op.check(rc == 0, f"{clip.clip_id}: enrich exited with {rc}")
        if rc == 0:
            self._check_output(op, clip, _read_bytes(self.out))

        op = self.new_op(ops, "enrich_none", rnd, 1)
        rc, op.seconds = self._cli(clip, self.out_none, ["--variant", "none"])
        op.check(rc == 0, f"{clip.clip_id}: enrich --variant none exited with {rc}")
        if rc == 0:
            same = np.array_equal(_read_tokens(self.out_none), _read_tokens(clip.tokens))
            op.check(same, f"{clip.clip_id}: variant none changed the tokens")

    def _replay(self, rnd, ops, clip) -> None:
        """cmd_enrich through the public functions, one span per layer."""
        tr = self.tracer
        op = self.new_op(ops, "enrich", rnd, 1, traced=True)
        start = perf_counter()
        with tr.span("cli.enrich"):
            with tr.span("geometry.load_landmarks"):
                media_id, lm_clip = load_landmarks(clip.landmarks)
            with tr.span("cli.decode"):
                with open(clip.tokens, encoding="utf-8") as fh:
                    doc = json.load(fh)
                h_v = np.asarray(doc["tokens"], dtype=np.float64)
            with tr.span("checkpoint.load"):
                arrays, meta = ckpt.load_arrays(self.checkpoint)
                frlp_params = ckpt.build_frlp(arrays)
                frgca_params = ckpt.build_frgca(arrays, meta)
            partition = default_partition()
            with tr.span("frlp.forward"):
                h_l = select_tokens(frlp_forward(lm_clip, partition, frlp_params), "both")
            with tr.span("geometry.masks"):
                masks = clip_rpp_masks(lm_clip, partition, self.grid)
            with tr.span("frgca.forward"):
                enriched = frgca_forward(h_v, h_l, masks, frgca_params, variant="frgca")
            with tr.span("cli.encode"):
                gen.write_json(self.out_replay, {"id": media_id or doc.get("id"), "tokens": enriched.tolist()})
        op.seconds = perf_counter() - start
        data = _read_bytes(self.out_replay)
        op.check(data == self.first_bytes.get(clip.clip_id), f"{clip.clip_id}: replay bytes differ from the CLI's")

    def rates(self, ops) -> tuple[float, float]:
        return _median_rate(ops, "enrich", True), _median_rate(ops, "enrich_none", True)

    def named_metrics(self, ops) -> list[tuple[str, float, str]]:
        ms = sorted(op.seconds * 1e3 for op in ops if op.kind == "enrich" and not op.traced)
        p = tail_percentile(len(ms))
        out = [("enrich_ms_p50", statistics.median(ms), "ms")]
        if p is not None:
            tail = float(np.percentile(ms, p))
            out.append((f"enrich_ms_tail (p{p} of {len(ms)} requests)", tail, "ms"))
        else:
            out.append((f"enrich_ms_tail (none: {len(ms)} requests, a tail needs 21)", float("nan"), "ms"))
        return out


# ---------------------------------------------------------------------------
# text_pipeline


class TextPipeline(Workload):
    """Why: no numpy runs here. The time goes to regex matching in
    Taxonomy.count_matches (400 attribute phrases) and to JSONL I/O, and
    records mix short image descriptions with long video descriptions.
    The control is filter -> pair -> split, which never touches evalkit."""

    name = "text_pipeline"
    overhead_kind = "eval"

    def __init__(self, tiny: bool) -> None:
        self.manifest_lines = 600 if tiny else 3000
        self.per_task = 20 if tiny else 100
        self.records = 100 if tiny else 1000
        self.first_bytes: dict[str, bytes] = {}

    def setup(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        table = gen.PhraseTable(gen.load_taxonomies(_resource_dir()))
        self.paths = {k: os.path.join(work_dir, v) for k, v in {
            "manifest": "manifest.jsonl", "bank": "bank.json", "target": "target.json",
            "records": "records.jsonl", "kept": "kept.jsonl", "removed": "removed.jsonl",
            "filter_summary": "filter_summary.json", "paired": "paired.jsonl", "split": "split.jsonl",
            "split_summary": "split_summary.json", "report": "report.json", "replay": "report_replay.json",
        }.items()}
        lines, self.expected_filter = gen.manifest(seed, self.manifest_lines, self.per_task, table)
        with open(self.paths["manifest"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        gen.write_json(self.paths["bank"], gen.instruction_bank())
        gen.write_json(self.paths["target"], gen.SPLIT_TARGET)
        records, self.expected_eval = gen.eval_records(seed, self.records, table)
        with open(self.paths["records"], "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def patches(self, tracer) -> list:
        d = datapipe

        def load_manifest(path):
            records, errors = traced_load(path)
            tracer.count("datapipe.parse_errors", len(errors))
            return records, errors

        traced_load = tracer.wrap(d.load_manifest, "datapipe.load")
        return [
            (cli, "main", tracer.wrap(cli.main, "cli.main")),
            (d, "load_manifest", load_manifest),
            (d, "filter_by_rating", tracer.wrap(d.filter_by_rating, "datapipe.filter")),
            (d, "pair_instructions", tracer.wrap(d.pair_instructions, "datapipe.pair")),
            (d, "build_test_split", tracer.wrap(d.build_test_split, "datapipe.split")),
            (d, "save_manifest", tracer.wrap(d.save_manifest, "datapipe.save")),
            (report, "extract_prediction", self._traced_extract(tracer)),
        ]

    @staticmethod
    def _traced_extract(tracer):
        original = report.extract_prediction
        wrapped = {task: tracer.wrap(original, f"evalkit.extract.{task}") for task in report.TASKS}

        def extract_prediction(record, taxonomies, cues):
            return wrapped[record.task](record, taxonomies, cues)

        return extract_prediction

    def _same_as_first(self, op, key: str) -> None:
        data = _read_bytes(self.paths[key])
        first = self.first_bytes.setdefault(key, data)
        op.check(data == first, f"{key}: output bytes differ from round 0")

    def _cli(self, ops, rnd, traced, kind, items, argv) -> Op:
        op = self.new_op(ops, kind, rnd, items, traced)
        start = perf_counter()
        rc = cli.main(argv)
        op.seconds = perf_counter() - start
        op.check(rc == 0, f"{kind} exited with {rc}")
        return op

    def round(self, rnd, ops, traced=False) -> None:
        P = self.paths
        op = self._cli(ops, rnd, traced, "filter", self.manifest_lines, [
            "filter", "--manifest", P["manifest"], "--out-kept", P["kept"],
            "--out-removed", P["removed"], "--summary-out", P["filter_summary"]])
        with open(P["filter_summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        got = {k: summary[k] for k in ("input", "kept", "removed")}
        got["parse_errors"] = len(summary["parse_errors"])
        op.check(got == self.expected_filter, f"filter counts {got} != planted {self.expected_filter}")
        for key in ("kept", "removed"):
            self._same_as_first(op, key)

        op = self._cli(ops, rnd, traced, "pair", self.expected_filter["kept"], [
            "pair", "--manifest", P["kept"], "--bank", P["bank"], "--out", P["paired"], "--seed", str(self.seed)])
        self._same_as_first(op, "paired")

        op = self._cli(ops, rnd, traced, "split", self.expected_filter["kept"], [
            "split", "--manifest", P["paired"], "--target", P["target"], "--per-task", str(self.per_task),
            "--out", P["split"], "--summary-out", P["split_summary"]])
        self._check_split(op)
        self._same_as_first(op, "split")

        if traced:
            self._replay_eval(rnd, ops)
            return
        op = self._cli(ops, rnd, traced, "eval", self.expected_eval["n_records"], [
            "eval", "--records", P["records"], "--out", P["report"]])
        with open(P["report"], encoding="utf-8") as fh:
            rep = json.load(fh)
        got = {task: entry["metrics"] for task, entry in rep["tasks"].items()}
        want = self.expected_eval["metrics"]
        op.check(rep["n_records"] == self.expected_eval["n_records"], "eval record count differs")
        # weighted recall sums per-class shares, so 1.0 may come out one ulp short
        same = got.keys() == want.keys() and all(
            got[t].keys() == want[t].keys() and all(math.isclose(got[t][k], v, abs_tol=1e-12) for k, v in want[t].items())
            for t in want
        )
        op.check(same, f"eval metrics {got} != planted labels")
        self._same_as_first(op, "report")

    def _check_split(self, op) -> None:
        with open(self.paths["split"], encoding="utf-8") as fh:
            chosen = [json.loads(line) for line in fh]
        with open(self.paths["paired"], encoding="utf-8") as fh:
            pool = [json.loads(line) for line in fh]
        for task, weights in gen.SPLIT_TARGET.items():
            total = sum(weights.values())
            picked = [r for r in chosen if r["task"] == task]
            op.check(len(picked) == self.per_task, f"split {task}: {len(picked)} records, quota {self.per_task}")
            for cls, w in weights.items():
                share = self.per_task * w / total
                got = [r for r in picked if r["label"] == cls]
                op.check(abs(len(got) - share) < 1.0, f"split {task}/{cls}: {len(got)} records, share {share:.2f}")
                # the quota is filled from the top of the rating order
                ids = {r["id"] for r in got}
                worst = min((r["ratings"]["overall"] for r in got), default=10)
                better_left = [r for r in pool if r["task"] == task and r["label"] == cls
                               and r["id"] not in ids and r["ratings"]["overall"] > worst]
                op.check(not better_left, f"split {task}/{cls}: skipped a higher-rated record")

    def _replay_eval(self, rnd, ops) -> None:
        """cmd_eval through the public functions, one span per layer."""
        tr = self.tracer
        op = self.new_op(ops, "eval", rnd, self.expected_eval["n_records"], traced=True)
        start = perf_counter()
        with tr.span("cli.eval"):
            with tr.span("evalkit.load"):
                records = load_eval_records(self.paths["records"])
            with tr.span("evalkit.score"):
                rep = score_records(records, taxonomies={}, au_list=DISFA_AUS, negation_cues=None, threads=1)
            gen.write_json(self.paths["replay"], rep)
        op.seconds = perf_counter() - start
        data = _read_bytes(self.paths["replay"])
        op.check(data == self.first_bytes.get("report"), "eval replay bytes differ from the CLI's report")

    def after_trace(self, tracer) -> None:
        """(text, phrase) pairs the per-phrase loop scans, and how many of
        them occur, over one pass of extraction. Untimed."""
        patterns: dict[int, list] = {}
        original = Taxonomy.count_matches

        def counting(taxonomy, text_lower):
            if id(taxonomy) not in patterns:
                patterns[id(taxonomy)] = [
                    (p, gen._phrase_re(p)) for cls in taxonomy.classes for p in taxonomy.synonyms[cls]]
            pats = patterns[id(taxonomy)]
            tracer.count("evalkit.phrase_pairs", len(pats))
            # a word-bounded occurrence is also a substring, so test that first
            hits = sum(1 for phrase, pat in pats if phrase in text_lower and pat.search(text_lower))
            tracer.count("evalkit.phrase_hits", hits)
            return original(taxonomy, text_lower)

        records = load_eval_records(self.paths["records"])
        taxonomies = {t: default_taxonomy(t) for t in ("expression", "attribute", "deepfake")}
        cues = default_negation_cues()
        Taxonomy.count_matches = counting
        try:
            for record in records:
                report.extract_prediction(record, taxonomies, cues)
        finally:
            Taxonomy.count_matches = original

    def rates(self, ops) -> tuple[float, float]:
        return _median_rate(ops, "eval", True), _manifest_rate(ops, self.manifest_lines, True)

    def named_metrics(self, ops) -> list[tuple[str, float, str]]:
        return [
            ("eval_records_per_s", _median_rate(ops, "eval"), "records/s"),
            ("manifest_records_per_s", _manifest_rate(ops, self.manifest_lines), "records/s"),
        ]


def _manifest_rate(ops: list[Op], lines: int, paced: bool = False) -> float:
    """Median over rounds of manifest lines / (filter + pair + split) s."""
    seconds: dict[int, float] = {}
    scale: dict[int, float] = {}
    for op in ops:
        if op.kind in ("filter", "pair", "split") and not op.traced:
            seconds[op.round] = seconds.get(op.round, 0.0) + op.seconds
            scale[op.round] = op.pace if paced else 1.0
    return statistics.median(lines / s * scale[r] for r, s in seconds.items())


def _resource_dir() -> str:
    import facecond.evalkit

    return os.path.join(os.path.dirname(facecond.evalkit.__file__), "resources")


WORKLOADS = {cls.name: cls for cls in (ToyAblation, PaperStep, EnrichClip, TextPipeline)}
