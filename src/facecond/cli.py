"""Command-line entry point.

One subcommand per pipeline stage: mask, enrich, gradcheck, train, eval,
filter, pair, split. Structured I/O is JSON (JSONL for record streams,
CSV only for loss traces and confusion matrices). Every subcommand is
deterministic given its inputs and --seed, and never mutates its input
files. A --config JSON file supplies defaults; explicit flags win.

FACECOND_LOG sets the log level (DEBUG, INFO, WARNING, ERROR).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import datapipe, gradcheck
from .evalkit import (
    BP4D_AUS,
    DISFA_AUS,
    confusion_csv_lines,
    load_eval_records,
    load_taxonomy,
    score_records,
)
from .frgca import attention_maps_json, frgca_forward, init_frgca
from .frlp import TOKEN_MODES, init_frlp
from .geometry import PatchGrid, clip_rpp_masks, default_partition, load_landmarks
from .toytrain import TrainConfig, evaluate, synth_dataset, train
from .toytrain.training import VARIANTS, landmark_conditioning

log = logging.getLogger("facecond")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _resolve(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


# ---------------------------------------------------------------------------
# subcommands


def cmd_mask(args) -> int:
    config = _load_config(args.config)
    rows = int(_resolve(args, config, "rows", 16))
    cols = int(_resolve(args, config, "cols", 16))
    media_id, clip = load_landmarks(args.landmarks)
    partition = default_partition()
    grid = PatchGrid(rows, cols)
    masks = clip_rpp_masks(clip, partition, grid)
    _write_json(
        args.out,
        {
            "id": media_id,
            "rows": rows,
            "cols": cols,
            "region_names": list(partition.names),
            "masks": masks.tolist(),
        },
    )
    log.info("wrote %s masks of shape %s", masks.shape[0], masks.shape[1:])
    return 0


def _load_tokens(path: str) -> tuple[str | None, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "tokens" not in doc:
        raise ValueError(f"{path}: expected an object with a 'tokens' field")
    tokens = np.asarray(doc["tokens"], dtype=np.float64)
    if tokens.ndim != 3:
        raise ValueError(f"{path}: tokens must be a (T, N, d) array")
    if not np.all(np.isfinite(tokens)):
        raise ValueError(f"{path}: tokens contain non-finite values")
    return doc.get("id"), tokens


def cmd_enrich(args) -> int:
    config = _load_config(args.config)
    variant = _resolve(args, config, "variant", "frgca")
    token_mode = _resolve(args, config, "token_mode", "both")
    seed = int(_resolve(args, config, "seed", 0))
    heads = int(_resolve(args, config, "heads", 8))
    rows = int(_resolve(args, config, "rows", 16))
    cols = int(_resolve(args, config, "cols", 16))

    media_id, clip = load_landmarks(args.landmarks)
    token_id, h_v = _load_tokens(args.tokens)
    T, N, d = h_v.shape
    if clip.num_frames != T:
        raise ValueError(
            f"landmark clip has {clip.num_frames} frames but tokens have {T}"
        )
    grid = PatchGrid(rows, cols)
    if grid.num_patches != N:
        raise ValueError(f"grid {rows}x{cols} does not match {N} visual tokens")

    if variant == "none":  # the no-landmarks baseline passes the tokens through
        if args.attention_out:
            raise ValueError("variant 'none' has no attention maps to export")
        _write_json(args.out, {"id": media_id or token_id, "tokens": h_v.tolist()})
        return 0

    partition = default_partition()
    if args.checkpoint:
        arrays, meta = ckpt.load_arrays(args.checkpoint)
        frlp_params = ckpt.build_frlp(arrays)
        frgca_params = ckpt.build_frgca(arrays, meta)
    else:
        frlp_params = init_frlp(d, partition, seed=seed)
        frgca_params = init_frgca(d, heads=heads, seed=seed + 1)
    if frlp_params.d != d:
        raise ValueError(f"checkpoint dimension {frlp_params.d} != token dimension {d}")

    h_l, masks = landmark_conditioning(clip, frlp_params, partition, grid, variant, token_mode)
    enriched, cache = frgca_forward(
        h_v, h_l, masks, frgca_params, variant=variant, return_cache=True
    )
    _write_json(args.out, {"id": media_id or token_id, "tokens": enriched.tolist()})
    if args.attention_out:
        _write_json(args.attention_out, attention_maps_json(cache.attn))
    return 0


def cmd_gradcheck(args) -> int:
    config = _load_config(args.config)
    seed = int(_resolve(args, config, "seed", 0))
    report = gradcheck.run_full_suite(seed)
    for name, entry in report["checks"].items():
        status = "PASS" if entry["max_rel_error"] < entry["tolerance"] else "FAIL"
        print(
            f"{name}: max_rel_error={entry['max_rel_error']:.3e} "
            f"tolerance={entry['tolerance']:.0e} {status}"
        )
    if args.out:
        _write_json(args.out, report)
    return 0 if report["passed"] else 1


# train config keys that size and pick the synthetic data; every other key
# must be a TrainConfig field
_TRAIN_DATA_KEYS = ("train_size", "eval_size", "task_kind")


def cmd_train(args) -> int:
    config = _load_config(args.config)
    cfg_fields = {k: v for k, v in config.items() if k not in _TRAIN_DATA_KEYS}
    if args.seed is not None:
        cfg_fields["seed"] = args.seed
    try:
        cfg = TrainConfig.from_dict(cfg_fields)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    train_size = int(config.get("train_size", 256))
    eval_size = int(config.get("eval_size", 0))

    def dataset(seed: int, size: int) -> list:
        return synth_dataset(
            seed=seed, size=size, task_kind=config.get("task_kind", "region"),
            frames=cfg.frames, n_patches=cfg.n_patches, d_raw=cfg.d_raw, vocab=cfg.vocab,
        )

    result = train(cfg, dataset(cfg.seed, train_size))

    os.makedirs(args.out, exist_ok=True)
    ckpt.save_model(os.path.join(args.out, "checkpoint.json"), result.model)
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss"])
        for step, lr, loss in result.trace:
            writer.writerow([step, repr(lr), repr(loss)])

    summary = {
        "config": cfg.to_dict(),
        "train_size": train_size,
        "steps": len(result.trace),
        "final_train_loss": result.trace[-1][2] if result.trace else None,
    }
    if eval_size:
        eval_set = dataset(cfg.seed + 10_000, eval_size)
        eval_loss, eval_accuracy = evaluate(result.model, eval_set, cfg)
        summary["eval_loss"] = eval_loss
        summary["eval_accuracy"] = eval_accuracy
    _write_json(os.path.join(args.out, "summary.json"), summary)
    log.info("trained %d steps", len(result.trace))
    return 0


_AU_LISTS = {"disfa": DISFA_AUS, "bp4d": BP4D_AUS}


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    threads = int(_resolve(args, config, "threads", 1))
    if threads < 1:
        raise ValueError("--threads must be >= 1")
    au_choice = _resolve(args, config, "au_list", "disfa")
    if au_choice in _AU_LISTS:
        au_list = _AU_LISTS[au_choice]
    else:
        au_list = tuple(int(x) for x in str(au_choice).split(","))

    taxonomies = {}
    for task, path in args.taxonomy or []:
        taxonomies[task] = load_taxonomy(path, task)
    cues = None
    if args.negation_cues:
        with open(args.negation_cues, "r", encoding="utf-8") as fh:
            cues = json.load(fh)

    records = load_eval_records(args.records)
    report = score_records(
        records,
        taxonomies=taxonomies,
        au_list=au_list,
        negation_cues=cues,
        threads=threads,
    )
    _write_json(args.out, report)

    if args.confusion_out:
        with_confusion = [
            task for task, entry in report["tasks"].items() if "confusion" in entry
        ]
        if len(with_confusion) != 1:
            raise ValueError(
                f"--confusion-out needs exactly one applicable task, found {with_confusion}"
            )
        lines = confusion_csv_lines(report["tasks"][with_confusion[0]])
        with open(args.confusion_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_filter(args) -> int:
    config = _load_config(args.config)
    threshold = int(_resolve(args, config, "threshold", datapipe.DEFAULT_RATING_THRESHOLD))
    records, errors = datapipe.load_manifest(args.manifest)
    kept, removed = datapipe.filter_by_rating(records, threshold)
    datapipe.save_manifest(args.out_kept, kept)
    datapipe.save_manifest(args.out_removed, removed)
    if args.summary_out:
        _write_json(
            args.summary_out,
            {
                "threshold": threshold,
                "input": len(records),
                "kept": len(kept),
                "removed": len(removed),
                "parse_errors": [{"line": e.line, "message": e.message} for e in errors],
            },
        )
    log.info("kept %d / removed %d (threshold %d)", len(kept), len(removed), threshold)
    return 0


def cmd_pair(args) -> int:
    config = _load_config(args.config)
    seed = int(_resolve(args, config, "seed", 0))
    records, errors = datapipe.load_manifest(args.manifest)
    if errors:
        raise ValueError(
            f"manifest has {len(errors)} malformed lines (first: line {errors[0].line})"
        )
    bank = datapipe.load_instruction_bank(args.bank)
    paired = datapipe.pair_instructions(records, bank, seed=seed)
    datapipe.save_manifest(args.out, paired)
    return 0


def cmd_split(args) -> int:
    config = _load_config(args.config)
    per_task = int(_resolve(args, config, "per_task", 500))
    records, errors = datapipe.load_manifest(args.manifest)
    if errors:
        raise ValueError(
            f"manifest has {len(errors)} malformed lines (first: line {errors[0].line})"
        )
    with open(args.target, "r", encoding="utf-8") as fh:
        target = json.load(fh)
    selected, summary = datapipe.build_test_split(records, target, per_task=per_task)
    datapipe.save_manifest(args.out, selected)
    if args.summary_out:
        _write_json(args.summary_out, summary)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON config file supplying defaults")
    sub.add_argument("--seed", type=int, help="random seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facecond",
        description="Face-region conditioning pipeline: masks, token enrichment, "
        "gradient checks, toy training, free-text evaluation, and dataset filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="landmarks -> region-patch proximity masks")
    _add_common(p)
    p.add_argument("--landmarks", required=True, help="landmark JSON file")
    p.add_argument("--rows", type=int, help="patch grid rows (default 16)")
    p.add_argument("--cols", type=int, help="patch grid cols (default 16)")
    p.add_argument("--out", required=True, help="output mask JSON")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("enrich", help="visual tokens + landmarks -> enriched tokens")
    _add_common(p)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--tokens", required=True, help="visual token JSON ({'tokens': (T,N,d)})")
    p.add_argument("--checkpoint", help="parameter archive (default: seed init)")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--token-mode", dest="token_mode", choices=TOKEN_MODES)
    p.add_argument("--heads", type=int, help="attention heads for seed init (default 8)")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--attention-out", help="also export attention maps as JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="toy two-stage training on synthetic data")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score generated descriptions against labels")
    _add_common(p)
    p.add_argument("--threads", type=int, help="worker threads (default 1)")
    p.add_argument("--records", required=True, help="EvalRecord JSONL")
    p.add_argument(
        "--taxonomy",
        nargs=2,
        action="append",
        metavar=("TASK", "PATH"),
        help="override the bundled taxonomy for a task",
    )
    p.add_argument("--negation-cues", help="JSON list overriding the negation cues")
    p.add_argument("--au-list", dest="au_list", help="disfa, bp4d, or comma-separated AUs")
    p.add_argument("--confusion-out", help="CSV confusion matrix output")
    p.add_argument("--out", required=True, help="metric report JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter", help="rating-threshold manifest filtering")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=int, help="overall rating cutoff (default 6)")
    p.add_argument("--out-kept", required=True)
    p.add_argument("--out-removed", required=True)
    p.add_argument("--summary-out")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("pair", help="attach task instructions to records")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--bank", required=True, help="JSON {task: [instructions]}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("split", help="stratified top-rated test split")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", required=True, help="JSON {task: {class: proportion}}")
    p.add_argument("--per-task", dest="per_task", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out")
    p.set_defaults(func=cmd_split)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FACECOND_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse handles usage errors before this
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        log.debug("command failed", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
