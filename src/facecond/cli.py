"""Command-line entry point.

One subcommand per pipeline stage: mask, enrich, gradcheck, train, eval,
filter, pair, split. Structured I/O is JSON (JSONL for record streams,
CSV only for loss traces and confusion matrices). Every subcommand is
deterministic given its inputs, and never mutates its input files; only
enrich, gradcheck, train and pair take --seed, an integer >= 0, which is
then one of those inputs. --help shows each option's default. A --config
JSON object replaces defaults: its keys are option names ("token_mode"),
each value is checked as that flag's text, and explicit flags win.
train's --config is a TrainConfig plus train_size, eval_size and
task_kind. Files are read and written through facecond.jsonio; an input
file that is malformed or the wrong shape fails with a message that
starts with its path.

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
    TAXONOMY_TASKS,
    check_au_list,
    confusion_csv_rows,
    load_eval_records,
    load_negation_cues,
    load_taxonomy,
    score_records,
)
from .frgca import attention_maps_json
from .frlp import TOKEN_MODES
from .geometry import PatchGrid, clip_rpp_masks, default_partition, load_landmarks
from .jsonio import OBJECT, STRING, is_int, member, number_array, read_json, typed, within, write_json
from .toytrain import TrainConfig, evaluate, train
from .toytrain.synth import TASK_KINDS
from .toytrain.training import EVAL_SEED_OFFSET, VARIANTS, condition, config_dataset, init_model

log = logging.getLogger("facecond")


def _read_config(path: str) -> dict:
    return read_json(path, lambda doc: typed(doc, OBJECT, "document"))


def _config_defaults(sub: argparse.ArgumentParser, path: str) -> dict:
    """The config file at `path` as defaults for the options of `sub` that
    have one, each value converted and checked as if typed after its flag."""
    options = {a.dest: a for a in sub._actions if a.default not in (None, argparse.SUPPRESS)}
    config = _read_config(path)
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    defaults = {}
    for key, value in config.items():
        try:
            defaults[key] = sub._get_value(options[key], str(value))
            sub._check_value(options[key], defaults[key])
        except argparse.ArgumentError as exc:
            raise ValueError(f"{path}: config key {key!r}: {exc.message}") from None
    return defaults


# ---------------------------------------------------------------------------
# subcommands


def cmd_mask(args) -> int:
    media_id, clip = load_landmarks(args.landmarks)
    partition = default_partition()
    grid = PatchGrid(args.rows, args.cols)
    masks = clip_rpp_masks(clip, partition, grid)
    write_json(
        args.out,
        {
            "id": media_id,
            "rows": args.rows,
            "cols": args.cols,
            "region_names": list(partition.names),
            "masks": masks,
        },
    )
    log.info("wrote %s masks of shape %s", masks.shape[0], masks.shape[1:])
    return 0


def _load_tokens(path: str) -> tuple[str | None, np.ndarray]:
    return read_json(path, _tokens)


def _tokens(doc) -> tuple[str | None, np.ndarray]:
    doc = typed(doc, OBJECT, "document")
    return member(doc, "id", STRING, optional=True), number_array(doc["tokens"], 3, "tokens")


def cmd_enrich(args) -> int:
    media_id, clip = load_landmarks(args.landmarks)
    token_id, h_v = _load_tokens(args.tokens)
    T, N, d = h_v.shape
    if clip.num_frames != T:
        raise ValueError(
            f"landmark clip has {clip.num_frames} frames but tokens have {T}"
        )
    grid = PatchGrid(args.rows, args.cols)
    if grid.num_patches != N:
        raise ValueError(f"grid {args.rows}x{args.cols} does not match {N} visual tokens")

    if args.variant == "none" and args.attention_out:
        raise ValueError("variant 'none' has no attention maps to export")

    frlp_params = frgca_params = None  # variant "none" reads no parameters
    if args.checkpoint:
        arrays, meta = ckpt.load_arrays(args.checkpoint)
        dims = {"d": d}  # shared, so FRLP, FRGCA and the tokens agree on d
        with within(args.checkpoint):
            frlp_params = ckpt.build_frlp(arrays, dims)
            frgca_params = ckpt.build_frgca(arrays, meta, dims)
    elif args.variant != "none":
        model = init_model(TrainConfig(seed=args.seed, d=d, heads=args.heads))
        frlp_params, frgca_params = model.frlp, model.frgca

    enriched, cache = condition(
        h_v, clip, frlp_params, frgca_params, grid, args.variant, args.token_mode
    )
    write_json(args.out, {"id": media_id or token_id, "tokens": enriched})
    if args.attention_out:
        write_json(args.attention_out, attention_maps_json(cache.attn))
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck.run_full_suite(args.seed)
    for name, entry in report["checks"].items():
        status = "PASS" if entry["max_rel_error"] < entry["tolerance"] else "FAIL"
        print(
            f"{name}: max_rel_error={entry['max_rel_error']:.3e} "
            f"tolerance={entry['tolerance']:.0e} {status}"
        )
    if args.out:
        write_json(args.out, report)
    return 0 if report["passed"] else 1


# train config keys that size and pick the synthetic data; every other key
# must be a TrainConfig field
_TRAIN_DATA_KEYS = ("train_size", "eval_size", "task_kind")


def _dataset_size(config: dict, path: str, key: str, default: int, minimum: int) -> int:
    value = config.get(key, default)
    if not is_int(value) or value < minimum:
        raise ValueError(
            f"{path}: config key {key!r} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def cmd_train(args) -> int:
    config = _read_config(args.config) if args.config else {}
    cfg_fields = {k: v for k, v in config.items() if k not in _TRAIN_DATA_KEYS}
    if args.seed is not None:
        cfg_fields["seed"] = args.seed
    train_size = _dataset_size(config, args.config, "train_size", default=256, minimum=1)
    eval_size = _dataset_size(config, args.config, "eval_size", default=0, minimum=0)
    task_kind = config.get("task_kind", "region")
    if task_kind not in TASK_KINDS:
        raise ValueError(
            f"{args.config}: config key 'task_kind' must be one of {TASK_KINDS}, got {task_kind!r}"
        )

    # the model and data builders check the values they use; a config
    # value they reject fails naming the config file
    try:
        cfg = TrainConfig.from_dict(cfg_fields)
        model = init_model(cfg)
        train_set = config_dataset(cfg, cfg.seed, train_size, task_kind)
        eval_set = None
        if eval_size:
            eval_set = config_dataset(cfg, cfg.seed + EVAL_SEED_OFFSET, eval_size, task_kind)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}" if args.config else str(exc)) from None
    result = train(cfg, train_set, model=model)

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
    if eval_set:
        eval_loss, eval_accuracy = evaluate(result.model, eval_set, cfg)
        summary["eval_loss"] = eval_loss
        summary["eval_accuracy"] = eval_accuracy
    write_json(os.path.join(args.out, "summary.json"), summary)
    log.info("trained %d steps", len(result.trace))
    return 0


def _seed(text: str) -> int:
    """--seed: an integer >= 0, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:  # argparse's own words for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {seed}")
    return seed


_AU_LISTS = {"disfa": DISFA_AUS, "bp4d": BP4D_AUS}


def _au_list(text: str) -> tuple[int, ...]:
    """--au-list: disfa, bp4d, or distinct comma-separated AU numbers >= 1."""
    if text in _AU_LISTS:
        return _AU_LISTS[text]
    bad = [entry for entry in text.split(",") if not entry.strip().isdecimal()]
    if bad:
        raise argparse.ArgumentTypeError(f"AU entries {bad} in {text!r} are not AU numbers")
    aus = [int(entry) for entry in text.split(",")]
    try:
        return check_au_list(aus, repr(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def cmd_eval(args) -> int:
    taxonomies = {}
    for task, path in args.taxonomy or []:
        if task not in TAXONOMY_TASKS:
            raise ValueError(
                f"--taxonomy {task}: no taxonomy for task {task!r}; expected one of {TAXONOMY_TASKS}"
            )
        taxonomies[task] = load_taxonomy(path, task)
    cues = load_negation_cues(args.negation_cues) if args.negation_cues else None

    records = load_eval_records(args.records)
    report = score_records(
        records, taxonomies=taxonomies, au_list=args.au_list, negation_cues=cues
    )
    write_json(args.out, report)

    if args.confusion_out:
        with_confusion = [
            task for task, entry in report["tasks"].items() if "confusion" in entry
        ]
        if len(with_confusion) != 1:
            raise ValueError(
                f"--confusion-out needs exactly one applicable task, found {with_confusion}"
            )
        with open(args.confusion_out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                confusion_csv_rows(report["tasks"][with_confusion[0]])
            )
    return 0


def cmd_filter(args) -> int:
    records, errors = datapipe.load_manifest(args.manifest)
    kept, removed = datapipe.filter_by_rating(records, args.threshold)
    datapipe.save_manifest(args.out_kept, kept)
    datapipe.save_manifest(args.out_removed, removed)
    if args.summary_out:
        write_json(
            args.summary_out,
            {
                "threshold": args.threshold,
                "input": len(records),
                "kept": len(kept),
                "removed": len(removed),
                "parse_errors": [{"line": e.line, "message": e.message} for e in errors],
            },
        )
    log.info("kept %d / removed %d (threshold %d)", len(kept), len(removed), args.threshold)
    return 0


def cmd_pair(args) -> int:
    records = datapipe.load_manifest_strict(args.manifest)
    bank = datapipe.load_instruction_bank(args.bank)
    with within(args.bank):  # a record whose task the bank lacks
        paired = datapipe.pair_instructions(records, bank, seed=args.seed)
    datapipe.save_manifest(args.out, paired)
    return 0


def cmd_split(args) -> int:
    records = datapipe.load_manifest_strict(args.manifest)
    target = datapipe.load_split_target(args.target)
    selected, summary = datapipe.build_test_split(records, target, per_task=args.per_task)
    datapipe.save_manifest(args.out, selected)
    if args.summary_out:
        write_json(args.summary_out, summary)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="facecond",
        description="Face-region conditioning pipeline: masks, token enrichment, "
        "gradient checks, toy training, free-text evaluation, and dataset filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config_help="JSON object of option defaults"):
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help=config_help)
        p.set_defaults(func=func)
        return p

    p = command("mask", cmd_mask, "landmarks -> region-patch proximity masks")
    p.add_argument("--landmarks", required=True, help="landmark JSON file")
    p.add_argument("--rows", type=int, default=16, help="patch grid rows")
    p.add_argument("--cols", type=int, default=16, help="patch grid cols")
    p.add_argument("--out", required=True, help="output mask JSON")

    p = command("enrich", cmd_enrich, "visual tokens + landmarks -> enriched tokens")
    p.add_argument("--seed", type=_seed, default=0, help="seed init's seed, without --checkpoint")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--tokens", required=True, help="visual token JSON ({'tokens': (T,N,d)})")
    p.add_argument("--checkpoint", help="parameter archive; seed init when omitted")
    p.add_argument("--variant", choices=VARIANTS, default="frgca", help="conditioning variant")
    p.add_argument("--token-mode", choices=TOKEN_MODES, default="both", help="landmark tokens")
    p.add_argument("--heads", type=int, default=8, help="attention heads for seed init")
    p.add_argument("--rows", type=int, default=16, help="patch grid rows")
    p.add_argument("--cols", type=int, default=16, help="patch grid cols")
    p.add_argument("--attention-out", help="also export attention maps as JSON")
    p.add_argument("--out", required=True)

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient verification")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
    p.add_argument("--out", help="optional JSON report path")

    p = command(
        "train", cmd_train, "toy two-stage training on synthetic data",
        config_help="TrainConfig JSON, plus train_size, eval_size and task_kind",
    )
    p.add_argument("--seed", type=_seed, help="overrides the config's seed")
    p.add_argument("--out", required=True, help="output directory")

    p = command("eval", cmd_eval, "score generated descriptions against labels")
    p.add_argument("--records", required=True, help="EvalRecord JSONL")
    p.add_argument(
        "--taxonomy",
        nargs=2,
        action="append",
        metavar=("TASK", "PATH"),
        help="override the bundled taxonomy for a task",
    )
    p.add_argument("--negation-cues", help="JSON list overriding the negation cues")
    p.add_argument("--au-list", type=_au_list, default="disfa", help="disfa, bp4d, or AUs: 1,2,4")
    p.add_argument("--confusion-out", help="CSV confusion matrix output")
    p.add_argument("--out", required=True, help="metric report JSON")

    p = command("filter", cmd_filter, "rating-threshold manifest filtering")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--threshold", type=int, default=datapipe.DEFAULT_RATING_THRESHOLD,
        help="overall rating cutoff",
    )
    p.add_argument("--out-kept", required=True)
    p.add_argument("--out-removed", required=True)
    p.add_argument("--summary-out")

    p = command("pair", cmd_pair, "attach task instructions to records")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bank", required=True, help="JSON {task: [instructions]}")
    p.add_argument("--out", required=True)

    p = command("split", cmd_split, "stratified top-rated test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", required=True, help="JSON {task: {class: proportion}}")
    p.add_argument("--per-task", type=int, default=500, help="records per task")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out")

    return parser, sub.choices


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FACECOND_LOG", "WARNING").upper())
    # built on every call: set_defaults changes the parser's actions in place
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None and args.command != "train":  # cmd_train reads a TrainConfig
            sub = subcommands[args.command]
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
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
