"""Command-line entry point.

One subcommand per pipeline stage: mask, enrich, gradcheck, train, eval,
filter, pair, split. Structured I/O is JSON (JSONL for record streams,
CSV only for loss traces and confusion matrices). Every subcommand is
deterministic given its inputs, and never mutates its input files; only
enrich, gradcheck, train and pair take --seed, an integer >= 0, which is
then one of those inputs. --help shows each option's default. A --config
JSON object of option names ("token_mode") replaces defaults, and
explicit flags win; train's keys are the TrainConfig fields plus
train_size (an integer >= 1), eval_size (an integer >= 0) and task_kind.
One rule checks each value: its option's JSON kind (jsonio.KINDS, or a
TrainConfig field's annotation), then the option's range, choices or AU
list ("disfa", "bp4d" or a list of AU numbers), or it fails as
``<path>: config key 'rows' must be an integer >= 1, got '4'``. Files are
read and written through facecond.jsonio; an input file that is
malformed or the wrong shape fails with a message that starts with its path.

FACECOND_LOG sets the log level (DEBUG, INFO, WARNING, ERROR, CRITICAL).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

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
from .jsonio import INTEGER, INTEGERS, KINDS, NULL, NUMBER, OBJECT, STRING, fits, member
from .jsonio import number_array, read_json, typed, within, write_json
from .toytrain import TrainConfig, evaluate, train
from .toytrain.synth import TASK_KINDS
from .toytrain.training import (
    EVAL_SEED_OFFSET,
    VARIANTS,
    attention_masks,
    condition,
    config_dataset,
    init_model,
)

log = logging.getLogger("facecond")


class Takes(NamedTuple):
    """What a --config key takes: a JSON value of one of `kinds` (from
    ``jsonio.KINDS``) for which `ok` holds, worded as `what` or else by its
    kinds. An option's flag text goes through `parse` (argparse's `type`)
    and its `choices`."""

    kinds: tuple
    what: str = ""
    ok: Callable[[object], bool] = lambda value: True
    parse: Callable[[str], object] | None = None
    choices: tuple | None = None


def _integer(minimum: int) -> Takes:
    """An integer >= `minimum`, from --config or from its flag."""
    takes = Takes((INTEGER,), f"{KINDS[INTEGER]} >= {minimum}", lambda value: value >= minimum)

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # argparse's own words for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not takes.ok(value):
            raise argparse.ArgumentTypeError(f"expected {takes.what}, got {value}")
        return value

    return takes._replace(parse=parse)


def _choice(choices: tuple) -> Takes:
    return Takes((STRING,), f"one of {choices}", choices.__contains__, choices=choices)


_INT, _SEED, _GRID_SIZE = Takes((INTEGER,), parse=int), _integer(0), _integer(1)

_AU_LISTS = {"disfa": DISFA_AUS, "bp4d": BP4D_AUS}


def _au_list(text: str) -> tuple[int, ...]:
    """--au-list: disfa, bp4d, or distinct comma-separated AU numbers >= 1."""
    if text in _AU_LISTS:
        return _AU_LISTS[text]
    # check_au_list names an entry that is not a number
    aus = [int(entry) if entry.strip().isdecimal() else entry for entry in text.split(",")]
    try:
        return check_au_list(aus, repr(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _is_au_list(value: str | list[int]) -> bool:
    try:  # a string is a list name; argparse reads a string default through _au_list
        return value in _AU_LISTS if fits(value, STRING) else bool(check_au_list(value))
    except ValueError:
        return False


_AU_LIST = Takes((STRING, INTEGERS), f"one of {tuple(_AU_LISTS)} or a non-empty list of distinct "
                 "AU numbers >= 1", _is_au_list, _au_list)

# a TrainConfig field takes the kinds its annotation names ("int | None")
_ANNOTATION_KINDS = {"str": STRING, "int": INTEGER, "float": NUMBER, "None": NULL}
_TRAIN_FIELDS = {field.name: Takes(tuple(_ANNOTATION_KINDS[name] for name in field.type.split(" | ")))
                 for field in fields(TrainConfig)}
# train's other config keys size and pick the synthetic data; the train
# parser holds their defaults
_TRAIN_KEYS = {**_TRAIN_FIELDS, "train_size": _integer(1), "eval_size": _integer(0),
               "task_kind": _choice(TASK_KINDS)}


def _read_config(path: str, command: str, takes: dict[str, Takes]) -> dict:
    """The --config object at `path`: each key one of `takes`, with a value it accepts."""
    config = read_json(path, lambda doc: typed(doc, OBJECT, "document"))
    unknown = sorted(set(config) - set(takes))
    if unknown:
        raise ValueError(f"{path}: unknown {command} config keys: {unknown}")
    for key, value in config.items():
        rule = takes[key]
        if not (any(fits(value, kind) for kind in rule.kinds) and rule.ok(value)):
            what = rule.what or " or ".join(KINDS[kind] for kind in rule.kinds)
            raise ValueError(f"{path}: config key {key!r} must be {what}, got {value!r}")
    return config


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
    tokens = number_array(doc["tokens"], 3, "tokens")
    if not tokens.shape[2]:
        raise ValueError("tokens have width 0; a token needs at least one number")
    return member(doc, "id", STRING, optional=True), tokens


def cmd_enrich(args) -> int:
    media_id, clip = load_landmarks(args.landmarks)
    token_id, h_v = _load_tokens(args.tokens)
    T, N, d = h_v.shape
    if clip.num_frames != T:
        raise ValueError(
            f"{args.tokens}: tokens have {T} frames but landmark file "
            f"{args.landmarks} has {clip.num_frames}"
        )
    grid = PatchGrid(args.rows, args.cols)
    if grid.num_patches != N:
        raise ValueError(
            f"{args.tokens}: {N} visual tokens per frame do not match grid {args.rows}x{args.cols}"
        )

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
        # seed init: the heads must divide the tokens' width
        try:
            model = init_model(TrainConfig(seed=args.seed, d=d, heads=args.heads))
        except ValueError as exc:
            where = (args.config if "heads" in args.config_keys
                     else f"--heads {args.heads} with {d}-wide tokens in {args.tokens}")
            raise ValueError(f"{where}: {exc}") from None
        frlp_params, frgca_params = model.frlp, model.frgca

    masks = attention_masks([clip], grid, args.variant, args.token_mode)
    enriched, cache = condition(
        h_v, clip, masks, frlp_params, frgca_params, args.variant, args.token_mode
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


def cmd_train(args) -> int:
    # the TrainConfig fields that --config or --seed set (--seed is None when not given)
    settings = {key: getattr(args, key) for key in _TRAIN_FIELDS if getattr(args, key, None) is not None}
    # the model and data builders check the values they use; a config
    # value they reject fails naming the config file
    try:
        cfg = TrainConfig(**settings)
        model = init_model(cfg)
        train_set = config_dataset(cfg, cfg.seed, args.train_size, args.task_kind)
        eval_set = None
        if args.eval_size:
            eval_set = config_dataset(cfg, cfg.seed + EVAL_SEED_OFFSET, args.eval_size, args.task_kind)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}" if args.config else str(exc)) from None
    result = train(cfg, train_set, model=model)
    summary = {
        "config": cfg.to_dict(),
        "train_size": args.train_size,
        "steps": len(result.trace),
        "final_train_loss": result.trace[-1][2] if result.trace else None,
    }
    if eval_set:  # evaluated before any file is written
        summary["eval_loss"], summary["eval_accuracy"] = evaluate(result.model, eval_set, cfg)

    os.makedirs(args.out, exist_ok=True)
    ckpt.save_model(os.path.join(args.out, "checkpoint.json"), result.model)
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss"])
        for step, lr, loss in result.trace:
            writer.writerow([step, repr(lr), repr(loss)])
    write_json(os.path.join(args.out, "summary.json"), summary)
    log.info("trained %d steps", len(result.trace))
    return 0


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
    with within(args.records):  # a record's ground truth outside its task's classes
        report = score_records(
            records, taxonomies=taxonomies, au_list=args.au_list, negation_cues=cues
        )
    confusion = None
    if args.confusion_out:  # picked before any file is written
        with_confusion = [
            task for task, entry in report["tasks"].items() if "confusion" in entry
        ]
        if len(with_confusion) != 1:
            raise ValueError(
                f"--confusion-out needs exactly one applicable task, found {with_confusion}"
            )
        confusion = confusion_csv_rows(report["tasks"][with_confusion[0]])

    write_json(args.out, report)
    if confusion is not None:
        with open(args.confusion_out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(confusion)
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
                "parse_errors": [{"line": line, "message": message} for line, message in errors],
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
    with within(args.target):  # shares that overflow, or a class quota the manifest cannot fill
        selected, summary = datapipe.build_test_split(records, target, per_task=args.per_task)
    datapipe.save_manifest(args.out, selected)
    if args.summary_out:
        write_json(args.summary_out, summary)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser and, by subcommand name, the subcommand's
    parser and what each of its --config keys takes."""
    parser = argparse.ArgumentParser(
        prog="facecond",
        description="Face-region conditioning pipeline: masks, token enrichment, "
        "gradient checks, toy training, free-text evaluation, and dataset filtering.",
    )
    # the --config keys that no flag overrides, so an error can name the config
    parser.set_defaults(config_keys=frozenset())
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help, config_help="JSON object of option defaults", keys=()):
        """The parser of `name`, and a function that adds an option that is a --config key."""
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help=config_help)
        p.set_defaults(func=func)
        takes = dict(keys)
        commands[name] = p, takes

        def option(flag, rule: Takes, **kwargs):
            takes[p.add_argument(flag, type=rule.parse, choices=rule.choices, **kwargs).dest] = rule

        return p, option

    p, option = command("mask", cmd_mask, "landmarks -> region-patch proximity masks")
    p.add_argument("--landmarks", required=True, help="landmark JSON file")
    option("--rows", _GRID_SIZE, default=16, help="patch grid rows")
    option("--cols", _GRID_SIZE, default=16, help="patch grid cols")
    p.add_argument("--out", required=True, help="output mask JSON")

    p, option = command("enrich", cmd_enrich, "visual tokens + landmarks -> enriched tokens")
    option("--seed", _SEED, default=0, help="seed init's seed, without --checkpoint")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--tokens", required=True, help="visual token JSON ({'tokens': (T,N,d)})")
    p.add_argument("--checkpoint", help="parameter archive; seed init when omitted")
    option("--variant", _choice(VARIANTS), default="frgca", help="conditioning variant")
    option("--token-mode", _choice(TOKEN_MODES), default="both", help="landmark tokens")
    option("--heads", _integer(1), default=8, help="attention heads for seed init")
    option("--rows", _GRID_SIZE, default=16, help="patch grid rows")
    option("--cols", _GRID_SIZE, default=16, help="patch grid cols")
    p.add_argument("--attention-out", help="also export attention maps as JSON")
    p.add_argument("--out", required=True)

    p, option = command("gradcheck", cmd_gradcheck, "finite-difference gradient verification")
    option("--seed", _SEED, default=0, help="random seed")
    p.add_argument("--out", help="optional JSON report path")

    p, option = command(
        "train", cmd_train, "toy two-stage training on synthetic data",
        config_help="TrainConfig JSON, plus train_size, eval_size and task_kind",
        keys=_TRAIN_KEYS,
    )
    p.add_argument("--seed", type=_SEED.parse, help="overrides the config's seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(train_size=256, eval_size=0, task_kind="region")

    p, option = command("eval", cmd_eval, "score generated descriptions against labels")
    p.add_argument("--records", required=True, help="EvalRecord JSONL")
    p.add_argument(
        "--taxonomy",
        nargs=2,
        action="append",
        metavar=("TASK", "PATH"),
        help="override the bundled taxonomy for a task",
    )
    p.add_argument("--negation-cues", help="JSON list overriding the negation cues")
    option("--au-list", _AU_LIST, default="disfa", help="disfa, bp4d, or AUs: 1,2,4")
    p.add_argument("--confusion-out", help="CSV confusion matrix output")
    p.add_argument("--out", required=True, help="metric report JSON")

    p, option = command("filter", cmd_filter, "rating-threshold manifest filtering")
    p.add_argument("--manifest", required=True)
    option("--threshold", _INT, default=datapipe.DEFAULT_RATING_THRESHOLD, help="overall rating cutoff")
    p.add_argument("--out-kept", required=True)
    p.add_argument("--out-removed", required=True)
    p.add_argument("--summary-out")

    p, option = command("pair", cmd_pair, "attach task instructions to records")
    option("--seed", _SEED, default=0, help="random seed")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bank", required=True, help="JSON {task: [instructions]}")
    p.add_argument("--out", required=True)

    p, option = command("split", cmd_split, "stratified top-rated test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", required=True, help="JSON {task: {class: proportion}}")
    option("--per-task", _integer(0), default=500, help="records per task")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out")

    return parser, commands


def main(argv=None) -> int:
    # built on every call: set_defaults changes the parser's actions in place
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("FACECOND_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            levels = "DEBUG, INFO, WARNING, ERROR, CRITICAL"
            raise ValueError(f"FACECOND_LOG must be one of {levels}, got {level!r}")
        logging.basicConfig(level=level.upper())
        if args.config is not None:  # its values become defaults, which flags override
            sub, takes = commands[args.command]
            config = _read_config(args.config, args.command, takes)
            sub.set_defaults(**dict.fromkeys(config))  # a flag's value is never None
            flagged = vars(parser.parse_args(argv))
            sub.set_defaults(**config)
            args = parser.parse_args(argv)
            args.config_keys = {key for key in config if flagged[key] is None}
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
