"""Annotation manifest pipeline: ingestion, rating-threshold filtering,
instruction pairing, and stratified test-split construction.

Manifest schema (JSONL, one record per line):

    {"id": "...", "task": "...",
     "media": {"path": "...", "type": "image"|"video"},
     "label": ..., "description": "...",
     "instruction": "..."?,
     "ratings": {"label_accuracy": 1-10, "desc_video_consistency": 1-10,
                 "desc_label_consistency": 1-10, "overall": 1-10}?}

Instruction banks are JSON {task: [instruction strings]}; each
instruction carries exactly one "{media}" placeholder that is replaced
by the record's media type. Split targets are JSON {task: {class:
weight}}, each task's weights finite, non-negative and not all zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .jsonio import INTEGER, NUMBER, OBJECT, STRING, STRINGS, fits, member, read_json, read_jsonl
from .jsonio import typed, write_jsonl

MEDIA_TYPES = ("image", "video")
RATING_KEYS = (
    "label_accuracy",
    "desc_video_consistency",
    "desc_label_consistency",
    "overall",
)
_RATING_KEY_SET = frozenset(RATING_KEYS)
MEDIA_PLACEHOLDER = "{media}"
DEFAULT_RATING_THRESHOLD = 6


@dataclass(frozen=True, slots=True)
class AnnotationRecord:
    id: str
    task: str
    media_path: str
    media_type: str
    label: object
    description: str
    instruction: str | None = None
    ratings: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.media_type not in MEDIA_TYPES:
            raise ValueError(f"media type must be one of {MEDIA_TYPES}")
        ratings = self.ratings
        if not ratings:
            return
        if not ratings.keys() <= _RATING_KEY_SET:  # a subset test builds no set
            raise ValueError(f"unknown rating keys: {sorted(ratings.keys() - _RATING_KEY_SET)}")
        for key, value in ratings.items():
            # fits(value, INTEGER), inlined: this runs per rating of every record
            if type(value) is not int or not 1 <= value <= 10:
                raise ValueError(f"rating {key}={value!r} outside 1..10")

    @property
    def overall_rating(self) -> int | None:
        return self.ratings.get("overall")

    def to_json_obj(self) -> dict:
        """A fresh JSON object of the record; ``write_jsonl`` sorts its keys,
        the ratings' included."""
        obj = {
            "id": self.id,
            "task": self.task,
            "media": {"path": self.media_path, "type": self.media_type},
            "label": self.label,
            "description": self.description,
        }
        if self.instruction is not None:
            obj["instruction"] = self.instruction
        if self.ratings:
            obj["ratings"] = dict(self.ratings)
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "AnnotationRecord":
        """The record of a decoded manifest line; ``label`` is any JSON value.
        Fields are checked, and passed, in declaration order."""
        obj = typed(obj, OBJECT, "record")
        media = member(obj, "media", OBJECT)
        return cls(
            member(obj, "id", STRING),
            member(obj, "task", STRING),
            typed(media["path"], STRING, "media 'path'"),
            typed(media["type"], STRING, "media 'type'"),
            obj["label"],
            member(obj, "description", STRING),
            member(obj, "instruction", STRING, optional=True),
            typed(obj.get("ratings", {}), OBJECT, "'ratings'"),
        )


def load_manifest(path: str) -> tuple[list[AnnotationRecord], list[tuple[int, str]]]:
    """Parse a JSONL manifest with ``jsonio.read_jsonl``; each malformed
    line becomes a (line, message) pair instead of aborting the load."""
    return read_jsonl(path, AnnotationRecord.from_json_obj)


def load_manifest_strict(path: str) -> list[AnnotationRecord]:
    """The records of a JSONL manifest that must have no malformed line."""
    records, errors = load_manifest(path)
    if errors:
        line, message = errors[0]
        raise ValueError(
            f"{path}: manifest has {len(errors)} malformed lines (first: line {line}: {message})"
        )
    return records


def save_manifest(path: str, records: Sequence[AnnotationRecord]) -> None:
    write_jsonl(path, (record.to_json_obj() for record in records))


def filter_by_rating(
    records: Sequence[AnnotationRecord],
    threshold: int = DEFAULT_RATING_THRESHOLD,
) -> tuple[list[AnnotationRecord], list[AnnotationRecord]]:
    """Keep records whose overall rating exceeds the threshold.

    A record rated exactly at the threshold is removed, as is any record
    with no overall rating (unrated data never passed review).
    """
    kept, removed = [], []
    for record in records:
        rating = record.overall_rating
        if rating is not None and rating > threshold:
            kept.append(record)
        else:
            removed.append(record)
    return kept, removed


@dataclass(frozen=True)
class InstructionBank:
    instructions: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        for task, items in self.instructions.items():
            if not items:
                raise ValueError(f"task {task!r} has no instructions")
            for text in items:
                if text.count(MEDIA_PLACEHOLDER) != 1:
                    raise ValueError(
                        f"instruction {text!r} must contain exactly one {MEDIA_PLACEHOLDER}"
                    )


def load_instruction_bank(path: str) -> InstructionBank:
    """Read a {task: [instructions]} JSON file. Errors name the file, and
    the task when one task is bad."""
    return read_json(path, lambda doc: InstructionBank({
        task: tuple(typed(items, STRINGS, f"task {task!r}"))
        for task, items in typed(doc, OBJECT, "document").items()
    }))


def pair_instructions(
    records: Sequence[AnnotationRecord],
    bank: InstructionBank,
    seed: int = 0,
) -> list[AnnotationRecord]:
    """Give every instruction-less record a uniformly drawn instruction
    for its task, substituting the media placeholder. Records that
    already carry an instruction pass through untouched."""
    for record in records:  # fail fast on missing tasks
        if record.instruction is None and record.task not in bank.instructions:
            raise ValueError(
                f"record {record.id!r}: instruction bank has no task {record.task!r}"
            )
    rng = np.random.default_rng(seed)
    out = []
    for record in records:
        if record.instruction is not None:
            out.append(record)
            continue
        options = bank.instructions[record.task]
        choice = options[int(rng.integers(len(options)))]
        # the constructor, not dataclasses.replace: the same record and checks, fewer calls
        out.append(AnnotationRecord(
            record.id, record.task, record.media_path, record.media_type, record.label,
            record.description, choice.replace(MEDIA_PLACEHOLDER, record.media_type),
            record.ratings,
        ))
    return out


def load_split_target(path: str) -> dict[str, dict[str, float]]:
    """Read a {task: {class: weight}} JSON file for ``build_test_split``.
    Errors name the file, and the task and class when one is bad."""
    return read_json(path, _split_target)


def _split_target(doc) -> dict[str, dict[str, float]]:
    for task, weights in typed(doc, OBJECT, "document").items():
        for cls, weight in typed(weights, OBJECT, f"task {task!r}").items():
            if not fits(weight, NUMBER) or weight < 0:
                raise ValueError(
                    f"task {task!r} class {cls!r}: weight {weight!r} is not a finite number >= 0"
                )
        if sum(weights.values()) <= 0:
            raise ValueError(f"task {task!r} has no positive weight")
    return doc


def _split_quotas(task: str, weights: dict[str, float], per_task: int) -> dict[str, int]:
    """`task`'s class quotas of `per_task` records. Largest-remainder
    apportionment keeps every class within +-1 of its exact proportional
    share; shares that overflow a float, from the weights or from an
    integer `per_task`, fail naming the task."""
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("target distribution must have positive mass")
    try:
        shares = {cls: per_task * weight / total for cls, weight in weights.items()}
        finite = np.isfinite(list(shares.values())).all()
    except OverflowError:  # an integer per_task beyond float range
        finite = False
    if not finite:
        raise ValueError(f"task {task!r}: the weights' shares of {per_task} records overflow")
    quotas = {cls: int(np.floor(share)) for cls, share in shares.items()}
    leftover = per_task - sum(quotas.values())
    remainders = sorted(
        weights, key=lambda cls: (-(shares[cls] - quotas[cls]), list(weights).index(cls))
    )
    for cls in remainders[:leftover]:
        quotas[cls] += 1
    return quotas


def build_test_split(
    records: Sequence[AnnotationRecord],
    target: dict[str, dict[str, float]],
    per_task: int = 500,
) -> tuple[list[AnnotationRecord], dict]:
    """Greedy stratified selection: per task, rank candidates by overall
    rating (descending, ties by id) and fill each class quota from the
    top. ``target`` maps task -> class -> proportion. The selection is
    deterministic, so it takes no seed.
    """
    if per_task < 0:
        raise ValueError(f"per_task must be >= 0, got {per_task}")
    selected: list[AnnotationRecord] = []
    summary: dict = {"per_task": per_task, "tasks": {}}
    for task in sorted(target):
        quotas = _split_quotas(task, target[task], per_task)
        candidates = [r for r in records if r.task == task]
        by_class: dict[str, list[AnnotationRecord]] = {cls: [] for cls in quotas}
        for record in candidates:
            # a label meets the class key that is the label itself or, for
            # an integer label such as an age, its decimal text
            cls = str(record.label) if fits(record.label, INTEGER) else record.label
            if fits(cls, STRING) and cls in by_class:
                by_class[cls].append(record)
        task_summary = {"classes": {}, "selected": 0}
        for cls, quota in quotas.items():
            pool = sorted(
                by_class[cls],
                key=lambda r: (-(r.overall_rating or 0), r.id),
            )
            if len(pool) < quota:
                raise ValueError(
                    f"task {task!r} class {cls!r}: need {quota} records, have {len(pool)}"
                )
            chosen = pool[:quota]
            selected.extend(chosen)
            ratings = [r.overall_rating for r in chosen if r.overall_rating is not None]
            task_summary["classes"][cls] = {
                "count": quota,
                "mean_overall_rating": float(np.mean(ratings)) if ratings else None,
            }
            task_summary["selected"] += quota
        summary["tasks"][task] = task_summary
    return selected, summary
