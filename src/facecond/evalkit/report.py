"""Scoring driver: evaluation records in, metric report out.

Input is JSONL, one record per line:

    {"id": "...", "task": "expression|au|attribute|age|deepfake",
     "generated": "...", "ground_truth": ..., "chunk_group": "..."?}

ground_truth is a class name (expression, deepfake), a list of AU
integers (au), a list of positive attribute names (attribute), or an
integer age from 0 up to float64 range. chunk_group marks video chunks that
majority-vote into one prediction for the single-label tasks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..jsonio import INTEGER, INTEGERS, OBJECT, STRING, STRINGS, member, read_jsonl, typed
from .metrics import (
    DISFA_AUS,
    check_au_list,
    compute_avg_f1,
    compute_mae,
    compute_mean_attr_accuracy,
    compute_uar_war,
    confusion_matrix,
    parse_failure_rate,
)
from .parsing import (
    match_synonyms,
    match_synonyms_all,
    parse_age,
    parse_aus,
    strip_negatives,
    vote_chunks,
)
from .taxonomy import TAXONOMY_TASKS, Taxonomy, default_negation_cues, default_taxonomy

# each task, and the JSON kind of its ground truth
_TRUTH_KINDS = {
    "expression": STRING,
    "au": INTEGERS,
    "attribute": STRINGS,
    "age": INTEGER,
    "deepfake": STRING,
}
TASKS = tuple(_TRUTH_KINDS)
_SINGLE_LABEL_TASKS = ("expression", "deepfake")


@dataclass(frozen=True, slots=True)
class EvalRecord:
    id: str
    task: str
    generated: str
    ground_truth: object
    chunk_group: str | None = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")

    @classmethod
    def from_json_obj(cls, obj) -> "EvalRecord":
        """The record of a decoded eval line; ground truth of the task's kind.
        Fields are checked, and passed, in declaration order."""
        obj = typed(obj, OBJECT, "record")
        record = cls(
            member(obj, "id", STRING),
            member(obj, "task", STRING),
            member(obj, "generated", STRING),
            obj["ground_truth"],
            member(obj, "chunk_group", STRING, optional=True),
        )
        what = f"'ground_truth' of task {record.task!r}"
        typed(record.ground_truth, _TRUTH_KINDS[record.task], what)
        # compute_mae scores ages as float64; parse_age reads no sign, so a
        # truth of at least 0 keeps |prediction - truth| in that range too
        if record.task == "age":
            try:
                float(record.ground_truth)
            except OverflowError:
                raise ValueError(f"{what} is an integer beyond float64 range") from None
            if record.ground_truth < 0:
                raise ValueError(f"{what} is {record.ground_truth}, below 0")
        return record


def load_eval_records(path: str) -> list[EvalRecord]:
    """Parse a JSONL eval file with ``jsonio.read_jsonl``; the first
    malformed line fails naming the file and the line."""
    records, errors = read_jsonl(path, EvalRecord.from_json_obj)
    if errors:
        lineno, message = errors[0]
        raise ValueError(f"{path}:{lineno}: bad eval record: {message}")
    return records


def extract_prediction(
    record: EvalRecord,
    taxonomies: dict[str, Taxonomy],
    cues: Sequence[str],
):
    """Task-appropriate label extraction from the generated text."""
    if record.task == "au":
        return parse_aus(record.generated, cues)
    if record.task == "age":
        return parse_age(record.generated, cues)
    stripped = strip_negatives(record.generated, cues)
    if record.task == "attribute":
        return match_synonyms_all(stripped, taxonomies["attribute"])
    return match_synonyms(stripped, taxonomies[record.task])


def _collapse_chunks(records, preds, taxonomy):
    """Vote chunk groups down to one (prediction, ground truth) pair each."""
    groups: dict[object, list[int]] = {}
    singles: list[int] = []
    for i, record in enumerate(records):
        if record.chunk_group is None:
            singles.append(i)
        else:
            groups.setdefault(record.chunk_group, []).append(i)
    out_preds, out_gts = [], []
    for i in singles:
        out_preds.append(preds[i])
        out_gts.append(records[i].ground_truth)
    for key in sorted(groups, key=str):
        members = groups[key]
        gts = {records[i].ground_truth for i in members}
        if len(gts) != 1:
            raise ValueError(f"chunk group {key!r} mixes ground-truth labels")
        out_preds.append(vote_chunks([preds[i] for i in members], taxonomy))
        out_gts.append(next(iter(gts)))
    return out_preds, out_gts


def score_records(
    records: Sequence[EvalRecord],
    taxonomies: dict[str, Taxonomy] | None = None,
    au_list: Sequence[int] = DISFA_AUS,
    negation_cues: Sequence[str] | None = None,
    threads: int = 1,
) -> dict:
    """Metric report over records of any mix of tasks. Every metric is
    computed from counts and integer sums, so the order of the records
    does not change the report."""
    if not records:
        raise ValueError("no records to score")
    au_list = check_au_list(au_list)
    taxonomies = dict(taxonomies) if taxonomies else {}
    for task in TAXONOMY_TASKS:
        if task not in taxonomies:  # parse only the bundled taxonomies not overridden
            taxonomies[task] = default_taxonomy(task)
    cues = tuple(negation_cues) if negation_cues is not None else default_negation_cues()

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            preds = list(
                pool.map(lambda r: extract_prediction(r, taxonomies, cues), records)
            )
    else:
        preds = [extract_prediction(r, taxonomies, cues) for r in records]

    report: dict = {"n_records": len(records), "tasks": {}}
    by_task: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_task.setdefault(record.task, []).append(i)

    for task, idx in sorted(by_task.items()):
        task_records = [records[i] for i in idx]
        task_preds = [preds[i] for i in idx]
        entry: dict = {"n": len(task_records)}
        if task in _SINGLE_LABEL_TASKS:
            taxonomy = taxonomies[task]
            for record in task_records:
                if record.ground_truth not in taxonomy.synonyms:
                    raise ValueError(
                        f"record {record.id!r}: unknown {task} class {record.ground_truth!r}"
                    )
            entry["parse_failure_rate"] = parse_failure_rate(task_preds)
            voted_preds, voted_gts = _collapse_chunks(task_records, task_preds, taxonomy)
            entry["n_groups"] = len(voted_gts)
            uar, war = compute_uar_war(voted_preds, voted_gts, taxonomy.classes)
            entry["metrics"] = {"uar": uar, "war": war, "accuracy": war}
            entry["classes"] = list(taxonomy.classes)
            entry["confusion"] = confusion_matrix(
                voted_preds, voted_gts, taxonomy.classes
            ).tolist()
        elif task == "au":
            gt_sets = [set(r.ground_truth) for r in task_records]
            per_au, mean_f1 = compute_avg_f1(task_preds, gt_sets, au_list)
            entry["metrics"] = {"average_f1": mean_f1}
            entry["per_au_f1"] = {str(au): f1 for au, f1 in per_au.items()}
            entry["au_list"] = list(au_list)
        elif task == "age":
            gts = [r.ground_truth for r in task_records]
            entry["metrics"] = {"mae": compute_mae(task_preds, gts)}
            entry["parse_failure_rate"] = parse_failure_rate(task_preds)
        elif task == "attribute":
            attributes = taxonomies["attribute"].classes
            for record in task_records:
                for name in record.ground_truth:
                    if name not in attributes:
                        raise ValueError(f"record {record.id!r}: unknown attribute {name!r}")
            gt_sets = [set(r.ground_truth) for r in task_records]
            per_attr, mean_acc = compute_mean_attr_accuracy(task_preds, gt_sets, attributes)
            entry["metrics"] = {"mean_attribute_accuracy": mean_acc}
            entry["per_attribute_accuracy"] = per_attr
        report["tasks"][task] = entry
    return report


def confusion_csv_rows(entry: dict) -> list[list]:
    """CSV rows for one task's confusion matrix (gt rows, pred columns)."""
    classes = entry["classes"]
    header = ["gt\\pred"] + classes + ["nomatch"]
    return [header] + [[cls, *row] for cls, row in zip(classes, entry["confusion"])]
