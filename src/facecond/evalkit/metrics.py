"""Task metrics over extracted labels.

UAR is the unweighted mean of per-class recalls over classes present in
the ground truth; WAR weights recalls by class frequency and therefore
equals plain accuracy. AU detection scores binary F1 per action unit;
age uses mean absolute error; attributes use per-attribute binary
accuracy averaged over the full attribute list.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from ..jsonio import INTEGER, fits

# AU sets scored per dataset
DISFA_AUS = (1, 2, 4, 6, 9, 12, 25, 26)
BP4D_AUS = (1, 2, 4, 6, 7, 10, 12, 14, 15, 17, 23, 24)


def compute_uar_war(
    preds: Sequence[str | None], gts: Sequence[str], classes: Sequence[str]
) -> tuple[float, float]:
    if not gts:
        raise ValueError("empty input")
    if len(preds) != len(gts):
        raise ValueError("preds and gts must be aligned")
    class_set = set(classes)
    if not set(gts) <= class_set:
        raise ValueError("ground truth contains labels outside the class list")
    n = len(gts)
    totals = Counter(gts)
    hits = Counter(gt for pred, gt in zip(preds, gts) if pred == gt)
    recalls = {cls: hits[cls] / totals[cls] for cls in classes if totals[cls] > 0}
    uar = float(np.mean(list(recalls.values())))
    war = float(sum(totals[cls] / n * recalls[cls] for cls in recalls))
    return uar, war


def confusion_matrix(
    preds: Sequence[str | None], gts: Sequence[str], classes: Sequence[str]
) -> np.ndarray:
    """Rows are ground truth classes, columns are predicted classes plus a
    trailing no-match column."""
    index = {cls: i for i, cls in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes) + 1), dtype=np.int64)
    for pred, gt in zip(preds, gts):
        col = index[pred] if pred in index else len(classes)
        matrix[index[gt], col] += 1
    return matrix


def check_au_list(au_list: Sequence[int], source: str = "au_list") -> tuple[int, ...]:
    """The AUs to score as a tuple: at least one, each an integer of at
    least 1 (FACS numbers its action units from 1) listed once. ``source``
    names the list in the error."""
    aus = tuple(au_list)
    if not aus:
        raise ValueError(f"{source} lists no AUs")
    bad = [au for au in aus if not (fits(au, INTEGER) or isinstance(au, np.integer))]
    if bad:
        raise ValueError(f"AU entries {bad} in {source} are not AU numbers")
    low = [au for au in aus if au < 1]
    if low:
        raise ValueError(f"AUs {low} in {source} are below 1, where AU numbers start")
    repeated = sorted({au for au in aus if aus.count(au) > 1})
    if repeated:
        raise ValueError(f"AUs {repeated} in {source} are listed more than once")
    return tuple(int(au) for au in aus)


def compute_avg_f1(
    pred_sets: Sequence[set[int]],
    gt_sets: Sequence[set[int]],
    au_list: Sequence[int] = DISFA_AUS,
) -> tuple[dict[int, float], float]:
    """Binary F1 per action unit and the mean over au_list.

    F1 is 0 when the unit never appears in predictions or ground truth.
    """
    if not gt_sets:
        raise ValueError("empty input")
    if len(pred_sets) != len(gt_sets):
        raise ValueError("preds and gts must be aligned")
    per_au: dict[int, float] = {}
    for au in check_au_list(au_list):
        tp = fp = fn = 0
        for pred, gt in zip(pred_sets, gt_sets):
            in_pred = au in pred
            in_gt = au in gt
            tp += in_pred and in_gt
            fp += in_pred and not in_gt
            fn += in_gt and not in_pred
        denom = 2 * tp + fp + fn
        per_au[au] = 2 * tp / denom if denom else 0.0
    return per_au, float(np.mean(list(per_au.values())))


def compute_mae(
    preds: Sequence[int | None], gts: Sequence[int]
) -> float:
    """Mean absolute error; an unparseable prediction costs |gt|."""
    if not gts:
        raise ValueError("empty input")
    if len(preds) != len(gts):
        raise ValueError("preds and gts must be aligned")
    errors = [abs((pred if pred is not None else 0) - gt) for pred, gt in zip(preds, gts)]
    return float(np.mean(errors))


def parse_failure_rate(preds: Sequence[object | None]) -> float:
    if not preds:
        raise ValueError("empty input")
    return sum(p is None for p in preds) / len(preds)


def compute_mean_attr_accuracy(
    pred_sets: Sequence[set[str]],
    gt_sets: Sequence[set[str]],
    attributes: Sequence[str],
) -> tuple[dict[str, float], float]:
    """Per-attribute binary accuracy and the unweighted mean.

    Predictions and ground truth are each one set per sample of the
    attribute names called positive; absence means negative.
    """
    if not gt_sets:
        raise ValueError("empty input")
    if len(pred_sets) != len(gt_sets):
        raise ValueError("preds and gts must be aligned")
    known = set(attributes)
    for side, sets in (("prediction", pred_sets), ("ground truth", gt_sets)):
        for row, names in enumerate(sets):
            if not names <= known:
                raise ValueError(f"{side} row {row}: unknown attribute names {sorted(names - known)}")
    # a sample is wrong on exactly the attributes in one set but not both
    wrong = Counter(attr for pred, gt in zip(pred_sets, gt_sets) for attr in pred ^ gt)
    n = len(gt_sets)
    per_attr = {attr: (n - wrong[attr]) / n for attr in attributes}
    return per_attr, float(np.mean(list(per_attr.values())))
