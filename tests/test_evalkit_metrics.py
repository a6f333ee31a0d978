import re

import numpy as np
import pytest

from facecond.evalkit import (
    BP4D_AUS,
    DISFA_AUS,
    compute_avg_f1,
    compute_mae,
    compute_mean_attr_accuracy,
    compute_uar_war,
    confusion_matrix,
    parse_failure_rate,
)


# ---------------------------------------------------------------------------
# UAR / WAR


def test_perfect_predictions():
    preds = ["a", "b", "a"]
    uar, war = compute_uar_war(preds, preds, ["a", "b"])
    assert uar == 1.0 and war == 1.0


def test_hand_computed_two_class_case():
    gts = ["A", "A", "B"]
    preds = ["A", "B", "B"]
    uar, war = compute_uar_war(preds, gts, ["A", "B"])
    assert uar == pytest.approx(0.75)
    assert war == pytest.approx(2 / 3)


def test_degenerate_single_class_predictor():
    gts = ["x"] * 10 + ["y"] * 10
    preds = ["x"] * 20
    uar, war = compute_uar_war(preds, gts, ["x", "y"])
    assert uar == pytest.approx(0.5)
    assert war == pytest.approx(0.5)


def test_war_equals_accuracy_and_uar_matches_bruteforce():
    rng = np.random.default_rng(0)
    classes = ["c0", "c1", "c2", "c3"]
    for _ in range(200):
        n = int(rng.integers(2, 40))
        gts = [classes[i] for i in rng.integers(0, 4, size=n)]
        preds = [
            None if rng.random() < 0.1 else classes[i]
            for i in rng.integers(0, 4, size=n)
        ]
        uar, war = compute_uar_war(preds, gts, classes)
        accuracy = sum(p == g for p, g in zip(preds, gts)) / n
        assert war == pytest.approx(accuracy, rel=1e-12)
        recalls = []
        for cls in classes:
            members = [i for i, g in enumerate(gts) if g == cls]
            if members:
                recalls.append(sum(preds[i] == cls for i in members) / len(members))
        assert uar == pytest.approx(sum(recalls) / len(recalls), rel=1e-12)


def test_uar_invariant_under_class_duplication():
    gts = ["a", "a", "b", "c"]
    preds = ["a", "b", "b", "c"]
    uar, _ = compute_uar_war(preds, gts, ["a", "b", "c"])
    uar2, _ = compute_uar_war(preds + ["b", "b"], gts + ["b", "b"], ["a", "b", "c"])
    assert uar == pytest.approx(uar2)


def test_uar_war_validation():
    with pytest.raises(ValueError):
        compute_uar_war([], [], ["a"])
    with pytest.raises(ValueError):
        compute_uar_war(["a"], ["z"], ["a"])


def test_confusion_matrix_counts():
    gts = ["a", "a", "b"]
    preds = ["a", None, "a"]
    matrix = confusion_matrix(preds, gts, ["a", "b"])
    assert matrix.tolist() == [[1, 0, 1], [1, 0, 0]]


# ---------------------------------------------------------------------------
# average F1 over AUs


def test_avg_f1_identical_sets():
    # identical predictions with every scored AU occurring at least once
    sets = [{1, 2}, {4, 6}, {9, 12}, {1, 25, 26}]
    per_au, mean = compute_avg_f1(sets, sets, DISFA_AUS)
    assert mean == 1.0
    assert all(f1 == 1.0 for f1 in per_au.values())


def test_avg_f1_empty_predictions():
    gts = [{1, 2}, {4, 6}]
    per_au, mean = compute_avg_f1([set(), set()], gts, DISFA_AUS)
    assert mean == 0.0
    assert all(f1 == 0.0 for f1 in per_au.values())


def test_avg_f1_hand_computed_counts():
    preds = [{1, 2}, {1}, {2}, set()]
    gts = [{1}, {1, 2}, {2}, {2}]
    per_au, mean = compute_avg_f1(preds, gts, au_list=(1, 2))
    # AU1: tp=2 fp=0 fn=0 -> 1.0 ; AU2: tp=1 fp=1 fn=2 -> 2/5
    assert per_au[1] == pytest.approx(1.0)
    assert per_au[2] == pytest.approx(0.4)
    assert mean == pytest.approx(0.7)


@pytest.mark.parametrize(
    "au_list, message",
    [
        ((), "au_list lists no AUs"),
        ((1, 1, 2), r"AUs \[1\] in au_list are listed more than once"),
        ((4, 2, 4, 2, 6), r"AUs \[2, 4\] in au_list are listed more than once"),
        (("1", "2"), r"AU entries \['1', '2'\] in au_list are not AU numbers"),
        ((1, True), r"AU entries \[True\] in au_list are not AU numbers"),
    ],
    ids=["empty", "one_repeat", "two_repeats", "text", "bool"],
)
def test_avg_f1_rejects_a_bad_au_list(au_list, message):
    with pytest.raises(ValueError, match=message):
        compute_avg_f1([{1}], [{1}], au_list)


@pytest.mark.parametrize(
    "au_list, message",
    [
        ((0, 1), r"AUs \[0\] in au_list are below 1, where AU numbers start"),
        ((-3, 1, -1), r"AUs \[-3, -1\] in au_list are below 1, where AU numbers start"),
    ],
    ids=["zero", "negative"],
)
def test_avg_f1_rejects_an_au_below_1(au_list, message):
    with pytest.raises(ValueError, match=message):
        compute_avg_f1([{1}], [{1}], au_list)


def test_avg_f1_takes_numpy_integer_aus():
    preds, gts = [{1, 2}, {2}], [{1}, {2}]
    assert compute_avg_f1(preds, gts, np.array([1, 2])) == compute_avg_f1(preds, gts, (1, 2))


def test_avg_f1_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        preds = [set(np.nonzero(rng.random(12) < 0.3)[0] + 1) for _ in range(n)]
        gts = [set(np.nonzero(rng.random(12) < 0.3)[0] + 1) for _ in range(n)]
        per_au, mean = compute_avg_f1(preds, gts, BP4D_AUS)
        expected = []
        for au in BP4D_AUS:
            tp = sum(au in p and au in g for p, g in zip(preds, gts))
            fp = sum(au in p and au not in g for p, g in zip(preds, gts))
            fn = sum(au not in p and au in g for p, g in zip(preds, gts))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            if precision + recall == 0:
                expected.append(0.0)
            else:
                expected.append(2 * precision * recall / (precision + recall))
        assert mean == pytest.approx(np.mean(expected), rel=1e-12)
        for au, want in zip(BP4D_AUS, expected):
            assert per_au[au] == pytest.approx(want, rel=1e-12)


def test_au_lists_match_their_datasets():
    assert DISFA_AUS == (1, 2, 4, 6, 9, 12, 25, 26)
    assert BP4D_AUS == (1, 2, 4, 6, 7, 10, 12, 14, 15, 17, 23, 24)
    assert len(DISFA_AUS) == 8 and len(BP4D_AUS) == 12


# ---------------------------------------------------------------------------
# MAE


def test_mae_identical():
    assert compute_mae([20, 30], [20, 30]) == 0.0


def test_mae_symmetric_pair():
    assert compute_mae([20, 30], [25, 25]) == pytest.approx(5.0)


def test_mae_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        preds = [int(v) for v in rng.integers(0, 100, size=n)]
        gts = [int(v) for v in rng.integers(0, 100, size=n)]
        total = 0
        for p, g in zip(preds, gts):
            total += abs(p - g)
        assert compute_mae(preds, gts) == pytest.approx(total / n, rel=1e-12)


def test_mae_nomatch_pays_full_ground_truth():
    assert compute_mae([None, 50], [40, 50]) == pytest.approx(20.0)
    assert parse_failure_rate([None, 50]) == 0.5


def test_mae_empty_rejected():
    with pytest.raises(ValueError):
        compute_mae([], [])


# ---------------------------------------------------------------------------
# mean attribute accuracy


ATTRS = ["a", "b", "c", "d"]


def test_attr_accuracy_perfect():
    preds = [{"a"}, {"b", "c"}]
    gts = [{"a"}, {"b", "c"}]
    per_attr, mean = compute_mean_attr_accuracy(preds, gts, ATTRS)
    assert mean == 1.0


def test_attr_accuracy_vacuous_negatives():
    preds = [set(), set()]
    gts = [set(), set()]
    _, mean = compute_mean_attr_accuracy(preds, gts, ATTRS)
    assert mean == 1.0


def test_attr_accuracy_hand_counted():
    preds = [{"a", "b"}, {"a"}, set()]
    gts = [{"a"}, {"a", "b"}, {"c"}]
    per_attr, mean = compute_mean_attr_accuracy(preds, gts, ATTRS)
    # a: 3/3, b: 1/3, c: 2/3, d: 3/3
    assert per_attr["a"] == pytest.approx(1.0)
    assert per_attr["b"] == pytest.approx(1 / 3)
    assert per_attr["c"] == pytest.approx(2 / 3)
    assert per_attr["d"] == pytest.approx(1.0)
    assert mean == pytest.approx((1.0 + 1 / 3 + 2 / 3 + 1.0) / 4)


def test_attr_accuracy_unknown_attribute_rejected():
    with pytest.raises(ValueError, match=r"^prediction row 0: unknown attribute names \['z'\]$"):
        compute_mean_attr_accuracy([{"z"}], [set()], ATTRS)


def test_attr_accuracy_rejects_an_unknown_ground_truth_name():
    with pytest.raises(ValueError, match=r"^ground truth row 1: unknown attribute names \['e', 'z'\]$"):
        compute_mean_attr_accuracy([set(), set()], [{"a"}, {"z", "b", "e"}], ATTRS)


def test_attr_accuracy_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        gts = rng.integers(0, 2, size=(n, 4))
        preds = [
            {ATTRS[j] for j in range(4) if rng.random() < 0.4} for _ in range(n)
        ]
        gt_sets = [{ATTRS[j] for j in range(4) if gts[i][j]} for i in range(n)]
        per_attr, mean = compute_mean_attr_accuracy(preds, gt_sets, ATTRS)
        accs = []
        for j, attr in enumerate(ATTRS):
            correct = sum((attr in preds[i]) == bool(gts[i][j]) for i in range(n))
            accs.append(correct / n)
            assert per_attr[attr] == pytest.approx(accs[-1], rel=1e-12)
        assert mean == pytest.approx(np.mean(accs), rel=1e-12)
