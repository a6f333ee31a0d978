import dataclasses
import json
import re

import numpy as np
import pytest

import facecond.datapipe as datapipe
from facecond.datapipe import (
    AnnotationRecord,
    InstructionBank,
    build_test_split,
    filter_by_rating,
    load_instruction_bank,
    load_manifest,
    load_manifest_strict,
    load_split_target,
    pair_instructions,
    save_manifest,
)


def make_record(i, task="expression", rating=None, label="happiness", instruction=None):
    ratings = {} if rating is None else {"overall": rating}
    return AnnotationRecord(
        id=f"r{i:04d}",
        task=task,
        media_path=f"clips/{i}.mp4",
        media_type="video",
        label=label,
        description=f"description {i}",
        instruction=instruction,
        ratings=ratings,
    )


# ---------------------------------------------------------------------------
# record validation


def test_record_validation():
    with pytest.raises(ValueError):
        make_record(0, rating=11)
    with pytest.raises(ValueError):
        make_record(0, rating=0)
    with pytest.raises(ValueError):
        AnnotationRecord(
            id="x", task="t", media_path="p", media_type="audio",
            label="l", description="d",
        )


@pytest.mark.parametrize("fields, message", [
    ({"media_type": "audio"}, "media type must be one of ('image', 'video')"),
    ({"ratings": {"overall": 7, "zeal": 3, "clarity": 2}}, "unknown rating keys: ['clarity', 'zeal']"),
    ({"ratings": {"overall": 11}}, "rating overall=11 outside 1..10"),
    ({"ratings": {"overall": 7, "label_accuracy": True}}, "rating label_accuracy=True outside 1..10"),
    ({"ratings": {"overall": 7.0}}, "rating overall=7.0 outside 1..10"),
], ids=["media_type", "unknown_keys", "above_10", "bool", "float"])
def test_record_checks_keep_their_messages(fields, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        AnnotationRecord(**{**dataclasses.asdict(make_record(0)), **fields})


# ---------------------------------------------------------------------------
# manifest I/O


def test_load_empty_manifest(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("")
    records, errors = load_manifest(str(path))
    assert records == [] and errors == []


def test_load_manifest_collects_errors_with_line_numbers(tmp_path):
    good = [make_record(i, rating=7) for i in range(3)]
    lines = [json.dumps(r.to_json_obj()) for r in good]
    lines.insert(2, "{broken json")
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(lines) + "\n")
    records, errors = load_manifest(str(path))
    assert len(records) == 3
    assert len(errors) == 1
    assert errors[0][0] == 3


def test_load_manifest_strict_names_the_file_and_first_bad_line(tmp_path, monkeypatch):
    path = tmp_path / "m.jsonl"
    good = json.dumps(make_record(0, rating=7).to_json_obj())
    path.write_text(good + "\n" + '{"id": "r1", ' + "\n" + good.replace(": 7", ": 11") + "\n")
    loads = []
    monkeypatch.setattr(datapipe, "load_manifest", lambda p: loads.append(p) or load_manifest(p))
    with pytest.raises(ValueError) as excinfo:
        load_manifest_strict(str(path))
    assert str(excinfo.value) == (
        f"{path}: manifest has 2 malformed lines "
        "(first: line 2: Expecting property name enclosed in double quotes: line 1 column 13 (char 12))"
    )
    path.write_text(good + "\n")
    assert load_manifest_strict(str(path)) == [make_record(0, rating=7)]
    assert loads == [str(path)] * 2  # the benchmark's load_manifest wrapper sees every load


def test_load_manifest_reports_a_line_that_is_not_utf8_and_keeps_going(tmp_path):
    path = tmp_path / "m.jsonl"
    good = [json.dumps(make_record(i, rating=7).to_json_obj()).encode() for i in range(2)]
    bad = good[1].replace(b"description", b"caf\xe9")
    path.write_bytes(b"\n".join([good[0], bad, good[1]]) + b"\n")
    records, errors = load_manifest(str(path))
    assert records == [make_record(0, rating=7), make_record(1, rating=7)]
    assert [line for line, _ in errors] == [2]
    assert errors[0][1].startswith("'utf-8' codec can't decode byte 0xe9")
    with pytest.raises(ValueError, match="^" + re.escape(
        f"{path}: manifest has 1 malformed lines (first: line 2: 'utf-8' codec can't decode"
    )):
        load_manifest_strict(str(path))


def test_manifest_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        make_record(
            i,
            task=["expression", "age"][int(rng.integers(2))],
            rating=int(rng.integers(1, 11)),
            label=["happiness", 37][i % 2],
            instruction="Describe this video." if i % 3 == 0 else None,
        )
        for i in range(20)
    ]
    path = tmp_path / "m.jsonl"
    save_manifest(str(path), records)
    loaded, errors = load_manifest(str(path))
    assert errors == []
    assert loaded == records


def test_ratings_save_in_sorted_key_order_whatever_their_insertion_order(tmp_path):
    ratings = {"label_accuracy": 8, "desc_video_consistency": 7, "desc_label_consistency": 9,
               "overall": 7}
    lines = []
    for order in (sorted(ratings), sorted(ratings, reverse=True)):
        record = dataclasses.replace(make_record(0), ratings={k: ratings[k] for k in order})
        path = tmp_path / f"{order[0]}.jsonl"
        save_manifest(str(path), [record])
        lines.append(path.read_text())
    assert lines[0] == lines[1]
    assert '"ratings": {"desc_label_consistency": 9, "desc_video_consistency": 7, ' \
           '"label_accuracy": 8, "overall": 7}' in lines[0]


def test_to_json_obj_returns_fresh_ratings():
    record = make_record(0, rating=7)
    record.to_json_obj()["ratings"]["overall"] = 1
    assert record.ratings == {"overall": 7}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AnnotationRecord)])
def test_record_fields_cannot_be_assigned(name):
    record = make_record(0, rating=7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, "x")


# ---------------------------------------------------------------------------
# rating filter


def test_threshold_boundary():
    kept, removed = filter_by_rating([make_record(0, rating=6), make_record(1, rating=7)])
    assert [r.overall_rating for r in kept] == [7]
    assert [r.overall_rating for r in removed] == [6]


def test_threshold_zero_keeps_all_rated():
    records = [make_record(i, rating=r) for i, r in enumerate(range(1, 11))]
    kept, removed = filter_by_rating(records, threshold=0)
    assert len(kept) == 10 and removed == []


def test_unrated_records_are_removed():
    records = [make_record(0), make_record(1, rating=9)]
    kept, removed = filter_by_rating(records)
    assert len(kept) == 1 and kept[0].overall_rating == 9
    assert removed[0].overall_rating is None


def test_uniform_ratings_keep_about_40_percent():
    rng = np.random.default_rng(1)
    records = [make_record(i, rating=int(rng.integers(1, 11))) for i in range(10_000)]
    kept, _ = filter_by_rating(records, threshold=6)
    # ratings 7..10 out of 1..10
    assert abs(len(kept) / len(records) - 0.4) < 0.03


def test_filter_partitions_input_exactly():
    rng = np.random.default_rng(2)
    records = [
        make_record(i, rating=int(rng.integers(1, 11)) if rng.random() < 0.8 else None)
        for i in range(500)
    ]
    for threshold in (0, 3, 6, 10):
        kept, removed = filter_by_rating(records, threshold)
        assert len(kept) + len(removed) == len(records)
        assert {r.id for r in kept} | {r.id for r in removed} == {r.id for r in records}
        assert {r.id for r in kept} & {r.id for r in removed} == set()


def test_filter_monotone_in_threshold():
    rng = np.random.default_rng(3)
    records = [make_record(i, rating=int(rng.integers(1, 11))) for i in range(300)]
    sizes = [len(filter_by_rating(records, t)[0]) for t in range(11)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------------------
# instruction pairing


BANK = InstructionBank(
    {
        "expression": tuple(
            f"Instruction {i}: describe the emotion in this {{media}}." for i in range(100)
        ),
        "age": ("How old is the person in this {media}?",),
    }
)


def test_bank_validation():
    with pytest.raises(ValueError):
        InstructionBank({"t": ("no placeholder here",)})
    with pytest.raises(ValueError):
        InstructionBank({"t": ("{media} and {media}",)})
    with pytest.raises(ValueError):
        InstructionBank({"t": ()})


@pytest.mark.parametrize(
    "bank, message",
    [
        ('["Describe the {media}."]', 'document is ["Describe the {media}."], not an object'),
        ('{"expression": "Describe {media}"}',
         "task 'expression' is \"Describe {media}\", not a list of strings"),
        ('{"expression": ["Describe the {media}.", 3]}',
         "task 'expression' is [\"Describe the {media}.\", 3], not a list of strings"),
        ('{"expression": []}', "task 'expression' has no instructions"),
        ('{"expression": ["Describe it."]}',
         "instruction 'Describe it.' must contain exactly one {media}"),
    ],
    ids=["list", "string", "non_string_item", "empty", "no_placeholder"],
)
def test_load_instruction_bank_names_the_file_and_task(tmp_path, bank, message):
    path = tmp_path / "bank.json"
    path.write_text(bank)
    with pytest.raises(ValueError) as excinfo:
        load_instruction_bank(str(path))
    assert str(excinfo.value) == f"{path}: {message}"


def test_pairing_deterministic_and_substitutes_media():
    records = [make_record(i, rating=7) for i in range(50)]
    a = pair_instructions(records, BANK, seed=11)
    b = pair_instructions(records, BANK, seed=11)
    assert a == b
    assert all(r.instruction is not None for r in a)
    assert all("{media}" not in r.instruction for r in a)
    assert all("video" in r.instruction for r in a)
    c = pair_instructions(records, BANK, seed=12)
    assert any(x.instruction != y.instruction for x, y in zip(a, c))


def test_pairing_preserves_existing_instruction_and_fields():
    records = [make_record(0, rating=7, instruction="Keep me {media}")]
    out = pair_instructions(records, BANK, seed=0)
    assert out[0].instruction == "Keep me {media}"
    records = [make_record(i, rating=7) for i in range(10)]
    out = pair_instructions(records, BANK, seed=0)
    for before, after in zip(records, out):
        assert after.id == before.id
        assert after.ratings == before.ratings
        assert after.description == before.description


def test_pairing_builds_what_replace_builds():
    records = [make_record(i, rating=7, instruction="Keep me {media}" if i % 4 == 0 else None)
               for i in range(20)]
    out = pair_instructions(records, BANK, seed=3)
    for before, after in zip(records, out):
        if before.instruction is None:
            assert after == dataclasses.replace(before, instruction=after.instruction)
        else:
            assert after is before


def test_pairing_missing_task_rejected():
    records = [make_record(0, task="deepfake", rating=7)]
    with pytest.raises(ValueError, match="^record 'r0000': instruction bank has no task 'deepfake'$"):
        pair_instructions(records, BANK, seed=0)


def test_pairing_usage_is_roughly_uniform():
    records = [make_record(i, rating=7) for i in range(10_000)]
    paired = pair_instructions(records, BANK, seed=5)
    counts = {}
    for record in paired:
        counts[record.instruction] = counts.get(record.instruction, 0) + 1
    assert len(counts) == 100
    assert all(60 <= n <= 140 for n in counts.values())


# ---------------------------------------------------------------------------
# test split


def split_records(rng, n, klass_weights, task="expression"):
    classes = list(klass_weights)
    probs = np.array(list(klass_weights.values()), dtype=float)
    probs /= probs.sum()
    return [
        make_record(
            i,
            task=task,
            rating=int(rng.integers(1, 11)),
            label=classes[int(rng.choice(len(classes), p=probs))],
        )
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "target, message",
    [
        ('["expression"]', 'document is ["expression"], not an object'),
        ('{"expression": ["happiness"]}', "task 'expression' is [\"happiness\"], not an object"),
        ('{"expression": {"happiness": "x"}}',
         "task 'expression' class 'happiness': weight 'x' is not a finite number >= 0"),
        ('{"expression": {"happiness": true}}',
         "task 'expression' class 'happiness': weight True is not a finite number >= 0"),
        ('{"expression": {"sadness": 1, "happiness": -0.5}}',
         "task 'expression' class 'happiness': weight -0.5 is not a finite number >= 0"),
        ('{"expression": {"happiness": NaN}}',
         "task 'expression' class 'happiness': weight nan is not a finite number >= 0"),
        ('{"expression": {"happiness": Infinity}}',
         "task 'expression' class 'happiness': weight inf is not a finite number >= 0"),
        ('{"age": {"adult": 1}, "expression": {"happiness": 0}}',
         "task 'expression' has no positive weight"),
        ('{"expression": {}}', "task 'expression' has no positive weight"),
        ('{"expression": {"happiness": 1%s}}' % ("0" * 399),
         f"task 'expression' class 'happiness': weight {10**399} is not a finite number >= 0"),
    ],
    ids=[
        "list", "task_list", "string", "bool", "negative", "nan", "inf", "zero_mass", "empty",
        "integer_beyond_float64",
    ],
)
def test_load_split_target_names_the_file_task_and_class(tmp_path, target, message):
    path = tmp_path / "target.json"
    path.write_text(target)
    with pytest.raises(ValueError) as excinfo:
        load_split_target(str(path))
    assert str(excinfo.value) == f"{path}: {message}"


def test_load_split_target_returns_the_weights_as_written(tmp_path):
    path = tmp_path / "target.json"
    target = {"deepfake": {"fake": 0, "real": 1}, "expression": {"happiness": 0.25, "sadness": 3}}
    path.write_text(json.dumps(target))
    assert load_split_target(str(path)) == target


def test_split_uniform_two_class():
    rng = np.random.default_rng(4)
    records = split_records(rng, 200, {"a": 0.5, "b": 0.5})
    selected, summary = build_test_split(
        records, {"expression": {"a": 0.5, "b": 0.5}}, per_task=10
    )
    labels = [r.label for r in selected]
    assert labels.count("a") == 5 and labels.count("b") == 5
    assert summary["tasks"]["expression"]["selected"] == 10


def test_split_single_class_quota_infeasible():
    rng = np.random.default_rng(5)
    records = split_records(rng, 50, {"a": 1.0})
    with pytest.raises(ValueError):
        build_test_split(records, {"expression": {"a": 0.5, "b": 0.5}}, per_task=10)


def test_split_skewed_target_takes_top_rated():
    rng = np.random.default_rng(6)
    records = split_records(rng, 2000, {"a": 0.5, "b": 0.5})
    selected, _ = build_test_split(
        records, {"expression": {"a": 0.7, "b": 0.3}}, per_task=100
    )
    labels = [r.label for r in selected]
    assert labels.count("a") == 70 and labels.count("b") == 30
    # oracle: exhaustive best-rating selection per class
    for cls, quota in (("a", 70), ("b", 30)):
        pool = sorted(
            (r for r in records if r.label == cls),
            key=lambda r: (-(r.overall_rating or 0), r.id),
        )
        expected_ids = {r.id for r in pool[:quota]}
        got_ids = {r.id for r in selected if r.label == cls}
        assert got_ids == expected_ids


def test_split_proportions_within_one_sample():
    rng = np.random.default_rng(7)
    weights = {"a": 0.37, "b": 0.23, "c": 0.4}
    records = split_records(rng, 5000, weights)
    selected, _ = build_test_split(records, {"expression": weights}, per_task=501)
    labels = [r.label for r in selected]
    assert len(labels) == 501
    for cls, weight in weights.items():
        assert abs(labels.count(cls) - 501 * weight) <= 1


def test_split_multiple_tasks():
    rng = np.random.default_rng(8)
    records = split_records(rng, 400, {"a": 0.5, "b": 0.5}) + split_records(
        rng, 400, {"x": 1.0}, task="age"
    )
    # fix duplicate ids across the two batches
    records = [
        AnnotationRecord(
            id=f"{r.task}-{r.id}", task=r.task, media_path=r.media_path,
            media_type=r.media_type, label=r.label, description=r.description,
            instruction=r.instruction, ratings=r.ratings,
        )
        for r in records
    ]
    selected, summary = build_test_split(
        records,
        {"expression": {"a": 0.5, "b": 0.5}, "age": {"x": 1.0}},
        per_task=20,
    )
    assert summary["tasks"]["expression"]["selected"] == 20
    assert summary["tasks"]["age"]["selected"] == 20
    assert len(selected) == 40


def test_split_meets_a_class_key_only_with_its_string_or_an_integer_label():
    # an age manifest's labels; null, true and 2.0 meet no class, though
    # their str() is "None", "True" and "2.0"
    labels = [(None, 9), ("None", 8), (37, 7), (True, 6), (2.0, 5)]
    records = [
        make_record(i, task="age", rating=rating, label=label)
        for i, (label, rating) in enumerate(labels)
    ]
    selected, _ = build_test_split(records, {"age": {"None": 1, "37": 1}}, per_task=2)
    assert [r.id for r in selected] == ["r0001", "r0002"]
    for cls in ("True", "2.0"):
        with pytest.raises(ValueError, match=rf"^task 'age' class '{cls}': need 1 records, have 0$"):
            build_test_split(records, {"age": {cls: 1}}, per_task=1)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"instruction": 5}, "'instruction' is 5, not a string"),
        ({"instruction": ["Describe."]}, "'instruction' is [\"Describe.\"], not a string"),
        ({"ratings": [["overall", 9]]}, "'ratings' is [[\"overall\", 9]], not an object"),
        ({"ratings": None}, "'ratings' is null, not an object"),
    ],
    ids=["int_instruction", "list_instruction", "pair_list_ratings", "null_ratings"],
)
def test_load_manifest_rejects_a_non_string_instruction_and_non_object_ratings(
    tmp_path, change, message
):
    good = make_record(0, rating=7).to_json_obj()
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
    records, errors = load_manifest(str(path))
    assert records == [make_record(0, rating=7)]
    assert errors == [(2, message)]


def test_load_manifest_reads_a_null_instruction_as_none(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({**make_record(0, rating=7).to_json_obj(), "instruction": None}) + "\n")
    assert load_manifest(str(path)) == ([make_record(0, rating=7)], [])
