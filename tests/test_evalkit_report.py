import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import facecond.evalkit.report as report_module
import facecond.evalkit.taxonomy as taxonomy_module
from facecond.evalkit import (
    EvalRecord,
    confusion_csv_rows,
    default_negation_cues,
    default_taxonomy,
    extract_prediction,
    load_eval_records,
    score_records,
)
from facecond.jsonio import write_json

FIXTURES = Path(__file__).parent / "fixtures"
TASK_FILES = {
    "expression": "eval_expression.jsonl",
    "au": "eval_au.jsonl",
    "attribute": "eval_attribute.jsonl",
    "age": "eval_age.jsonl",
    "deepfake": "eval_deepfake.jsonl",
}


def load_fixture_lines(task):
    lines = (FIXTURES / TASK_FILES[task]).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def normalize(task, value):
    if task in ("au", "attribute") and value is not None:
        return sorted(value)
    return value


@pytest.fixture(scope="module")
def taxonomies():
    return {task: default_taxonomy(task) for task in ("expression", "attribute", "deepfake")}


@pytest.mark.parametrize("task", sorted(TASK_FILES))
def test_fixture_corpus_parses_to_expected_labels(task, taxonomies):
    docs = load_fixture_lines(task)
    assert len(docs) == 50
    cues = default_negation_cues()
    failures = []
    for doc in docs:
        record = EvalRecord(
            id=doc["id"],
            task=doc["task"],
            generated=doc["generated"],
            ground_truth=tuple(doc["ground_truth"])
            if isinstance(doc["ground_truth"], list)
            else doc["ground_truth"],
            chunk_group=doc.get("chunk_group"),
        )
        got = extract_prediction(record, taxonomies, cues)
        if isinstance(got, set):
            got = sorted(got)
        if got != normalize(task, doc["expected"]):
            failures.append((doc["id"], doc["expected"], got))
    assert not failures, failures


def test_load_eval_records_roundtrip(tmp_path):
    docs = load_fixture_lines("expression")[:5]
    path = tmp_path / "recs.jsonl"
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    records = load_eval_records(str(path))
    assert len(records) == 5
    assert records[0].id == "exp-001"
    assert records[0].task == "expression"


def test_load_eval_records_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "task": "expression", "generated": "x"}\n')
    with pytest.raises(ValueError):
        load_eval_records(str(path))
    good = {"id": "a", "task": "au", "generated": "AU1 is active.", "ground_truth": [1]}
    bad = [
        ({"generated": 5}, r"'generated' is 5, not a string"),
        ({"generated": None}, r"'generated' is null, not a string"),
        ({"ground_truth": [True]}, r"'ground_truth' of task 'au' is \[true\], not a list of integers"),
        ({"ground_truth": [1, False]},
         r"'ground_truth' of task 'au' is \[1, false\], not a list of integers"),
        ({"chunk_group": ["v1"]}, r"'chunk_group' is \[\"v1\"\], not a string"),
        ({"chunk_group": 3}, r"'chunk_group' is 3, not a string"),
    ]
    for change, message in bad:
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **change}) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: bad eval record: " + message):
            load_eval_records(str(path))


def test_load_eval_records_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = b'{"id": "a", "task": "expression", "generated": "x", "ground_truth": "happiness"}\n'
    path.write_bytes(good + good.replace(b'"x"', b'"caf\xe9"'))
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: bad eval record: 'utf-8' codec can't decode"):
        load_eval_records(str(path))


def make_records(task, items):
    out = []
    for i, (text, gt, group) in enumerate(items):
        out.append(
            EvalRecord(
                id=f"{task}-{i:03d}",
                task=task,
                generated=text,
                ground_truth=gt,
                chunk_group=group,
            )
        )
    return out


def test_score_records_expression_end_to_end():
    records = make_records(
        "expression",
        [
            ("She is smiling and pleased.", "happiness", None),
            ("He looks mad.", "anger", None),
            ("A calm face.", "neutral", None),
            ("crying and tearful", "sadness", None),
            ("He seems furious.", "sadness", None),  # wrong prediction
        ],
    )
    report = score_records(records)
    entry = report["tasks"]["expression"]
    assert entry["n"] == 5
    assert entry["metrics"]["war"] == pytest.approx(0.8)
    assert entry["metrics"]["accuracy"] == entry["metrics"]["war"]
    assert 0.0 <= entry["metrics"]["uar"] <= 1.0
    assert entry["parse_failure_rate"] == 0.0
    assert len(entry["confusion"]) == 7  # expression classes


def test_score_records_deepfake_chunk_voting():
    records = make_records(
        "deepfake",
        [
            ("This chunk looks real.", "fake", "vid-1"),
            ("A manipulated face here.", "fake", "vid-1"),
            ("Synthetic textures on the cheeks.", "fake", "vid-1"),
            ("Genuine scene.", "real", None),
        ],
    )
    report = score_records(records)
    entry = report["tasks"]["deepfake"]
    assert entry["n"] == 4
    assert entry["n_groups"] == 2  # one voted group + one singleton
    assert entry["metrics"]["accuracy"] == 1.0


def test_score_records_deepfake_tie_votes_fake():
    records = make_records(
        "deepfake",
        [
            ("This chunk looks real.", "fake", "vid-1"),
            ("A manipulated face here.", "fake", "vid-1"),
        ],
    )
    report = score_records(records)
    assert report["tasks"]["deepfake"]["metrics"]["accuracy"] == 1.0


def test_score_records_numeric_tasks():
    records = make_records(
        "au",
        [
            ("AU1 and AU2 appear.", [1, 2], None),
            ("au12 only.", [12], None),
        ],
    ) + make_records(
        "age",
        [
            ("30 years old.", 30, None),
            ("around fifty", 50, None),  # parse failure -> |gt| penalty
        ],
    )
    report = score_records(records, au_list=(1, 2, 12))
    au_entry = report["tasks"]["au"]
    assert au_entry["metrics"]["average_f1"] == 1.0
    age_entry = report["tasks"]["age"]
    assert age_entry["metrics"]["mae"] == pytest.approx(25.0)
    assert age_entry["parse_failure_rate"] == 0.5


@pytest.mark.parametrize(
    "au_list, message",
    [
        ((), "au_list lists no AUs"),
        ((1, 1, 2), r"AUs \[1\] in au_list are listed more than once"),
        (("1", "2"), r"AU entries \['1', '2'\] in au_list are not AU numbers"),
        ((1, True), r"AU entries \[True\] in au_list are not AU numbers"),
    ],
    ids=["empty", "repeated", "text", "bool"],
)
@pytest.mark.parametrize("task", ["au", "age"])
def test_score_records_rejects_a_bad_au_list(task, au_list, message):
    # the list is checked whether or not the records hold an AU task
    records = make_records(task, [("AU1 appears, 30 years old.", [1] if task == "au" else 30, None)])
    with pytest.raises(ValueError, match=message):
        score_records(records, au_list=au_list)


def test_score_records_writes_a_numpy_au_list_as_json_ints(tmp_path):
    records = make_records("au", [("AU1 and AU2 appear.", [1, 2], None)])
    report = score_records(records, au_list=np.array([1, 2]))
    path = tmp_path / "report.json"
    write_json(str(path), report)
    au_list = json.loads(path.read_text(encoding="utf-8"))["tasks"]["au"]["au_list"]
    assert au_list == [1, 2]
    assert [type(au) for au in report["tasks"]["au"]["au_list"]] == [int, int]


@pytest.mark.parametrize("au_list", [(0, 1), (-3, 1)], ids=["zero", "negative"])
def test_score_records_rejects_an_au_below_1(au_list):
    records = make_records("au", [("AU1 appears.", [1], None)])
    with pytest.raises(ValueError, match=r"in au_list are below 1, where AU numbers start"):
        score_records(records, au_list=au_list)


def test_score_records_attribute_task():
    records = make_records(
        "attribute",
        [
            ("She has blond hair.", ["Blond_Hair"], None),
            ("A goatee and eyeglasses.", ["Goatee"], None),  # extra pred: Eyeglasses
        ],
    )
    report = score_records(records)
    entry = report["tasks"]["attribute"]
    acc = entry["metrics"]["mean_attribute_accuracy"]
    # one wrong cell (Eyeglasses on sample 2) out of 2 * 40
    assert acc == pytest.approx(1.0 - 1.0 / 80.0)


def test_score_records_threads_match_serial():
    docs = load_fixture_lines("expression")
    records = [
        EvalRecord(
            id=d["id"], task=d["task"], generated=d["generated"],
            ground_truth=d["ground_truth"],
        )
        for d in docs
    ]
    serial = score_records(records, threads=1)
    parallel = score_records(records, threads=4)
    assert serial == parallel


def test_phrases_compile_only_where_they_occur(monkeypatch):
    compiled = []
    original = taxonomy_module._phrase_pattern

    def counting(phrase):
        compiled.append(phrase)
        return original(phrase)

    monkeypatch.setattr(taxonomy_module, "_phrase_pattern", counting)
    taxonomies = {task: default_taxonomy(task) for task in ("expression", "attribute", "deepfake")}
    assert compiled == []
    records = [
        EvalRecord("e1", "expression", "The person looks cheerful. Not sad.", "happiness"),
        EvalRecord("e2", "expression", "A calm face with cheerful eyes!", "neutral"),
        EvalRecord("a1", "attribute", "He has short stubble and arched eyebrows.", ["5_o_Clock_Shadow"]),
        EvalRecord("d1", "deepfake", "This clip looks real.", "real"),
        EvalRecord("u1", "au", "AU4 and AU12 are present.", [4, 12]),
        EvalRecord("g1", "age", "About 30 years old.", 30),
    ]
    score_records(records, taxonomies=taxonomies)
    texts = [r.generated.lower() for r in records]
    assert {"cheerful", "stubble", "short stubble", "real"} <= set(compiled)
    assert "sad" not in compiled  # it occurs only in a dropped sentence
    assert all(any(p in t for t in texts) for p in compiled), compiled
    first = len(compiled)
    score_records(records, taxonomies=taxonomies)
    assert len(compiled) == first  # memoised on each taxonomy


@pytest.mark.parametrize(
    "given", [("expression", "attribute", "deepfake"), ("expression",), ()],
    ids=["all", "expression", "none"],
)
def test_score_records_parses_only_the_bundled_taxonomies_not_given(monkeypatch, given):
    loaded = []
    original = report_module.default_taxonomy

    def counting(task):
        loaded.append(task)
        return original(task)

    overrides = {task: original(task) for task in given}
    monkeypatch.setattr(report_module, "default_taxonomy", counting)
    records = [EvalRecord("e1", "expression", "The person looks cheerful.", "happiness")]
    report = score_records(records, taxonomies=overrides)
    assert report["tasks"]["expression"]["metrics"]["accuracy"] == 1.0
    assert sorted(loaded) == sorted({"expression", "attribute", "deepfake"} - set(given))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EvalRecord)])
def test_eval_record_fields_cannot_be_assigned(name):
    record = EvalRecord("e1", "expression", "A calm face.", "neutral")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, "x")


def test_confusion_csv_layout():
    records = make_records(
        "deepfake",
        [("real footage", "real", None), ("mumble", "fake", None)],
    )
    report = score_records(records)
    rows = confusion_csv_rows(report["tasks"]["deepfake"])
    assert rows[0] == ["gt\\pred", "real", "fake", "nomatch"]
    assert rows[1:] == [["real", 1, 0, 0], ["fake", 0, 0, 1]]


def test_score_records_rejects_empty():
    with pytest.raises(ValueError):
        score_records([])


@pytest.mark.parametrize(
    "task, gt, group",
    [("expression", "Happiness", None), ("deepfake", "genuine", None), ("deepfake", "genuine", "v1")],
    ids=["expression", "deepfake", "deepfake_chunked"],
)
def test_score_records_names_the_record_and_label_outside_the_classes(task, gt, group):
    known = "happiness" if task == "expression" else "real"
    records = make_records(task, [("A face.", known, None), ("A face.", gt, group),
                                  ("Another face.", gt, group)])
    with pytest.raises(ValueError) as excinfo:
        score_records(records)
    assert str(excinfo.value) == f"record '{task}-001': unknown {task} class {gt!r}"
