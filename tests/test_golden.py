"""Toy training, ``facecond enrich``, the manifest pipeline and
``save_landmarks`` must reproduce the committed golden bit for bit.

The golden pins loss traces, trained parameters, checkpoint bytes, enrich
output bytes, the bytes of every file filter, pair and split write, one
landmark file's bytes, the bytes ``facecond mask`` writes for a 3-frame
clip, the report and confusion CSV bytes ``facecond eval`` writes for
each eval fixture, the ``facecond gradcheck`` report bytes for three
seeds and the ``--help`` text of every command; it is
regenerated only by tests/make_golden.py, when an output is meant to
change.
"""

import json

import pytest

from make_golden import (
    CASES,
    EVAL_TASKS,
    GOLDEN_PATH,
    GRADCHECK_SEEDS,
    HELP_COMMANDS,
    LANDMARKS_KEY,
    MASK_KEY,
    PIPELINE_STEPS,
    STAGES,
    enrich_key,
    eval_key,
    gradcheck_key,
    help_key,
    pipeline_key,
    run_case,
    run_enrich_case,
    run_eval_case,
    run_gradcheck_case,
    run_help_case,
    run_landmarks_case,
    run_mask_case,
    run_pipeline_case,
    train_key,
)

TRAIN_CASES = [
    pytest.param(variant, mode, stage, id=train_key(variant, mode, stage).replace("/", "-"))
    for variant, mode in CASES
    for stage in STAGES
]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("variant, token_mode, stage", TRAIN_CASES)
def test_training_matches_golden(golden, variant, token_mode, stage):
    expected = golden[train_key(variant, token_mode, stage)]
    got = run_case(variant, token_mode, stage)
    assert got["trace"] == expected["trace"]
    assert got["params_sha256"] == expected["params_sha256"]
    assert got["checkpoint_sha256"] == expected["checkpoint_sha256"]


@pytest.mark.parametrize("variant, token_mode", CASES)
def test_enrich_matches_golden(golden, variant, token_mode):
    assert run_enrich_case(variant, token_mode) == golden[enrich_key(variant, token_mode)]


@pytest.fixture(scope="module")
def pipeline_outputs():
    return run_pipeline_case()


@pytest.mark.parametrize("step", PIPELINE_STEPS)
def test_pipeline_matches_golden(golden, pipeline_outputs, step):
    assert pipeline_outputs[pipeline_key(step)] == golden[pipeline_key(step)]


def test_save_landmarks_matches_golden(golden):
    assert run_landmarks_case() == golden[LANDMARKS_KEY]


def test_mask_matches_golden(golden):
    assert run_mask_case() == golden[MASK_KEY]


@pytest.mark.parametrize("task", EVAL_TASKS)
def test_eval_matches_golden(golden, task):
    assert run_eval_case(task) == golden[eval_key(task)]


@pytest.mark.parametrize("seed", GRADCHECK_SEEDS)
def test_gradcheck_matches_golden(golden, seed):
    assert run_gradcheck_case(seed) == golden[gradcheck_key(seed)]


@pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda command: command or "facecond")
def test_help_matches_golden(golden, command):
    assert run_help_case(command) == golden[help_key(command)]
