"""Toy training and ``facecond enrich`` must reproduce the committed golden
bit for bit.

The golden pins loss traces, trained parameters, checkpoint bytes and
enrich output bytes; it is regenerated only by tests/make_golden.py, when
an output is meant to change.
"""

import json

import pytest

from make_golden import (
    ENRICH_CASES,
    GOLDEN_PATH,
    STAGES,
    VARIANTS,
    enrich_key,
    run_case,
    run_enrich_case,
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_training_matches_golden(golden, variant, stage):
    expected = golden[f"{variant}/{stage}"]
    got = run_case(variant, stage)
    assert got["trace"] == expected["trace"]
    assert got["params_sha256"] == expected["params_sha256"]
    assert got["checkpoint_sha256"] == expected["checkpoint_sha256"]


@pytest.mark.parametrize("variant, token_mode", ENRICH_CASES)
def test_enrich_matches_golden(golden, variant, token_mode):
    assert run_enrich_case(variant, token_mode) == golden[enrich_key(variant, token_mode)]
