import json

import numpy as np
import pytest

from facecond.evalkit import (
    default_negation_cues,
    default_taxonomy,
    load_taxonomy,
    match_synonyms,
    match_synonyms_all,
    parse_age,
    parse_aus,
    split_sentences,
    strip_negatives,
    taxonomy_from_mapping,
    vote_chunks,
)


# ---------------------------------------------------------------------------
# sentence handling / negation stripping


def test_split_sentences_reconstructs_text():
    text = "First one. Second!? Third without end"
    assert "".join(split_sentences(text)) == text
    assert split_sentences("a. b.") == ["a.", " b."]


def test_strip_negatives_single_negation():
    assert strip_negatives("He smiles. He is not sad.") == "He smiles."


def test_strip_negatives_identity_without_cues():
    text = "She looks happy. Her eyes sparkle!"
    assert strip_negatives(text) == text


def test_strip_negatives_cue_variants():
    assert strip_negatives("There is no smile here.") == ""
    assert strip_negatives("He doesn't frown. He grins.") == " He grins."
    assert strip_negatives("Never angry. Always calm.") == " Always calm."
    assert strip_negatives("A face without wrinkles. Smooth skin.") == " Smooth skin."
    assert strip_negatives("The absence of fear. Pure joy.") == " Pure joy."
    assert strip_negatives("She lacks energy. She seems tired.") == " She seems tired."


def test_strip_negatives_case_insensitive():
    assert strip_negatives("NOT happy at all.") == ""


def test_strip_negatives_idempotent_on_corpus():
    rng = np.random.default_rng(0)
    positive = ["He smiles", "Her brow rises", "The jaw drops", "Lips curl up"]
    negative = ["He is not sad", "There is no frown", "She never blinks"]
    for _ in range(100):
        n = rng.integers(1, 6)
        parts = [
            (positive if rng.random() < 0.6 else negative)[rng.integers(0, 3)]
            for _ in range(n)
        ]
        text = ". ".join(parts) + "."
        once = strip_negatives(text)
        assert strip_negatives(once) == once
        assert len(once) <= len(text)


# ---------------------------------------------------------------------------
# synonym matching


def test_cheerful_and_content_maps_to_happiness():
    tax = default_taxonomy("expression")
    text = strip_negatives("The person appears cheerful and content.")
    assert match_synonyms(text, tax) == "happiness"


def test_empty_text_is_nomatch():
    tax = default_taxonomy("expression")
    assert match_synonyms("", tax) is None
    assert match_synonyms("   ", tax) is None


def test_first_sentence_precedence():
    tax = default_taxonomy("expression")
    text = "He looks mad. She is smiling and pleased, truly joyful."
    assert match_synonyms(text, tax) == "anger"


def test_whole_text_fallback_when_first_sentence_silent():
    tax = default_taxonomy("expression")
    text = "The video shows a person. They seem scared and terrified."
    assert match_synonyms(text, tax) == "fear"


def test_majority_within_first_sentence():
    tax = default_taxonomy("expression")
    text = "He is smiling, pleased, and joyful, though slightly worried."
    assert match_synonyms(text, tax) == "happiness"


def test_tie_breaks_by_taxonomy_order():
    mapping = {"a": ["alpha"], "b": ["beta"]}
    tax = taxonomy_from_mapping("expression", mapping)
    assert match_synonyms("alpha beta", tax) == "a"
    reversed_tax = taxonomy_from_mapping("expression", {"b": ["beta"], "a": ["alpha"]})
    assert match_synonyms("alpha beta", reversed_tax) == "b"


def test_matching_is_case_insensitive():
    tax = default_taxonomy("expression")
    assert match_synonyms("HE LOOKS MAD.", tax) == "anger"
    assert match_synonyms("He Looks Mad.", tax) == "anger"


def test_word_boundary_matching():
    tax = default_taxonomy("deepfake")
    # "real" must not fire inside "unrealistic"
    assert match_synonyms("the lighting is unrealistic and manipulated.", tax) == "fake"
    assert match_synonyms("this video is real.", tax) == "real"


def test_match_synonyms_all_collects_classes():
    tax = default_taxonomy("attribute")
    text = strip_negatives(
        "She has blond hair and rosy cheeks. She is wearing earrings."
    )
    assert match_synonyms_all(text, tax) == {
        "Blond_Hair",
        "Rosy_Cheeks",
        "Wearing_Earrings",
    }
    assert match_synonyms_all("nothing relevant here", tax) == set()


def test_taxonomy_validation():
    with pytest.raises(ValueError):
        taxonomy_from_mapping("expression", {"a": ["x"], "b": ["x"]})
    with pytest.raises(ValueError):
        taxonomy_from_mapping("expression", {"a": []})
    with pytest.raises(ValueError):
        taxonomy_from_mapping("expression", {"a": ["UPPER"]})


def test_load_taxonomy_names_file_and_class_of_a_bad_entry(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps({"sadness": ["sad"], "happiness": "joyful"}))
    with pytest.raises(ValueError, match=r"tax\.json: class 'happiness' must map to a list"):
        load_taxonomy(str(path), "expression")
    path.write_text(json.dumps({"sadness": ["sad"], "happiness": ["Joyful"]}))
    with pytest.raises(ValueError, match=r"tax\.json: phrase 'Joyful' is not lowercase"):
        load_taxonomy(str(path), "expression")


def test_default_taxonomies_have_ten_phrases_per_class():
    for task in ("expression", "attribute", "deepfake"):
        tax = default_taxonomy(task)
        for cls in tax.classes:
            assert len(tax.synonyms[cls]) >= 10, (task, cls)
    assert len(default_taxonomy("attribute").classes) == 40
    assert len(default_taxonomy("expression").classes) == 7
    assert default_taxonomy("deepfake").classes == ("real", "fake")


def test_taxonomy_phrases_survive_negation_stripping():
    # a phrase containing a negation cue could never match
    cues = default_negation_cues()
    for task in ("expression", "attribute", "deepfake"):
        tax = default_taxonomy(task)
        for phrases in tax.synonyms.values():
            for phrase in phrases:
                assert not any(cue in phrase for cue in cues), phrase


# ---------------------------------------------------------------------------
# numeric parsing


def test_parse_aus_with_negation_removal():
    assert parse_aus("AU1, AU2, and AU12 are activated. AU4 is not present.") == {1, 2, 12}


def test_parse_aus_fully_negated():
    assert parse_aus("no action units") == set()


def test_parse_aus_case_and_spacing():
    assert parse_aus("au6 and AU 12") == {6, 12}


def test_parse_aus_order_invariant_and_deduplicated():
    a = parse_aus("AU4 then AU1 then AU4 again.")
    b = parse_aus("AU1 then AU4.")
    assert a == b == {1, 4}


def test_parse_age_leading_integer():
    assert parse_age("25 years old. The skin shows fine lines.") == 25


def test_parse_age_no_digits():
    assert parse_age("around thirty") is None


def test_parse_age_negation_removed_first():
    assert parse_age("He is 42. Not 60.") == 42


# ---------------------------------------------------------------------------
# chunk voting


def test_vote_majority():
    tax = default_taxonomy("deepfake")
    assert vote_chunks(["real", "fake", "fake"], tax) == "fake"


def test_vote_single_chunk():
    tax = default_taxonomy("deepfake")
    assert vote_chunks(["real"], tax) == "real"


def test_vote_deepfake_tie_goes_to_fake():
    tax = default_taxonomy("deepfake")
    assert vote_chunks(["real", "fake"], tax) == "fake"


def test_vote_other_task_tie_uses_taxonomy_order():
    tax = default_taxonomy("expression")
    assert vote_chunks(["anger", "happiness"], tax) == "happiness"


def test_vote_rejects_empty_group():
    tax = default_taxonomy("deepfake")
    with pytest.raises(ValueError):
        vote_chunks([], tax)


def test_vote_ignores_failed_parses():
    tax = default_taxonomy("deepfake")
    assert vote_chunks([None, "real", None], tax) == "real"
    assert vote_chunks([None, None], tax) is None
