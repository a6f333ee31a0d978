import json
import random

import numpy as np
import pytest

from facecond.evalkit import (
    Taxonomy,
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
import facecond.evalkit.taxonomy as taxonomy_module
from facecond.evalkit.taxonomy import _phrase_pattern


# ---------------------------------------------------------------------------
# sentence handling / negation stripping


def test_split_sentences_reconstructs_text():
    text = "First one. Second!? Third without end"
    assert "".join(split_sentences(text)) == text
    assert split_sentences("a. b.") == ["a.", " b."]


def _split_by_char(text):
    """Reference splitter: one character at a time, cutting after each
    terminator."""
    segments, current = [], []
    for ch in text:
        current.append(ch)
        if ch in ".!?":
            segments.append("".join(current))
            current = []
    if current:
        segments.append("".join(current))
    return segments


def test_split_sentences_matches_character_loop():
    rng = random.Random(0)
    texts = ["", ".", "...", "?!.", "!\n?", "a", "a.b", "a..b", "é!\n"]
    texts += ["".join(rng.choice("ab é.!?\n") for _ in range(rng.randint(0, 24))) for _ in range(2000)]
    for text in texts:
        assert split_sentences(text) == _split_by_char(text), repr(text)


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


def _strip_reference(text, cues):
    """Per-sentence reference: drop each sentence whose own lowercased text
    holds a cue."""
    return "".join(s for s in split_sentences(text) if not any(c in s.lower() for c in cues))


# ASCII and non-ASCII words, cue words in several cases, and separators;
# "Σ" lowercases to "ς" or "σ" depending on its neighbours, and "İ" to two
# characters
_STRIP_WORDS = ("He", "smiles", "not", "NOT", "No", "never", "LACKS", "sad", "a", "Σ", "σ", "ς",
                "Ση", "É", "é", "İ", "straße", "STRASSE", "7")
_STRIP_SEPARATORS = ("", " ", ". ", ".", "!", "? ", "\n", ", ", "-")
_STRIP_CUES = (*default_negation_cues(), "σ", "ς", "é", "i\u0307", "ss", "s.", ". n")


def _strip_texts(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(0, 8)):
            parts += [rng.choice(_STRIP_WORDS), rng.choice(_STRIP_SEPARATORS)]
        yield "".join(parts)


def test_strip_negatives_equals_per_sentence_reference():
    rng = random.Random(5)
    for text in _strip_texts(seed=19, n=3000):
        cues = rng.sample(_STRIP_CUES, rng.randint(0, 4))
        assert strip_negatives(text, cues) == _strip_reference(text, cues), (text, cues)
        assert strip_negatives(text) == _strip_reference(text, default_negation_cues()), text


def test_strip_negatives_lowers_each_sentence_on_its_own():
    # "A.Σ is here".lower() ends the sigma as "ς"; the sentence "Σ is here"
    # alone lowers it to "σ"
    assert "σ" not in "A.Σ is here".lower()
    assert strip_negatives("A.Σ is here", ["σ"]) == "A."


def test_the_bundled_cues_are_read_once(monkeypatch):
    loads = []
    load = taxonomy_module.load_negation_cues
    monkeypatch.setattr(taxonomy_module, "load_negation_cues", lambda path: loads.append(path) or load(path))
    for _ in range(3):
        assert strip_negatives("He smiles. He is not sad.") == "He smiles."
        assert parse_aus("AU4 is present.") == {4}
        assert parse_age("About 30.") == 30
    assert len(loads) <= 1


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


def test_taxonomy_takes_only_the_synonym_table():
    tax = Taxonomy("expression", {"b": ("beta",), "a": ("alpha", "alef")})
    assert tax.classes == ("b", "a")
    assert tax.count_matches("alpha beta alef") == {"b": 1, "a": 2}


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
    for blank in ("", " ", "\n\t"):
        with pytest.raises(ValueError, match=r"class 'sad' has an empty phrase"):
            taxonomy_from_mapping("expression", {"happy": ["happy"], "sad": ["sad", blank]})


@pytest.mark.parametrize("phrase", [" sad", "sad ", "sad\n", "\tsad"])
def test_taxonomy_rejects_phrases_with_edge_whitespace(phrase):
    # " sad" would match "so,  sad" but not "she is sad"
    with pytest.raises(ValueError) as excinfo:
        taxonomy_from_mapping("expression", {"happy": ["happy"], "sad": [phrase]})
    assert str(excinfo.value) == (
        f"class 'sad' has a phrase {phrase!r} with leading or trailing whitespace"
    )


def test_load_taxonomy_names_file_and_class_of_a_bad_entry(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps({"sadness": ["sad"], "happiness": "joyful"}))
    with pytest.raises(ValueError, match=r"tax\.json: class 'happiness' is \"joyful\", not a list of strings"):
        load_taxonomy(str(path), "expression")
    path.write_text(json.dumps({"sadness": ["sad"], "happiness": ["Joyful"]}))
    with pytest.raises(ValueError, match=r"tax\.json: phrase 'Joyful' is not lowercase"):
        load_taxonomy(str(path), "expression")
    path.write_text(json.dumps({"sadness": ["sad"], "happiness": ["joyful", " "]}))
    with pytest.raises(ValueError, match=r"tax\.json: class 'happiness' has an empty phrase ' '"):
        load_taxonomy(str(path), "expression")
    path.write_text("{}")
    with pytest.raises(ValueError, match=r"tax\.json: taxonomy has no classes$"):
        load_taxonomy(str(path), "expression")


def _oracle(tax):
    """Per-class counts the slow way: one word-bounded findall per phrase."""
    patterns = {cls: [_phrase_pattern(p) for p in tax.synonyms[cls]] for cls in tax.classes}
    return lambda text: {cls: sum(len(p.findall(text)) for p in pats) for cls, pats in patterns.items()}


# neighbours of a phrase: word characters (letter, "_", digit, "é") that
# block a word-bounded match, and separators that allow one
_JOINERS = ("", " ", "  ", "_", "7", "é", "x", ",", ", ", ".", "!", "?", "-", "\n", " and ", "'")


def _phrase_texts(phrases, seed, n):
    """Seeded texts made of the taxonomy's own phrases: runs of the same
    phrase back to back, nested phrases side by side, phrases at the very
    start or end, each glued to a random neighbour."""
    rng = random.Random(seed)
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(1, 6)):
            phrase = rng.choice(phrases)
            parts += [rng.choice(_JOINERS), phrase] * rng.choice((1, 1, 2, 3))
        if rng.random() < 0.5:
            parts.append(rng.choice(_JOINERS))
        yield "".join(parts)


@pytest.mark.parametrize("task", ["expression", "attribute", "deepfake"])
def test_count_matches_equals_per_phrase_findall(task):
    tax = default_taxonomy(task)
    oracle = _oracle(tax)
    phrases = [p for cls in tax.classes for p in tax.synonyms[cls]]
    # each phrase at the start and end, repeated with and without a space,
    # and next to "_", a digit, "é", punctuation and a newline
    fixed = [""] + [f"{p} {p}{p} _{p} {p}_ 1{p} {p}9 é{p} {p}é\n{p}.,{p}!{p}" for p in phrases]
    for text in [*fixed, *_phrase_texts(phrases, seed=7, n=400)]:
        assert tax.count_matches(text) == oracle(text), repr(text)


def test_count_matches_equals_per_phrase_findall_for_non_word_edges():
    # a phrase that starts with a non-word character, one with an inner
    # one, and first words with a non-ASCII letter, a digit and "_"
    tax = Taxonomy(task="custom", synonyms={
        "dash": ("-x",), "ray": ("x-ray", "ray", "x"), "accent": ("é2", "é2 b"), "under": ("_a", "a"),
    })
    oracle = _oracle(tax)
    phrases = [p for cls in tax.classes for p in tax.synonyms[cls]]
    fixed = ["", "-x", "a-x", " -x-ray", "x-ray-x", "é2 é2é é2 b", "_a a_a _a_a", "-x\n-x,-x"]
    for text in [*fixed, *_phrase_texts(phrases, seed=11, n=2000)]:
        assert tax.count_matches(text) == oracle(text), repr(text)
    # "-x", then "x-ray", "x" and "ray"
    assert tax.count_matches(" -x-ray") == {"dash": 1, "ray": 3, "accent": 0, "under": 0}


def test_nested_phrases_each_count():
    tax = default_taxonomy("attribute")
    (cls,) = [c for c in tax.classes if "short stubble" in tax.synonyms[c]]
    assert "stubble" in tax.synonyms[cls]
    assert tax.count_matches("short stubble")[cls] == 2
    assert tax.count_matches("stubble, short stubble.\nstubble")[cls] == 4
    assert tax.count_matches("stubble_ 2stubble stubbleé")[cls] == 0


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
    # a code beyond Python's int-string limit is skipped, not an error
    assert parse_aus("AU" + "1" * 4301 + " and AU 4") == {4}


def test_parse_aus_order_invariant_and_deduplicated():
    a = parse_aus("AU4 then AU1 then AU4 again.")
    b = parse_aus("AU1 then AU4.")
    assert a == b == {1, 4}


def test_parse_age_leading_integer():
    assert parse_age("25 years old. The skin shows fine lines.") == 25


def test_parse_age_no_digits():
    assert parse_age("around thirty") is None
    # a run beyond Python's int-string limit is no age, not an error
    assert parse_age("about " + "9" * 4301 + " years") is None


def test_a_digit_run_beyond_float64_range_is_a_failed_parse():
    # as for a run beyond the int-string limit: no age, and no AU code
    huge = "1" + "0" * 400
    assert parse_age(f"About {huge} years old.") is None
    assert parse_aus(f"AU{huge} and AU 4") == {4}
    assert parse_age("About 1" + "0" * 308 + " years old.") == 10**308


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
