"""Free-text to label conversion.

Sentences split on '.', '!', '?'. Sentences containing a negation cue
are dropped before any matching, so "AU4 is not present" never yields
AU4. Synonym lookup checks the first sentence first (generated
descriptions lead with their conclusion); whole-text majority voting is
the fallback. Numeric tasks parse AU codes and leading ages directly.

A failed parse is returned as None and scored as wrong downstream.
"""

from __future__ import annotations

import re
from typing import Sequence

from .taxonomy import Taxonomy, default_negation_cues

_SEGMENT_PATTERN = re.compile(r"[^.!?]*[.!?]|[^.!?]+")
_AU_PATTERN = re.compile(r"au ?(\d+)", re.IGNORECASE)
_INT_PATTERN = re.compile(r"\d+")


def split_sentences(text: str) -> list[str]:
    """Segments including their terminator; concatenation restores text."""
    return _SEGMENT_PATTERN.findall(text)


def strip_negatives(text: str, cues: Sequence[str] | None = None) -> str:
    """Remove every sentence containing a negation cue (substring,
    case-insensitive); remaining sentences keep their original order and
    spacing. An ASCII text lowers character by character, so only the cues
    in the whole lowered text are tested per sentence, and a text with none
    comes back as is; other texts test every cue ("Σ" may lower to "ς")."""
    if cues is None:
        cues = default_negation_cues()
    if text.isascii():
        lower = text.lower()
        cues = [cue for cue in cues if cue in lower]
        if not cues:
            return text
    return "".join(s for s in split_sentences(text) if not any(cue in s.lower() for cue in cues))


def _first_sentence(text: str) -> str | None:
    for segment in split_sentences(text):
        if segment.strip():
            return segment
    return None


def _vote(counts: dict[str, int], class_order: Sequence[str]) -> str | None:
    best = max(counts.values(), default=0)
    if best == 0:
        return None
    # ties resolve to the earliest class in taxonomy order
    for cls in class_order:
        if counts[cls] == best:
            return cls
    return None


def match_synonyms(text: str, taxonomy: Taxonomy) -> str | None:
    """Single-label extraction with first-sentence precedence.

    Expects negation-stripped text. Returns None when no phrase of any
    class occurs.
    """
    lower = text.lower()
    first = _first_sentence(lower)
    if first is not None:
        first_counts = taxonomy.count_matches(first)
        if max(first_counts.values(), default=0) > 0:
            return _vote(first_counts, taxonomy.classes)
    return _vote(taxonomy.count_matches(lower), taxonomy.classes)


def match_synonyms_all(text: str, taxonomy: Taxonomy) -> set[str]:
    """Every class with at least one phrase occurrence (multi-label tasks)."""
    counts = taxonomy.count_matches(text.lower())
    return {cls for cls, n in counts.items() if n > 0}


def _int(digits: str) -> int | None:
    """A digit run as an int; None when it is longer than Python's
    int-string limit or beyond float64 range, where the metrics could not
    score it, which this module treats as a failed parse."""
    try:
        value = int(digits)
        float(value)
    except (ValueError, OverflowError):
        return None
    return value


def parse_aus(text: str, cues: Sequence[str] | None = None) -> set[int]:
    """Action-unit codes: "AU" followed by digits, optional space,
    case-insensitive, after negation stripping. A code too long to read
    as an int, or beyond float64 range, is skipped."""
    stripped = strip_negatives(text, cues)
    codes = (_int(m.group(1)) for m in _AU_PATTERN.finditer(stripped))
    return {code for code in codes if code is not None}


def parse_age(text: str, cues: Sequence[str] | None = None) -> int | None:
    """First integer token after negation stripping; None when absent,
    too long to read as an int or beyond float64 range."""
    stripped = strip_negatives(text, cues)
    match = _INT_PATTERN.search(stripped)
    return _int(match.group(0)) if match else None


def vote_chunks(
    predictions: Sequence[str | None], taxonomy: Taxonomy
) -> str | None:
    """Majority vote over one group's chunk predictions.

    Ties resolve to taxonomy class order, as in `match_synonyms`, except
    that a tied deepfake vote goes to "fake" (conservative). Failed parses
    abstain; an all-None group stays None.
    """
    if len(predictions) == 0:
        raise ValueError("empty chunk group")
    counts = dict.fromkeys(taxonomy.classes, 0)
    for pred in predictions:
        if pred is not None:
            if pred not in counts:
                raise ValueError(f"prediction {pred!r} not in taxonomy classes")
            counts[pred] += 1
    if taxonomy.task == "deepfake" and counts.get("fake", 0) == max(counts.values(), default=0) > 0:
        return "fake"
    return _vote(counts, taxonomy.classes)
