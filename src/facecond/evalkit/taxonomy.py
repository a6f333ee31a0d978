"""Synonym taxonomies for free-text label extraction.

A taxonomy maps each class of a task to its lowercase synonym phrases.
Phrases must be non-empty, have no leading or trailing whitespace (a
word-bounded match would then need a non-word character before or after
the space), and be mutually exclusive across classes. Phrase
occurrence is matched case-insensitively with word boundaries on both
ends, so "real" does not fire inside "unrealistic". Counting is per
phrase and exact: "stubble" inside "short stubble" counts for both.
A text is scanned only for the phrases whose first word (the run of word
characters a phrase starts with) is a word of the text, and for those
that start with a non-word character.

Negation cues are matched as substrings of the lowercased text, so each
cue must be lowercase and not empty; surrounding spaces are kept, as in
the bundled "no ". The bundled files load through the same loaders as a
user's override.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field

from ..jsonio import OBJECT, STRINGS, read_json, typed

_RESOURCE_FILES = {
    "expression": "taxonomy_expression.json",
    "attribute": "taxonomy_attribute.json",
    "deepfake": "taxonomy_deepfake.json",
}
# the tasks scored by synonym matching, each with a bundled taxonomy
TAXONOMY_TASKS = tuple(_RESOURCE_FILES)


_WORD = re.compile(r"\w+")


def _phrase_pattern(phrase: str) -> re.Pattern:
    return re.compile(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)")


@dataclass
class Taxonomy:
    task: str
    synonyms: dict[str, tuple[str, ...]]
    # phrase -> word-bounded pattern, compiled on the phrase's first hit
    _patterns: dict[str, re.Pattern] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # first word -> its (phrase, class) pairs; "" holds the phrases that
    # start with a non-word character, looked up for every text
    _by_word: dict[str, list[tuple[str, str]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.synonyms:
            raise ValueError("taxonomy has no classes")
        seen: dict[str, str] = {}
        for cls, phrases in self.synonyms.items():
            if not phrases:
                raise ValueError(f"class {cls!r} has no synonym phrases")
            for phrase in phrases:
                if not phrase.strip():
                    raise ValueError(f"class {cls!r} has an empty phrase {phrase!r}")
                if phrase != phrase.strip():
                    raise ValueError(
                        f"class {cls!r} has a phrase {phrase!r} with leading or trailing whitespace"
                    )
                if phrase != phrase.lower():
                    raise ValueError(f"phrase {phrase!r} is not lowercase")
                if phrase in seen:
                    raise ValueError(
                        f"phrase {phrase!r} appears under both {seen[phrase]!r} and {cls!r}"
                    )
                seen[phrase] = cls
        self._by_word = {}
        for phrase, cls in seen.items():
            word = _WORD.match(phrase)
            self._by_word.setdefault(word.group() if word else "", []).append((phrase, cls))

    @property
    def classes(self) -> tuple[str, ...]:
        """The class names, in synonym-table order."""
        return tuple(self.synonyms)

    def _pattern(self, phrase: str) -> re.Pattern:
        # two threads racing here at worst compile the same pattern twice
        if phrase not in self._patterns:
            self._patterns[phrase] = _phrase_pattern(phrase)
        return self._patterns[phrase]

    def count_matches(self, text_lower: str) -> dict[str, int]:
        """Total phrase occurrences per class in already-lowercased text.

        A word-bounded match starts a whole word of the text, the phrase's
        first, so only the phrases indexed under a word of the text (or
        under "") are scanned, each by regex only where it is a substring."""
        counts = dict.fromkeys(self.synonyms, 0)
        for word in {"", *_WORD.findall(text_lower)}:
            for phrase, cls in self._by_word.get(word, ()):
                if phrase in text_lower:
                    counts[cls] += len(self._pattern(phrase).findall(text_lower))
        return counts


def taxonomy_from_mapping(task: str, mapping: dict[str, list[str]]) -> Taxonomy:
    return Taxonomy(
        task=task,
        synonyms={
            cls: tuple(typed(phrases, STRINGS, f"class {cls!r}"))
            for cls, phrases in mapping.items()
        },
    )


def load_taxonomy(path: str, task: str) -> Taxonomy:
    """Read a {class: [phrases]} JSON file; class order follows the file.
    Errors name the file, and the class when one class is bad."""
    return read_json(path, lambda doc: taxonomy_from_mapping(task, typed(doc, OBJECT, "document")))


def load_negation_cues(path: str) -> tuple[str, ...]:
    """Read a JSON list of negation cues. Errors name the file, and the cue
    when one cue is bad."""
    return read_json(path, _negation_cues)


def _negation_cues(doc) -> tuple[str, ...]:
    for cue in typed(doc, STRINGS, "document"):
        if not cue.strip():
            raise ValueError(f"negation cue {cue!r} is empty")
        if cue != cue.lower():
            raise ValueError(f"negation cue {cue!r} is not lowercase")
    return tuple(doc)


def _resource(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "resources", name)


def default_taxonomy(task: str) -> Taxonomy:
    """The bundled taxonomy for expression, attribute, or deepfake."""
    if task not in _RESOURCE_FILES:
        raise KeyError(f"no bundled taxonomy for task {task!r}")
    return load_taxonomy(_resource(_RESOURCE_FILES[task]), task)


@functools.cache
def default_negation_cues() -> tuple[str, ...]:
    """The bundled negation cues, read once per process."""
    return load_negation_cues(_resource("negation_cues.json"))
