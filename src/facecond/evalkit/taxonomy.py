"""Synonym taxonomies for free-text label extraction.

A taxonomy maps each class of a task to its lowercase synonym phrases.
Phrases must be mutually exclusive across classes. Phrase occurrence is
matched case-insensitively with word boundaries on both ends, so "real"
does not fire inside "unrealistic".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources

_RESOURCE_FILES = {
    "expression": "taxonomy_expression.json",
    "attribute": "taxonomy_attribute.json",
    "deepfake": "taxonomy_deepfake.json",
}


def _phrase_pattern(phrase: str) -> re.Pattern:
    return re.compile(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)")


@dataclass
class Taxonomy:
    task: str
    classes: tuple[str, ...]
    synonyms: dict[str, tuple[str, ...]]
    _patterns: dict[str, list[re.Pattern]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class names")
        if set(self.classes) != set(self.synonyms):
            raise ValueError("classes and synonym table disagree")
        seen: dict[str, str] = {}
        for cls in self.classes:
            phrases = self.synonyms[cls]
            if not phrases:
                raise ValueError(f"class {cls!r} has no synonym phrases")
            for phrase in phrases:
                if phrase != phrase.lower():
                    raise ValueError(f"phrase {phrase!r} is not lowercase")
                if phrase in seen:
                    raise ValueError(
                        f"phrase {phrase!r} appears under both {seen[phrase]!r} and {cls!r}"
                    )
                seen[phrase] = cls
        self._patterns = {
            cls: [_phrase_pattern(p) for p in self.synonyms[cls]]
            for cls in self.classes
        }

    def count_matches(self, text_lower: str) -> dict[str, int]:
        """Total phrase occurrences per class in already-lowercased text."""
        return {
            cls: sum(len(p.findall(text_lower)) for p in self._patterns[cls])
            for cls in self.classes
        }


def taxonomy_from_mapping(task: str, mapping: dict[str, list[str]]) -> Taxonomy:
    for cls, phrases in mapping.items():
        if not isinstance(phrases, list) or not all(isinstance(p, str) for p in phrases):
            raise ValueError(f"class {cls!r} must map to a list of phrase strings")
    return Taxonomy(
        task=task,
        classes=tuple(mapping),
        synonyms={cls: tuple(phrases) for cls, phrases in mapping.items()},
    )


def load_taxonomy(path: str, task: str) -> Taxonomy:
    """Read a {class: [phrases]} JSON file; class order follows the file.
    Errors name the file, and the class when one class is bad."""
    with open(path, "r", encoding="utf-8") as fh:
        mapping = json.load(fh)
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: expected a class -> phrase-list object")
    try:
        return taxonomy_from_mapping(task, mapping)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def default_taxonomy(task: str) -> Taxonomy:
    """The bundled taxonomy for expression, attribute, or deepfake."""
    if task not in _RESOURCE_FILES:
        raise KeyError(f"no bundled taxonomy for task {task!r}")
    ref = resources.files("facecond.evalkit").joinpath(
        "resources", _RESOURCE_FILES[task]
    )
    mapping = json.loads(ref.read_text(encoding="utf-8"))
    return taxonomy_from_mapping(task, mapping)


def default_negation_cues() -> tuple[str, ...]:
    ref = resources.files("facecond.evalkit").joinpath(
        "resources", "negation_cues.json"
    )
    return tuple(json.loads(ref.read_text(encoding="utf-8")))
