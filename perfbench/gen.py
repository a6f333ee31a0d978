"""Seeded input generator for the benchmark workloads.

Every input a workload feeds to facecond comes from here, made from the
workload seed alone: the same seed gives the same files and arrays. The
program under test only ever sees what this module writes or returns.
The text inputs plant their expected outcome (labels, ratings, quotas),
and the generator returns it next to the inputs so that the workload can
check the program's outputs against it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# landmark clips and visual tokens (enrich_clip)

N_POINTS = 68


def landmark_clip_array(rng: np.random.Generator, frames: int) -> np.ndarray:
    """A (T, 68, 2) clip: one random face inside the crop, jittered per frame."""
    base = rng.uniform(0.15, 0.85, size=(N_POINTS, 2))
    drift = rng.normal(scale=0.01, size=(frames, N_POINTS, 2))
    return np.clip(base[None] + drift, 0.0, 1.0)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ClipFiles:
    clip_id: str
    landmarks: str
    tokens: str
    shape: tuple[int, int, int]


def enrich_clips(
    seed: int, out_dir: str, count: int, frames: int, patches: int, d: int
) -> list[ClipFiles]:
    """`count` distinct clips, each a landmark JSON and a token JSON file."""
    rng = np.random.default_rng([seed, 3])
    clips = []
    for i in range(count):
        clip_id = f"clip-{seed}-{i:03d}"
        lm_path = os.path.join(out_dir, f"{clip_id}.landmarks.json")
        tok_path = os.path.join(out_dir, f"{clip_id}.tokens.json")
        write_json(lm_path, {"id": clip_id, "frames": landmark_clip_array(rng, frames).tolist()})
        tokens = rng.normal(size=(frames, patches, d))
        write_json(tok_path, {"id": clip_id, "tokens": tokens.tolist()})
        clips.append(ClipFiles(clip_id, lm_path, tok_path, (frames, patches, d)))
    return clips


# ---------------------------------------------------------------------------
# free-text evaluation records (text_pipeline)

DISFA_AUS = (1, 2, 4, 6, 9, 12, 25, 26)
NEGATION_CUES = ("not", "no ", "never", "without", "absence", "n't", "lacks", "lacking")

# Sentences that carry no label: no taxonomy phrase, no negation cue, no
# digit. Checked against the taxonomies when the text is built.
FILLER = (
    "The camera holds a steady frontal view.",
    "Soft light falls from the left side of the frame.",
    "The background is a plain wall.",
    "The head turns slightly toward the lens.",
    "The shot is framed from the shoulders up.",
    "The scene is indoors under warm lamps.",
    "A second person walks behind the subject.",
    "The frame rate stays constant throughout.",
    "The subject blinks twice during the sequence.",
    "The camera pans a little to the right.",
    "Shadows fall across the lower part of the frame.",
    "The subject speaks briefly toward the microphone.",
)
LONG_FILLER = 9  # filler sentences in a long (video) description


def _phrase_re(phrase: str) -> re.Pattern:
    return re.compile(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)")


class PhraseTable:
    """Word-bounded phrase lookup over the three bundled taxonomies,
    reimplemented here so that the planted labels do not depend on the
    code under test."""

    def __init__(self, taxonomies: dict[str, dict[str, list[str]]]) -> None:
        self.taxonomies = taxonomies
        self.patterns = {
            task: {cls: [_phrase_re(p) for p in phrases] for cls, phrases in mapping.items()}
            for task, mapping in taxonomies.items()
        }
        # phrases that, on their own, name exactly their own class
        self.clean = {
            task: {
                cls: [p for p in phrases if self.classes_in(task, p) == {cls}]
                for cls, phrases in mapping.items()
            }
            for task, mapping in taxonomies.items()
        }
        for sentence in FILLER:
            lower = sentence.lower()
            if _has_cue(lower) or re.search(r"\d", lower) or any(
                self.classes_in(task, lower) for task in taxonomies
            ):
                raise ValueError(f"filler sentence {sentence!r} carries a label")

    def classes_in(self, task: str, text_lower: str) -> set[str]:
        return {
            cls
            for cls, pats in self.patterns[task].items()
            if any(p.search(text_lower) for p in pats)
        }


def load_taxonomies(resource_dir: str) -> dict[str, dict[str, list[str]]]:
    out = {}
    for task in ("expression", "attribute", "deepfake"):
        with open(os.path.join(resource_dir, f"taxonomy_{task}.json"), encoding="utf-8") as fh:
            out[task] = json.load(fh)
    return out


def _has_cue(sentence: str) -> bool:
    lower = sentence.lower()
    return any(cue in lower for cue in NEGATION_CUES)


def _kept_text(sentences: list[str]) -> str:
    return " ".join(s for s in sentences if not _has_cue(s)).lower()


class _TextMaker:
    def __init__(self, rng: np.random.Generator, table: PhraseTable) -> None:
        self.rng = rng
        self.table = table

    def pick(self, seq):
        return seq[int(self.rng.integers(len(seq)))]

    def filler(self, n: int) -> list[str]:
        return [self.pick(FILLER) for _ in range(n)]

    def single_label(self, task: str, label: str, long: bool, variant: int = 0) -> list[str]:
        """Sentences whose extraction yields `label`. By `variant`, a
        negated sentence naming another class comes first, and a long text
        names another class after the first sentence, which the
        first-sentence rule overrides."""
        others = [c for c in self.table.taxonomies[task] if c != label]
        sentences = []
        if variant % 2:
            neg = self.pick(self.table.clean[task][self.pick(others)])
            sentences.append(f"The subject does not look {neg}.")
        sentences.append(f"Overall the subject seems {self.pick(self.table.clean[task][label])}.")
        if long:
            sentences += self.filler(LONG_FILLER)
            if variant // 2 % 2:
                other = self.pick(self.table.clean[task][self.pick(others)])
                sentences.append(f"For a moment it reads as {other}.")
            sentences += self.filler(2)
        first_kept = next(s for s in sentences if not _has_cue(s)).lower()
        if self.table.classes_in(task, first_kept) != {label}:
            raise RuntimeError(f"could not plant {task} label {label!r} cleanly")
        return sentences

    def attribute(self, labels: list[str], long: bool) -> list[str]:
        phrases = [self.pick(self.table.clean["attribute"][c]) for c in labels]
        sentences = [f"The face shows {' and '.join(phrases[:2])}."]
        if len(phrases) > 2:
            sentences.append(f"Also visible: {', '.join(phrases[2:])}.")
        absent = [c for c in self.table.taxonomies["attribute"] if c not in labels]
        neg = self.pick(self.table.clean["attribute"][self.pick(absent)])
        sentences.append(f"There is no {neg} here.")
        if long:
            sentences += self.filler(LONG_FILLER)
        return sentences


def eval_records(seed: int, count: int, table: PhraseTable) -> tuple[list[dict], dict]:
    """`count` eval records over all five tasks, and the report figures
    a correct scorer must produce for them.

    Image records are one or two short sentences; video records are long
    multi-sentence descriptions. Expression and deepfake video records
    come in chunk groups of three, one of which names another label. The
    seed picks labels and phrases; each record's shape (length, label
    count, negations) follows its index, so every seed asks for about the
    same work.
    """
    rng = np.random.default_rng([seed, 5])
    maker = _TextMaker(rng, table)
    attr_classes = list(table.taxonomies["attribute"])
    records: list[dict] = []
    tasks = ("expression", "au", "attribute", "age", "deepfake")
    n = 0
    while len(records) < count:
        task = tasks[n % len(tasks)]
        cycle = n // len(tasks)
        long = cycle % 2 == 1
        rid = f"{task}-{seed}-{n:05d}"
        n += 1
        if task in ("expression", "deepfake"):
            classes = list(table.taxonomies[task])
            label = maker.pick(classes)
            if long:
                for c in range(3):
                    chunk_label = maker.pick([k for k in classes if k != label]) if c == cycle % 3 else label
                    text = maker.single_label(task, chunk_label, long=True, variant=cycle // 2 + c)
                    records.append(
                        {"id": f"{rid}-c{c}", "task": task, "generated": " ".join(text),
                         "ground_truth": label, "chunk_group": rid}
                    )
                continue
            text = maker.single_label(task, label, long=False, variant=cycle // 2)
            records.append({"id": rid, "task": task, "generated": " ".join(text), "ground_truth": label})
        elif task == "attribute":
            k = 1 + cycle // 2 % 4
            for _ in range(20):
                labels = sorted(rng.choice(attr_classes, size=k, replace=False).tolist())
                text = maker.attribute(labels, long)
                if table.classes_in("attribute", _kept_text(text)) == set(labels):
                    break
            else:
                raise RuntimeError(f"{rid}: could not plant attributes cleanly")
            records.append({"id": rid, "task": task, "generated": " ".join(text), "ground_truth": labels})
        elif task == "au":
            # every listed unit occurs in some record, so no F1 is 0 by absence
            first = DISFA_AUS[cycle % len(DISFA_AUS)]
            others = [a for a in DISFA_AUS if a != first]
            extra = rng.choice(others, size=cycle // 2 % 3, replace=False).tolist()
            aus = sorted([first, *extra])
            absent = [a for a in DISFA_AUS if a not in aus]
            codes = ", ".join(("AU " if i % 3 == 1 else "AU") + str(a) for i, a in enumerate(aus))
            text = [f"Active units: {codes}.", f"AU{maker.pick(absent)} is not present."]
            if long:
                text += maker.filler(LONG_FILLER)
            records.append({"id": rid, "task": task, "generated": " ".join(text), "ground_truth": aus})
        else:  # age
            text = []
            if cycle // 2 % 2:
                text.append(f"The subject is not {int(rng.integers(18, 80))}.")
            age = int(rng.integers(18, 80))
            text.append(f"The subject looks about {age} years old.")
            if long:
                text += maker.filler(LONG_FILLER)
            records.append({"id": rid, "task": task, "generated": " ".join(text), "ground_truth": age})
    expected = {
        "n_records": len(records),
        "metrics": {
            "expression": {"uar": 1.0, "war": 1.0, "accuracy": 1.0},
            "deepfake": {"uar": 1.0, "war": 1.0, "accuracy": 1.0},
            "au": {"average_f1": 1.0},
            "age": {"mae": 0.0},
            "attribute": {"mean_attribute_accuracy": 1.0},
        },
    }
    return records, expected


# ---------------------------------------------------------------------------
# annotation manifest (text_pipeline)

MANIFEST_TASKS = ("expression", "deepfake")
MEDIA = ("image", "video")
RATING_THRESHOLD = 6
SPLIT_TARGET = {
    "expression": {"happiness": 3, "sadness": 2, "neutral": 2, "anger": 1, "surprise": 1, "disgust": 1, "fear": 1},
    "deepfake": {"real": 1, "fake": 1},
}
MALFORMED_LINES = (
    '{"id": "broken", "task": "expression"',
    '{"id": "no-media", "task": "expression", "label": "happiness", "description": "x"}',
    '{"id": "bad-rating", "task": "deepfake", "media": {"path": "v/x.mp4", "type": "video"}, '
    '"label": "real", "description": "x", "ratings": {"overall": 11}}',
    "not json at all",
)


def manifest(seed: int, count: int, per_task: int, table: PhraseTable) -> tuple[list[str], dict]:
    """`count` manifest lines and the counts a correct pipeline yields.

    A tenth of the records are unrated, and one line in a hundred is
    malformed. Overall ratings are a seeded shuffle of equal counts of
    1..10, so every seed keeps about the same number of records. Each
    class has enough kept records to fill its quota.
    """
    rng = np.random.default_rng([seed, 7])
    maker = _TextMaker(rng, table)
    overall = rng.permutation(np.arange(count) % 10 + 1)
    lines: list[str] = []
    kept = removed = errors = 0
    kept_by_class: dict[tuple[str, str], int] = {}
    for i in range(count):
        if i % 100 == 37:
            lines.append(MALFORMED_LINES[(i // 100) % len(MALFORMED_LINES)])
            errors += 1
            continue
        task = MANIFEST_TASKS[i % len(MANIFEST_TASKS)]
        classes = list(SPLIT_TARGET[task])
        label = maker.pick(classes)
        media = MEDIA[i // 2 % 2]
        doc = {
            "id": f"m{seed}-{i:06d}",
            "task": task,
            "media": {"path": f"{media}/{i:06d}.{'mp4' if media == 'video' else 'jpg'}", "type": media},
            "label": label,
            "description": " ".join(
                [f"Overall the subject seems {maker.pick(table.clean[task][label])}."]
                + maker.filler(8 if media == "video" else 1)
            ),
        }
        if i % 10 != 3:
            ratings = {k: int(rng.integers(1, 11)) for k in
                       ("label_accuracy", "desc_video_consistency", "desc_label_consistency")}
            ratings["overall"] = int(overall[i])
            doc["ratings"] = ratings
            if ratings["overall"] > RATING_THRESHOLD:
                kept += 1
                kept_by_class[(task, label)] = kept_by_class.get((task, label), 0) + 1
            else:
                removed += 1
        else:
            removed += 1
        lines.append(json.dumps(doc, sort_keys=True))
    for task, weights in SPLIT_TARGET.items():
        total = sum(weights.values())
        for cls, w in weights.items():
            need = int(np.ceil(per_task * w / total))
            if kept_by_class.get((task, cls), 0) < need:
                raise ValueError(
                    f"manifest of {count} lines keeps too few {task}/{cls} records for per_task={per_task}"
                )
    expected = {"input": kept + removed, "kept": kept, "removed": removed, "parse_errors": errors}
    return lines, expected


def instruction_bank() -> dict[str, list[str]]:
    return {
        "expression": [
            "What emotion does the person in this {media} show?",
            "Describe the facial expression in the {media}.",
            "Which expression is visible in the {media}? Explain.",
        ],
        "deepfake": [
            "Is this {media} real or manipulated?",
            "Judge whether the {media} has been tampered with.",
        ],
    }
