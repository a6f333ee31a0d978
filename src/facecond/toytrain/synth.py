"""Synthetic tasks whose answer is written in the landmarks.

The raw visual features are pure noise; only the landmark clip carries
the signal. A model that ignores landmark conditioning can do no better
than the marginal label distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import LandmarkClip, default_partition

TASK_KINDS = ("region", "global")

# Schematic face: each region's points sit on a circle. (cx, cy, radius)
_GROUP_LAYOUT = {
    "face_boundary": (0.50, 0.55, 0.38),
    "right_brow": (0.32, 0.30, 0.06),
    "left_brow": (0.68, 0.30, 0.06),
    "nose_bridge": (0.50, 0.42, 0.04),
    "nostril": (0.50, 0.52, 0.05),
    "right_eye": (0.34, 0.40, 0.045),
    "left_eye": (0.66, 0.40, 0.045),
    "outer_lips": (0.50, 0.70, 0.07),
    "inner_lips": (0.50, 0.70, 0.035),
}

# Displacement large enough for the conditioning signal to survive the
# attention and pooling dilution, small enough to stay in the coordinate band.
REGION_SHIFT = 0.20
GLOBAL_SHIFT = 0.08
POINT_JITTER = 0.01

_GLOBAL_DIRECTIONS = np.array([[0.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])


@dataclass(frozen=True)
class SynthSample:
    raw: np.ndarray  # (T, N, d_raw) noise features
    clip: LandmarkClip
    instruction_ids: tuple[int, ...]
    response_ids: tuple[int, ...]
    label: int


def template_frame() -> np.ndarray:
    """The deterministic schematic 68-point face; shape (68, 2)."""
    part = default_partition()
    pts = np.zeros((68, 2))
    for name, idx in part.groups:
        cx, cy, radius = _GROUP_LAYOUT[name]
        angles = 2.0 * np.pi * np.arange(len(idx)) / len(idx)
        pts[list(idx), 0] = cx + radius * np.cos(angles)
        pts[list(idx), 1] = cy + radius * np.sin(angles)
    return pts


def _num_labels(task_kind: str) -> int:
    if task_kind == "region":
        return default_partition().num_regions
    if task_kind == "global":
        return len(_GLOBAL_DIRECTIONS)
    raise ValueError(f"unknown task kind {task_kind!r}; expected one of {TASK_KINDS}")


def synth_dataset(
    seed: int,
    size: int,
    task_kind: str = "region",
    frames: int = 1,
    n_patches: int = 16,
    d_raw: int = 8,
    vocab: int = 16,
) -> list[SynthSample]:
    """Deterministic generator of (noise features, landmarks, instruction,
    response) tuples.

    task "region": one face region is displaced; the response token is
    that region's index. task "global": all landmarks shift together in
    one of four directions; the response token is the direction index.
    Labels are balanced (counts differ by at most one).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    n_labels = _num_labels(task_kind)
    if vocab < n_labels + 2:
        raise ValueError(
            f"vocab {vocab} too small: need {n_labels} label tokens plus 2 instruction tokens"
        )
    rng = np.random.default_rng(seed)
    part = default_partition()
    base = template_frame()
    instruction = (vocab - 2, vocab - 1)

    labels = np.arange(size) % n_labels
    rng.shuffle(labels)

    samples = []
    for label in labels:
        pts = np.repeat(base[None, :, :], frames, axis=0)
        if task_kind == "region":
            # each region displaces along its own characteristic direction
            angle = 2.0 * np.pi * label / n_labels
            shift = REGION_SHIFT * np.array([np.cos(angle), np.sin(angle)])
            idx = list(part.groups[label][1])
            pts[:, idx, :] += shift
        else:
            pts += GLOBAL_SHIFT * _GLOBAL_DIRECTIONS[label]
        pts += rng.normal(scale=POINT_JITTER, size=pts.shape)
        clip = LandmarkClip(pts)
        raw = rng.normal(size=(frames, n_patches, d_raw))
        samples.append(
            SynthSample(
                raw=raw,
                clip=clip,
                instruction_ids=instruction,
                response_ids=(int(label),),
                label=int(label),
            )
        )
    return samples
