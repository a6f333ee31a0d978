"""Facial landmark geometry.

68-point landmark frames and clips, the fixed 9-region partition, the
one-region whole-face partition, the visual patch grid, and the
region-patch proximity mask used to bias cross-attention. All operations
are pure functions on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .jsonio import read_json, write_json

N_LANDMARKS = 68

# Landmark detectors emit points slightly outside the crop; accept a
# fixed jitter band around the unit square and reject anything beyond.
COORD_MIN = -0.5
COORD_MAX = 1.5

MAX_FRAMES = 8  # frames per clip

# 68-point annotation convention mapped onto the nine face regions.
_DEFAULT_GROUPS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("face_boundary", tuple(range(0, 17))),
    ("right_brow", tuple(range(17, 22))),
    ("left_brow", tuple(range(22, 27))),
    ("nose_bridge", tuple(range(27, 31))),
    ("nostril", tuple(range(31, 36))),
    ("right_eye", tuple(range(36, 42))),
    ("left_eye", tuple(range(42, 48))),
    ("outer_lips", tuple(range(48, 60))),
    ("inner_lips", tuple(range(60, 68))),
)


@dataclass(frozen=True)
class LandmarkFrame:
    """68 normalized 2-D landmark points for one frame.

    ``points`` is a (68, 2) float64 array of (x, y) coordinates in the
    unit square of the cropped face, within the jitter band
    [COORD_MIN, COORD_MAX].
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (N_LANDMARKS, 2):
            raise ValueError(
                f"expected {N_LANDMARKS} landmark points of 2 coordinates, got shape {pts.shape}"
            )
        inside = ((pts >= COORD_MIN) & (pts <= COORD_MAX)).all(axis=1)  # False for NaN
        if not inside.all():
            point = int(np.argmin(inside))
            raise ValueError(
                f"landmark point {point} {pts[point].tolist()} lies outside [{COORD_MIN}, {COORD_MAX}]"
            )
        object.__setattr__(self, "points", pts)


class LandmarkClip:
    """Ordered landmark frames for one media item (1 <= T <= MAX_FRAMES)."""

    def __init__(self, frames: Iterable[LandmarkFrame]) -> None:
        frames = tuple(frames)
        if not frames:
            raise ValueError("a clip needs at least one frame")
        if len(frames) > MAX_FRAMES:
            raise ValueError(f"clip has {len(frames)} frames, exceeds max of {MAX_FRAMES}")
        self.frames = frames

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def as_array(self) -> np.ndarray:
        """Stack into a (T, 68, 2) array."""
        return np.stack([f.points for f in self.frames])


@dataclass(frozen=True)
class RegionPartition:
    """Named, disjoint landmark index groups covering {0..67} exactly."""

    groups: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("partition needs at least one group")
        seen: set[int] = set()
        for name, idx in self.groups:
            if not idx:
                raise ValueError(f"group {name!r} is empty")
            overlap = seen.intersection(idx)
            if overlap:
                raise ValueError(f"group {name!r} reuses indices {sorted(overlap)}")
            seen.update(idx)
        if seen != set(range(N_LANDMARKS)):
            raise ValueError("groups must cover indices 0..67 exactly once")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.groups)

    @property
    def num_regions(self) -> int:
        return len(self.groups)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(idx) for _, idx in self.groups)

    def indices(self, name: str) -> tuple[int, ...]:
        for group_name, idx in self.groups:
            if group_name == name:
                return idx
        raise KeyError(name)


_DEFAULT_PARTITION = RegionPartition(_DEFAULT_GROUPS)

# The whole face as one region: the anchor of the global landmark token
# and of its proximity mask.
WHOLE_FACE = RegionPartition((("face", tuple(range(N_LANDMARKS))),))


def default_partition() -> RegionPartition:
    """The fixed 9-region partition of the 68-point annotation convention."""
    return _DEFAULT_PARTITION


@dataclass(frozen=True)
class PatchGrid:
    """Rows x cols layout of the visual patches, enumerated row-major."""

    rows: int = 16
    cols: int = 16

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def num_patches(self) -> int:
        return self.rows * self.cols


def region_centroids(frame: LandmarkFrame, partition: RegionPartition) -> np.ndarray:
    """Arithmetic mean of each group's points; shape (M, 2)."""
    pts = frame.points
    return np.stack([pts[list(idx)].mean(axis=0) for _, idx in partition.groups])


def patch_centroids(grid: PatchGrid) -> np.ndarray:
    """Centroid of every patch, row-major from top-left; shape (N, 2).

    Patch (r, c) has centroid ((c + 0.5) / cols, (r + 0.5) / rows).
    """
    xs = (np.arange(grid.cols) + 0.5) / grid.cols
    ys = (np.arange(grid.rows) + 0.5) / grid.rows
    grid_x, grid_y = np.meshgrid(xs, ys)
    return np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)


def rpp_mask(regions: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """Region-patch proximity mask: entry (j, i) is the negative Euclidean
    distance between patch j's centroid and region i's centroid.

    Returns an (N, M) matrix of non-positive values.
    """
    regions = np.asarray(regions, dtype=np.float64)
    patches = np.asarray(patches, dtype=np.float64)
    if regions.ndim != 2 or regions.shape[1] != 2:
        raise ValueError(f"region centroids must be (M, 2), got {regions.shape}")
    if patches.ndim != 2 or patches.shape[1] != 2:
        raise ValueError(f"patch centroids must be (N, 2), got {patches.shape}")
    if not (np.all(np.isfinite(regions)) and np.all(np.isfinite(patches))):
        raise ValueError("centroids must be finite")
    diff = patches[:, None, :] - regions[None, :, :]
    return -np.sqrt((diff * diff).sum(axis=2))


def clip_rpp_masks(
    clip: LandmarkClip,
    partition: RegionPartition,
    grid: PatchGrid,
) -> np.ndarray:
    """One (N, M) mask per frame, from that frame's landmarks; shape (T, N, M)."""
    patches = patch_centroids(grid)
    return np.stack(
        [rpp_mask(region_centroids(f, partition), patches) for f in clip.frames]
    )


def save_landmarks(path: str, media_id: str, clip: LandmarkClip) -> None:
    """Write the landmark JSON document: {"id": ..., "frames": [[[x,y] x68] xT]}.

    Floats serialize via repr (shortest round-trip), so load(save(x)) is
    bit-exact.
    """
    write_json(path, {"id": media_id, "frames": clip.as_array().tolist()})


def load_landmarks(path: str) -> tuple[str, LandmarkClip]:
    """Read a landmark JSON document; returns (media id, clip). Errors name
    the file, and the frame when one frame is bad."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "id" not in doc or "frames" not in doc:
        raise ValueError(f"{path}: expected an object with 'id' and 'frames'")
    if not isinstance(doc["frames"], list):
        raise ValueError(f"{path}: 'frames' must be a list of frames")
    frames = []
    for t, f in enumerate(doc["frames"]):
        try:
            frames.append(LandmarkFrame(np.asarray(f, dtype=np.float64)))
        except ValueError as exc:
            raise ValueError(f"{path}: frame {t}: {exc}") from None
    try:
        return str(doc["id"]), LandmarkClip(frames)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def frames_from_array(arr: Sequence | np.ndarray) -> LandmarkClip:
    """Build a clip from a (T, 68, 2) array-like."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected (T, 68, 2) array, got shape {arr.shape}")
    return LandmarkClip([LandmarkFrame(a) for a in arr])
