"""Facial landmark geometry.

68-point landmark clips, the fixed 9-region partition, the
one-region whole-face partition, the visual patch grid, and the
region-patch proximity mask used to bias cross-attention. A partition's
one gather table, its group order, feeds both the region centroids and
the FRLP inputs. The masks are built from (..., N, M) planes of x and y
differences, not over a length-2 (x, y) axis, with the same bits. All
operations are pure functions on immutable inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .jsonio import INTEGER, OBJECT, STRING, fits, member, number_array, read_json, typed
from .jsonio import write_json
from .registry import shaped

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


class LandmarkClip:
    """The landmarks of one media item: ``points`` is a read-only (T, 68, 2)
    float64 array of (x, y) coordinates in the unit square of the cropped
    face, within the jitter band [COORD_MIN, COORD_MAX], with
    1 <= T <= MAX_FRAMES. The constructor copies and validates its input."""

    def __init__(self, points) -> None:
        pts = shaped(np.array(points, dtype=np.float64), ("T", N_LANDMARKS, 2), {}, "landmarks")
        if not pts.shape[0]:
            raise ValueError("a clip needs at least one frame")
        if pts.shape[0] > MAX_FRAMES:
            raise ValueError(f"clip has {pts.shape[0]} frames, exceeds max of {MAX_FRAMES}")
        inside = ((pts >= COORD_MIN) & (pts <= COORD_MAX)).all(axis=2)  # False for NaN
        if not inside.all():
            t, point = np.argwhere(~inside)[0]
            raise ValueError(
                f"frame {t}: landmark point {point} {pts[t, point].tolist()} "
                f"lies outside [{COORD_MIN}, {COORD_MAX}]"
            )
        pts.flags.writeable = False
        self.points = pts

    @property
    def num_frames(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RegionPartition:
    """Named, disjoint landmark index groups covering {0..67} exactly.

    Construction also builds the one read-only gather table, ``order``:
    every group's indices, group after group, so that group i is
    ``order[offsets[i]:offsets[i + 1]]``. Both the centroids and the FRLP
    region inputs gather the points through it once and slice each
    group out by ``offsets``. ``sizes()`` returns the group sizes stored
    at construction."""

    groups: tuple[tuple[str, tuple[int, ...]], ...]
    order: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("partition needs at least one group")
        seen: set[int] = set()
        names: set[str] = set()
        for name, idx in self.groups:
            if name in names:
                raise ValueError(f"group name {name!r} is used twice")
            names.add(name)
            if not idx:
                raise ValueError(f"group {name!r} is empty")
            bad = [i for i in idx if not fits(i, INTEGER)]
            if bad:
                raise ValueError(f"group {name!r} has indices that are not integers: {bad}")
            overlap = seen.intersection(idx)
            if overlap:
                raise ValueError(f"group {name!r} reuses indices {sorted(overlap)}")
            seen.update(idx)
        if seen != set(range(N_LANDMARKS)):
            raise ValueError("groups must cover indices 0..67 exactly once")

        sizes = tuple(len(idx) for _, idx in self.groups)
        order = np.concatenate([idx for _, idx in self.groups]).astype(np.intp)
        order.flags.writeable = False
        tables = (("order", order), ("offsets", (0, *np.cumsum(sizes).tolist())), ("_sizes", sizes))
        for name, value in tables:
            object.__setattr__(self, name, value)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.groups)

    @property
    def num_regions(self) -> int:
        return len(self.groups)

    def sizes(self) -> tuple[int, ...]:
        return self._sizes

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


# numpy's largest array length: a grid with more patches has no centroid array
_MAX_PATCHES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class PatchGrid:
    """Rows x cols layout of the visual patches, enumerated row-major."""

    rows: int = 16
    cols: int = 16

    def __post_init__(self) -> None:
        if not (fits(self.rows, INTEGER) and fits(self.cols, INTEGER)):
            raise ValueError(f"grid dimensions must be integers, got {self.rows!r} x {self.cols!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.rows * self.cols > _MAX_PATCHES:
            raise ValueError(
                f"patch grid {self.rows} x {self.cols} has more patches than an array can index"
            )

    @property
    def num_patches(self) -> int:
        return self.rows * self.cols


def region_centroids(points: np.ndarray, partition: RegionPartition) -> np.ndarray:
    """Arithmetic mean of each group's points: (..., 68, 2) landmarks give
    (..., M, 2) centroids.

    One gather through ``partition.order``, on a leading landmark axis,
    puts each group's points together in group order; each group's slice
    is summed landmark by landmark and divided by its size, as ``mean``
    does, so the result equals ``mean`` bit for bit.
    """
    gathered, bounds = np.moveaxis(points, -2, 0)[partition.order], partition.offsets
    means = [
        np.add.reduce(gathered[a:b], axis=0) / size
        for a, b, size in zip(bounds, bounds[1:], partition.sizes())
    ]
    return np.stack(means, axis=-2)


@functools.cache
def patch_centroids(grid: PatchGrid) -> np.ndarray:
    """Centroid of every patch, row-major from top-left; shape (N, 2).

    Patch (r, c) has centroid ((c + 0.5) / cols, (r + 0.5) / rows). Built
    once per grid and shared, so the array is read-only.
    """
    xs = (np.arange(grid.cols) + 0.5) / grid.cols
    ys = (np.arange(grid.rows) + 0.5) / grid.rows
    grid_x, grid_y = np.meshgrid(xs, ys)
    cents = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
    cents.flags.writeable = False
    return cents


def rpp_mask(regions: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """Region-patch proximity mask: entry (j, i) is the negative Euclidean
    distance between patch j's centroid and region i's centroid.

    (..., M, 2) region centroids give (..., N, M) masks of non-positive
    values, one per leading index.
    """
    regions = np.asarray(regions, dtype=np.float64)
    if regions.ndim < 2 or regions.shape[-1] != 2:
        raise ValueError(f"region centroids must be (..., M, 2), got {regions.shape}")
    patches = shaped(np.asarray(patches, dtype=np.float64), ("N", 2), {}, "patches")
    if not (np.all(np.isfinite(regions)) and np.all(np.isfinite(patches))):
        raise ValueError("centroids must be finite")
    return _proximity(regions, patches)


def _proximity(regions: np.ndarray, patches: np.ndarray) -> np.ndarray:
    dx = patches[:, None, 0] - regions[..., None, :, 0]
    dy = patches[:, None, 1] - regions[..., None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.negative(np.sqrt(dx, out=dx), out=dx)


def clip_rpp_masks(
    landmarks: LandmarkClip | np.ndarray,
    partition: RegionPartition,
    grid: PatchGrid,
) -> np.ndarray:
    """One (N, M) mask per frame, from that frame's landmarks: a
    ``LandmarkClip`` gives (T, N, M), and finite float64 (..., 68, 2)
    points, such as the frames of several clips concatenated, give
    (..., N, M). Every frame's mask is computed on its own, so a frame's
    mask is the same bits whatever it is stacked with."""
    points = landmarks.points if isinstance(landmarks, LandmarkClip) else landmarks
    # points are taken unchecked: clips' points and a grid's patch
    # centroids are finite float64 (..., 68, 2) and (N, 2) by
    # construction, so rpp_mask's checks would only repeat
    return _proximity(region_centroids(points, partition), patch_centroids(grid))


def save_landmarks(path: str, media_id: str, clip: LandmarkClip) -> None:
    """Write the landmark JSON document: {"id": ..., "frames": [[[x,y] x68] xT]}.

    Floats serialize via repr (shortest round-trip), so load(save(x)) is
    bit-exact.
    """
    write_json(path, {"id": media_id, "frames": clip.points})


def load_landmarks(path: str) -> tuple[str, LandmarkClip]:
    """Read a landmark JSON document; returns (media id, clip). Errors name
    the file, and the first bad entry, frame or point."""
    return read_json(path, _landmarks)


def _landmarks(doc) -> tuple[str, LandmarkClip]:
    doc = typed(doc, OBJECT, "document")
    return member(doc, "id", STRING), LandmarkClip(number_array(doc["frames"], 3, "frames"))
