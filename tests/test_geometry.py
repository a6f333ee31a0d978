import json
import math

import numpy as np
import pytest

from facecond.geometry import (
    N_LANDMARKS,
    WHOLE_FACE,
    LandmarkClip,
    PatchGrid,
    RegionPartition,
    clip_rpp_masks,
    default_partition,
    load_landmarks,
    patch_centroids,
    region_centroids,
    rpp_mask,
    save_landmarks,
)


def random_frame(rng):
    return rng.uniform(0.0, 1.0, size=(68, 2))


def shuffled_partition(seed):
    """Seven groups of 1 to 23 landmarks, neither contiguous nor ascending."""
    order = np.random.default_rng(seed).permutation(N_LANDMARKS).tolist()
    cuts = (0, 1, 4, 11, 20, 38, 45, N_LANDMARKS)
    return RegionPartition(
        tuple((f"g{i}", tuple(order[a:b])) for i, (a, b) in enumerate(zip(cuts, cuts[1:])))
    )


# ---------------------------------------------------------------------------
# partition


def test_default_partition_covers_68_points_once():
    part = default_partition()
    all_indices = [i for _, idx in part.groups for i in idx]
    assert len(all_indices) == 68
    assert set(all_indices) == set(range(68))


def test_default_partition_has_9_groups():
    assert default_partition().num_regions == 9


def test_default_partition_right_eye_indices():
    # standard 68-point convention; group sizes sum to 68
    part = default_partition()
    assert part.indices("right_eye") == tuple(range(36, 42))
    assert len(part.indices("right_eye")) == 6
    assert sum(part.sizes()) == 68


def test_partition_rejects_overlap_and_gaps():
    groups = list(default_partition().groups)
    groups[1] = ("right_brow", (0, 17, 18, 19, 20))  # reuses index 0
    with pytest.raises(ValueError):
        RegionPartition(tuple(groups))
    groups = list(default_partition().groups)
    groups[1] = ("right_brow", (17, 18, 19, 20))  # drops index 21
    with pytest.raises(ValueError):
        RegionPartition(tuple(groups))


def _with_group(index, group):
    groups = list(default_partition().groups)
    groups[index] = group
    return tuple(groups)


@pytest.mark.parametrize(
    "groups, message",
    [
        (_with_group(1, ("right_brow", (17.0, 18, 19, 20, 21))),
         r"group 'right_brow' has indices that are not integers: \[17\.0\]"),
        (_with_group(0, ("face_boundary", (0, True, *range(2, 17)))),
         r"group 'face_boundary' has indices that are not integers: \[True\]"),
        (_with_group(8, ("inner_lips", (60, 61, "62", 63, 64, 65, 66, 67))),
         r"group 'inner_lips' has indices that are not integers: \['62'\]"),
        (_with_group(6, ("right_eye", tuple(range(42, 48)))),
         r"group name 'right_eye' is used twice"),
    ],
    ids=["float", "bool", "string", "duplicate_name"],
)
def test_partition_rejects_non_integer_indices_and_duplicate_names(groups, message):
    with pytest.raises(ValueError, match=message):
        RegionPartition(groups)


def test_partition_tables_are_read_only_and_follow_group_order():
    part = shuffled_partition(5)
    assert part.order.tolist() == [i for _, idx in part.groups for i in idx]
    for i, (_, idx) in enumerate(part.groups):
        a, b = part.offsets[i : i + 2]
        assert tuple(part.order[a:b]) == idx
    assert part.offsets[-1] == N_LANDMARKS
    with pytest.raises(ValueError, match="read-only"):
        part.order[0] = 1


# ---------------------------------------------------------------------------
# frames and clips


def test_frame_validation():
    with pytest.raises(ValueError):
        LandmarkClip(np.zeros((1, 67, 2)))
    bad = np.zeros((1, 68, 2))
    bad[0, 3, 1] = np.nan
    with pytest.raises(ValueError, match=r"landmark point 3 \[0\.0, nan\] lies outside"):
        LandmarkClip(bad)
    bad = np.zeros((1, 68, 2))
    bad[0, 0, 0] = 1.6  # outside jitter band
    with pytest.raises(ValueError):
        LandmarkClip(bad)
    LandmarkClip(np.full((1, 68, 2), -0.5))
    LandmarkClip(np.full((1, 68, 2), 1.5))
    bad = np.full((3, 68, 2), 0.5)
    bad[2, 5] = [2.0, 0.5]
    bad[1, 40] = [0.5, -0.75]  # the first bad frame and point are named
    with pytest.raises(ValueError, match=r"^frame 1: landmark point 40 \[0\.5, -0\.75\] lies outside"):
        LandmarkClip(bad)


def test_clip_frame_count_limits():
    frame = np.full((68, 2), 0.5)
    with pytest.raises(ValueError):
        LandmarkClip([])
    with pytest.raises(ValueError, match=r"a clip needs at least one frame"):
        LandmarkClip(np.empty((0, 68, 2)))
    with pytest.raises(ValueError, match=r"clip has 9 frames, exceeds max of 8"):
        LandmarkClip([frame] * 9)
    with pytest.raises(ValueError):
        LandmarkClip(np.full((20, 68, 2), 0.5))
    clip = LandmarkClip([frame] * 8)
    assert clip.num_frames == 8
    assert clip.points.shape == (8, 68, 2)


def test_clip_copies_its_input_and_is_read_only():
    arr = np.full((2, 68, 2), 0.5)
    clip = LandmarkClip(arr)
    arr[0, 0, 0] = 0.25
    assert clip.points[0, 0, 0] == 0.5
    assert clip.points.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        clip.points[0, 0, 0] = 0.25
    assert clip.points[0, 0, 0] == 0.5


# ---------------------------------------------------------------------------
# centroids


def test_constant_frame_centroids():
    cents = region_centroids(np.full((68, 2), 0.5), default_partition())
    assert cents.shape == (9, 2)
    assert np.allclose(cents, 0.5)


def test_hexagon_eye_centroid():
    pts = np.full((68, 2), 0.5)
    angles = np.arange(6) * math.pi / 3.0
    center = np.array([0.3, 0.4])
    pts[36:42] = center + 0.05 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cents = region_centroids(pts, default_partition())
    assert np.allclose(cents[5], center)  # right_eye is group 5


def test_region_centroids_match_mean_oracle():
    rng = np.random.default_rng(7)
    part = default_partition()
    for _ in range(20):
        frame = random_frame(rng)
        cents = region_centroids(frame, part)
        for i, (_, idx) in enumerate(part.groups):
            sx = sum(frame[j, 0] for j in idx) / len(idx)
            sy = sum(frame[j, 1] for j in idx) / len(idx)
            assert cents[i, 0] == pytest.approx(sx, rel=0, abs=1e-15)
            assert cents[i, 1] == pytest.approx(sy, rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "partition",
    [default_partition(), WHOLE_FACE, shuffled_partition(3)],
    ids=["default", "whole_face", "shuffled"],
)
def test_region_centroids_equal_the_per_group_mean_bit_for_bit(partition):
    # the exact numpy mean of each group, in the group's own index order,
    # for a single frame, for clips of every length and for a stack of clips
    rng = np.random.default_rng(29)
    shapes = [(N_LANDMARKS, 2)] + [(t, N_LANDMARKS, 2) for t in range(1, 9)]
    shapes.append((2, 500, N_LANDMARKS, 2))
    for _ in range(40):
        for shape in shapes:
            points = rng.uniform(-0.5, 1.5, size=shape)
            expected = np.stack(
                [points[..., list(idx), :].mean(axis=-2) for _, idx in partition.groups], axis=-2
            )
            got = region_centroids(points, partition)
            assert got.shape == expected.shape and np.array_equal(got, expected), shape


# ---------------------------------------------------------------------------
# patch grid


def test_patch_centroids_1x1():
    cents = patch_centroids(PatchGrid(1, 1))
    assert cents.shape == (1, 2)
    assert np.allclose(cents[0], [0.5, 0.5])


def test_patch_centroids_2x2():
    cents = patch_centroids(PatchGrid(2, 2))
    expected = {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}
    assert {tuple(c) for c in cents} == expected


def test_patch_centroids_16x16_closed_form():
    grid = PatchGrid(16, 16)
    cents = patch_centroids(grid)
    assert grid.num_patches == 256
    assert cents.shape == (256, 2)
    assert np.allclose(cents[0], [1 / 32, 1 / 32])
    # row-major: patch k sits at (r, c) = divmod(k, cols)
    for k in (1, 16, 255):
        r, c = divmod(k, 16)
        assert np.allclose(cents[k], [(c + 0.5) / 16, (r + 0.5) / 16])


def test_patch_grid_validation():
    with pytest.raises(ValueError):
        PatchGrid(0, 4)
    for rows, cols in [(2.5, 4), (4, 4.0), (True, 4), (4, "4"), (None, 4)]:
        with pytest.raises(ValueError, match=r"grid dimensions must be integers, got "):
            PatchGrid(rows, cols)
    for rows, cols in [(10**30, 1), (1, 10**30), (2**32, 2**32)]:
        with pytest.raises(ValueError, match=rf"^patch grid {rows} x {cols} has more patches "):
            PatchGrid(rows, cols)
    assert PatchGrid(2**31, 2**31).num_patches == 2**62  # a size check only; nothing is built


def test_patch_centroids_are_read_only_and_masks_are_fresh():
    grid = PatchGrid(4, 4)
    cents = patch_centroids(grid)
    with pytest.raises(ValueError, match="read-only"):
        cents[0, 0] = 0.0
    assert patch_centroids(PatchGrid(4, 4)) is cents  # built once per grid
    clip = LandmarkClip(np.random.default_rng(9).uniform(0.2, 0.8, size=(2, 68, 2)))
    first = clip_rpp_masks(clip, default_partition(), grid)
    second = clip_rpp_masks(clip, default_partition(), grid)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, cents)
    first[:] = 1.0  # a caller may write into its masks
    assert np.array_equal(clip_rpp_masks(clip, default_partition(), grid), second)
    assert np.all(second <= 0.0)


# ---------------------------------------------------------------------------
# rpp mask


def test_rpp_zero_distance_entry():
    regions = np.array([[0.5, 0.5]])
    patches = np.array([[0.5, 0.5], [0.25, 0.5]])
    mask = rpp_mask(regions, patches)
    assert mask[0, 0] == 0.0
    assert mask[1, 0] == pytest.approx(-0.25)


def test_rpp_3_4_5_triangle():
    mask = rpp_mask(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert mask[0, 0] == pytest.approx(-5.0)


def test_rpp_matches_bruteforce_distances():
    rng = np.random.default_rng(11)
    for _ in range(50):
        regions = rng.normal(size=(9, 2))
        patches = rng.normal(size=(13, 2))
        mask = rpp_mask(regions, patches)
        assert mask.shape == (13, 9)
        assert np.all(mask <= 0)
        for j in range(13):
            for i in range(9):
                d = math.hypot(
                    patches[j, 0] - regions[i, 0], patches[j, 1] - regions[i, 1]
                )
                assert mask[j, i] == pytest.approx(-d, rel=1e-12)


@pytest.mark.parametrize(
    "partition",
    [default_partition(), WHOLE_FACE, shuffled_partition(7)],
    ids=["default", "whole_face", "shuffled"],
)
@pytest.mark.parametrize("lead", [(), (1,), (8,), (2, 500)], ids=str)
@pytest.mark.parametrize("rows, cols", [(4, 4), (16, 16), (5, 7)])
def test_masks_equal_the_coordinate_pair_formula_bit_for_bit(partition, lead, rows, cols):
    # the distance over the (x, y) axis of the centroid differences, summed
    # by a reduction over that axis, for every frame of every leading shape
    points = np.random.default_rng(31).uniform(-0.5, 1.5, size=(*lead, N_LANDMARKS, 2))
    grid = PatchGrid(rows, cols)
    regions = np.stack(
        [points[..., list(idx), :].mean(axis=-2) for _, idx in partition.groups], axis=-2
    )
    diff = patch_centroids(grid)[:, None, :] - regions[..., None, :, :]
    expected = -np.sqrt(np.add.reduce(diff * diff, axis=-1))
    got = clip_rpp_masks(points, partition, grid)
    assert got.shape == (*lead, grid.num_patches, partition.num_regions)
    assert got.tobytes() == expected.tobytes()


def test_rpp_monotone_in_distance():
    patch = np.array([[0.5, 0.5]])
    near = rpp_mask(np.array([[0.6, 0.5]]), patch)[0, 0]
    far = rpp_mask(np.array([[0.8, 0.5]]), patch)[0, 0]
    assert far < near


def test_rpp_translation_invariance():
    rng = np.random.default_rng(3)
    regions = rng.uniform(size=(9, 2))
    patches = rng.uniform(size=(20, 2))
    shift = rng.normal(size=(1, 2))
    base = rpp_mask(regions, patches)
    moved = rpp_mask(regions + shift, patches + shift)
    assert np.allclose(base, moved, rtol=1e-12, atol=1e-12)


def test_rpp_rejects_nonfinite():
    with pytest.raises(ValueError):
        rpp_mask(np.array([[np.inf, 0.0]]), np.array([[0.0, 0.0]]))


def test_clip_rpp_masks_per_frame():
    rng = np.random.default_rng(5)
    clip = LandmarkClip(rng.uniform(0.2, 0.8, size=(3, 68, 2)))
    masks = clip_rpp_masks(clip, default_partition(), PatchGrid(4, 4))
    assert masks.shape == (3, 16, 9)
    # each frame's mask matches the single-frame computation
    for t in range(clip.num_frames):
        single = rpp_mask(
            region_centroids(clip.points[t], default_partition()),
            patch_centroids(PatchGrid(4, 4)),
        )
        assert np.array_equal(masks[t], single)
    # the frames of clips of 1, 3 and 2 frames concatenated give each
    # clip's own masks, bit for bit
    clips = [LandmarkClip(rng.uniform(0.2, 0.8, size=(n, 68, 2))) for n in (1, 3, 2)]
    stacked_points = np.concatenate([c.points for c in clips])
    grid = PatchGrid(3, 5)
    for regions in (default_partition(), WHOLE_FACE):
        stacked = clip_rpp_masks(stacked_points, regions, grid)
        assert stacked.shape == (6, 15, regions.num_regions)
        starts = np.cumsum([0, *(c.num_frames for c in clips)])
        for clip, a, b in zip(clips, starts, starts[1:]):
            assert stacked[a:b].tobytes() == clip_rpp_masks(clip, regions, grid).tobytes()


# ---------------------------------------------------------------------------
# landmark file round-trip


def test_landmark_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    clip = LandmarkClip(rng.uniform(-0.4, 1.4, size=(4, 68, 2)))
    path = tmp_path / "lm.json"
    save_landmarks(str(path), "sample-01", clip)
    media_id, loaded = load_landmarks(str(path))
    assert media_id == "sample-01"
    assert np.array_equal(loaded.points, clip.points)


def test_landmark_json_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"frames": []}))
    with pytest.raises(ValueError):
        load_landmarks(str(path))


POINT = [0.5, 0.5]


@pytest.mark.parametrize(
    "frames, message",
    [
        ([[POINT] * 68] * 9, r"clip has 9 frames, exceeds max of 8"),
        (
            [[POINT] * 68, [POINT] * 12 + [[0.5, 3.0]] + [POINT] * 55],
            r"frame 1: landmark point 12 \[0\.5, 3\.0\] lies outside \[-0\.5, 1\.5\]",
        ),
        ([[POINT] * 68, [POINT] * 67], r"frames\[1\] has 67 entries, not 68$"),
        (
            [[POINT] * 68, [POINT] * 67 + [[0.5, {"x": 0.5}]]],
            r'frames\[1\]\[67\]\[1\] is \{"x": 0\.5\}, not a number$',
        ),
        (
            [[POINT] * 68, [POINT] * 7 + [[True, 0.5]] + [POINT] * 60],
            r"frames\[1\]\[7\]\[0\] is true, not a number$",
        ),
        (
            [[POINT] * 3 + [[0.5, "0.5"]] + [POINT] * 64],
            r'frames\[0\]\[3\]\[1\] is "0\.5", not a number$',
        ),
        (3, r"frames is 3, not a list$"),
    ],
    ids=[
        "nine_frames", "out_of_range", "short_frame", "point_not_a_number", "point_is_a_boolean",
        "point_is_a_numeric_string", "frames_not_a_list",
    ],
)
def test_load_landmarks_errors_name_the_file_frame_and_point(tmp_path, frames, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"id": "clip-0", "frames": frames}))
    with pytest.raises(ValueError, match=r"bad\.json: " + message):
        load_landmarks(str(path))


def test_whole_face_mask_is_distance_to_the_all_point_centroid():
    rng = np.random.default_rng(21)
    clip = LandmarkClip(rng.uniform(0.0, 1.0, size=(3, 68, 2)))
    grid = PatchGrid(3, 5)
    masks = clip_rpp_masks(clip, WHOLE_FACE, grid)
    assert WHOLE_FACE.num_regions == 1 and masks.shape == (3, 15, 1)
    for t, frame in enumerate(clip.points):
        centroid = frame.mean(axis=0)
        dist = np.linalg.norm(patch_centroids(grid) - centroid, axis=1)
        np.testing.assert_allclose(masks[t, :, 0], -dist, rtol=1e-12)
