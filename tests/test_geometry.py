import json
import math

import numpy as np
import pytest

from facecond.geometry import (
    WHOLE_FACE,
    LandmarkClip,
    LandmarkFrame,
    PatchGrid,
    RegionPartition,
    clip_rpp_masks,
    default_partition,
    frames_from_array,
    load_landmarks,
    patch_centroids,
    region_centroids,
    rpp_mask,
    save_landmarks,
)


def random_frame(rng):
    return LandmarkFrame(rng.uniform(0.0, 1.0, size=(68, 2)))


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


# ---------------------------------------------------------------------------
# frames and clips


def test_frame_validation():
    with pytest.raises(ValueError):
        LandmarkFrame(np.zeros((67, 2)))
    bad = np.zeros((68, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match=r"landmark point 3 \[0\.0, nan\] lies outside"):
        LandmarkFrame(bad)
    bad = np.zeros((68, 2))
    bad[0, 0] = 1.6  # outside jitter band
    with pytest.raises(ValueError):
        LandmarkFrame(bad)
    LandmarkFrame(np.full((68, 2), -0.5))
    LandmarkFrame(np.full((68, 2), 1.5))


def test_clip_frame_count_limits():
    frame = LandmarkFrame(np.full((68, 2), 0.5))
    with pytest.raises(ValueError):
        LandmarkClip([])
    with pytest.raises(ValueError):
        LandmarkClip([frame] * 9)
    with pytest.raises(ValueError):
        frames_from_array(np.full((20, 68, 2), 0.5))
    clip = LandmarkClip([frame] * 8)
    assert clip.num_frames == 8
    assert clip.as_array().shape == (8, 68, 2)


# ---------------------------------------------------------------------------
# centroids


def test_constant_frame_centroids():
    frame = LandmarkFrame(np.full((68, 2), 0.5))
    cents = region_centroids(frame, default_partition())
    assert cents.shape == (9, 2)
    assert np.allclose(cents, 0.5)


def test_hexagon_eye_centroid():
    pts = np.full((68, 2), 0.5)
    angles = np.arange(6) * math.pi / 3.0
    center = np.array([0.3, 0.4])
    pts[36:42] = center + 0.05 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cents = region_centroids(LandmarkFrame(pts), default_partition())
    assert np.allclose(cents[5], center)  # right_eye is group 5


def test_region_centroids_match_mean_oracle():
    rng = np.random.default_rng(7)
    part = default_partition()
    for _ in range(20):
        frame = random_frame(rng)
        cents = region_centroids(frame, part)
        for i, (_, idx) in enumerate(part.groups):
            sx = sum(frame.points[j, 0] for j in idx) / len(idx)
            sy = sum(frame.points[j, 1] for j in idx) / len(idx)
            assert cents[i, 0] == pytest.approx(sx, rel=0, abs=1e-15)
            assert cents[i, 1] == pytest.approx(sy, rel=0, abs=1e-15)


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
    clip = frames_from_array(rng.uniform(0.2, 0.8, size=(3, 68, 2)))
    masks = clip_rpp_masks(clip, default_partition(), PatchGrid(4, 4))
    assert masks.shape == (3, 16, 9)
    # each frame's mask matches the single-frame computation
    for t, frame in enumerate(clip.frames):
        single = rpp_mask(
            region_centroids(frame, default_partition()),
            patch_centroids(PatchGrid(4, 4)),
        )
        assert np.array_equal(masks[t], single)


# ---------------------------------------------------------------------------
# landmark file round-trip


def test_landmark_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    clip = frames_from_array(rng.uniform(-0.4, 1.4, size=(4, 68, 2)))
    path = tmp_path / "lm.json"
    save_landmarks(str(path), "sample-01", clip)
    media_id, loaded = load_landmarks(str(path))
    assert media_id == "sample-01"
    assert np.array_equal(loaded.as_array(), clip.as_array())


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
        ([[POINT] * 68, [POINT] * 67], r"frame 1: .*shape \(67, 2\)"),
    ],
    ids=["nine_frames", "out_of_range", "short_frame"],
)
def test_load_landmarks_errors_name_the_file_frame_and_point(tmp_path, frames, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"id": "clip-0", "frames": frames}))
    with pytest.raises(ValueError, match=r"bad\.json: " + message):
        load_landmarks(str(path))


def test_whole_face_mask_is_distance_to_the_all_point_centroid():
    rng = np.random.default_rng(21)
    clip = frames_from_array(rng.uniform(0.0, 1.0, size=(3, 68, 2)))
    grid = PatchGrid(3, 5)
    masks = clip_rpp_masks(clip, WHOLE_FACE, grid)
    assert WHOLE_FACE.num_regions == 1 and masks.shape == (3, 15, 1)
    for t, frame in enumerate(clip.frames):
        centroid = frame.points.mean(axis=0)
        dist = np.linalg.norm(patch_centroids(grid) - centroid, axis=1)
        np.testing.assert_allclose(masks[t, :, 0], -dist, rtol=1e-12)
