import numpy as np
import pytest

from facecond.frlp import frlp_backward, frlp_forward, init_frlp, select_tokens
from facecond.geometry import WHOLE_FACE, LandmarkClip, RegionPartition, default_partition
from facecond.gradcheck import check_named_gradients
from facecond.registry import empty_like


def random_clip(rng, frames=2):
    return LandmarkClip(rng.uniform(0.0, 1.0, size=(frames, 68, 2)))


def zeroed(params):
    for w in params.weights:
        w[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_under_seed():
    part = default_partition()
    a = init_frlp(4, part, seed=0)
    b = init_frlp(4, part, seed=0)
    for wa, wb in zip(a.weights, b.weights, strict=True):
        assert np.array_equal(wa, wb)
    c = init_frlp(4, part, seed=1)
    assert not np.array_equal(a.weights[-1], c.weights[-1])


def test_init_shapes_and_scaling():
    part = default_partition()
    params = init_frlp(4, part, seed=0)
    assert params.weights[0].shape == (4, 34)  # jaw: 2 * 17
    # the partition's regions, then the whole face
    assert tuple(w.shape[1] // 2 for w in params.weights) == (*part.sizes(), 68)
    assert len(params.biases) == 10 and params.d == 4
    assert all(np.all(b == 0.0) for b in params.biases)
    params8 = init_frlp(8, part, seed=0)
    assert params8.weights[-1].shape == (8, 136)  # 2 * 68
    assert params8.d == 8
    bound = 1.0 / np.sqrt(136)
    assert np.abs(params8.weights[-1]).max() <= bound
    with pytest.raises(ValueError):
        init_frlp(0, part, seed=0)


# ---------------------------------------------------------------------------
# projections: frlp_forward gives the partition's region tokens, then the
# whole-face token


def test_local_project_zero_params():
    rng = np.random.default_rng(0)
    part = default_partition()
    params = zeroed(init_frlp(4, part, seed=0))
    out = frlp_forward(random_clip(rng), part, params)
    assert out.shape == (2, 10, 4)
    assert np.all(out == 0.0)


def test_local_project_identity_on_singleton_group():
    # test partition: nose tip alone in its own group
    groups = (
        ("point", (33,)),
        ("rest", tuple(i for i in range(68) if i != 33)),
    )
    part = RegionPartition(groups)
    rng = np.random.default_rng(1)
    clip = random_clip(rng, frames=1)
    params = init_frlp(4, part, seed=0)
    params.weights[0][:] = 0.0
    params.weights[0][0, 0] = 1.0  # x passthrough
    params.weights[0][1, 1] = 1.0  # y passthrough
    out = frlp_forward(clip, part, params)[:, :-1]
    assert out.shape == (1, 2, 4)
    x, y = clip.points[0, 33]
    assert np.allclose(out[0, 0], [x, y, 0.0, 0.0])


def test_local_project_matches_matmul_oracle():
    rng = np.random.default_rng(2)
    part = default_partition()
    params = init_frlp(5, part, seed=3)
    clip = random_clip(rng, frames=3)
    out = frlp_forward(clip, part, params)[:, :-1]
    for t in range(3):
        pts = clip.points[t]
        for i, (_, idx) in enumerate(part.groups):
            flat = []
            for j in idx:
                flat.extend([pts[j, 0], pts[j, 1]])
            expected = [
                sum(params.weights[i][r, k] * flat[k] for k in range(len(flat)))
                + params.biases[i][r]
                for r in range(5)
            ]
            assert np.allclose(out[t, i], expected, rtol=1e-12)


def test_global_project_bias_only():
    rng = np.random.default_rng(4)
    part = default_partition()
    params = zeroed(init_frlp(3, part, seed=0))
    params.biases[-1][:] = [1.0, -2.0, 0.5]
    out = frlp_forward(random_clip(rng, frames=4), part, params)[:, -1]
    assert out.shape == (4, 3)
    assert np.allclose(out, np.array([1.0, -2.0, 0.5]))


def test_global_project_matches_matmul_oracle():
    rng = np.random.default_rng(5)
    part = default_partition()
    params = init_frlp(4, part, seed=6)
    clip = random_clip(rng, frames=2)
    out = frlp_forward(clip, part, params)[:, -1]
    for t in range(2):
        flat = clip.points[t].reshape(-1)
        expected = params.weights[-1] @ flat + params.biases[-1]
        assert np.allclose(out[t], expected, rtol=1e-12)


def test_params_partition_mismatch_rejected():
    part = default_partition()
    params = init_frlp(4, part, seed=0)
    groups = (("a", tuple(range(0, 30))), ("b", tuple(range(30, 68))))
    other = RegionPartition(groups)
    clip = random_clip(np.random.default_rng(0))
    message = (
        r"params incompatible with partition: "
        r"input widths \(34, .*, 136\), expected \(60, 76, 136\)"
    )
    with pytest.raises(ValueError, match=message):
        frlp_forward(clip, other, params)
    with pytest.raises(ValueError, match=message):
        frlp_backward(np.zeros((2, 2, 4)), clip, other, params, out=empty_like(params))


# ---------------------------------------------------------------------------
# token selection over hand-built (T, 10, d) region tokens


def region_tokens(local, glob):
    return np.concatenate([local, glob], axis=1)


def test_combine_zero_global_is_local():
    rng = np.random.default_rng(7)
    local = rng.normal(size=(2, 9, 4))
    combined = select_tokens(region_tokens(local, np.zeros((2, 1, 4))), "both")
    assert np.array_equal(combined, local)


def test_combine_zero_local_broadcasts_global():
    rng = np.random.default_rng(8)
    glob = rng.normal(size=(3, 1, 4))
    combined = select_tokens(region_tokens(np.zeros((3, 9, 4)), glob), "both")
    assert combined.shape == (3, 9, 4)
    for m in range(9):
        assert np.array_equal(combined[:, m, :], glob[:, 0, :])


def test_combine_matches_elementwise_sum():
    rng = np.random.default_rng(9)
    local = rng.normal(size=(2, 9, 3))
    glob = rng.normal(size=(2, 1, 3))
    combined = select_tokens(region_tokens(local, glob), "both")
    for t in range(2):
        for m in range(9):
            for k in range(3):
                assert combined[t, m, k] == local[t, m, k] + glob[t, 0, k]


def test_select_tokens_modes():
    rng = np.random.default_rng(10)
    local, glob = rng.normal(size=(1, 9, 2)), rng.normal(size=(1, 1, 2))
    tokens = region_tokens(local, glob)
    assert np.array_equal(select_tokens(tokens, "both"), local + glob)
    assert np.array_equal(select_tokens(tokens, "local_only"), local)
    assert np.array_equal(select_tokens(tokens, "global_only"), glob)
    with pytest.raises(ValueError):
        select_tokens(tokens, "bogus")


# ---------------------------------------------------------------------------
# linearity / locality properties


def test_linearity_with_zero_bias():
    rng = np.random.default_rng(11)
    part = default_partition()
    params = init_frlp(4, part, seed=12)
    a, b = 0.6, 0.3  # mix stays inside the accepted coordinate band
    arr1 = rng.uniform(0.1, 0.9, size=(2, 68, 2))
    arr2 = rng.uniform(0.1, 0.9, size=(2, 68, 2))
    out_mix = frlp_forward(LandmarkClip(a * arr1 + b * arr2), part, params)
    out1 = frlp_forward(LandmarkClip(arr1), part, params)
    out2 = frlp_forward(LandmarkClip(arr2), part, params)
    # every region token and the whole-face token
    assert out_mix.shape == (2, 10, 4)
    np.testing.assert_allclose(out_mix, a * out1 + b * out2, rtol=1e-12, atol=1e-12)


def test_region_and_frame_independence():
    rng = np.random.default_rng(13)
    part = default_partition()
    params = init_frlp(4, part, seed=14)
    base = rng.uniform(0.2, 0.8, size=(3, 68, 2))
    tokens = frlp_forward(LandmarkClip(base), part, params)

    perturbed = base.copy()
    perturbed[1, 36:42] += 0.05  # right eye (group 5) in frame 1
    tokens2 = frlp_forward(LandmarkClip(perturbed), part, params)

    diff_local = tokens2[:, :-1] - tokens[:, :-1]
    changed = np.abs(diff_local) > 0
    assert changed[1, 5].any()
    # only region column 5 of frame 1 moved in the local tokens
    mask = np.zeros_like(changed)
    mask[1, 5] = True
    assert not changed[~mask].any()
    # frame independence on all outputs
    assert np.array_equal(select_tokens(tokens2, "both")[0], select_tokens(tokens, "both")[0])
    assert np.array_equal(select_tokens(tokens2, "both")[2], select_tokens(tokens, "both")[2])
    assert np.array_equal(tokens2[0, -1], tokens[0, -1])


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("mode", ["both", "local_only", "global_only"])
def test_frlp_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(15)
    part = default_partition()
    params = init_frlp(4, part, seed=16)
    clip = random_clip(rng, frames=2)
    shape = {"both": (2, 9, 4), "local_only": (2, 9, 4), "global_only": (2, 1, 4)}[mode]
    weights = rng.normal(size=shape)

    def loss():
        tokens = frlp_forward(clip, part, params)
        return float((select_tokens(tokens, mode) * weights).sum())

    grads = empty_like(params)
    frlp_backward(weights, clip, part, params, mode=mode, out=grads)
    arrays, analytic = {}, {}
    for i in (0, 5, 8, 9):  # 9 is the whole-face region
        arrays[f"{i}.weight"], arrays[f"{i}.bias"] = params.weights[i], params.biases[i]
        analytic[f"{i}.weight"], analytic[f"{i}.bias"] = grads.weights[i], grads.biases[i]
    errors = check_named_gradients(loss, arrays, analytic)
    assert max(errors.values()) < 1e-4

    # a cotangent whose frames, tokens or width differ from the selected
    # tokens is rejected, whatever the mode
    T, M, d = shape
    for wrong in [(T + 1, M, d), (T, M + 1, d), (T, 10, d), (T, M, d + 1), (M, d)]:
        with pytest.raises(ValueError, match=r"^cotangent has shape .*, expected "):
            frlp_backward(np.zeros(wrong), clip, part, params, mode=mode, out=grads)


@pytest.mark.parametrize("mode", ["both", "local_only", "global_only"])
def test_frlp_equals_a_per_group_gather_on_a_shuffled_partition(mode):
    # groups neither contiguous nor ascending; each region's input is its
    # points gathered in the group's own order, x before y
    rng = np.random.default_rng(31)
    order = rng.permutation(68).tolist()
    part = RegionPartition((("a", tuple(order[:5])), ("b", tuple(order[5:29])), ("c", tuple(order[29:]))))
    params = init_frlp(6, part, seed=2)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    for frames in range(1, 9):
        clip = random_clip(rng, frames)
        inputs = [
            clip.points[:, list(idx), :].reshape(frames, -1)
            for _, idx in (*part.groups, *WHOLE_FACE.groups)
        ]
        expected = np.stack(
            [x @ w.T + b for x, w, b in zip(inputs, params.weights, params.biases)], axis=1
        )
        assert np.array_equal(frlp_forward(clip, part, params), expected)

        d_tokens = rng.normal(size=select_tokens(expected, mode).shape)
        d_regions = np.zeros(expected.shape)
        if mode == "global_only":
            d_regions[:, -1:] = d_tokens
        else:
            d_regions[:, :-1] = d_tokens
            if mode == "both":
                d_regions[:, -1] = d_tokens.sum(axis=1)
        grads = empty_like(params)
        frlp_backward(d_tokens, clip, part, params, mode=mode, out=grads)
        for i, x in enumerate(inputs):
            assert np.array_equal(grads.weights[i], d_regions[:, i].T @ x), (frames, i)
            assert np.array_equal(grads.biases[i], d_regions[:, i].sum(axis=0)), (frames, i)
