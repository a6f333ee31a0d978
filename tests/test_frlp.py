import numpy as np
import pytest

from facecond.frlp import (
    combine_tokens,
    frlp_backward,
    frlp_forward,
    global_project,
    init_frlp,
    local_project,
    select_tokens,
)
from facecond.geometry import LandmarkClip, RegionPartition, default_partition
from facecond.gradcheck import check_named_gradients


def random_clip(rng, frames=2):
    return LandmarkClip(rng.uniform(0.0, 1.0, size=(frames, 68, 2)))


def zeroed(params):
    for w in params.local_weights:
        w[:] = 0.0
    params.global_weight[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_under_seed():
    part = default_partition()
    a = init_frlp(4, part, seed=0)
    b = init_frlp(4, part, seed=0)
    for wa, wb in zip(a.local_weights, b.local_weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.global_weight, b.global_weight)
    c = init_frlp(4, part, seed=1)
    assert not np.array_equal(a.global_weight, c.global_weight)


def test_init_shapes_and_scaling():
    part = default_partition()
    params = init_frlp(4, part, seed=0)
    assert params.local_weights[0].shape == (4, 34)  # jaw: 2 * 17
    assert params.group_sizes() == part.sizes()
    assert all(np.all(b == 0.0) for b in params.local_biases)
    params8 = init_frlp(8, part, seed=0)
    assert params8.global_weight.shape == (8, 136)  # 2 * 68
    bound = 1.0 / np.sqrt(136)
    assert np.abs(params8.global_weight).max() <= bound
    with pytest.raises(ValueError):
        init_frlp(0, part, seed=0)


# ---------------------------------------------------------------------------
# projections


def test_local_project_zero_params():
    rng = np.random.default_rng(0)
    part = default_partition()
    params = zeroed(init_frlp(4, part, seed=0))
    out = local_project(random_clip(rng), part, params)
    assert out.shape == (2, 9, 4)
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
    params.local_weights[0][:] = 0.0
    params.local_weights[0][0, 0] = 1.0  # x passthrough
    params.local_weights[0][1, 1] = 1.0  # y passthrough
    out = local_project(clip, part, params)
    x, y = clip.points[0, 33]
    assert np.allclose(out[0, 0], [x, y, 0.0, 0.0])


def test_local_project_matches_matmul_oracle():
    rng = np.random.default_rng(2)
    part = default_partition()
    params = init_frlp(5, part, seed=3)
    clip = random_clip(rng, frames=3)
    out = local_project(clip, part, params)
    for t in range(3):
        pts = clip.points[t]
        for i, (_, idx) in enumerate(part.groups):
            flat = []
            for j in idx:
                flat.extend([pts[j, 0], pts[j, 1]])
            expected = [
                sum(params.local_weights[i][r, k] * flat[k] for k in range(len(flat)))
                + params.local_biases[i][r]
                for r in range(5)
            ]
            assert np.allclose(out[t, i], expected, rtol=1e-12)


def test_global_project_bias_only():
    rng = np.random.default_rng(4)
    part = default_partition()
    params = zeroed(init_frlp(3, part, seed=0))
    params.global_bias[:] = [1.0, -2.0, 0.5]
    out = global_project(random_clip(rng, frames=4), params)
    assert out.shape == (4, 1, 3)
    assert np.allclose(out, np.array([1.0, -2.0, 0.5]))


def test_global_project_matches_matmul_oracle():
    rng = np.random.default_rng(5)
    part = default_partition()
    params = init_frlp(4, part, seed=6)
    clip = random_clip(rng, frames=2)
    out = global_project(clip, params)
    for t in range(2):
        flat = clip.points[t].reshape(-1)
        expected = params.global_weight @ flat + params.global_bias
        assert np.allclose(out[t, 0], expected, rtol=1e-12)


def test_params_partition_mismatch_rejected():
    part = default_partition()
    params = init_frlp(4, part, seed=0)
    groups = (("a", tuple(range(0, 30))), ("b", tuple(range(30, 68))))
    other = RegionPartition(groups)
    with pytest.raises(ValueError):
        local_project(random_clip(np.random.default_rng(0)), other, params)


# ---------------------------------------------------------------------------
# combination


def test_combine_zero_global_is_local():
    rng = np.random.default_rng(7)
    local = rng.normal(size=(2, 9, 4))
    tokens = combine_tokens(local, np.zeros((2, 1, 4)))
    assert np.array_equal(tokens.combined, local)


def test_combine_zero_local_broadcasts_global():
    rng = np.random.default_rng(8)
    glob = rng.normal(size=(3, 1, 4))
    tokens = combine_tokens(np.zeros((3, 9, 4)), glob)
    for m in range(9):
        assert np.array_equal(tokens.combined[:, m, :], glob[:, 0, :])


def test_combine_matches_elementwise_sum():
    rng = np.random.default_rng(9)
    local = rng.normal(size=(2, 9, 3))
    glob = rng.normal(size=(2, 1, 3))
    tokens = combine_tokens(local, glob)
    for t in range(2):
        for m in range(9):
            for k in range(3):
                assert tokens.combined[t, m, k] == local[t, m, k] + glob[t, 0, k]


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        combine_tokens(np.zeros((2, 9, 4)), np.zeros((3, 1, 4)))
    with pytest.raises(ValueError):
        combine_tokens(np.zeros((2, 9, 4)), np.zeros((2, 2, 4)))


def test_select_tokens_modes():
    rng = np.random.default_rng(10)
    tokens = combine_tokens(rng.normal(size=(1, 9, 2)), rng.normal(size=(1, 1, 2)))
    assert select_tokens(tokens, "both") is tokens.combined
    assert select_tokens(tokens, "local_only") is tokens.local
    assert select_tokens(tokens, "global_only") is tokens.global_
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
    out_mix = local_project(LandmarkClip(a * arr1 + b * arr2), part, params)
    out1 = local_project(LandmarkClip(arr1), part, params)
    out2 = local_project(LandmarkClip(arr2), part, params)
    assert np.allclose(out_mix, a * out1 + b * out2, rtol=1e-12, atol=1e-12)


def test_region_and_frame_independence():
    rng = np.random.default_rng(13)
    part = default_partition()
    params = init_frlp(4, part, seed=14)
    base = rng.uniform(0.2, 0.8, size=(3, 68, 2))
    tokens = frlp_forward(LandmarkClip(base), part, params)

    perturbed = base.copy()
    perturbed[1, 36:42] += 0.05  # right eye (group 5) in frame 1
    tokens2 = frlp_forward(LandmarkClip(perturbed), part, params)

    diff_local = tokens2.local - tokens.local
    changed = np.abs(diff_local) > 0
    assert changed[1, 5].any()
    # only region column 5 of frame 1 moved in the local tokens
    mask = np.zeros_like(changed)
    mask[1, 5] = True
    assert not changed[~mask].any()
    # frame independence on all outputs
    assert np.array_equal(tokens2.combined[0], tokens.combined[0])
    assert np.array_equal(tokens2.combined[2], tokens.combined[2])
    assert np.array_equal(tokens2.global_[0], tokens.global_[0])


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

    grads = frlp_backward(weights, clip, part, params, mode=mode)
    arrays = {"global.weight": params.global_weight, "global.bias": params.global_bias}
    analytic = {"global.weight": grads.global_weight, "global.bias": grads.global_bias}
    for i in (0, 5, 8):
        arrays[f"local.{i}.weight"] = params.local_weights[i]
        arrays[f"local.{i}.bias"] = params.local_biases[i]
        analytic[f"local.{i}.weight"] = grads.local_weights[i]
        analytic[f"local.{i}.bias"] = grads.local_biases[i]
    errors = check_named_gradients(loss, arrays, analytic)
    assert max(errors.values()) < 1e-4
