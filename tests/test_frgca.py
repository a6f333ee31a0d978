import numpy as np
import pytest

from facecond.frgca import (
    FrgcaParams,
    attention_maps_json,
    frgca_backward,
    frgca_forward,
    init_frgca,
)
from facecond.gradcheck import check_named_gradients
from facecond.registry import empty_like


def random_instance(rng, T=2, N=4, M=3, d=4, heads=2, seed=0):
    params = init_frgca(d, heads=heads, seed=seed)
    h_v = rng.normal(size=(T, N, d))
    h_l = rng.normal(size=(T, M, d))
    mask = -np.abs(rng.normal(size=(T, N, M)))
    return h_v, h_l, mask, params


def named_param_arrays(params):
    return {
        "w_q": params.w_q,
        "b_q": params.b_q,
        "w_k": params.w_k,
        "w_v": params.w_v,
        "b_v": params.b_v,
        "w_o": params.w_o,
        "b_o": params.b_o,
    }


# ---------------------------------------------------------------------------
# forward


def test_zero_output_projection_is_residual_identity():
    rng = np.random.default_rng(0)
    h_v, h_l, mask, params = random_instance(rng)
    params.w_o[:] = 0.0
    params.b_o[:] = 0.0
    out = frgca_forward(h_v, h_l, mask, params)
    assert np.array_equal(out, h_v)


def test_constant_mask_equals_zero_mask():
    rng = np.random.default_rng(1)
    h_v, h_l, mask, params = random_instance(rng)
    const_mask = np.full_like(mask, -3.7)
    zero_mask = np.zeros_like(mask)
    out_const = frgca_forward(h_v, h_l, const_mask, params)
    out_zero = frgca_forward(h_v, h_l, zero_mask, params)
    assert np.allclose(out_const, out_zero, rtol=1e-12, atol=1e-12)


def test_tiny_single_head_matches_scalar_oracle():
    # N=2, M=2, d=2, one head, hand-set parameters. Expected values frozen
    # from an independent scalar-arithmetic computation of
    # softmax(QK^T/sqrt(d_head) + mask) V -> output projection -> residual.
    h_v = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    h_l = np.array([[[1.0, 2.0], [-1.0, 0.0]]])
    mask = np.array([[[0.0, -1.0], [-0.5, 0.0]]])
    params = FrgcaParams(
        w_q=np.array([[1.0, 0.0], [0.0, 1.0]]),
        b_q=np.zeros(2),
        w_k=np.array([[0.0, 1.0], [1.0, 0.0]]),
        w_v=np.array([[1.0, 1.0], [0.0, 1.0]]),
        b_v=np.array([0.0, 0.2]),
        w_o=np.array([[0.5, 0.0], [0.0, 0.5]]),
        b_o=np.array([0.05, -0.05]),
        heads=1,
    )
    out = frgca_forward(h_v, h_l, mask, params)
    expected = np.array(
        [
            [
                [2.385809514139366, 0.9679047570696828],
                [0.9777232270491836, 1.763861613524592],
            ]
        ]
    )
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)


def test_variant_simple_equals_frgca_with_zero_mask():
    rng = np.random.default_rng(3)
    h_v, h_l, mask, params = random_instance(rng)
    out_simple = frgca_forward(h_v, h_l, None, params, variant="simple")
    out_zero = frgca_forward(h_v, h_l, np.zeros_like(mask), params, variant="frgca")
    assert np.allclose(out_simple, out_zero, rtol=1e-12, atol=0)


def test_shape_preserved_no_tokens_appended():
    rng = np.random.default_rng(4)
    for variant in ("frgca", "simple"):
        h_v, h_l, mask, params = random_instance(rng, T=3, N=5, M=9)
        out = frgca_forward(h_v, h_l, mask, params, variant=variant)
        assert out.shape == h_v.shape  # sequence stays T x N


def test_forward_validation_errors():
    rng = np.random.default_rng(5)
    h_v, h_l, mask, params = random_instance(rng)
    with pytest.raises(ValueError):
        frgca_forward(h_v, h_l[:, :, :2], mask, params)  # token dim mismatch
    with pytest.raises(ValueError):
        frgca_forward(h_v, h_l, mask[:, :, :2], params)  # mask mismatch
    with pytest.raises(ValueError):
        frgca_forward(h_v, h_l, None, params)  # missing mask for frgca
    bad = h_v.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        frgca_forward(bad, h_l, mask, params)
    with pytest.raises(ValueError):
        frgca_forward(h_v, h_l, mask, params, variant="bogus")
    with pytest.raises(ValueError):
        init_frgca(4, d_attn=6, heads=4)


@pytest.mark.parametrize("name", ["h_l", "mask"])
def test_forward_names_non_finite_landmark_tokens_or_mask(name):
    rng = np.random.default_rng(5)
    h_v, h_l, mask, params = random_instance(rng)
    inputs = {"h_l": h_l.copy(), "mask": mask.copy()}
    inputs[name][0, 1, 1] = np.nan
    with pytest.raises(ValueError, match=rf"^{name} contains non-finite values$"):
        frgca_forward(h_v, inputs["h_l"], inputs["mask"], params)


# ---------------------------------------------------------------------------
# attention weights


def test_uniform_attention_when_logits_zero():
    rng = np.random.default_rng(6)
    h_v, h_l, _, params = random_instance(rng, M=9)
    params.w_q[:] = 0.0
    params.b_q[:] = 0.0
    mask = np.zeros((2, 4, 9))
    attn = frgca_forward(h_v, h_l, mask, params, return_cache=True)[1].attn
    assert np.allclose(attn, 1.0 / 9.0, rtol=0, atol=1e-15)


def test_mask_saturation_suppresses_entry():
    rng = np.random.default_rng(7)
    h_v, h_l, mask, params = random_instance(rng)
    mask[0, 1, 2] = -1e9
    attn = frgca_forward(h_v, h_l, mask, params, return_cache=True)[1].attn
    assert np.all(attn[0, :, 1, 2] < 1e-12)


def test_rows_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(25):
        h_v, h_l, mask, params = random_instance(rng, seed=int(rng.integers(1000)))
        attn = frgca_forward(h_v, h_l, mask, params, return_cache=True)[1].attn
        assert np.all(attn >= 0.0)
        assert np.all(attn <= 1.0)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


def test_mask_pulls_attention_toward_nearest_region():
    rng = np.random.default_rng(9)
    h_v, h_l, mask, params = random_instance(rng, M=9)
    params.w_q[:] = 0.0  # force QK^T = 0; attention is softmax of the mask
    params.b_q[:] = 0.0
    attn = frgca_forward(h_v, h_l, mask, params, return_cache=True)[1].attn
    uniform = 1.0 / mask.shape[-1]
    for t in range(mask.shape[0]):
        for n in range(mask.shape[1]):
            nearest = int(np.argmax(mask[t, n]))
            assert np.all(attn[t, :, n, nearest] >= uniform - 1e-12)


def test_frgca_forward_rejects_variant_none():
    rng = np.random.default_rng(10)
    h_v, h_l, mask, params = random_instance(rng)
    with pytest.raises(ValueError):
        frgca_forward(h_v, h_l, mask, params, variant="none", return_cache=True)


def test_attention_maps_json_layout():
    rng = np.random.default_rng(11)
    h_v, h_l, mask, params = random_instance(rng, T=2, heads=2)
    attn = frgca_forward(h_v, h_l, mask, params, return_cache=True)[1].attn
    maps = attention_maps_json(attn)
    assert len(maps) == 4  # T * heads
    assert maps[0]["frame"] == 0 and maps[0]["head"] == 0
    assert maps[3]["frame"] == 1 and maps[3]["head"] == 1
    assert np.allclose(maps[2]["weights"], attn[1, 0])


# ---------------------------------------------------------------------------
# backward


def test_backward_residual_only_when_wo_zero():
    rng = np.random.default_rng(13)
    h_v, h_l, mask, params = random_instance(rng)
    params.w_o[:] = 0.0
    out, cache = frgca_forward(h_v, h_l, mask, params, return_cache=True)
    d_h_v, _ = frgca_backward(np.ones_like(out), cache, empty_like(params))
    assert np.array_equal(d_h_v, np.ones_like(h_v))


def test_backward_zero_cotangent_gives_zero_grads():
    rng = np.random.default_rng(14)
    h_v, h_l, mask, params = random_instance(rng)
    _, cache = frgca_forward(h_v, h_l, mask, params, return_cache=True)
    grads = empty_like(params)
    d_h_v, d_h_l = frgca_backward(np.zeros_like(h_v), cache, grads)
    assert np.all(d_h_v == 0.0)
    assert np.all(d_h_l == 0.0)
    for arr in named_param_arrays(params):
        assert np.all(getattr(grads, arr) == 0.0)


def test_backward_requires_cache():
    with pytest.raises(ValueError):
        frgca_backward(np.zeros((1, 2, 2)), None, empty_like(init_frgca(2, heads=1)))


def test_backward_rejects_mismatched_cotangent():
    rng = np.random.default_rng(15)
    h_v, h_l, mask, params = random_instance(rng)
    _, cache = frgca_forward(h_v, h_l, mask, params, return_cache=True)
    with pytest.raises(ValueError):
        frgca_backward(np.zeros((1, 1, 1)), cache, empty_like(params))


@pytest.mark.parametrize("variant", ["frgca", "simple"])
def test_gradients_match_finite_differences(variant):
    rng = np.random.default_rng(16)
    h_v, h_l, mask, params = random_instance(rng, T=2, N=8, M=9, d=8, heads=2, seed=17)
    assert params.scale_factor() == pytest.approx(2.0)  # sqrt(d_head), d_head = 8 / 2
    weights = rng.normal(size=h_v.shape)

    def loss():
        return float((frgca_forward(h_v, h_l, mask, params, variant=variant) * weights).sum())

    _, cache = frgca_forward(h_v, h_l, mask, params, variant=variant, return_cache=True)
    grads = empty_like(params)
    frgca_backward(weights, cache, grads)
    arrays = named_param_arrays(params)
    analytic = named_param_arrays(grads)
    errors = check_named_gradients(loss, arrays, analytic)
    assert max(errors.values()) < 1e-4, errors


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    h_v, h_l, mask, params = random_instance(rng, T=1, N=4, M=3, d=4, heads=2, seed=19)
    weights = rng.normal(size=h_v.shape)

    def loss():
        return float((frgca_forward(h_v, h_l, mask, params) * weights).sum())

    _, cache = frgca_forward(h_v, h_l, mask, params, return_cache=True)
    d_h_v, d_h_l = frgca_backward(weights, cache, empty_like(params))
    errors = check_named_gradients(
        loss, {"h_v": h_v, "h_l": h_l}, {"h_v": d_h_v, "h_l": d_h_l}
    )
    assert max(errors.values()) < 1e-4, errors
