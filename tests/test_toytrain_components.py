import math
import re

import numpy as np
import pytest
from scipy.special import erf

from facecond.gradcheck import check_named_gradients
from facecond.registry import empty_like
from facecond.toytrain import projector
from facecond.toytrain.decoder import (
    autoregressive_loss,
    decoder_backward,
    init_decoder,
    response_predictions,
    sequence_assemble,
)
from facecond.toytrain.projector import (
    init_vision_projector,
    vision_backward,
    vision_project,
)
from facecond.toytrain.synth import synth_dataset, template_frame


# ---------------------------------------------------------------------------
# vision projector


def test_vision_project_zero_weights():
    params = init_vision_projector(3, 4, seed=0)
    params.w1[:] = 0.0
    params.w2[:] = 0.0
    out = vision_project(np.random.default_rng(0).normal(size=(2, 5, 3)), params)[0]
    assert np.all(out == 0.0)


def test_vision_project_identity_region():
    # identity-initialized layers act as the identity where gelu(x) ~ x
    params = init_vision_projector(4, 4, seed=0)
    params.w1[:] = np.eye(4)
    params.b1[:] = 0.0
    params.w2[:] = np.eye(4)
    params.b2[:] = 0.0
    raw = np.random.default_rng(1).uniform(5.0, 8.0, size=(1, 3, 4))
    out = vision_project(raw, params)[0]
    assert np.allclose(out, raw, atol=1e-4)


def test_vision_project_matches_two_layer_oracle():
    rng = np.random.default_rng(2)
    params = init_vision_projector(3, 4, hidden=5, seed=3)
    raw = rng.normal(size=(2, 3, 3))
    out = vision_project(raw, params)[0]
    for t in range(2):
        for n in range(3):
            pre = params.w1 @ raw[t, n] + params.b1
            hidden = np.array([0.5 * z * (1 + math.erf(z / math.sqrt(2))) for z in pre])
            expected = params.w2 @ hidden + params.b2
            assert np.allclose(out[t, n], expected, rtol=1e-12)


def test_vision_shape_validation():
    params = init_vision_projector(3, 4, seed=0)
    with pytest.raises(ValueError):
        vision_project(np.zeros((2, 5, 4)), params)


def test_vision_projector_rejects_an_empty_hidden_layer():
    with pytest.raises(ValueError, match="hidden must be >= 1, got 0"):
        init_vision_projector(3, 4, hidden=0)


def _projector_case(T, N, d, d_raw, seed):
    rng = np.random.default_rng(seed)
    params = init_vision_projector(d_raw, d, seed=seed)
    for bias in (params.b1, params.b2):
        bias[:] = rng.normal(size=bias.shape)
    return params, rng.normal(size=(T, N, d_raw)), rng.normal(size=(T, N, d))


# (T, N, d, d_raw): the toy training shape and the paper_step shape
PROJECTOR_SHAPES = {"toy": (1, 16, 16, 8), "paper": (8, 256, 256, 64)}


@pytest.mark.parametrize("shape", PROJECTOR_SHAPES)
def test_vision_projector_is_bit_exact_to_the_textbook_gelu(shape):
    """The projector reorders no product or sum of the textbook GELU and
    its slope, so its output and fc1 gradient equal them bit for bit."""
    params, raw, g = _projector_case(*PROJECTOR_SHAPES[shape], seed=6)
    x = raw @ params.w1.T + params.b1
    hidden = 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    slope = (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
             + x * (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x))
    d_pre = (g @ params.w2) * slope
    rows = raw.shape[0] * raw.shape[1]

    out, cache = vision_project(raw, params)
    grads = empty_like(params)
    vision_backward(g, cache, grads)
    assert np.array_equal(out, hidden @ params.w2.T + params.b2)
    assert np.array_equal(grads.w1, d_pre.reshape(rows, -1).T @ raw.reshape(rows, -1))


def test_vision_projector_computes_erf_once_per_step(monkeypatch):
    calls = []

    def counted_erf(*args, **kwargs):
        calls.append(1)
        return erf(*args, **kwargs)

    monkeypatch.setattr(projector, "erf", counted_erf)
    params, raw, g = _projector_case(*PROJECTOR_SHAPES["toy"], seed=7)
    _, cache = vision_project(raw, params)
    assert len(calls) == 1
    vision_backward(g, cache, empty_like(params))
    assert len(calls) == 1


def test_vision_gradients():
    rng = np.random.default_rng(4)
    params = init_vision_projector(3, 4, seed=5)
    raw = rng.normal(size=(2, 4, 3))
    weights = rng.normal(size=(2, 4, 4))

    def loss():
        return float((vision_project(raw, params)[0] * weights).sum())

    _, cache = vision_project(raw, params)
    grads = empty_like(params)
    vision_backward(weights, cache, grads)
    errors = check_named_gradients(
        loss,
        {"w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2},
        {"w1": grads.w1, "b1": grads.b1, "w2": grads.w2, "b2": grads.b2},
    )
    assert max(errors.values()) < 1e-4


# ---------------------------------------------------------------------------
# sequence assembly


def test_sequence_length_additivity():
    decoder = init_decoder(8, 4, seed=0)
    visual = np.zeros((1, 4, 4))
    seq = sequence_assemble(visual, [5, 6], [1, 2, 3], decoder)
    assert seq.length == 9
    assert seq.n_visual == 4


def test_sequence_context_overflow():
    decoder = init_decoder(8, 2, seed=0)
    visual = np.zeros((8, 256, 2))  # exactly the 2048-token window
    seq = sequence_assemble(visual, [], [], decoder)
    assert seq.length == 2048
    with pytest.raises(ValueError):
        sequence_assemble(visual, [1], [], decoder)


def test_sequence_empty_response_allowed():
    decoder = init_decoder(8, 4, seed=0)
    seq = sequence_assemble(np.zeros((2, 3, 4)), [1, 2], [], decoder)
    assert seq.length == 2 * 3 + 2


def test_sequence_visual_block_is_flattened_tokens():
    rng = np.random.default_rng(1)
    decoder = init_decoder(8, 4, seed=0)
    visual = rng.normal(size=(2, 3, 4))
    seq = sequence_assemble(visual, [7], [0], decoder)
    assert np.array_equal(seq.rows[:6], visual.reshape(6, 4))
    assert np.array_equal(seq.rows[6], decoder.embedding[7])
    assert np.array_equal(seq.rows[7], decoder.embedding[0])


def test_sequence_rejects_bad_token_ids():
    decoder = init_decoder(4, 2, seed=0)
    with pytest.raises(ValueError):
        sequence_assemble(np.zeros((1, 2, 2)), [4], [0], decoder)


@pytest.mark.parametrize(
    "instruction, response, message",
    [
        ([1.5], [0], "instruction token id 1.5 is not an integer"),
        (["3"], [0], "instruction token id '3' is not an integer"),
        ([0], [np.float64(2.7)], "response token id np.float64(2.7) is not an integer"),
        ([np.True_], [0], "instruction token id np.True_ is not an integer"),
        ([0], [None], "response token id None is not an integer"),
    ],
    ids=["float", "string", "numpy_float", "numpy_bool", "none"],
)
def test_sequence_names_a_token_id_that_is_not_an_integer(instruction, response, message):
    decoder = init_decoder(4, 2, seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sequence_assemble(np.zeros((1, 2, 2)), instruction, response, decoder)


def test_sequence_takes_numpy_integer_token_ids():
    decoder = init_decoder(4, 2, seed=0)
    seq = sequence_assemble(
        np.zeros((1, 2, 2)), [np.int64(3), np.uint8(1)], np.array([2, 0]), decoder
    )
    assert seq.instruction_ids == (3, 1) and seq.response_ids == (2, 0)
    assert all(type(i) is int for i in seq.instruction_ids + seq.response_ids)
    assert seq.token_ids.tolist() == [3, 1, 2, 0]
    assert seq.target_index.tolist() == [2, 4]


# ---------------------------------------------------------------------------
# autoregressive loss


def test_uniform_logits_loss_is_log_vocab():
    decoder = init_decoder(4, 3, seed=0)
    decoder.readout_w[:] = 0.0
    decoder.readout_b[:] = 0.0
    seq = sequence_assemble(np.zeros((1, 2, 3)), [0], [1, 2, 3], decoder)
    loss = autoregressive_loss(seq, decoder)[0]
    assert loss == pytest.approx(math.log(4.0), rel=1e-12)


def test_confident_correct_logits_loss_near_zero():
    decoder = init_decoder(4, 3, seed=0)
    decoder.embedding[:] = 0.0
    decoder.readout_w[:] = 0.0
    decoder.readout_b[:] = [0.0, 50.0, 0.0, 0.0]  # always predict token 1
    seq = sequence_assemble(np.zeros((1, 2, 3)), [0], [1, 1], decoder)
    loss = autoregressive_loss(seq, decoder)[0]
    assert loss < 1e-12


def test_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(6)
    decoder = init_decoder(5, 3, seed=7)
    visual = rng.normal(size=(1, 2, 3))
    targets = [2, 0, 4]
    seq = sequence_assemble(visual, [1, 3], targets, decoder)
    loss, cache = autoregressive_loss(seq, decoder)

    rows = [visual.reshape(2, 3)[0], visual.reshape(2, 3)[1],
            decoder.embedding[1], decoder.embedding[3],
            decoder.embedding[2], decoder.embedding[0], decoder.embedding[4]]
    total = 0.0
    for i, target in enumerate(targets):
        prefix = rows[: 4 + i]
        pooled = np.mean(prefix, axis=0)
        logits = decoder.readout_w @ pooled + decoder.readout_b
        log_z = math.log(sum(math.exp(v) for v in logits))
        total += -(logits[target] - log_z)
    assert loss == pytest.approx(total / 3, rel=1e-12)
    assert response_predictions(cache).shape == (3,)


def _fixed_logit_sequence(readout_b):
    """A sequence with targets 1 then 2, and the 4-token decoder that
    assembled it, whose logits are `readout_b` at every position."""
    decoder = init_decoder(4, 2, seed=0)
    decoder.readout_w[:] = 0.0
    decoder.readout_b[:] = readout_b
    return sequence_assemble(np.zeros((1, 2, 2)), [0], [1, 2], decoder), decoder


@pytest.mark.parametrize(
    "readout_b",
    [[0.0, -1e4, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]],
    ids=["target_probability_underflows", "nan_logit"],
)
def test_loss_raises_on_a_target_probability_that_is_zero_or_nan(readout_b):
    # pytest turns an escaping RuntimeWarning (log of 0, say) into an error
    seq, decoder = _fixed_logit_sequence(readout_b)
    with pytest.raises(FloatingPointError, match="^non-finite loss$"):
        autoregressive_loss(seq, decoder)


def test_loss_of_a_subnormal_target_probability_is_finite():
    # exp(-740) / 3 is ~1.4e-322, a subnormal float64 but still > 0
    seq, decoder = _fixed_logit_sequence([0.0, -740.0, 0.0, 0.0])
    loss, cache = autoregressive_loss(seq, decoder)
    assert 0.0 < cache.probs[0, 1] < np.finfo(np.float64).tiny
    assert loss == float(-np.log(cache.probs[[0, 1], [1, 2]]).mean())
    # about (740 + 2 log 3) / 2; a subnormal keeps only a few digits
    assert math.isfinite(loss) and 370.0 < loss < 372.0


def test_loss_requires_nonempty_matching_targets():
    decoder = init_decoder(4, 2, seed=0)
    seq = sequence_assemble(np.zeros((1, 2, 2)), [0], [], decoder)
    with pytest.raises(ValueError):
        autoregressive_loss(seq, decoder)


def test_decoder_gradients():
    rng = np.random.default_rng(8)
    decoder = init_decoder(5, 4, seed=9)
    visual = rng.normal(size=(1, 3, 4))
    targets = [1, 4]

    def loss():
        seq = sequence_assemble(visual, [2, 3], targets, decoder)
        return autoregressive_loss(seq, decoder)[0]

    seq = sequence_assemble(visual, [2, 3], targets, decoder)
    _, cache = autoregressive_loss(seq, decoder)
    grads = empty_like(decoder)
    d_visual = decoder_backward(cache, grads)
    errors = check_named_gradients(
        loss,
        {
            "embedding": decoder.embedding,
            "readout_w": decoder.readout_w,
            "readout_b": decoder.readout_b,
            "visual": visual,
        },
        {
            "embedding": grads.embedding,
            "readout_w": grads.readout_w,
            "readout_b": grads.readout_b,
            "visual": d_visual,
        },
    )
    assert max(errors.values()) < 1e-4, errors


@pytest.mark.parametrize("n_instruction", [1, 4])
@pytest.mark.parametrize("n_response", [1, 3])
def test_decoder_is_bit_exact_to_the_textbook_mean_pool(n_response, n_instruction):
    """Each pooled prefix is ``rows[:span].mean(axis=0)`` bit for bit, and
    the loss and every gradient round as the textbook NumPy expressions."""
    rng = np.random.default_rng(10 + n_response + n_instruction)
    decoder = init_decoder(16, 16, seed=11)
    visual = rng.normal(size=(1, 16, 16))
    instruction = rng.integers(0, 16, size=n_instruction).tolist()
    targets = rng.integers(0, 16, size=n_response).tolist()
    seq = sequence_assemble(visual, instruction, targets, decoder)
    loss, cache = autoregressive_loss(seq, decoder)
    grads = empty_like(decoder)
    d_visual = decoder_backward(cache, grads)

    R, n_prefix = n_response, 16 + n_instruction
    rows = np.concatenate(
        [visual.reshape(16, 16), decoder.embedding[instruction], decoder.embedding[targets]]
    )
    pooled = np.stack([rows[: n_prefix + i].mean(axis=0) for i in range(R)])
    logits = pooled @ decoder.readout_w.T + decoder.readout_b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    d_logits = probs.copy()
    d_logits[np.arange(R), targets] -= 1.0
    d_logits /= R
    d_pooled = d_logits @ decoder.readout_w
    d_rows = np.zeros_like(rows)
    for i in range(R):
        d_rows[: n_prefix + i] += d_pooled[i] / (n_prefix + i)
    d_embedding = np.zeros_like(decoder.embedding)
    np.add.at(d_embedding, instruction + targets, d_rows[16:])

    assert np.array_equal(cache.pooled, pooled)
    assert np.array_equal(cache.probs, probs)
    assert loss == float(-np.log(probs[np.arange(R), targets]).mean())
    assert np.array_equal(grads.readout_w, d_logits.T @ pooled)
    assert np.array_equal(grads.readout_b, d_logits.sum(axis=0))
    assert np.array_equal(grads.embedding, d_embedding)
    assert np.array_equal(d_visual, d_rows[:16].reshape(1, 16, 16))


def test_decoder_is_bit_exact_to_the_textbook_mean_pool_on_repeated_ids():
    """A response id that repeats and equals an instruction id: the flat
    target positions and the repeated embedding rows of ``np.add.at``
    round as the textbook NumPy expressions at R = 3."""
    rng = np.random.default_rng(14)
    decoder = init_decoder(16, 16, seed=11)
    visual = rng.normal(size=(1, 16, 16))
    instruction, targets = [5, 9], [9, 3, 9]
    seq = sequence_assemble(visual, instruction, targets, decoder)
    loss, cache = autoregressive_loss(seq, decoder)
    grads = empty_like(decoder)
    d_visual = decoder_backward(cache, grads)

    R, n_prefix = 3, 18
    rows = np.concatenate(
        [visual.reshape(16, 16), decoder.embedding[instruction], decoder.embedding[targets]]
    )
    pooled = np.stack([rows[: n_prefix + i].mean(axis=0) for i in range(R)])
    logits = pooled @ decoder.readout_w.T + decoder.readout_b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    d_logits = probs.copy()
    d_logits[np.arange(R), targets] -= 1.0
    d_logits /= R
    d_pooled = d_logits @ decoder.readout_w
    d_rows = np.zeros_like(rows)
    for i in range(R):
        d_rows[: n_prefix + i] += d_pooled[i] / (n_prefix + i)
    d_embedding = np.zeros_like(decoder.embedding)
    np.add.at(d_embedding, instruction + targets, d_rows[16:])

    assert seq.token_ids.tolist() == [5, 9, 9, 3, 9]
    assert seq.target_index.tolist() == [9, 16 + 3, 32 + 9]
    assert np.array_equal(cache.pooled, pooled)
    assert np.array_equal(cache.probs, probs)
    assert loss == float(-np.log(probs[np.arange(R), targets]).mean())
    assert np.array_equal(grads.readout_w, d_logits.T @ pooled)
    assert np.array_equal(grads.readout_b, d_logits.sum(axis=0))
    assert np.array_equal(grads.embedding, d_embedding)
    assert np.array_equal(d_visual, d_rows[:16].reshape(1, 16, 16))


# ---------------------------------------------------------------------------
# synthetic data


def test_template_frame_is_valid():
    frame = template_frame()
    assert frame.shape == (68, 2)
    assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_synth_deterministic_under_seed():
    a = synth_dataset(seed=3, size=10)
    b = synth_dataset(seed=3, size=10)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.raw, sb.raw)
        assert np.array_equal(sa.clip.points, sb.clip.points)
        assert sa.response_ids == sb.response_ids
    c = synth_dataset(seed=4, size=10)
    assert any(not np.array_equal(sa.raw, sc.raw) for sa, sc in zip(a, c))


def test_synth_size_and_shapes():
    data = synth_dataset(seed=0, size=7, frames=2, n_patches=9, d_raw=5)
    assert len(data) == 7
    assert data[0].raw.shape == (2, 9, 5)
    assert data[0].clip.num_frames == 2


def test_synth_label_balance():
    data = synth_dataset(seed=1, size=10_000)
    counts = np.bincount([s.label for s in data], minlength=9)
    target = 10_000 / 9
    assert np.all(np.abs(counts - target) <= 0.05 * target)


def test_synth_label_marks_moved_region():
    data = synth_dataset(seed=2, size=20)
    base = template_frame()
    from facecond.geometry import default_partition

    part = default_partition()
    for sample in data:
        pts = sample.clip.points[0]
        # the labelled region moved by ~REGION_SHIFT, everything else only jittered
        displacement = np.linalg.norm(pts - base, axis=1)
        moved = displacement > 0.05
        label_idx = set(part.groups[sample.label][1])
        assert set(np.nonzero(moved)[0]) == label_idx


def test_synth_global_task():
    data = synth_dataset(seed=0, size=8, task_kind="global", vocab=16)
    labels = {s.label for s in data}
    assert labels <= {0, 1, 2, 3}
    with pytest.raises(ValueError):
        synth_dataset(seed=0, size=2, task_kind="bogus")
    with pytest.raises(ValueError):
        synth_dataset(seed=0, size=2, vocab=10)  # 9 labels + 2 instruction tokens
