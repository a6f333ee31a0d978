import ast
import math
from pathlib import Path

import numpy as np
import pytest

from facecond.frgca import FrgcaParams, frgca_backward
from facecond.registry import named, unflatten
from facecond.toytrain import training
from facecond.toytrain.decoder import ToyDecoderParams, decoder_backward
from facecond.toytrain.training import GROUPS, backward_pass
from facecond.toytrain import (
    AdamW,
    TrainConfig,
    cosine_lr,
    evaluate,
    forward_loss,
    init_model,
    model_arrays,
    parameter_group,
    synth_dataset,
    train,
    trainable_keys,
)


def tiny_config(**overrides):
    base = dict(
        stage="finetune",
        learning_rate=1e-3,
        epochs=1,
        seed=0,
        frames=1,
        grid_rows=2,
        grid_cols=2,
        d=8,
        heads=2,
        d_raw=4,
        vocab=16,
        variant="frgca",
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(cfg, seed=0, size=8):
    return synth_dataset(
        seed=seed,
        size=size,
        frames=cfg.frames,
        n_patches=cfg.n_patches,
        d_raw=cfg.d_raw,
        vocab=cfg.vocab,
    )


def snapshot(model):
    return {k: v.tobytes() for k, v in model_arrays(model).items()}


# ---------------------------------------------------------------------------
# config


def test_config_stage_lr_defaults():
    assert TrainConfig(stage="pretrain").resolved_lr == 1e-4
    assert TrainConfig(stage="finetune").resolved_lr == 2e-5
    assert TrainConfig(stage="pretrain", learning_rate=0.5).resolved_lr == 0.5
    assert TrainConfig().epochs == 1


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stage="warmup")
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"stage": "pretrain", "bogus": 1})
    with pytest.raises(ValueError, match="variant"):
        TrainConfig(variant="identity")
    with pytest.raises(ValueError, match="tokens"):
        TrainConfig(variant="none", tokens="all")


def test_config_dict_roundtrip():
    cfg = tiny_config(variant="simple", tokens="local_only")
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# schedule


def test_cosine_schedule_endpoints():
    base = 1e-4
    total = 500
    assert cosine_lr(base, 0, total) == base
    assert cosine_lr(base, total - 1, total) <= 1e-8 * base
    values = [cosine_lr(base, s, total) for s in range(total)]
    assert all(a >= b for a, b in zip(values, values[1:]))  # monotone decay


def test_cosine_schedule_single_step():
    assert cosine_lr(2e-5, 0, 1) == 2e-5


def test_cosine_schedule_midpoint():
    # half period: midpoint of an odd-length schedule sits at base/2
    assert cosine_lr(1.0, 50, 101) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_first_step_moves_by_lr():
    # with bias correction the first update has magnitude lr regardless of
    # gradient scale
    arr = np.array([1.0, -2.0])
    opt = AdamW(2)
    opt.step(arr, np.array([0.3, -7.0]), lr=0.01)
    assert np.allclose(arr, [1.0 - 0.01, -2.0 + 0.01], atol=1e-9)


def test_adamw_only_touches_registered_keys():
    # the optimizer sees the trainable prefix; the frozen tail stays put
    flat = np.ones(6)
    grad = np.ones(6)
    opt = AdamW(3)
    opt.step(flat[:3], grad[:3], lr=0.1)
    assert not np.allclose(flat[:3], 1.0)
    assert np.all(flat[3:] == 1.0)


# ---------------------------------------------------------------------------
# parameter groups


def test_parameter_group_assignment():
    cfg = tiny_config()
    model = init_model(cfg)
    arrays = model_arrays(model)
    groups = {parameter_group(k) for k in arrays}
    assert groups == {"gamma", "alpha", "theta", "phi"}
    assert parameter_group("frlp.local.0.weight") == "gamma"
    assert parameter_group("frgca.w_q.bias") == "alpha"
    assert parameter_group("vision.fc1.weight") == "theta"
    assert parameter_group("decoder.embedding.weight") == "phi"


def test_trainable_sets_per_stage():
    cfg = tiny_config()
    model = init_model(cfg)
    pre = {parameter_group(k) for k in trainable_keys(model, "pretrain")}
    fine = {parameter_group(k) for k in trainable_keys(model, "finetune")}
    assert pre == {"gamma", "alpha"}
    assert fine == {"gamma", "alpha", "theta", "phi"}


# ---------------------------------------------------------------------------
# flat parameter store


def test_model_arrays_are_views_tiling_flat_in_key_order():
    model = init_model(tiny_config())
    flat = model.flat
    offset = 0
    for key, arr in model_arrays(model).items():
        assert arr.flags.c_contiguous, key
        assert np.shares_memory(arr, flat), key
        assert arr.ctypes.data - flat.ctypes.data == offset * flat.itemsize, key
        offset += arr.size
    assert offset == flat.size
    # the group fields are those same views
    flat[:] = np.arange(flat.size)
    assert model.frlp.local_weights[0].ravel()[0] == 0.0
    assert model.decoder.readout_b[-1] == flat.size - 1


def test_each_stage_trains_a_prefix_of_the_layout():
    model = init_model(tiny_config())
    keys = list(model_arrays(model))
    assert [parameter_group(k) for k in keys] == sorted(
        (parameter_group(k) for k in keys), key=GROUPS.index
    )
    for stage in ("pretrain", "finetune"):
        trainable = trainable_keys(model, stage)
        assert keys[: len(trainable)] == trainable, stage


def test_gradient_vector_lines_up_with_flat():
    cfg = tiny_config()
    model = init_model(cfg)
    sample = tiny_dataset(cfg, size=1)[0]
    _, state = forward_loss(model, sample, cfg, return_state=True)
    grad = backward_pass(model, sample, cfg, state)
    assert grad.shape == model.flat.shape
    by_key = unflatten(grad, model_arrays(model))
    decoder_grads, d_visual = decoder_backward(state[2])
    frgca_grads, _, _ = frgca_backward(d_visual, state[1])
    expected = {
        **named(FrgcaParams.SPEC, frgca_grads.arrays(), "frgca."),
        **named(ToyDecoderParams.SPEC, decoder_grads.arrays(), "decoder."),
    }
    for key, value in expected.items():
        assert np.array_equal(by_key[key], value), key


# ---------------------------------------------------------------------------
# training loop


def test_zero_epochs_leaves_parameters_unchanged():
    cfg = tiny_config(epochs=0)
    data = tiny_dataset(cfg)
    model = init_model(cfg)
    before = snapshot(model)
    result = train(cfg, data, model=model)
    assert snapshot(result.model) == before
    assert result.trace == []


def test_pretrain_freezes_vision_and_decoder():
    cfg = tiny_config(stage="pretrain", learning_rate=1e-3)
    data = tiny_dataset(cfg, size=6)
    model = init_model(cfg)
    before = snapshot(model)
    result = train(cfg, data, model=model)
    after = snapshot(result.model)
    for key in after:
        group = parameter_group(key)
        if group in ("theta", "phi"):
            assert after[key] == before[key], f"{key} changed during pretrain"
    changed = [k for k in after if after[k] != before[k]]
    assert any(parameter_group(k) == "gamma" for k in changed)
    assert any(parameter_group(k) == "alpha" for k in changed)


def test_finetune_updates_all_groups():
    cfg = tiny_config(stage="finetune", learning_rate=1e-3)
    data = tiny_dataset(cfg, size=6)
    model = init_model(cfg)
    before = snapshot(model)
    result = train(cfg, data, model=model)
    after = snapshot(result.model)
    changed_groups = {parameter_group(k) for k in after if after[k] != before[k]}
    assert changed_groups == {"gamma", "alpha", "theta", "phi"}


def test_trace_records_schedule_and_losses():
    cfg = tiny_config(epochs=2)
    data = tiny_dataset(cfg, size=5)
    result = train(cfg, data)
    assert len(result.trace) == 10
    steps = [s for s, _, _ in result.trace]
    assert steps == list(range(10))
    lrs = [lr for _, lr, _ in result.trace]
    assert lrs[0] == cfg.resolved_lr
    assert lrs[-1] <= 1e-8 * cfg.resolved_lr
    assert all(math.isfinite(l) for _, _, l in result.trace)


def test_training_is_deterministic_per_seed():
    cfg = tiny_config()
    data = tiny_dataset(cfg, size=6)
    a = train(cfg, data)
    b = train(cfg, data)
    assert snapshot(a.model) == snapshot(b.model)
    assert a.trace == b.trace


def test_nonfinite_loss_aborts_with_diagnostic():
    cfg = tiny_config(learning_rate=1e-3)
    data = tiny_dataset(cfg, size=3)
    model = init_model(cfg)
    # suppress every label token so the target probability underflows to 0
    model.decoder.readout_b[:9] = -1e4
    with pytest.raises(FloatingPointError, match=r"non-finite loss at step 0 \(sample \d+\)"):
        train(cfg, data, model=model)


def test_nonfinite_gradient_aborts_before_update(monkeypatch):
    cfg = tiny_config(learning_rate=1e-3)
    data = tiny_dataset(cfg, size=3)
    model = init_model(cfg)
    before = snapshot(model)
    real_backward = training.decoder_backward

    def poisoned(cache):
        grads, d_visual = real_backward(cache)
        grads.readout_b[0] = np.nan
        return grads, d_visual

    monkeypatch.setattr(training, "decoder_backward", poisoned)
    with pytest.raises(FloatingPointError, match=r"non-finite gradient at step 0 \(sample \d+\)"):
        train(cfg, data, model=model)
    assert snapshot(model) == before


def test_memorization_reduces_loss():
    # 32-sample task: one finetune epoch must land strictly below the
    # initial loss for every seed
    for seed in range(5):
        cfg = tiny_config(stage="finetune", learning_rate=None, seed=seed)
        data = tiny_dataset(cfg, seed=seed, size=32)
        model = init_model(cfg)
        initial_loss, _ = evaluate(model, data, cfg)
        result = train(cfg, data, model=model)
        final_loss, _ = evaluate(result.model, data, cfg)
        assert final_loss < initial_loss, f"seed {seed}: {final_loss} !< {initial_loss}"


def test_variant_none_ignores_landmark_modules(monkeypatch):
    def landmark_layer(*args, **kwargs):
        raise AssertionError("variant none ran a landmark layer")

    for name in (
        "frlp_forward", "frlp_backward", "clip_rpp_masks",
        "frgca_forward", "frgca_backward",
    ):
        monkeypatch.setattr(training, name, landmark_layer)
    cfg = tiny_config(variant="none")
    data = tiny_dataset(cfg, size=4)
    model = init_model(cfg)
    before = snapshot(model)
    result = train(cfg, data, model=model)
    assert len(result.trace) == 4
    after = snapshot(result.model)
    for key in after:
        if parameter_group(key) in ("gamma", "alpha"):
            assert after[key] == before[key]  # zero gradients, AdamW no-op


def test_forward_loss_variants_agree_on_shape_contract():
    cfg = tiny_config()
    data = tiny_dataset(cfg, size=1)
    model = init_model(cfg)
    for variant in ("frgca", "simple", "none"):
        cfg_v = TrainConfig(**{**cfg.to_dict(), "variant": variant})
        loss = forward_loss(model, data[0], cfg_v)
        assert math.isfinite(loss) and loss >= 0.0


def test_layer_names_the_benchmark_wraps_exist_on_training():
    # perfbench/workloads.py wraps training-module attributes by name, in
    # (owner, "attribute", wrapper) triples built in _training_patches
    source = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    func = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_training_patches"
    )
    patched = []
    for node in ast.walk(func):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3:
            owner, attr = node.elts[0], node.elts[1]
            path = []
            while isinstance(owner, ast.Attribute):
                path.insert(0, owner.attr)
                owner = owner.value
            assert isinstance(owner, ast.Name) and owner.id == "t"
            patched.append((*path, attr.value))
    assert ("frlp_forward",) in patched and ("frgca_forward",) in patched
    for names in patched:
        target = training
        for name in names:
            assert hasattr(target, name), ".".join(names)
            target = getattr(target, name)
