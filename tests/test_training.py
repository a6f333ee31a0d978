import ast
import math
from pathlib import Path

import numpy as np
import pytest

from facecond.frgca import FrgcaParams, frgca_backward
from facecond.frlp import frlp_backward
from facecond.geometry import clip_rpp_masks, default_partition
from facecond.gradcheck import DIRECTIONAL_TOLERANCE, directional_error
from facecond.registry import empty_like, named, unflatten
from facecond.toytrain import training
from facecond.toytrain.decoder import ToyDecoderParams, decoder_backward
from facecond.toytrain.projector import vision_backward
from facecond.toytrain.training import backward_pass
from facecond.toytrain import (
    AdamW,
    TrainConfig,
    attention_masks,
    cosine_lr,
    evaluate,
    forward_loss,
    init_model,
    model_arrays,
    synth_dataset,
    train,
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


def masks_of(model, sample, cfg):
    return attention_masks([sample.clip], model.grid, cfg.variant, cfg.tokens)


def snapshot(model):
    return {k: v.tobytes() for k, v in model_arrays(model).items()}


def prefix(key):
    """A parameter key's checkpoint prefix: its group."""
    return key.split(".", 1)[0]


# what each stage trains, by checkpoint prefix: gamma (frlp) and alpha
# (frgca), then all four groups
STAGE_PREFIXES = {
    "pretrain": ("frlp", "frgca"),
    "finetune": ("frlp", "frgca", "vision", "decoder"),
}


def trained_size(model, stage):
    """How many entries of ``model.flat`` belong to the groups ``stage`` trains."""
    return sum(a.size for k, a in model_arrays(model).items() if prefix(k) in STAGE_PREFIXES[stage])


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
    with pytest.raises(TypeError, match="bogus"):
        TrainConfig(**{"stage": "pretrain", "bogus": 1})
    with pytest.raises(ValueError, match="variant"):
        TrainConfig(variant="identity")
    with pytest.raises(ValueError, match="tokens"):
        TrainConfig(variant="none", tokens="all")


def test_config_dict_roundtrip():
    cfg = tiny_config(variant="simple", tokens="local_only")
    assert TrainConfig(**cfg.to_dict()) == cfg


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
    # every key's checkpoint prefix names one of the four groups: frlp
    # (gamma), frgca (alpha), vision (theta), decoder (phi)
    model = init_model(tiny_config())
    arrays = model_arrays(model)
    assert {prefix(k) for k in arrays} == set(STAGE_PREFIXES["finetune"])
    assert prefix("frlp.local.0.weight") == "frlp"
    assert prefix("frgca.w_q.bias") == "frgca"
    assert prefix("vision.fc1.weight") == "vision"
    assert prefix("decoder.embedding.weight") == "decoder"
    for key in ("frlp.local.0.weight", "frgca.w_q.bias", "vision.fc1.weight",
                "decoder.embedding.weight"):
        assert key in arrays, key


def test_trainable_sets_per_stage():
    # pretrain's groups (frlp, frgca) cover exactly the first landmark_size
    # entries of flat, and finetune's the whole vector
    model = init_model(tiny_config())
    assert set(STAGE_PREFIXES["pretrain"]) == {"frlp", "frgca"}
    assert trained_size(model, "pretrain") == model.landmark_size
    assert trained_size(model, "finetune") == model.flat.size


def test_each_stage_trains_a_prefix_of_the_layout():
    # train() picks what it steps by this layout: the frlp. and frgca. arrays
    # (gamma, alpha) tile flat[:landmark_size] in that order, and the
    # vision. and decoder. arrays (theta, phi) tile the rest
    model = init_model(tiny_config())
    flat = model.flat
    order = STAGE_PREFIXES["finetune"]
    spans = {group: [] for group in order}
    for key, arr in model_arrays(model).items():
        start = (arr.ctypes.data - flat.ctypes.data) // flat.itemsize
        spans[prefix(key)].append((start, start + arr.size))
    assert all(spans.values())
    tiles = [span for group in order for span in sorted(spans[group])]
    assert [start for start, _ in tiles] == [0] + [stop for _, stop in tiles[:-1]]
    assert tiles[-1][1] == flat.size
    landmark_stop = max(stop for group in STAGE_PREFIXES["pretrain"] for _, stop in spans[group])
    assert landmark_stop == model.landmark_size


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
    assert model.frlp.weights[0].ravel()[0] == 0.0
    assert model.decoder.readout_b[-1] == flat.size - 1


def test_gradient_vector_lines_up_with_flat():
    cfg = tiny_config()
    model = init_model(cfg)
    sample = tiny_dataset(cfg, size=1)[0]
    _, state = forward_loss(model, sample, cfg, masks_of(model, sample, cfg))
    grad = np.empty_like(model.flat)
    assert backward_pass(model, sample, cfg, state, model.laid_over(grad)) is None
    by_key = unflatten(grad, model_arrays(model))
    decoder_grads = empty_like(model.decoder)
    d_visual = decoder_backward(state[2], decoder_grads)
    frgca_grads = empty_like(model.frgca)
    frgca_backward(d_visual, state[1], frgca_grads)
    expected = {
        **named(FrgcaParams.SPEC, frgca_grads.arrays(), "frgca."),
        **named(ToyDecoderParams.SPEC, decoder_grads.arrays(), "decoder."),
    }
    for key, value in expected.items():
        assert np.array_equal(by_key[key], value), key


def test_none_gradient_is_zeros_then_vision_and_decoder_bit_for_bit():
    # variant "none" writes zeros over the FRLP and FRGCA slice of `out`;
    # the reference is the concatenation with a fresh zero vector
    cfg = tiny_config(variant="none")
    model = init_model(cfg)
    sample = tiny_dataset(cfg, size=1)[0]
    _, state = forward_loss(model, sample, cfg, masks_of(model, sample, cfg))
    decoder_grads = empty_like(model.decoder)
    d_visual = decoder_backward(state[2], decoder_grads)
    vision_grads = empty_like(model.vision)
    vision_backward(d_visual, state[0], vision_grads)
    landmark = sum(a.size for a in (*model.frlp.arrays(), *model.frgca.arrays()))
    expected = np.concatenate(
        [np.zeros(landmark), *vision_grads.arrays(), *decoder_grads.arrays()], axis=None
    )
    out = np.full(model.flat.size, np.nan)
    backward_pass(model, sample, cfg, state, model.laid_over(out))
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("variant", ["frgca", "simple"])
def test_gradient_matches_directional_differences_at_paper_shape(variant):
    # the element-wise suites run at T <= 2; this checks the whole trained
    # prefix of the flat vector at the paper_step shape, where a reshape
    # that mixes frames or tokens would show
    rng = np.random.default_rng(11)
    for stage in ("pretrain", "finetune"):
        cfg = TrainConfig(stage=stage, variant=variant, frames=8, grid_rows=16, grid_cols=16,
                          d=256, heads=8, d_raw=64, max_context=4096, seed=5)
        model = init_model(cfg)
        sample = synth_dataset(seed=5, size=1, frames=cfg.frames, n_patches=cfg.n_patches,
                               d_raw=cfg.d_raw, vocab=cfg.vocab)[0]
        masks = masks_of(model, sample, cfg)
        _, state = forward_loss(model, sample, cfg, masks)
        grad = np.empty_like(model.flat)
        backward_pass(model, sample, cfg, state, model.laid_over(grad))
        n = trained_size(model, stage)
        params = model.flat[:n]
        for _ in range(2):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            error = directional_error(lambda: forward_loss(model, sample, cfg, masks)[0], params, grad[:n], v)
            assert error < DIRECTIONAL_TOLERANCE, (stage, error)


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
        if prefix(key) in ("vision", "decoder"):
            assert after[key] == before[key], f"{key} changed during pretrain"
    changed = [k for k in after if after[k] != before[k]]
    assert any(prefix(k) == "frlp" for k in changed)
    assert any(prefix(k) == "frgca" for k in changed)


def test_finetune_updates_all_groups():
    cfg = tiny_config(stage="finetune", learning_rate=1e-3)
    data = tiny_dataset(cfg, size=6)
    model = init_model(cfg)
    before = snapshot(model)
    result = train(cfg, data, model=model)
    after = snapshot(result.model)
    changed_groups = {prefix(k) for k in after if after[k] != before[k]}
    assert changed_groups == {"frlp", "frgca", "vision", "decoder"}


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

    def poisoned(cache, out):
        d_visual = real_backward(cache, out)
        out.readout_b[0] = np.nan
        return d_visual

    monkeypatch.setattr(training, "decoder_backward", poisoned)
    with pytest.raises(FloatingPointError, match=r"non-finite gradient at step 0 \(sample \d+\)"):
        train(cfg, data, model=model)
    assert snapshot(model) == before


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(stage="pretrain", learning_rate=1e308),
         r"h_l contains non-finite values at step \d+ \(sample \d+\)$"),
        (dict(variant="none", learning_rate=1e300),
         r"vision projector produced non-finite output at step \d+ \(sample \d+\)$"),
    ],
    ids=["pretrain", "finetune-none"],
)
def test_a_diverging_forward_names_its_step_and_sample(overrides, message):
    cfg = tiny_config(**overrides)
    with np.errstate(over="ignore", invalid="ignore"):  # the run overflows on purpose
        with pytest.raises(ValueError, match=message):
            train(cfg, tiny_dataset(cfg, size=3))


def test_evaluate_names_the_sample_whose_forward_fails():
    cfg = tiny_config()
    data = tiny_dataset(cfg, size=3)
    model = init_model(cfg)
    model.vision.b2[0] = np.inf
    with pytest.raises(ValueError, match=r"non-finite output at eval sample 0$"):
        evaluate(model, data, cfg)


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
        if prefix(key) in ("frlp", "frgca"):
            assert after[key] == before[key]  # the optimizer never steps over them


@pytest.mark.parametrize("variant, calls", [("frgca", 1), ("simple", 0), ("none", 0)])
def test_masks_are_built_once_per_train_and_evaluate_call(monkeypatch, variant, calls):
    # one call covers every frame of the dataset, whatever its size
    built = []

    def counted(landmarks, regions, grid):
        built.append(np.shape(landmarks)[0])
        return clip_rpp_masks(landmarks, regions, grid)

    monkeypatch.setattr(training, "clip_rpp_masks", counted)
    cfg = tiny_config(variant=variant, frames=2, epochs=2)
    for size in (1, 6):
        data = tiny_dataset(cfg, size=size)
        built.clear()
        model = train(cfg, data).model
        assert built == [2 * size] * calls
        built.clear()
        evaluate(model, data, cfg)
        assert built == [2 * size] * calls


@pytest.mark.parametrize("variant", ["frgca", "none"])
def test_gradient_views_are_laid_once_per_train_call(monkeypatch, variant):
    # the gradient's group views tile one vector for the whole call, whatever
    # the number of steps
    laid = []

    def counted(vec, like):
        laid.append(vec.size)
        return unflatten(vec, like)

    monkeypatch.setattr(training, "unflatten", counted)
    cfg = tiny_config(variant=variant, epochs=2)
    for size in (1, 6):
        data = tiny_dataset(cfg, size=size)
        model = init_model(cfg)
        laid.clear()
        assert len(train(cfg, data, model=model).trace) == 2 * size
        assert laid == [model.flat.size]


# (frames, grid side): the toy training shape, and eight frames
LAYER_SHAPES = {"toy": (1, 4), "T8": (8, 4)}


def _destination(params, fill):
    """A parameter object like ``params`` around arrays filled with ``fill``."""
    return params.with_arrays([np.full_like(a, fill) for a in params.arrays()])


@pytest.mark.parametrize("shape", LAYER_SHAPES)
@pytest.mark.parametrize(
    "variant, tokens",
    [("frgca", "both"), ("frgca", "local_only"), ("frgca", "global_only"), ("simple", "both")],
)
def test_layer_backwards_write_all_of_out_and_read_none(shape, variant, tokens):
    # a NaN-filled and a zero-filled destination come back with equal
    # bytes only if every entry is written and none is read first
    frames, side = LAYER_SHAPES[shape]
    cfg = TrainConfig(stage="finetune", variant=variant, tokens=tokens, frames=frames,
                      grid_rows=side, grid_cols=side, d=16, heads=4, d_raw=8)
    model = init_model(cfg)
    sample = synth_dataset(seed=3, size=1, frames=frames, n_patches=cfg.n_patches,
                           d_raw=cfg.d_raw, vocab=cfg.vocab)[0]
    _, (vision_cache, attn_cache, decoder_cache) = forward_loss(
        model, sample, cfg, masks_of(model, sample, cfg)
    )
    d_visual = decoder_backward(decoder_cache, empty_like(model.decoder))
    d_h_v, d_h_l = frgca_backward(d_visual, attn_cache, empty_like(model.frgca))
    frlp_args = (d_h_l, sample.clip, default_partition(), model.frlp, tokens)
    # each backward with its parameters, returning its cotangents as a
    # tuple; FRLP's and the projector's inputs are fixed, so they have none
    calls = {
        "decoder": (model.decoder, lambda out: (decoder_backward(decoder_cache, out),)),
        "frgca": (model.frgca, lambda out: frgca_backward(d_visual, attn_cache, out)),
        "frlp": (model.frlp, lambda out: frlp_backward(*frlp_args, out=out) or ()),
        "vision": (model.vision, lambda out: vision_backward(d_h_v, vision_cache, out) or ()),
    }
    for name, (params, backward) in calls.items():
        from_nan, from_zero = _destination(params, np.nan), _destination(params, 0.0)
        cotangents = backward(from_nan), backward(from_zero)
        for got, expected in zip(from_nan.arrays(), from_zero.arrays(), strict=True):
            assert got.tobytes() == expected.tobytes(), name
        for got, expected in zip(*cotangents, strict=True):
            assert got.tobytes() == expected.tobytes(), name


def _train_over_the_whole_prefix(cfg, data, model):
    """``train``'s loop with AdamW stepped over the stage's whole trainable
    prefix, the landmark groups included for every variant; returns the
    trace and updates ``model`` in place."""
    n_trainable = trained_size(model, cfg.stage)
    grad = np.empty_like(model.flat)
    optimizer = AdamW(n_trainable)
    total_steps = cfg.epochs * len(data)
    order_rng = np.random.default_rng(cfg.seed)
    trace, step = [], 0
    for _ in range(cfg.epochs):
        for idx in order_rng.permutation(len(data)):
            sample = data[int(idx)]
            lr = cosine_lr(cfg.resolved_lr, step, total_steps)
            loss, state = forward_loss(model, sample, cfg, masks_of(model, sample, cfg))
            backward_pass(model, sample, cfg, state, out=model.laid_over(grad))
            optimizer.step(model.flat[:n_trainable], grad[:n_trainable], lr)
            trace.append((step, lr, loss))
            step += 1
    return trace


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_variant_none_trains_the_bytes_of_a_step_over_the_whole_prefix(stage):
    cfg = tiny_config(variant="none", stage=stage, epochs=2)
    data = tiny_dataset(cfg, size=4)
    reference = init_model(cfg)
    trace = _train_over_the_whole_prefix(cfg, data, reference)
    result = train(cfg, data)
    assert result.trace == trace
    assert result.model.flat.tobytes() == reference.flat.tobytes()
    moved = result.model.flat != init_model(cfg).flat
    assert moved.any() == (stage == "finetune")


@pytest.mark.parametrize(
    "variant, stage",
    [("none", "pretrain"), ("none", "finetune"), ("frgca", "pretrain"), ("frgca", "finetune")],
)
def test_optimizer_vectors_cover_only_what_the_variant_trains(monkeypatch, variant, stage):
    optimizers = []

    class RecordingAdamW(AdamW):
        def __init__(self, size):
            super().__init__(size)
            optimizers.append(self)

    monkeypatch.setattr(training, "AdamW", RecordingAdamW)
    cfg = tiny_config(variant=variant, stage=stage)
    model = train(cfg, tiny_dataset(cfg, size=2)).model
    trained = model.flat.size if stage == "finetune" else model.landmark_size
    if variant == "none":
        trained -= model.landmark_size
    [optimizer] = optimizers
    assert optimizer.m.size == optimizer.v.size == trained
    assert optimizer.step_count == 2


def test_forward_loss_variants_agree_on_shape_contract():
    cfg = tiny_config()
    data = tiny_dataset(cfg, size=1)
    model = init_model(cfg)
    for variant in ("frgca", "simple", "none"):
        cfg_v = TrainConfig(**{**cfg.to_dict(), "variant": variant})
        loss = forward_loss(model, data[0], cfg_v, masks_of(model, data[0], cfg_v))[0]
        assert math.isfinite(loss) and loss >= 0.0


def _return_switches(tree: ast.Module):
    """(function, parameter) of each function that declares a
    `return_cache` or `return_state` parameter."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg in ("return_cache", "return_state"):
                    yield node.name, arg.arg


def test_switch_guard_sees_a_return_switch_parameter():
    tree = ast.parse(
        "def f(x, return_cache=False):\n    pass\n"
        "def g(x, *, return_state: bool = False):\n    pass\n"
        "class C:\n    def h(self, y, /, return_cache):\n        pass\n"
        "def k(x, cache=None):\n    return f(x, return_cache=True)\n"
    )
    assert list(_return_switches(tree)) == [
        ("f", "return_cache"), ("g", "return_state"), ("h", "return_cache")
    ]


def test_toytrain_forward_entries_always_return_their_cache():
    # vision_project, autoregressive_loss and forward_loss return
    # (value, cache) whatever the caller wants; no switch picks the shape
    root = Path(training.__file__).parent
    offenders = [
        f"{path.relative_to(root)}: {name}({param}=)"
        for path in sorted(root.rglob("*.py"))
        for name, param in _return_switches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def _optional_destinations(tree: ast.Module):
    """(function, line) of each function whose `out` parameter has a
    default, positional or keyword-only."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = (*args.posonlyargs, *args.args)
            defaulted = list(positional[len(positional) - len(args.defaults):])
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if any(arg.arg == "out" for arg in defaulted):
                yield node.name, node.lineno


def test_destination_guard_sees_a_defaulted_out():
    tree = ast.parse(
        "def f(x, out=None):\n    pass\n"
        "def g(x, *, out: int = 0):\n    pass\n"
        "class C:\n    def h(self, out=None, /, y=1):\n        pass\n"
        "def k(x, out, y=None):\n    pass\n"
        "def m(x, *, out, y=None):\n    pass\n"
    )
    assert list(_optional_destinations(tree)) == [("f", 1), ("g", 3), ("h", 6)]


# the modules that hold a layer backward: each fills the `out` its caller
# hands it, which no default may stand in for
BACKWARD_MODULES = (
    "frlp.py", "frgca.py", "toytrain/projector.py", "toytrain/decoder.py", "toytrain/training.py"
)


def test_no_backward_module_defaults_its_destination():
    root = Path(training.__file__).parent.parent
    offenders = []
    for relpath in BACKWARD_MODULES:
        tree = ast.parse((root / relpath).read_text(encoding="utf-8"))
        offenders += [f"{relpath}:{line} {name}" for name, line in _optional_destinations(tree)]
    assert offenders == []


# the functions a train step and the mask build run, by source file;
# at batch size 1 and the toy shape numpy's per-call dispatch sets their
# time, so they call no Python-level numpy wrapper
STEP_FUNCTIONS = {
    "geometry.py": ("clip_rpp_masks", "region_centroids", "_proximity"),
    "frlp.py": ("frlp_forward", "_region_inputs", "select_tokens", "frlp_backward"),
    "frgca.py": ("frgca_forward", "_validate", "_heads", "frgca_backward"),
    "toytrain/projector.py": ("vision_project", "vision_backward"),
    "toytrain/decoder.py": (
        "sequence_assemble", "_check_ids", "autoregressive_loss", "decoder_backward"
    ),
    "toytrain/training.py": ("condition", "forward_loss", "backward_pass", "AdamW.step"),
}
# np.zeros_like and np.ones_like, and the reductions as methods (or as
# np.sum and the like): each a Python function in front of the ufunc call;
# and np.errstate, a Python context manager that costs more than the ufunc
# it guards
NUMPY_WRAPPERS = (
    "zeros_like", "ones_like", "sum", "mean", "max", "min", "all", "any", "errstate"
)


def _functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _wrapper_calls(tree: ast.Module, names):
    """(function, line, wrapper) of each call of a NUMPY_WRAPPERS attribute
    inside the functions of ``tree`` named in ``names``, in line order."""
    return sorted(
        (name, call.lineno, call.func.attr)
        for name, func in _functions(tree) if name in names
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr in NUMPY_WRAPPERS
    )


def test_dispatch_guard_sees_each_wrapper():
    tree = ast.parse(
        "def f(x):\n"
        "    a = np.zeros_like(x)\n    b = np.ones_like(x)\n    c = x.sum()\n"
        "    d = x.mean(axis=0)\n    e = x.max()\n    g = x.min()\n"
        "    h = (x > 0).all()\n    i = np.any(x)\n"
        "    with np.errstate(divide=\"ignore\"):\n        j = np.log(x)\n"
        "    return np.add.reduce(x), np.maximum.reduce(x), max(a), min(b)\n"
        "class C:\n    def step(self, x):\n        return x.sum()\n"
        "def unchecked(x):\n    return x.sum()\n"
    )
    assert _wrapper_calls(tree, ("f", "C.step")) == [
        ("C.step", 15, "sum"),
        ("f", 2, "zeros_like"), ("f", 3, "ones_like"), ("f", 4, "sum"), ("f", 5, "mean"),
        ("f", 6, "max"), ("f", 7, "min"), ("f", 8, "all"), ("f", 9, "any"),
        ("f", 10, "errstate"),
    ]


def test_train_step_calls_no_numpy_wrapper():
    root = Path(training.__file__).parent.parent
    offenders = []
    for relpath, names in STEP_FUNCTIONS.items():
        tree = ast.parse((root / relpath).read_text(encoding="utf-8"))
        assert set(names) <= {name for name, _ in _functions(tree)}, relpath
        offenders += [f"{relpath}:{line} {name}: {wrapper}"
                      for name, line, wrapper in _wrapper_calls(tree, names)]
    assert offenders == []


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


def test_ablation_experiment_equals_per_variant_train_and_evaluate():
    base = TrainConfig(stage="finetune", learning_rate=3e-3)
    variants, seeds = ("frgca", "none", "simple"), (0, 1)
    results = training.ablation_experiment(variants, seeds, train_size=12, eval_size=6)
    assert list(results) == list(variants)
    for variant in variants:
        losses, accuracies = [], []
        for seed in seeds:
            cfg = TrainConfig(**{**base.to_dict(), "variant": variant, "seed": seed})
            model = train(cfg, training.config_dataset(cfg, seed, 12, "region")).model
            loss, accuracy = evaluate(
                model, training.config_dataset(cfg, seed + 10_000, 6, "region"), cfg
            )
            losses.append(loss)
            accuracies.append(accuracy)
        assert results[variant] == {
            "mean_eval_loss": float(np.mean(losses)),
            "mean_eval_accuracy": float(np.mean(accuracies)),
            "per_seed_loss": losses,
            "per_seed_accuracy": accuracies,
        }


def test_ablation_experiment_builds_each_seeds_datasets_once(monkeypatch):
    built = []

    def counting(config, seed, size, task_kind):
        built.append(seed)
        return real(config, seed, size, task_kind)

    real = training.config_dataset
    monkeypatch.setattr(training, "config_dataset", counting)
    training.ablation_experiment(("frgca", "none"), (0, 1), train_size=4, eval_size=2)
    assert built == [0, 10_000, 1, 10_001]
