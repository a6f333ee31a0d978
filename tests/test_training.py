import ast
import math
from pathlib import Path

import numpy as np
import pytest

from facecond.frgca import FrgcaParams, frgca_backward
from facecond.gradcheck import DIRECTIONAL_TOLERANCE, directional_error
from facecond.registry import named, unflatten
from facecond.toytrain import training
from facecond.toytrain.decoder import ToyDecoderParams, decoder_backward
from facecond.toytrain.projector import vision_backward
from facecond.toytrain.training import backward_pass
from facecond.toytrain import (
    AdamW,
    TrainConfig,
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
    _, state = forward_loss(model, sample, cfg)
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


def test_none_gradient_is_zeros_then_vision_and_decoder_bit_for_bit():
    # variant "none" writes zeros over the FRLP and FRGCA slice of `out`;
    # the reference is the concatenation with a fresh zero vector
    cfg = tiny_config(variant="none")
    model = init_model(cfg)
    sample = tiny_dataset(cfg, size=1)[0]
    _, state = forward_loss(model, sample, cfg)
    decoder_grads, d_visual = decoder_backward(state[2])
    vision_grads = vision_backward(d_visual, state[0])
    landmark = sum(a.size for a in (*model.frlp.arrays(), *model.frgca.arrays()))
    expected = np.concatenate(
        [np.zeros(landmark), *vision_grads.arrays(), *decoder_grads.arrays()], axis=None
    )
    assert backward_pass(model, sample, cfg, state).tobytes() == expected.tobytes()
    out = np.full(model.flat.size, np.nan)
    assert backward_pass(model, sample, cfg, state, out=out) is out
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
        _, state = forward_loss(model, sample, cfg)
        grad = backward_pass(model, sample, cfg, state)
        n = trained_size(model, stage)
        params = model.flat[:n]
        for _ in range(2):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            error = directional_error(lambda: forward_loss(model, sample, cfg)[0], params, grad[:n], v)
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
        if prefix(key) in ("frlp", "frgca"):
            assert after[key] == before[key]  # the optimizer never steps over them


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
            loss, state = forward_loss(model, sample, cfg)
            backward_pass(model, sample, cfg, state, out=grad)
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
        loss = forward_loss(model, data[0], cfg_v)[0]
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
