"""Two-stage training of the toy pipeline.

Stage "pretrain" trains only the landmark modules (projector gamma,
attention alpha) with everything else frozen; stage "finetune" trains
all four parameter groups at a lower learning rate. AdamW with a
half-period cosine learning-rate schedule, batch size 1, no warmup.

Parameter keys come from one registry (``facecond.registry``): each
parameter class names its arrays in a spec, and ``model_arrays`` prefixes
them in the order gamma, alpha, theta, phi. ``ModelParams.flat`` holds
every array in that order, so each stage trains a prefix of it. The group
arrays are views into ``flat``: write into them in place, never rebind them.

Variant "frgca" conditions the visual tokens on the FRLP landmark tokens
through mask-guided cross-attention, "simple" through the same attention
without the mask. Variant "none" is the no-landmarks baseline: FRLP, the
masks and FRGCA do not run, the visual tokens reach the decoder unchanged
and the gamma and alpha gradients are zero. ``landmark_conditioning`` is
the one place that picks the landmark tokens and masks for a variant.

Layers are called through this module's globals (``frlp_forward``,
``clip_rpp_masks``, ``frgca_forward``, ...), so a profiler can wrap them
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from ..frgca import VARIANTS as ATTENTION_VARIANTS
from ..frgca import FrgcaParams, frgca_backward, frgca_forward, init_frgca
from ..frlp import (
    TOKEN_MODES,
    FrlpParams,
    frlp_backward,
    frlp_forward,
    init_frlp,
    select_tokens,
)
from ..geometry import (
    LandmarkClip,
    PatchGrid,
    WHOLE_FACE,
    RegionPartition,
    clip_rpp_masks,
    default_partition,
)
from .decoder import (
    ToyDecoderParams,
    autoregressive_loss,
    decoder_backward,
    init_decoder,
    response_predictions,
    sequence_assemble,
)
from ..registry import named, unflatten
from .projector import VisionProjectorParams, init_vision_projector, vision_backward, vision_project
from .synth import SynthSample

STAGES = ("pretrain", "finetune")
VARIANTS = (*ATTENTION_VARIANTS, "none")
STAGE_DEFAULT_LR = {"pretrain": 1e-4, "finetune": 2e-5}

# parameter groups: gamma = FRLP, alpha = FRGCA, theta = vision projector,
# phi = decoder; keyed by checkpoint prefix (the ModelParams field), in
# flat order
_GROUP_OF = {"frlp": "gamma", "frgca": "alpha", "vision": "theta", "decoder": "phi"}
GROUPS = tuple(_GROUP_OF.values())
_STAGE_TRAINABLE = {
    "pretrain": ("gamma", "alpha"),
    "finetune": ("gamma", "alpha", "theta", "phi"),
}


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    learning_rate: float | None = None  # stage default when None
    epochs: int = 1
    seed: int = 0
    frames: int = 1
    grid_rows: int = 4
    grid_cols: int = 4
    d: int = 16
    d_attn: int | None = None
    heads: int = 4
    d_raw: int = 8
    vocab: int = 16
    variant: str = "frgca"
    tokens: str = "both"
    max_context: int = 2048

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.tokens not in TOKEN_MODES:
            raise ValueError(f"tokens must be one of {TOKEN_MODES}")

    @property
    def resolved_lr(self) -> float:
        if self.learning_rate is not None:
            return float(self.learning_rate)
        return STAGE_DEFAULT_LR[self.stage]

    @property
    def n_patches(self) -> int:
        return self.grid_rows * self.grid_cols

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class ModelParams:
    """All four parameter groups; construction packs them into ``flat``
    and makes every group array a view into it."""

    frlp: FrlpParams
    frgca: FrgcaParams
    vision: VisionProjectorParams
    decoder: ToyDecoderParams
    partition: RegionPartition = field(default_factory=default_partition)
    grid: PatchGrid = field(default_factory=PatchGrid)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = model_arrays(self)
        self.flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        views = iter(unflatten(self.flat, arrays).values())
        for prefix in _GROUP_OF:
            params = getattr(self, prefix)
            setattr(self, prefix, params.with_arrays([next(views) for _ in params.arrays()]))


def init_model(config: TrainConfig) -> ModelParams:
    """Seed-deterministic initialization of all four parameter groups."""
    partition = default_partition()
    grid = PatchGrid(config.grid_rows, config.grid_cols)
    return ModelParams(
        frlp=init_frlp(config.d, partition, seed=config.seed),
        frgca=init_frgca(
            config.d, d_attn=config.d_attn, heads=config.heads, seed=config.seed + 1
        ),
        vision=init_vision_projector(config.d_raw, config.d, seed=config.seed + 2),
        decoder=init_decoder(config.vocab, config.d, seed=config.seed + 3),
        partition=partition,
        grid=grid,
    )


def model_arrays(model: ModelParams) -> dict[str, np.ndarray]:
    """Every parameter array, checkpoint-keyed, in flat order: the views
    that tile ``model.flat``."""
    specs = (
        FrlpParams.spec(model.partition),
        FrgcaParams.SPEC,
        VisionProjectorParams.SPEC,
        ToyDecoderParams.SPEC,
    )
    arrays: dict[str, np.ndarray] = {}
    for prefix, spec in zip(_GROUP_OF, specs, strict=True):
        arrays.update(named(spec, getattr(model, prefix).arrays(), prefix + "."))
    return arrays


def parameter_group(key: str) -> str:
    return _GROUP_OF[key.split(".", 1)[0]]


def trainable_keys(model: ModelParams, stage: str) -> list[str]:
    groups = _STAGE_TRAINABLE[stage]
    return [k for k in model_arrays(model) if parameter_group(k) in groups]


def landmark_conditioning(
    clip: LandmarkClip,
    frlp: FrlpParams,
    partition: RegionPartition,
    grid: PatchGrid,
    variant: str,
    tokens: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The landmark tokens and proximity masks that ``frgca_forward`` takes
    for an attending variant: the FRLP tokens picked by ``tokens``, and for
    "frgca" the masks of their regions (None for "simple"). The global
    token is the ``WHOLE_FACE`` region's token; a softmax over that one
    token is 1 whatever its mask, so "frgca" equals "simple" there."""
    h_l = select_tokens(frlp_forward(clip, partition, frlp), tokens)
    if variant != "frgca":
        return h_l, None
    regions = WHOLE_FACE if tokens == "global_only" else partition
    return h_l, clip_rpp_masks(clip, regions, grid)


def forward_loss(
    model: ModelParams,
    sample: SynthSample,
    config: TrainConfig,
    return_state: bool = False,
):
    """Full pipeline loss for one sample; optionally keep caches for
    backward (the attention cache is None for variant "none")."""
    h_v, vision_cache = vision_project(sample.raw, model.vision, return_cache=True)
    if config.variant == "none":
        enriched, attn_cache = h_v, None
    else:
        h_l, masks = landmark_conditioning(
            sample.clip, model.frlp, model.partition, model.grid, config.variant, config.tokens
        )
        enriched, attn_cache = frgca_forward(
            h_v, h_l, masks, model.frgca, variant=config.variant, return_cache=True
        )
    sequence = sequence_assemble(
        enriched,
        sample.instruction_ids,
        sample.response_ids,
        model.decoder,
        max_context=config.max_context,
    )
    loss, decoder_cache = autoregressive_loss(
        sequence, sample.response_ids, model.decoder, return_cache=True
    )
    if return_state:
        return loss, (vision_cache, attn_cache, decoder_cache)
    return loss


def backward_pass(
    model: ModelParams, sample: SynthSample, config: TrainConfig, state, out=None
) -> np.ndarray:
    """Gradient of the loss as one vector laid out like ``model.flat``,
    written into ``out`` when given."""
    vision_cache, attn_cache, decoder_cache = state
    dec, d_visual = decoder_backward(decoder_cache)
    if config.variant == "none":  # FRLP and FRGCA never reach the loss
        d_h_v = d_visual
        landmark = [np.zeros(sum(a.size for a in (*model.frlp.arrays(), *model.frgca.arrays())))]
    else:
        att, d_h_v, d_h_l = frgca_backward(d_visual, attn_cache)
        frl = frlp_backward(d_h_l, sample.clip, model.partition, model.frlp, mode=config.tokens)
        landmark = [*frl.arrays(), *att.arrays()]
    vis, _ = vision_backward(d_h_v, vision_cache)
    parts = [*landmark, *vis.arrays(), *dec.arrays()]
    return np.concatenate([np.ravel(a) for a in parts], out=out)


def cosine_lr(base: float, step: int, total_steps: int) -> float:
    """Half-period cosine from base at step 0 to 0 at the final step."""
    if total_steps <= 1:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.0


class AdamW:
    """AdamW with bias correction over one parameter vector; the moments
    and scratch buffers are allocated once, so a step allocates nothing."""

    def __init__(self, size: int) -> None:
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Update ``params`` in place from ``grad``, both of length ``size``."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        a, update = self._scratch
        self.m *= BETA1
        np.multiply(grad, 1.0 - BETA1, out=a)
        self.m += a
        self.v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=a)
        a *= grad
        self.v += a
        # update = (m / bc1) / (sqrt(v / bc2) + eps), rounded step by step
        np.divide(self.v, bc2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(self.m, bc1, out=update)
        update /= a
        if WEIGHT_DECAY:
            update += WEIGHT_DECAY * params
        update *= lr
        params -= update


@dataclass
class TrainResult:
    model: ModelParams
    trace: list[tuple[int, float, float]]  # (step, lr, loss)


def train(
    config: TrainConfig,
    dataset: Sequence[SynthSample],
    model: ModelParams | None = None,
) -> TrainResult:
    """Run the configured stage over the dataset; frozen groups are never
    touched. A non-finite loss or gradient aborts the run before the
    update, with a diagnostic naming the step and sample."""
    if model is None:
        model = init_model(config)
    arrays = model_arrays(model)
    n_trainable = sum(arrays[k].size for k in trainable_keys(model, config.stage))
    params = model.flat[:n_trainable]  # the stage's groups lead the layout
    grad = np.empty_like(model.flat)
    optimizer = AdamW(n_trainable)
    base_lr = config.resolved_lr
    total_steps = config.epochs * len(dataset)
    order_rng = np.random.default_rng(config.seed)

    trace: list[tuple[int, float, float]] = []
    step = 0
    for _ in range(config.epochs):
        order = order_rng.permutation(len(dataset))
        for idx in order:
            sample = dataset[int(idx)]
            lr = cosine_lr(base_lr, step, total_steps)
            try:
                loss, state = forward_loss(model, sample, config, return_state=True)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} at step {step} (sample {idx})") from exc
            backward_pass(model, sample, config, state, out=grad)
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"non-finite gradient at step {step} (sample {idx})")
            optimizer.step(params, grad[:n_trainable], lr)
            trace.append((step, lr, loss))
            step += 1
    return TrainResult(model=model, trace=trace)


def evaluate(
    model: ModelParams, dataset: Sequence[SynthSample], config: TrainConfig
) -> tuple[float, float]:
    """Mean loss and response-token accuracy over a dataset."""
    if not dataset:
        raise ValueError("empty evaluation set")
    losses = []
    correct = 0
    total = 0
    for sample in dataset:
        loss, (_, _, decoder_cache) = forward_loss(model, sample, config, return_state=True)
        losses.append(loss)
        preds = response_predictions(decoder_cache)
        for pred, target in zip(preds, sample.response_ids):
            correct += int(pred == target)
            total += 1
    return float(np.mean(losses)), correct / total


def ablation_experiment(
    variants: Sequence[str],
    seeds: Sequence[int],
    train_size: int,
    eval_size: int,
    config: TrainConfig | None = None,
    task_kind: str = "region",
) -> dict[str, dict[str, float]]:
    """Train each attention variant across seeds on the synthetic task and
    report mean final evaluation loss and accuracy."""
    from .synth import synth_dataset

    base = config or TrainConfig(stage="finetune", learning_rate=3e-3)
    results: dict[str, dict[str, float]] = {}
    for variant in variants:
        losses, accuracies = [], []
        for seed in seeds:
            cfg = TrainConfig(
                **{**base.to_dict(), "variant": variant, "seed": int(seed)}
            )
            train_set = synth_dataset(
                seed=seed,
                size=train_size,
                task_kind=task_kind,
                frames=cfg.frames,
                n_patches=cfg.n_patches,
                d_raw=cfg.d_raw,
                vocab=cfg.vocab,
            )
            eval_set = synth_dataset(
                seed=seed + 10_000,
                size=eval_size,
                task_kind=task_kind,
                frames=cfg.frames,
                n_patches=cfg.n_patches,
                d_raw=cfg.d_raw,
                vocab=cfg.vocab,
            )
            result = train(cfg, train_set)
            loss, accuracy = evaluate(result.model, eval_set, cfg)
            losses.append(loss)
            accuracies.append(accuracy)
        results[variant] = {
            "mean_eval_loss": float(np.mean(losses)),
            "mean_eval_accuracy": float(np.mean(accuracies)),
            "per_seed_loss": [float(x) for x in losses],
            "per_seed_accuracy": [float(x) for x in accuracies],
        }
    return results
