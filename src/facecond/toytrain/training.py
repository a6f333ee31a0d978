"""Two-stage training of the toy pipeline.

Stage "pretrain" trains only the landmark modules (projector gamma,
attention alpha) with everything else frozen; stage "finetune" trains
all four parameter groups at a lower learning rate. AdamW with zero
weight decay and a half-period cosine learning-rate schedule, batch size
1, no warmup. ``config_dataset`` sizes the synthetic data for a config.

Parameter keys come from one registry (``facecond.registry``): each
parameter class names its arrays in its ``SPEC``, and ``model_arrays`` prefixes
them in the order gamma (``frlp.``), alpha (``frgca.``), theta (``vision.``),
phi (``decoder.``). ``ModelParams.flat`` holds every array in that order, and
its first ``ModelParams.landmark_size`` entries are gamma and alpha. The group
arrays are views into ``flat``: write into them in place, never rebind them.
That one length says what a run trains: "pretrain" steps the first
``landmark_size`` entries and "finetune" all of ``flat``, while variant
"none" steps only what comes after the first ``landmark_size`` (so nothing in
"pretrain"). That is exact for "none": its gamma and alpha gradients are
+0.0 every step, and from zero moments with zero weight decay AdamW updates
such an entry by +0.0 at any finite rate, so stepping over them would leave
their bytes as they are. The token modes "global_only" and "local_only" also
leave some landmark gradients at zero; the optimizer still steps over those.

Variant "frgca" conditions the visual tokens on the FRLP landmark tokens
through mask-guided cross-attention, "simple" through the same attention
without the mask. Variant "none" is the no-landmarks baseline: FRLP, the
masks and FRGCA do not run, the visual tokens reach the decoder unchanged
and the gamma and alpha gradients are zero. ``condition`` is the one place
that turns visual tokens into conditioned tokens for a variant, in
training and in ``facecond enrich``; ``backward_pass`` reads the variant
back from its attention cache, which is None for "none".

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
from ..frgca import FrgcaCache, FrgcaParams, frgca_backward, frgca_forward, init_frgca
from ..frlp import TOKEN_MODES, FrlpParams, frlp_backward, frlp_forward, init_frlp, select_tokens
from ..geometry import (
    LandmarkClip,
    PatchGrid,
    WHOLE_FACE,
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
from .synth import SynthSample, synth_dataset

STAGES = ("pretrain", "finetune")
VARIANTS = (*ATTENTION_VARIANTS, "none")
STAGE_DEFAULT_LR = {"pretrain": 1e-4, "finetune": 2e-5}
# an evaluation set is synthesized at its training seed plus this offset,
# by `facecond train` and by ``ablation_experiment`` alike
EVAL_SEED_OFFSET = 10_000

# the checkpoint prefixes (the ModelParams fields) in flat order: gamma =
# FRLP, alpha = FRGCA, theta = vision projector, phi = decoder
_PREFIXES = ("frlp", "frgca", "vision", "decoder")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        for name in ("grid_rows", "grid_cols"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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


@dataclass
class ModelParams:
    """All four parameter groups; construction packs them into ``flat``
    and makes every group array a view into it. ``landmark_size`` is the
    length of the FRLP and FRGCA arrays, which lead ``flat``."""

    frlp: FrlpParams
    frgca: FrgcaParams
    vision: VisionProjectorParams
    decoder: ToyDecoderParams
    grid: PatchGrid = field(default_factory=PatchGrid)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    landmark_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = model_arrays(self)
        self.flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        self.landmark_size = sum(a.size for a in (*self.frlp.arrays(), *self.frgca.arrays()))
        views = iter(unflatten(self.flat, arrays).values())
        for prefix in _PREFIXES:
            params = getattr(self, prefix)
            setattr(self, prefix, params.with_arrays([next(views) for _ in params.arrays()]))


def init_model(config: TrainConfig) -> ModelParams:
    """Seed-deterministic initialization of all four parameter groups."""
    return ModelParams(
        frlp=init_frlp(config.d, default_partition(), seed=config.seed),
        frgca=init_frgca(
            config.d, d_attn=config.d_attn, heads=config.heads, seed=config.seed + 1
        ),
        vision=init_vision_projector(config.d_raw, config.d, seed=config.seed + 2),
        decoder=init_decoder(config.vocab, config.d, seed=config.seed + 3),
        grid=PatchGrid(config.grid_rows, config.grid_cols),
    )


def model_arrays(model: ModelParams) -> dict[str, np.ndarray]:
    """Every parameter array, checkpoint-keyed, in flat order: the views
    that tile ``model.flat``."""
    arrays: dict[str, np.ndarray] = {}
    for prefix in _PREFIXES:
        params = getattr(model, prefix)
        arrays.update(named(params.SPEC, params.arrays(), prefix + "."))
    return arrays


def condition(
    h_v: np.ndarray,
    clip: LandmarkClip,
    frlp: FrlpParams | None,
    frgca: FrgcaParams | None,
    grid: PatchGrid,
    variant: str,
    tokens: str,
) -> tuple[np.ndarray, FrgcaCache | None]:
    """The conditioned visual tokens for ``variant`` and FRGCA's forward
    cache. Variant "none" returns ``h_v`` itself and a None cache, and
    reads no parameters. An attending variant attends from ``h_v`` to the
    FRLP tokens of the default partition picked by ``tokens``, under the
    masks of their regions for "frgca" and no mask for "simple". The
    global token is the ``WHOLE_FACE`` region's token; a softmax over that
    one token is 1 whatever its mask, so "frgca" equals "simple" there."""
    if variant == "none":
        return h_v, None
    partition = default_partition()
    h_l = select_tokens(frlp_forward(clip, partition, frlp), tokens)
    masks = None
    if variant == "frgca":
        regions = WHOLE_FACE if tokens == "global_only" else partition
        masks = clip_rpp_masks(clip, regions, grid)
    return frgca_forward(h_v, h_l, masks, frgca, variant=variant, return_cache=True)


def forward_loss(
    model: ModelParams, sample: SynthSample, config: TrainConfig
) -> tuple[float, tuple]:
    """Full pipeline loss for one sample, and the state ``backward_pass``
    reads: the vision, attention and decoder caches (the attention cache
    is None for variant "none"). A caller that wants only the loss takes
    ``[0]``."""
    h_v, vision_cache = vision_project(sample.raw, model.vision)
    enriched, attn_cache = condition(
        h_v, sample.clip, model.frlp, model.frgca, model.grid, config.variant, config.tokens
    )
    sequence = sequence_assemble(
        enriched,
        sample.instruction_ids,
        sample.response_ids,
        model.decoder,
        max_context=config.max_context,
    )
    loss, decoder_cache = autoregressive_loss(sequence, model.decoder)
    return loss, (vision_cache, attn_cache, decoder_cache)


def backward_pass(
    model: ModelParams, sample: SynthSample, config: TrainConfig, state, out=None
) -> np.ndarray:
    """Gradient of the loss as one vector laid out like ``model.flat``,
    written into ``out`` when given."""
    vision_cache, attn_cache, decoder_cache = state
    if out is None:
        out = np.empty(model.flat.size)
    dec, d_visual = decoder_backward(decoder_cache)
    if attn_cache is None:  # variant "none": FRLP and FRGCA never reach the loss
        d_h_v = d_visual
        start = model.landmark_size
        out[:start] = 0.0
        landmark = []
    else:
        att, d_h_v, d_h_l = frgca_backward(d_visual, attn_cache)
        frl = frlp_backward(
            d_h_l, sample.clip, default_partition(), model.frlp, mode=config.tokens
        )
        start = 0
        landmark = [*frl.arrays(), *att.arrays()]
    vis = vision_backward(d_h_v, vision_cache)
    np.concatenate([*landmark, *vis.arrays(), *dec.arrays()], axis=None, out=out[start:])
    return out


def cosine_lr(base: float, step: int, total_steps: int) -> float:
    """Half-period cosine from base at step 0 to 0 at the final step."""
    if total_steps <= 1:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    """AdamW with bias correction over one parameter vector; the moments
    and scratch buffers are allocated once, so a step allocates nothing.
    Weight decay is zero, so a step is Adam's."""

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
    # "pretrain" stops after gamma and alpha; "none" starts there (module docstring)
    start = model.landmark_size if config.variant == "none" else 0
    stop = model.landmark_size if config.stage == "pretrain" else model.flat.size
    params = model.flat[start:stop]
    grad = np.empty_like(model.flat)
    optimizer = AdamW(stop - start)
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
                loss, state = forward_loss(model, sample, config)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} at step {step} (sample {idx})") from exc
            backward_pass(model, sample, config, state, out=grad)
            if not np.logical_and.reduce(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite gradient at step {step} (sample {idx})")
            optimizer.step(params, grad[start:stop], lr)
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
        loss, (_, _, decoder_cache) = forward_loss(model, sample, config)
        losses.append(loss)
        preds = response_predictions(decoder_cache)
        for pred, target in zip(preds, sample.response_ids):
            correct += int(pred == target)
            total += 1
    return float(np.mean(losses)), correct / total


def config_dataset(
    config: TrainConfig, seed: int, size: int, task_kind: str
) -> list[SynthSample]:
    """``size`` synthetic samples of ``task_kind``, shaped for ``config``'s
    frames, grid, raw features and vocabulary, each short enough for its
    ``max_context``."""
    samples = synth_dataset(
        seed=seed,
        size=size,
        task_kind=task_kind,
        frames=config.frames,
        n_patches=config.n_patches,
        d_raw=config.d_raw,
        vocab=config.vocab,
    )
    for i, sample in enumerate(samples):
        T, N, _ = sample.raw.shape
        total = T * N + len(sample.instruction_ids) + len(sample.response_ids)
        if total > config.max_context:
            raise ValueError(
                f"sample {i} has sequence length {total}, beyond max_context {config.max_context}"
            )
    return samples


def ablation_experiment(
    variants: Sequence[str],
    seeds: Sequence[int],
    train_size: int,
    eval_size: int,
    config: TrainConfig | None = None,
    task_kind: str = "region",
) -> dict[str, dict[str, float]]:
    """Train each attention variant across seeds on the synthetic task and
    report mean final evaluation loss and accuracy. Each seed's datasets
    are built once and shared by every variant; the datasets depend only
    on the seed and on shape fields that no variant changes."""
    base = config or TrainConfig(stage="finetune", learning_rate=3e-3)
    losses: dict[str, list[float]] = {variant: [] for variant in variants}
    accuracies: dict[str, list[float]] = {variant: [] for variant in variants}
    for seed in seeds:
        train_set = config_dataset(base, seed, train_size, task_kind)
        eval_set = config_dataset(base, seed + EVAL_SEED_OFFSET, eval_size, task_kind)
        for variant in losses:
            cfg = TrainConfig(
                **{**base.to_dict(), "variant": variant, "seed": int(seed)}
            )
            result = train(cfg, train_set)
            loss, accuracy = evaluate(result.model, eval_set, cfg)
            losses[variant].append(loss)
            accuracies[variant].append(accuracy)
    return {
        variant: {
            "mean_eval_loss": float(np.mean(losses[variant])),
            "mean_eval_accuracy": float(np.mean(accuracies[variant])),
            "per_seed_loss": [float(x) for x in losses[variant]],
            "per_seed_accuracy": [float(x) for x in accuracies[variant]],
        }
        for variant in losses
    }
