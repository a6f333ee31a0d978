"""Desk-scale end-to-end pipeline.

Synthetic raw features stand in for the frozen vision encoder, a
single-embedding decoder stands in for the language model, and the
landmark conditioning modules in between are the subject under test.
"""

from .projector import (
    VisionProjectorParams,
    init_vision_projector,
    vision_backward,
    vision_project,
)
from .decoder import (
    DecoderSequence,
    ToyDecoderParams,
    autoregressive_loss,
    decoder_backward,
    init_decoder,
    sequence_assemble,
)
from .synth import SynthSample, synth_dataset
from .training import (
    ModelParams,
    TrainConfig,
    TrainResult,
    AdamW,
    ablation_experiment,
    cosine_lr,
    evaluate,
    forward_loss,
    init_model,
    model_arrays,
    train,
)

__all__ = [
    "AdamW",
    "DecoderSequence",
    "ModelParams",
    "SynthSample",
    "ToyDecoderParams",
    "TrainConfig",
    "TrainResult",
    "VisionProjectorParams",
    "ablation_experiment",
    "autoregressive_loss",
    "cosine_lr",
    "decoder_backward",
    "evaluate",
    "forward_loss",
    "init_decoder",
    "init_model",
    "init_vision_projector",
    "model_arrays",
    "sequence_assemble",
    "synth_dataset",
    "train",
    "vision_backward",
    "vision_project",
]
