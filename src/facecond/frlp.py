"""Face-region landmark projector.

One affine map per region turns that region's landmark coordinates into
a token. The nine regions of the partition give the local tokens; the
one region of ``WHOLE_FACE`` gives the global token, which is summed
into every local token. Each projector is a single affine layer with no
nonlinearity.

Flattening order for projector inputs is fixed: ascending landmark
index, x before y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import WHOLE_FACE, LandmarkClip, RegionPartition, N_LANDMARKS
from .registry import Spec

TOKEN_MODES = ("both", "local_only", "global_only")


@dataclass
class FrlpParams:
    """Weights of the local and global landmark projectors.

    ``local_weights[i]`` has shape (d, 2 * L_i) for group i;
    ``global_weight`` has shape (d, 2 * 68). Biases are (d,).
    """

    local_weights: list[np.ndarray]
    local_biases: list[np.ndarray]
    global_weight: np.ndarray
    global_bias: np.ndarray
    d: int

    def group_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[1] // 2 for w in self.local_weights)

    @staticmethod
    def spec(partition: RegionPartition) -> Spec:
        """Checkpoint keys and shapes, in checkpoint order (see registry)."""
        rows: list = []
        for i, (_, idx) in enumerate(partition.groups):
            rows += [(f"local.{i}.weight", ("d", 2 * len(idx))), (f"local.{i}.bias", ("d",))]
        return (*rows, ("global.weight", ("d", 2 * N_LANDMARKS)), ("global.bias", ("d",)))

    def arrays(self) -> list[np.ndarray]:
        local = [a for pair in zip(self.local_weights, self.local_biases) for a in pair]
        return [*local, self.global_weight, self.global_bias]

    @classmethod
    def with_arrays(cls, arrays: list[np.ndarray]) -> "FrlpParams":
        """Build from arrays in spec order (callable on an instance too)."""
        *local, global_weight, global_bias = arrays
        return cls(local[0::2], local[1::2], global_weight, global_bias, d=global_bias.shape[0])


@dataclass(frozen=True)
class LandmarkTokens:
    """Per-frame landmark tokens: combined (T, M, d), local (T, M, d),
    global (T, 1, d)."""

    combined: np.ndarray
    local: np.ndarray
    global_: np.ndarray


def init_frlp(d: int, partition: RegionPartition, seed: int = 0) -> FrlpParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if d < 1:
        raise ValueError("token dimension must be >= 1")
    rng = np.random.default_rng(seed)
    arrays = []
    for _, idx in (*partition.groups, *WHOLE_FACE.groups):
        bound = 1.0 / np.sqrt(2 * len(idx))
        arrays += [rng.uniform(-bound, bound, size=(d, 2 * len(idx))), np.zeros(d)]
    return FrlpParams.with_arrays(arrays)


def _check_compat(partition: RegionPartition, params: FrlpParams) -> None:
    expected = tuple(2 * len(idx) for _, idx in partition.groups)
    got = tuple(w.shape[1] for w in params.local_weights)
    if expected != got:
        raise ValueError(
            f"params incompatible with partition: input widths {got}, expected {expected}"
        )


def _group_inputs(clip: LandmarkClip, partition: RegionPartition) -> list[np.ndarray]:
    # (T, 2*L_i) per group; ravel of (L_i, 2) rows interleaves x before y
    return [
        clip.points[:, list(idx), :].reshape(clip.num_frames, 2 * len(idx))
        for _, idx in partition.groups
    ]


def _region_project(
    clip: LandmarkClip, partition: RegionPartition, weights: list, biases: list
) -> np.ndarray:
    """One affine token per region of ``partition``, shape (T, M, d)."""
    inputs = _group_inputs(clip, partition)
    return np.stack([x @ w.T + b for x, w, b in zip(inputs, weights, biases)], axis=1)


def _region_grads(
    d_tokens: np.ndarray | None, clip: LandmarkClip, partition: RegionPartition,
    weights: list, biases: list,
) -> tuple[list, list]:
    """Weight and bias gradients of ``_region_project`` given the cotangent
    of its output; zeros when the tokens were not used (``d_tokens`` None)."""
    if d_tokens is None:
        return [np.zeros_like(w) for w in weights], [np.zeros_like(b) for b in biases]
    inputs = _group_inputs(clip, partition)
    if d_tokens.shape != (inputs[0].shape[0], len(inputs), biases[0].shape[0]):
        raise ValueError(f"cotangent shape {d_tokens.shape} mismatches tokens")
    grads = [d_tokens[:, i, :] for i in range(len(inputs))]  # (T, d) each
    return [g.T @ x for g, x in zip(grads, inputs)], [g.sum(axis=0) for g in grads]


def local_project(
    clip: LandmarkClip, partition: RegionPartition, params: FrlpParams
) -> np.ndarray:
    """Per-region tokens, shape (T, M, d)."""
    _check_compat(partition, params)
    return _region_project(clip, partition, params.local_weights, params.local_biases)


def global_project(clip: LandmarkClip, params: FrlpParams) -> np.ndarray:
    """One whole-face token per frame, shape (T, 1, d)."""
    return _region_project(clip, WHOLE_FACE, [params.global_weight], [params.global_bias])


def combine_tokens(local: np.ndarray, global_: np.ndarray) -> LandmarkTokens:
    """combined[t, m] = global_[t] + local[t, m] for every region m."""
    local = np.asarray(local, dtype=np.float64)
    global_ = np.asarray(global_, dtype=np.float64)
    if local.ndim != 3 or global_.ndim != 3 or global_.shape[1] != 1:
        raise ValueError("expected local (T, M, d) and global (T, 1, d)")
    if local.shape[0] != global_.shape[0] or local.shape[2] != global_.shape[2]:
        raise ValueError(
            f"shape mismatch: local {local.shape} vs global {global_.shape}"
        )
    return LandmarkTokens(combined=local + global_, local=local, global_=global_)


def frlp_forward(
    clip: LandmarkClip, partition: RegionPartition, params: FrlpParams
) -> LandmarkTokens:
    return combine_tokens(
        local_project(clip, partition, params), global_project(clip, params)
    )


def select_tokens(tokens: LandmarkTokens, mode: str = "both") -> np.ndarray:
    """Pick the landmark-token set handed to cross-attention.

    "both" is the full projector; "local_only"/"global_only" are the
    ablation configurations.
    """
    if mode == "both":
        return tokens.combined
    if mode == "local_only":
        return tokens.local
    if mode == "global_only":
        return tokens.global_
    raise ValueError(f"unknown token mode {mode!r}; expected one of {TOKEN_MODES}")


def frlp_backward(
    d_tokens: np.ndarray,
    clip: LandmarkClip,
    partition: RegionPartition,
    params: FrlpParams,
    mode: str = "both",
) -> FrlpParams:
    """Parameter gradients, shaped like ``params``, given the cotangent of
    select_tokens' output."""
    _check_compat(partition, params)
    d_tokens = np.asarray(d_tokens, dtype=np.float64)
    if mode == "both":
        d_local = d_tokens
        d_global = d_tokens.sum(axis=1, keepdims=True)
    elif mode == "local_only":
        d_local = d_tokens
        d_global = None
    elif mode == "global_only":
        d_local = None
        d_global = d_tokens
    else:
        raise ValueError(f"unknown token mode {mode!r}; expected one of {TOKEN_MODES}")

    local_dw, local_db = _region_grads(
        d_local, clip, partition, params.local_weights, params.local_biases
    )
    (global_dw,), (global_db,) = _region_grads(
        d_global, clip, WHOLE_FACE, [params.global_weight], [params.global_bias]
    )
    return FrlpParams(local_dw, local_db, global_dw, global_db, params.d)
