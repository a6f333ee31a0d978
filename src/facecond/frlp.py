"""Face-region landmark projector.

Nine per-region affine maps plus one global affine map turn grouped
landmark coordinates into region tokens and a global token; the two are
summed with the global token broadcast over regions. Each projector is a
single affine layer with no nonlinearity.

Flattening order for projector inputs is fixed: ascending landmark
index, x before y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LandmarkClip, RegionPartition, N_LANDMARKS
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
    local_weights = []
    local_biases = []
    for _, idx in partition.groups:
        fan_in = 2 * len(idx)
        bound = 1.0 / np.sqrt(fan_in)
        local_weights.append(rng.uniform(-bound, bound, size=(d, fan_in)))
        local_biases.append(np.zeros(d))
    fan_in = 2 * N_LANDMARKS
    bound = 1.0 / np.sqrt(fan_in)
    global_weight = rng.uniform(-bound, bound, size=(d, fan_in))
    return FrlpParams(local_weights, local_biases, global_weight, np.zeros(d), d)


def _check_compat(partition: RegionPartition, params: FrlpParams) -> None:
    expected = tuple(2 * len(idx) for _, idx in partition.groups)
    got = tuple(w.shape[1] for w in params.local_weights)
    if expected != got:
        raise ValueError(
            f"params incompatible with partition: input widths {got}, expected {expected}"
        )


def _group_inputs(clip_arr: np.ndarray, partition: RegionPartition) -> list[np.ndarray]:
    # (T, 2*L_i) per group; ravel of (L_i, 2) rows interleaves x before y
    T = clip_arr.shape[0]
    return [
        clip_arr[:, list(idx), :].reshape(T, 2 * len(idx))
        for _, idx in partition.groups
    ]


def local_project(
    clip: LandmarkClip, partition: RegionPartition, params: FrlpParams
) -> np.ndarray:
    """Per-region tokens, shape (T, M, d)."""
    _check_compat(partition, params)
    arr = clip.as_array()
    inputs = _group_inputs(arr, partition)
    cols = [
        x @ w.T + b
        for x, w, b in zip(inputs, params.local_weights, params.local_biases)
    ]
    return np.stack(cols, axis=1)


def global_project(clip: LandmarkClip, params: FrlpParams) -> np.ndarray:
    """One whole-face token per frame, shape (T, 1, d)."""
    arr = clip.as_array()
    flat = arr.reshape(arr.shape[0], 2 * N_LANDMARKS)
    out = flat @ params.global_weight.T + params.global_bias
    return out[:, None, :]


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

    arr = clip.as_array()
    inputs = _group_inputs(arr, partition)
    d = params.d

    local_dw = [np.zeros_like(w) for w in params.local_weights]
    local_db = [np.zeros_like(b) for b in params.local_biases]
    if d_local is not None:
        if d_local.shape != (arr.shape[0], partition.num_regions, d):
            raise ValueError(f"cotangent shape {d_local.shape} mismatches tokens")
        for i, x in enumerate(inputs):
            g = d_local[:, i, :]  # (T, d)
            local_dw[i] = g.T @ x
            local_db[i] = g.sum(axis=0)

    global_dw = np.zeros_like(params.global_weight)
    global_db = np.zeros_like(params.global_bias)
    if d_global is not None:
        flat = arr.reshape(arr.shape[0], 2 * N_LANDMARKS)
        g = d_global[:, 0, :]  # (T, d)
        global_dw = g.T @ flat
        global_db = g.sum(axis=0)

    return FrlpParams(local_dw, local_db, global_dw, global_db, d)
