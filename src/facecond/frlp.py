"""Face-region landmark projector.

One affine map per region turns that region's landmark coordinates into
a token. The regions are the nine of the partition and then the one
region of ``WHOLE_FACE``, so ``frlp_forward`` gives ten tokens per
frame: nine local tokens and the global token. ``select_tokens`` picks
the local tokens, the global token, or both, with the global token
summed into every local token. Each projector is a single affine layer
with no nonlinearity.

Flattening order for projector inputs is fixed: the group's own index
order (ascending for the default partition), x before y. The inputs are
column slices of one gather through the partition's ``order``.

``frlp_spec(partition)`` gives the projectors' keys and shapes, so any
partition's projectors start by the registry's init rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import LandmarkClip, RegionPartition, N_LANDMARKS, default_partition
from .registry import Spec, init_arrays, shaped

TOKEN_MODES = ("both", "local_only", "global_only")


def frlp_spec(partition: RegionPartition) -> Spec:
    """Checkpoint keys and shapes of the projectors of ``partition``'s
    regions and then ``WHOLE_FACE``, in checkpoint order (see registry)."""
    return (
        *(
            row
            for i, size in enumerate(partition.sizes())
            for row in ((f"local.{i}.weight", ("d", 2 * size)), (f"local.{i}.bias", ("d",)))
        ),
        ("global.weight", ("d", 2 * N_LANDMARKS)),
        ("global.bias", ("d",)),
    )


@dataclass
class FrlpParams:
    """Weights of the region projectors: one per region of the partition,
    then one for ``WHOLE_FACE``.

    ``weights[i]`` has shape (d, 2 * L_i) for region i, so the last is
    (d, 2 * 68); ``biases[i]`` has shape (d,).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def d(self) -> int:
        return self.biases[0].shape[0]

    SPEC: ClassVar[Spec] = frlp_spec(default_partition())

    def arrays(self) -> list[np.ndarray]:
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    @classmethod
    def with_arrays(cls, arrays: list[np.ndarray]) -> "FrlpParams":
        """Build from arrays in spec order (callable on an instance too)."""
        return cls(arrays[0::2], arrays[1::2])


def init_frlp(d: int, partition: RegionPartition, seed: int = 0) -> FrlpParams:
    """``partition``'s projectors, initialized by ``registry.init_arrays``."""
    return FrlpParams.with_arrays(init_arrays(frlp_spec(partition), {"d": d}, seed))


def _region_inputs(
    clip: LandmarkClip, partition: RegionPartition, params: FrlpParams
) -> list[np.ndarray]:
    """The (T, 2 * L_i) input of each region of ``partition`` and then
    ``WHOLE_FACE``, after checking that ``params`` has one projector of
    that width per region. The ravel of (L_i, 2) rows interleaves x
    before y. Region i's input is columns 2 * offsets[i] to
    2 * offsets[i + 1] of the points gathered by ``partition.order``;
    the whole face's is a view of the clip."""
    expected = tuple([2 * size for size in (*partition.sizes(), N_LANDMARKS)])
    got = tuple([w.shape[1] for w in params.weights])
    if expected != got:
        raise ValueError(
            f"params incompatible with partition: input widths {got}, expected {expected}"
        )
    T = clip.num_frames
    grouped = clip.points[:, partition.order].reshape(T, 2 * N_LANDMARKS)
    bounds = partition.offsets
    return [grouped[:, 2 * a : 2 * b] for a, b in zip(bounds, bounds[1:])] + [
        clip.points.reshape(T, 2 * N_LANDMARKS)
    ]


def frlp_forward(
    clip: LandmarkClip, partition: RegionPartition, params: FrlpParams
) -> np.ndarray:
    """One token per region, shape (T, M + 1, d): the M regions of
    ``partition``, then the whole face."""
    inputs = _region_inputs(clip, partition, params)
    tokens = np.empty((clip.num_frames, len(inputs), params.d))
    # a train step's 2-D products use np.dot: matmul's BLAS call without the
    # gufunc dispatch, which counts at the toy shape; batched products stay @
    for i, (x, w, b) in enumerate(zip(inputs, params.weights, params.biases)):
        np.add(np.dot(x, w.T), b, out=tokens[:, i])
    return tokens


def select_tokens(tokens: np.ndarray, mode: str = "both") -> np.ndarray:
    """Pick the landmark-token set handed to cross-attention from the
    (T, M + 1, d) region tokens.

    "both" is the full projector: the global token summed into each of
    the M local tokens. "local_only"/"global_only" are the ablation
    configurations.
    """
    if mode == "both":
        return tokens[:, :-1] + tokens[:, -1:]
    if mode == "local_only":
        return tokens[:, :-1]
    if mode == "global_only":
        return tokens[:, -1:]
    raise ValueError(f"unknown token mode {mode!r}; expected one of {TOKEN_MODES}")


def frlp_backward(
    d_tokens: np.ndarray,
    clip: LandmarkClip,
    partition: RegionPartition,
    params: FrlpParams,
    mode: str = "both",
    *,
    out: FrlpParams,
) -> None:
    """Write the parameter gradients, given the cotangent of
    select_tokens' output, into ``out``, shaped like ``params``. The
    landmarks are fixed inputs, so their gradient is not computed."""
    if mode not in TOKEN_MODES:
        raise ValueError(f"unknown token mode {mode!r}; expected one of {TOKEN_MODES}")
    inputs = _region_inputs(clip, partition, params)
    selected = 1 if mode == "global_only" else len(inputs) - 1
    expected = (clip.num_frames, selected, params.d)
    d_tokens = shaped(np.asarray(d_tokens, dtype=np.float64), expected, {}, "cotangent")

    # the cotangent of frlp_forward's output; zero where the mode reads nothing
    d_regions = np.zeros((clip.num_frames, len(inputs), params.d))
    if mode == "global_only":
        d_regions[:, -1:] = d_tokens
    else:
        d_regions[:, :-1] = d_tokens
        if mode == "both":
            np.add.reduce(d_tokens, axis=1, out=d_regions[:, -1])
    for i, (x, d_w) in enumerate(zip(inputs, out.weights)):
        np.dot(d_regions[:, i].T, x, out=d_w)
    # every region's bias gradient in one sum over frames, (M + 1, d)
    for d_b, row in zip(out.biases, np.add.reduce(d_regions, axis=0)):
        d_b[...] = row
