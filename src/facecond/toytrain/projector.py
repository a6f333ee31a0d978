"""Vision projector: a two-layer GeLU MLP applied per token.

GELU(x) = 0.5 x (1 + erf(x / sqrt(2))) and its slope is
0.5 (1 + erf(x / sqrt(2))) + x exp(-x^2 / 2) / sqrt(2 pi). The forward
keeps ``cdf2 = 1 + erf(x / sqrt(2))`` in its cache, so the backward builds
the slope from it and computes no ``erf`` of its own. Both work in place,
yet round each product and sum as the plain NumPy expressions
``0.5 * x * (1.0 + erf(x * (1 / sqrt(2))))`` and
``0.5 * (1.0 + erf(...)) + x * (1 / sqrt(2 pi)) * np.exp(-0.5 * x * x)``
do, so the results are bit-identical to those expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ..registry import SpecParams, init_arrays, shaped

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class VisionProjectorParams(SpecParams):
    """fc1 (hidden, d_raw), fc2 (d, hidden) with biases."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    SPEC = (
        ("fc1.weight", ("hidden", "d_raw")),
        ("fc1.bias", ("hidden",)),
        ("fc2.weight", ("d", "hidden")),
        ("fc2.bias", ("d",)),
    )

    @property
    def d_raw(self) -> int:
        return self.w1.shape[1]

    @property
    def d(self) -> int:
        return self.w2.shape[0]


@dataclass
class VisionCache:
    """Forward values the backward reads: the input, fc1's output, its
    ``1 + erf(pre_act / sqrt(2))`` and the GELU of it."""

    raw: np.ndarray
    pre_act: np.ndarray
    cdf2: np.ndarray
    hidden: np.ndarray
    params: VisionProjectorParams


def init_vision_projector(
    d_raw: int, d: int, hidden: int | None = None, seed: int = 0
) -> VisionProjectorParams:
    hidden = d if hidden is None else hidden
    dims = {"d_raw": d_raw, "d": d, "hidden": hidden}
    return VisionProjectorParams(*init_arrays(VisionProjectorParams.SPEC, dims, seed))


def vision_project(
    raw: np.ndarray, params: VisionProjectorParams
) -> tuple[np.ndarray, VisionCache]:
    """Project raw (T, N, d_raw) features into (T, N, d) visual tokens.
    Returns the tokens and the cache ``vision_backward`` reads; a caller
    that wants only the tokens takes ``[0]``."""
    raw = shaped(np.asarray(raw, dtype=np.float64), ("T", "N", params.d_raw), {}, "raw")
    pre = raw @ params.w1.T
    pre += params.b1
    cdf2 = np.multiply(pre, _INV_SQRT2)
    erf(cdf2, out=cdf2)
    cdf2 += 1.0
    hid = np.multiply(pre, 0.5)
    hid *= cdf2
    out = hid @ params.w2.T
    out += params.b2
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise ValueError("vision projector produced non-finite output")
    return out, VisionCache(raw, pre, cdf2, hid, params)


def vision_backward(
    cotangent: np.ndarray, cache: VisionCache, out: VisionProjectorParams
) -> None:
    """Write the parameter gradients into ``out``, shaped like the
    parameters. The raw features are fixed inputs, so their gradient is
    not computed."""
    if cache is None:
        raise ValueError("missing forward cache")
    params = cache.params
    expected = (*cache.raw.shape[:2], params.d)  # the (T, N, d) output
    g = shaped(np.asarray(cotangent, dtype=np.float64), expected, {}, "cotangent")
    # fold (T, N) into one row axis: each weight gradient is one GEMM
    rows = g.shape[0] * g.shape[1]
    d_hidden = g @ params.w2
    np.dot(g.reshape(rows, -1).T, cache.hidden.reshape(rows, -1), out=out.w2)
    np.add.reduce(g, axis=(0, 1), out=out.b2)
    # d_hidden becomes d_pre in place: times the GELU slope
    # 0.5 cdf2 + (x / sqrt(2 pi)) exp((-0.5 x) x), built in one scratch array
    x = cache.pre_act
    slope = np.multiply(x, -0.5)
    slope *= x
    np.exp(slope, out=slope)
    slope *= x * _INV_SQRT_2PI
    slope += 0.5 * cache.cdf2
    d_hidden *= slope
    d_pre = d_hidden
    np.dot(d_pre.reshape(rows, -1).T, cache.raw.reshape(rows, -1), out=out.w1)
    np.add.reduce(d_pre, axis=(0, 1), out=out.b1)
