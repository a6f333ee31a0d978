"""Face-region guided cross-attention.

Visual tokens query the landmark tokens through a single multi-head
cross-attention block. The region-patch proximity mask is added to the
pre-softmax logits of every head, the attended values pass through an
output projection, and the block closes with a residual connection back
onto the visual tokens. No layer normalization anywhere.

There is one configuration: biased q/v/o projections, an unbiased key
projection and logits scaled by 1/sqrt(d_head) per head, as in standard
multi-head attention. A key bias would add q . b_k to every logit of a
query row, a shift that the softmax removes, so it could not change the
output and its gradient would be roundoff. Variant
"simple" attends without the mask. The no-landmarks baseline (variant
``none`` in training and the CLI) never reaches this module:
``toytrain.training.condition`` passes the visual tokens through unchanged.

Evaluation order. The N visual tokens query only M landmark tokens (9
regions and the whole face, or the whole face alone), and M is below
d_head (10 against 32 at the paper-like shape, d = d_attn = 256 with 8
heads). So no query, merged head or any other (T, N, d_attn) array is
formed: per frame and head, the query projection is folded into the keys
and the output projection into the values,

    keys_h   = k_h W_q,h / sqrt(d_head)      (M, d)
    offset_h = k_h b_q,h / sqrt(d_head)      (M,)
    values_h = v_h W_o,h^T                   (M, d)

so that head h's logits are h_v keys_h^T + offset_h (+ mask) and its share
of the output is attn_h values_h. Stacked over heads, the N-row products
(forward: the logits and the output; backward: the attention's cotangent,
d_h_v and the cotangents of the folded keys and values) have inner or
outer size heads * M instead of d_attn. The weight gradients come from the
small cotangents of the folded blocks, as matmuls batched over heads. At
the toy shape (d_head = 4) heads * M exceeds d_attn, but there numpy's
per-call overhead, not arithmetic, sets the time. This is the
associativity DeepSeek-V2's multi-head latent attention uses to absorb
its up-projections (arXiv 2405.04434). Sums run in another order than the
textbook q k^T form, so results agree with it to roundoff, not bit for bit.

Backward is hand-written reverse mode over the cached forward state.

Shapes (per call):
    h_v   (T, N, d)      visual tokens
    h_l   (T, M, d)      landmark tokens
    mask  (T, N, M)      one proximity mask per frame
    out   (T, N, d)      enriched tokens, same count as the input
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .registry import SpecParams, init_arrays, shaped

VARIANTS = ("frgca", "simple")


@dataclass
class FrgcaParams(SpecParams):
    """Query/key/value projections (d_attn, d), output projection (d, d_attn);
    every projection but the key has a bias.

    The mask encodes geometry, not head-specific content, so it is added
    identically to every head's logits, which are divided by
    sqrt(d_attn / heads).
    """

    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    heads: int = 8

    SPEC = (
        ("w_q.weight", ("d_attn", "d")),
        ("w_q.bias", ("d_attn",)),
        ("w_k.weight", ("d_attn", "d")),
        ("w_v.weight", ("d_attn", "d")),
        ("w_v.bias", ("d_attn",)),
        ("w_o.weight", ("d", "d_attn")),
        ("w_o.bias", ("d",)),
    )

    def __post_init__(self) -> None:
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.d_attn % self.heads:
            raise ValueError(f"d_attn={self.d_attn} not divisible by heads={self.heads}")

    @property
    def d(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_attn(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_head(self) -> int:
        return self.d_attn // self.heads

    def scale_factor(self) -> float:
        return math.sqrt(self.d_head)


@dataclass
class FrgcaCache:
    """Forward state needed by the backward pass."""

    h_v: np.ndarray
    h_l: np.ndarray
    k: np.ndarray  # (T, H, M, d_head) projected keys over sqrt(d_head)
    v: np.ndarray  # (T, H, M, d_head) projected values, bias included
    keys: np.ndarray  # (T, H * M, d) folded keys k_h W_q,h, heads stacked
    values: np.ndarray  # (T, H * M, d) folded values v_h W_o,h^T, heads stacked
    attn: np.ndarray  # (T, H, N, M), a transposed view of a (T, N, H, M) array
    params: FrgcaParams


def init_frgca(d: int, d_attn: int | None = None, heads: int = 8, seed: int = 0) -> FrgcaParams:
    """Weights drawn in the order q, k, v, o (``registry.init_arrays``)."""
    dims = {"d": d, "d_attn": d if d_attn is None else d_attn}
    return FrgcaParams(*init_arrays(FrgcaParams.SPEC, dims, seed), heads)


def _validate(h_v, h_l, mask, params, variant):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    dims = {"d": params.d}
    h_v = shaped(np.asarray(h_v, dtype=np.float64), ("T", "N", "d"), dims, "h_v")
    if not np.logical_and.reduce(np.isfinite(h_v), axis=None):
        raise ValueError("h_v contains non-finite values")
    h_l = shaped(np.asarray(h_l, dtype=np.float64), ("T", "M", "d"), dims, "h_l")
    if not np.logical_and.reduce(np.isfinite(h_l), axis=None):
        raise ValueError("h_l contains non-finite values")
    if variant == "frgca":
        if mask is None:
            raise ValueError("variant 'frgca' requires a proximity mask")
        mask = shaped(np.asarray(mask, dtype=np.float64), ("T", "N", "M"), dims, "mask")
        if not np.logical_and.reduce(np.isfinite(mask), axis=None):
            raise ValueError("mask contains non-finite values")
    else:
        mask = None
    return h_v, h_l, mask


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    # (T, L, H * d_head) -> (T, H, L, d_head)
    T, L, width = x.shape
    return x.reshape(T, L, heads, width // heads).transpose(0, 2, 1, 3)


def frgca_forward(
    h_v: np.ndarray,
    h_l: np.ndarray,
    mask: np.ndarray | None,
    params: FrgcaParams,
    variant: str = "frgca",
    return_cache: bool = False,
):
    """Enriched tokens (T, N, d); optionally also the backward cache.

    Variant "simple" runs the same attention with a zero mask.
    """
    h_v, h_l, mask = _validate(h_v, h_l, mask, params, variant)
    T, N, d = h_v.shape
    M = h_l.shape[1]
    H, d_head = params.heads, params.d_head
    k = h_l @ params.w_k.T
    k *= 1.0 / params.scale_factor()
    k = _heads(k, H)
    v = _heads(h_l @ params.w_v.T + params.b_v, H)
    keys = (k @ params.w_q.reshape(H, d_head, d)).reshape(T, H * M, d)
    offset = (k @ params.b_q.reshape(H, d_head, 1)).reshape(T, 1, H * M)
    # W_o,h^T for every head, (H, d_head, d), a view of w_o
    values = (v @ params.w_o.reshape(d, H, d_head).transpose(1, 2, 0)).reshape(T, H * M, d)

    # the logits, heads stacked, (T, N, H * M); the softmax below turns
    # them into the attention in place
    attn_rows = h_v @ keys.transpose(0, 2, 1)
    attn_rows += offset
    attn = attn_rows.reshape(T, N, H, M)
    if variant == "frgca":
        # the softmax ignores a shift that is the same across a row; each
        # mask row is moved to a max of 0 before it meets the logits, so
        # such a shift of the mask reaches that sum only through the
        # rounding of the shifted mask itself
        attn += (mask - np.maximum.reduce(mask, axis=-1, keepdims=True))[:, :, None, :]
    # subtracting the row max keeps large negative mask entries stable;
    # the ufunc reductions skip the Python wrappers of .max() and .sum(),
    # which count at the toy shape
    attn -= np.maximum.reduce(attn, axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)

    out = attn_rows @ values
    out += params.b_o
    out += h_v

    if return_cache:
        return out, FrgcaCache(h_v, h_l, k, v, keys, values, attn.transpose(0, 2, 1, 3), params)
    return out


def frgca_backward(
    cotangent: np.ndarray, cache: FrgcaCache | None, out: FrgcaParams
) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode gradients of frgca_forward: writes the parameter
    gradients into ``out``, shaped like the parameters (its arrays must
    be C-contiguous, as ``w_q`` and ``b_q`` are written through per-head
    reshapes), and returns d_h_v and d_h_l.

    ``cache`` must come from a matching forward call with
    return_cache=True.
    """
    if cache is None:
        raise ValueError("missing forward cache; call frgca_forward(..., return_cache=True)")
    params = cache.params
    g = shaped(np.asarray(cotangent, dtype=np.float64), cache.h_v.shape, {}, "cotangent")

    h_v, h_l = cache.h_v, cache.h_l
    T, N, d = h_v.shape
    M = h_l.shape[1]
    H, d_head = params.heads, params.d_head
    attn = cache.attn.transpose(0, 2, 1, 3)  # (T, N, H, M), contiguous
    attn_rows = attn.reshape(T, N, H * M)

    # output = attn_rows @ values + b_o + h_v
    np.add.reduce(g, axis=(0, 1), out=out.b_o)
    d_values = attn_rows.transpose(0, 2, 1) @ g  # (T, H * M, d)
    d_logits = (g @ cache.values.transpose(0, 2, 1)).reshape(T, N, H, M)

    # softmax rows: dS = A * (dA - sum(dA * A))
    d_logits -= np.add.reduce(d_logits * attn, axis=-1, keepdims=True)
    d_logits *= attn
    d_logit_rows = d_logits.reshape(T, N, H * M)

    # logits = h_v @ keys^T + offset
    d_h_v = d_logit_rows @ cache.keys
    d_h_v += g  # residual path
    d_keys = (d_logit_rows.transpose(0, 2, 1) @ h_v).reshape(T, H, M, d)
    d_offset = np.add.reduce(d_logit_rows, axis=1).reshape(T, H, M, 1)

    # unfold: keys_h = k_h W_q,h, offset_h = k_h b_q,h and values_h =
    # v_h W_o,h^T, with k scaled; each weight gradient sums over (frame,
    # landmark) as one matmul per head
    w_q_t = params.w_q.reshape(H, d_head, d).transpose(0, 2, 1)  # W_q,h^T
    d_k = d_keys @ w_q_t + d_offset * params.b_q.reshape(H, 1, d_head)
    d_k *= 1.0 / params.scale_factor()
    d_v = d_values.reshape(T, H, M, d) @ params.w_o.reshape(d, H, d_head).transpose(1, 0, 2)
    k_rows = cache.k.transpose(1, 3, 0, 2).reshape(H, d_head, T * M)
    d_keys_rows = d_keys.transpose(1, 0, 2, 3).reshape(H, T * M, d)
    np.matmul(k_rows, d_keys_rows, out=out.w_q.reshape(H, d_head, d))
    d_offset_rows = d_offset.transpose(1, 0, 2, 3).reshape(H, T * M, 1)
    np.matmul(k_rows, d_offset_rows, out=out.b_q.reshape(H, d_head, 1))
    v_rows = cache.v.transpose(1, 3, 0, 2).reshape(H, d_head, T * M)
    d_values_rows = d_values.reshape(T, H, M, d).transpose(1, 0, 2, 3).reshape(H, T * M, d)
    out.w_o[...] = (v_rows @ d_values_rows).reshape(-1, d).T

    # k = h_l @ w_k.T and v = h_l @ w_v.T + b_v, heads merged back to
    # (T * M, d_attn) rows
    d_k_rows = d_k.transpose(0, 2, 1, 3).reshape(T * M, -1)
    d_v_rows = d_v.transpose(0, 2, 1, 3).reshape(T * M, -1)
    h_l_rows = h_l.reshape(T * M, d)
    np.dot(d_k_rows.T, h_l_rows, out=out.w_k)
    np.dot(d_v_rows.T, h_l_rows, out=out.w_v)
    np.add.reduce(d_v_rows, axis=0, out=out.b_v)
    d_h_l = (np.dot(d_k_rows, params.w_k) + np.dot(d_v_rows, params.w_v)).reshape(T, M, d)
    return d_h_v, d_h_l


def attention_maps_json(weights: np.ndarray) -> list[dict]:
    """(T, H, N, M) attention weights as one JSON entry per (frame, head),
    each holding a view of that (N, M) map; `write_json` lists it."""
    weights = np.asarray(weights)
    return [
        {"frame": t, "head": h, "weights": weights[t, h]}
        for t in range(weights.shape[0])
        for h in range(weights.shape[1])
    ]
