"""Face-region guided cross-attention.

Visual tokens query the landmark tokens through a single multi-head
cross-attention block. The region-patch proximity mask is added to the
pre-softmax logits of every head, the attended values pass through an
output projection, and the block closes with a residual connection back
onto the visual tokens. No layer normalization anywhere.

There is one configuration: biased q/k/v/o projections and logits scaled
by 1/sqrt(d_head) per head, as in standard multi-head attention. Variant
"simple" attends without the mask. The no-landmarks baseline (variant
``none`` in training and the CLI) never reaches this module:
``toytrain.training.condition`` passes the visual tokens through unchanged.

Backward is hand-written reverse mode over the cached forward state.

Shapes (per call):
    h_v   (T, N, d)      visual tokens
    h_l   (T, M, d)      landmark tokens
    mask  (T, N, M)      one proximity mask per frame
    out   (T, N, d)      enriched tokens, same count as the input
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registry import SpecParams

VARIANTS = ("frgca", "simple")


@dataclass
class FrgcaParams(SpecParams):
    """Query/key/value projections (d_attn, d), output projection (d, d_attn).

    The mask encodes geometry, not head-specific content, so it is added
    identically to every head's logits, which are divided by
    sqrt(d_attn / heads).
    """

    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    heads: int = 8

    SPEC = (
        ("w_q.weight", ("d_attn", "d")),
        ("w_q.bias", ("d_attn",)),
        ("w_k.weight", ("d_attn", "d")),
        ("w_k.bias", ("d_attn",)),
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
        return float(np.sqrt(self.d_head))


@dataclass
class FrgcaCache:
    """Forward state needed by the backward pass."""

    h_v: np.ndarray
    h_l: np.ndarray
    q: np.ndarray  # (T, H, N, d_head)
    k: np.ndarray  # (T, H, M, d_head)
    v: np.ndarray  # (T, H, M, d_head)
    attn: np.ndarray  # (T, H, N, M)
    merged: np.ndarray  # (T, N, d_attn) attended values before W_o
    params: FrgcaParams


def init_frgca(d: int, d_attn: int | None = None, heads: int = 8, seed: int = 0) -> FrgcaParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if d < 1:
        raise ValueError("token dimension must be >= 1")
    d_attn = d if d_attn is None else d_attn
    if d_attn < 1:
        raise ValueError(f"d_attn must be >= 1, got {d_attn}")
    rng = np.random.default_rng(seed)

    def affine(out_dim, in_dim):
        bound = 1.0 / np.sqrt(in_dim)
        return rng.uniform(-bound, bound, size=(out_dim, in_dim)), np.zeros(out_dim)

    w_q, b_q = affine(d_attn, d)
    w_k, b_k = affine(d_attn, d)
    w_v, b_v = affine(d_attn, d)
    w_o, b_o = affine(d, d_attn)
    return FrgcaParams(w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, heads)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    # subtract per-row max for stability with large negative mask entries
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _validate(h_v, h_l, mask, params, variant):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_v.ndim != 3:
        raise ValueError(f"h_v must be (T, N, d), got {h_v.shape}")
    if not np.all(np.isfinite(h_v)):
        raise ValueError("h_v contains non-finite values")
    h_l = np.asarray(h_l, dtype=np.float64)
    if h_l.ndim != 3 or h_l.shape[0] != h_v.shape[0]:
        raise ValueError(f"h_l must be (T, M, d) with matching T, got {h_l.shape}")
    if h_v.shape[2] != params.d or h_l.shape[2] != params.d:
        raise ValueError(
            f"token dim mismatch: h_v {h_v.shape}, h_l {h_l.shape}, params d={params.d}"
        )
    if not np.all(np.isfinite(h_l)):
        raise ValueError("h_l contains non-finite values")
    if variant == "frgca":
        if mask is None:
            raise ValueError("variant 'frgca' requires a proximity mask")
        mask = np.asarray(mask, dtype=np.float64)
        T, N, _ = h_v.shape
        M = h_l.shape[1]
        if mask.shape != (T, N, M):
            raise ValueError(f"mask must be {(T, N, M)}, got {mask.shape}")
        if not np.all(np.isfinite(mask)):
            raise ValueError("mask contains non-finite values")
    else:
        mask = None
    return h_v, h_l, mask


def _project_heads(x: np.ndarray, w: np.ndarray, b: np.ndarray, params: FrgcaParams):
    # (T, L, d) -> (T, H, L, d_head)
    out = x @ w.T + b
    T, L, _ = out.shape
    return out.reshape(T, L, params.heads, params.d_head).transpose(0, 2, 1, 3)


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
    q = _project_heads(h_v, params.w_q, params.b_q, params)
    k = _project_heads(h_l, params.w_k, params.b_k, params)
    v = _project_heads(h_l, params.w_v, params.b_v, params)

    logits = q @ k.transpose(0, 1, 3, 2) / params.scale_factor()
    if variant == "frgca":
        logits = logits + mask[:, None, :, :]
    attn = _softmax_rows(logits)

    per_head = attn @ v  # (T, H, N, d_head)
    T, H, N, d_head = per_head.shape
    merged = per_head.transpose(0, 2, 1, 3).reshape(T, N, H * d_head)
    out = merged @ params.w_o.T + params.b_o
    # a separate statement: fusing the residual into the line above raised
    # peak RSS by one (T, N, d) array in the T=8, N=256, d=256 training step
    out = out + h_v

    if return_cache:
        return out, FrgcaCache(h_v, h_l, q, k, v, attn, merged, params)
    return out


def attention_weights(
    h_v: np.ndarray,
    h_l: np.ndarray,
    mask: np.ndarray | None,
    params: FrgcaParams,
    variant: str = "frgca",
) -> np.ndarray:
    """Per-frame, per-head attention matrices, shape (T, H, N, M).

    Each row is a probability distribution over regions.
    """
    _, cache = frgca_forward(h_v, h_l, mask, params, variant=variant, return_cache=True)
    return cache.attn


def frgca_backward(
    cotangent: np.ndarray, cache: FrgcaCache | None
) -> tuple[FrgcaParams, np.ndarray, np.ndarray]:
    """Exact reverse-mode gradients of frgca_forward: the parameter
    gradients shaped like the parameters, then d_h_v and d_h_l.

    ``cache`` must come from a matching forward call with
    return_cache=True.
    """
    if cache is None:
        raise ValueError("missing forward cache; call frgca_forward(..., return_cache=True)")
    params = cache.params
    g = np.asarray(cotangent, dtype=np.float64)
    if g.shape != cache.h_v.shape:
        raise ValueError(
            f"cotangent shape {g.shape} does not match cached forward output {cache.h_v.shape}"
        )

    h_v, h_l = cache.h_v, cache.h_l
    T, N, d = h_v.shape
    M = h_l.shape[1]
    H, d_head = params.heads, params.d_head

    # residual path
    d_h_v = g.copy()

    # output projection: out = merged @ w_o.T + b_o. Each weight gradient
    # folds (T, L) into one row axis so that it is a single GEMM.
    d_merged = g @ params.w_o  # (T, N, d_attn)
    d_w_o = g.reshape(T * N, d).T @ cache.merged.reshape(T * N, -1)
    d_b_o = g.sum(axis=(0, 1))

    d_per_head = d_merged.reshape(T, N, H, d_head).transpose(0, 2, 1, 3)

    # per_head = attn @ v
    d_attn = d_per_head @ cache.v.transpose(0, 1, 3, 2)  # (T, H, N, M)
    d_v = cache.attn.transpose(0, 1, 3, 2) @ d_per_head  # (T, H, M, d_head)

    # softmax rows: dS = A * (dA - sum(dA * A))
    a = cache.attn
    d_logits = a * (d_attn - (d_attn * a).sum(axis=-1, keepdims=True))

    inv_scale = 1.0 / params.scale_factor()
    d_q = d_logits @ cache.k * inv_scale  # (T, H, N, d_head)
    d_k = d_logits.transpose(0, 1, 3, 2) @ cache.q * inv_scale  # (T, H, M, d_head)

    # merge heads back to (T, L, d_attn)
    d_q_full = d_q.transpose(0, 2, 1, 3).reshape(T, N, H * d_head)
    d_k_full = d_k.transpose(0, 2, 1, 3).reshape(T, M, H * d_head)
    d_v_full = d_v.transpose(0, 2, 1, 3).reshape(T, M, H * d_head)

    # input projections
    h_l_rows = h_l.reshape(T * M, d)
    d_w_q = d_q_full.reshape(T * N, -1).T @ h_v.reshape(T * N, d)
    d_w_k = d_k_full.reshape(T * M, -1).T @ h_l_rows
    d_w_v = d_v_full.reshape(T * M, -1).T @ h_l_rows
    d_b_q = d_q_full.sum(axis=(0, 1))
    d_b_k = d_k_full.sum(axis=(0, 1))
    d_b_v = d_v_full.sum(axis=(0, 1))

    d_h_v += d_q_full @ params.w_q
    d_h_l = d_k_full @ params.w_k + d_v_full @ params.w_v

    grads = params.with_arrays([d_w_q, d_b_q, d_w_k, d_b_k, d_w_v, d_b_v, d_w_o, d_b_o])
    return grads, d_h_v, d_h_l


def attention_maps_json(weights: np.ndarray) -> list[dict]:
    """(T, H, N, M) attention weights as one JSON entry per (frame, head),
    each holding a view of that (N, M) map; `write_json` lists it."""
    weights = np.asarray(weights)
    return [
        {"frame": t, "head": h, "weights": weights[t, h]}
        for t in range(weights.shape[0])
        for h in range(weights.shape[1])
    ]
