"""``frgca_forward``/``frgca_backward`` and ``vision_backward`` against
an einsum reference.

The FRGCA reference is self-contained: it recomputes q, k, v, the
attention and the merged heads from the inputs, the mask and the
parameters in the textbook order (project, attend, merge, project back),
then the forward output and every gradient, contracting over (frame,
token) with ``np.einsum``. It reads nothing from the forward cache. The
package sums in another order (one GEMM per product), so the two agree to
a relative tolerance, not bit for bit. The error is measured as the
largest absolute difference over the largest reference entry.

The projector reference is self-contained in the same way: it writes
GELU and its slope from ``erf`` and ``exp`` itself.

This file is the only place in the repository that keeps ``einsum``;
``test_no_einsum_in_the_package`` keeps it out of ``src/facecond``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import facecond
from facecond.frgca import frgca_backward, frgca_forward, init_frgca
from facecond.registry import empty_like
from facecond.toytrain.projector import init_vision_projector, vision_backward, vision_project

SRC = Path(facecond.__file__).parent
RTOL = 1e-12

# (T, N, d, heads, d_raw): the toy training shape and the paper_step shape
SHAPES = {
    "toy": (1, 16, 16, 4, 8),
    "paper": (8, 256, 256, 8, 64),
}


def _rel_err(actual: np.ndarray, reference: np.ndarray) -> float:
    # an all-zero reference (the key gradients when M = 1) is matched exactly
    scale = np.max(np.abs(reference))
    return float(np.max(np.abs(actual - reference)) / (scale if scale else 1.0))


def _frgca_reference(h_v, h_l, mask, p, g, b_k=0.0) -> dict[str, np.ndarray]:
    """Forward output, attention, input and parameter gradients of FRGCA
    recomputed from scratch; ``mask`` is None for variant "simple" and
    ``b_k`` is a key bias, which the package does not have."""
    T, N, _ = h_v.shape
    M = h_l.shape[1]
    H, dh = p.heads, p.d_head
    q = (np.einsum("tnd,ad->tna", h_v, p.w_q) + p.b_q).reshape(T, N, H, dh)
    k = (np.einsum("tmd,ad->tma", h_l, p.w_k) + b_k).reshape(T, M, H, dh)
    v = (np.einsum("tmd,ad->tma", h_l, p.w_v) + p.b_v).reshape(T, M, H, dh)
    logits = np.einsum("tnhe,tmhe->thnm", q, k) / p.scale_factor()
    if mask is not None:
        logits = logits + mask[:, None]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    merged = np.einsum("thnm,tmhe->tnhe", a, v).reshape(T, N, H * dh)
    out = np.einsum("tna,da->tnd", merged, p.w_o) + p.b_o + h_v

    d_per_head = np.einsum("tnd,da->tna", g, p.w_o).reshape(T, N, H, dh)
    d_attn = np.einsum("tnhe,tmhe->thnm", d_per_head, v)
    d_logits = a * (d_attn - np.einsum("thnm,thnm->thn", d_attn, a)[..., None])
    d_logits /= p.scale_factor()
    d_q = np.einsum("thnm,tmhe->tnhe", d_logits, k).reshape(T, N, H * dh)
    d_k = np.einsum("thnm,tnhe->tmhe", d_logits, q).reshape(T, M, H * dh)
    d_v = np.einsum("thnm,tnhe->tmhe", a, d_per_head).reshape(T, M, H * dh)
    return {
        "out": out,
        "attn": a,
        "h_v": g + np.einsum("tna,ad->tnd", d_q, p.w_q),
        "h_l": np.einsum("tma,ad->tmd", d_k, p.w_k) + np.einsum("tma,ad->tmd", d_v, p.w_v),
        "w_q": np.einsum("tna,tnd->ad", d_q, h_v),
        "b_q": d_q.sum(axis=(0, 1)),
        "w_k": np.einsum("tma,tmd->ad", d_k, h_l),
        "w_v": np.einsum("tma,tmd->ad", d_v, h_l),
        "b_v": d_v.sum(axis=(0, 1)),
        "w_o": np.einsum("tnd,tna->da", g, merged),
        "b_o": g.sum(axis=(0, 1)),
    }


def _vision_reference(raw, p, g) -> dict[str, np.ndarray]:
    """Output and parameter gradients of the projector recomputed from
    scratch, with GELU(x) = 0.5 x (1 + erf(x / sqrt(2))) and its slope."""
    pre = np.einsum("tnr,hr->tnh", raw, p.w1) + p.b1
    cdf2 = 1.0 + erf(pre / np.sqrt(2.0))
    hidden = 0.5 * pre * cdf2
    slope = 0.5 * cdf2 + pre * np.exp(-0.5 * pre**2) / np.sqrt(2.0 * np.pi)
    d_pre = np.einsum("tnd,dh->tnh", g, p.w2) * slope
    return {
        "out": np.einsum("tnh,dh->tnd", hidden, p.w2) + p.b2,
        "w1": np.einsum("tnh,tnr->hr", d_pre, raw),
        "b1": d_pre.sum(axis=(0, 1)),
        "w2": np.einsum("tnd,tnh->dh", g, hidden),
        "b2": g.sum(axis=(0, 1)),
    }


# (variant, M): nine region tokens and the whole-face token; the
# whole-face token alone (token mode "global_only"); no mask
CASES = {
    "frgca": ("frgca", 10),
    "global_only": ("frgca", 1),
    "simple": ("simple", 10),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES)
def test_frgca_weight_gradients_match_einsum(shape, case):
    T, N, d, heads, _ = SHAPES[shape]
    variant, M = CASES[case]
    rng = np.random.default_rng(7)
    params = init_frgca(d, heads=heads, seed=8)
    for bias in (params.b_q, params.b_v, params.b_o):
        bias[:] = rng.normal(size=bias.shape)
    h_v = rng.normal(size=(T, N, d))
    h_l = rng.normal(size=(T, M, d))
    mask = -np.abs(rng.normal(size=(T, N, M))) if variant == "frgca" else None
    g = rng.normal(size=(T, N, d))
    out, cache = frgca_forward(h_v, h_l, mask, params, variant=variant, return_cache=True)
    grads = empty_like(params)
    d_h_v, d_h_l = frgca_backward(g, cache, grads)
    got = {
        "out": out,
        "attn": cache.attn,
        "h_v": d_h_v,
        "h_l": d_h_l,
    }
    reference = _frgca_reference(h_v, h_l, mask, params, g)
    errors = {
        name: _rel_err(got[name] if name in got else getattr(grads, name), ref)
        for name, ref in reference.items()
    }
    assert max(errors.values()) <= RTOL, errors


@pytest.mark.parametrize("shape", SHAPES)
def test_a_key_bias_cannot_move_the_output(shape):
    """A key bias adds q . b_k to every logit of a query row, a shift that
    the softmax removes; its gradient is roundoff, so FRGCA has none."""
    T, N, d, heads, _ = SHAPES[shape]
    rng = np.random.default_rng(11)
    params = init_frgca(d, heads=heads, seed=12)
    for bias in (params.b_q, params.b_v, params.b_o):
        bias[:] = rng.normal(size=bias.shape)
    h_v = rng.normal(size=(T, N, d))
    h_l = rng.normal(size=(T, 10, d))
    mask = -np.abs(rng.normal(size=(T, N, 10)))
    g = rng.normal(size=(T, N, d))
    b_k = rng.normal(size=params.d_attn)
    out, cache = frgca_forward(h_v, h_l, mask, params, return_cache=True)
    grads = empty_like(params)
    d_h_v, d_h_l = frgca_backward(g, cache, grads)
    got = {"out": out, "attn": cache.attn, "h_v": d_h_v, "h_l": d_h_l}
    reference = _frgca_reference(h_v, h_l, mask, params, g, b_k=b_k)
    errors = {
        name: _rel_err(got[name] if name in got else getattr(grads, name), ref)
        for name, ref in reference.items()
    }
    assert max(errors["out"], errors["attn"]) <= 1e-14, errors
    assert max(errors.values()) <= RTOL, errors


@pytest.mark.parametrize("shape", SHAPES)
def test_vision_weight_gradients_match_einsum(shape):
    T, N, d, _, d_raw = SHAPES[shape]
    rng = np.random.default_rng(9)
    params = init_vision_projector(d_raw, d, seed=10)
    raw = rng.normal(size=(T, N, d_raw))
    g = rng.normal(size=(T, N, d))
    for bias in (params.b1, params.b2):
        bias[:] = rng.normal(size=bias.shape)
    out, cache = vision_project(raw, params)
    grads = empty_like(params)
    vision_backward(g, cache, grads)
    reference = _vision_reference(raw, params, g)
    errors = {
        name: _rel_err(out if name == "out" else getattr(grads, name), ref)
        for name, ref in reference.items()
    }
    assert max(errors.values()) <= RTOL, errors


def test_no_einsum_in_the_package():
    # numpy runs einsum as C loops, not as BLAS GEMM
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{module}:{node.lineno} imports {a.name}" for a in node.names
                              if a.name == "einsum"]
            elif isinstance(node, ast.Call) and "einsum" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                offenders.append(f"{module}:{node.lineno} {ast.unparse(node.func)}()")
    assert offenders == []
