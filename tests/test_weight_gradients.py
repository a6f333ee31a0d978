"""The weight gradients of ``frgca_backward`` and ``vision_backward``
against an einsum reference.

The reference recomputes, from the forward cache, the cotangents that
reach each projection and contracts them over (frame, token) with
``np.einsum``. The backward passes sum in another order (one GEMM per
weight), so the two agree to a relative tolerance, not bit for bit. The
error is measured as the largest absolute difference over the largest
reference entry.

This file is the only place in the repository that keeps ``einsum``;
``test_no_einsum_in_the_package`` keeps it out of ``src/facecond``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import facecond
from facecond.frgca import frgca_backward, frgca_forward, init_frgca
from facecond.toytrain.projector import (
    gelu_grad,
    init_vision_projector,
    vision_backward,
    vision_project,
)

SRC = Path(facecond.__file__).parent
RTOL = 1e-12
M = 10  # nine region tokens and the whole-face token

# (T, N, d, heads, d_raw): the toy training shape and the paper_step shape
SHAPES = {
    "toy": (1, 16, 16, 4, 8),
    "paper": (8, 256, 256, 8, 64),
}


def _rel_err(actual: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(actual - reference)) / np.max(np.abs(reference)))


def _frgca_reference(g, cache) -> dict[str, np.ndarray]:
    p = cache.params
    T, N, _ = g.shape
    H, dh = p.heads, p.d_head
    d_per_head = np.einsum("tnd,da->tna", g, p.w_o).reshape(T, N, H, dh)
    d_attn = np.einsum("tnhe,thme->thnm", d_per_head, cache.v)
    a = cache.attn
    d_logits = a * (d_attn - np.einsum("thnm,thnm->thn", d_attn, a)[..., None])
    d_logits /= p.scale_factor()
    d_q = np.einsum("thnm,thme->tnhe", d_logits, cache.k).reshape(T, N, H * dh)
    d_k = np.einsum("thnm,thne->tmhe", d_logits, cache.q).reshape(T, M, H * dh)
    d_v = np.einsum("thnm,tnhe->tmhe", a, d_per_head).reshape(T, M, H * dh)
    return {
        "w_q": np.einsum("tna,tnd->ad", d_q, cache.h_v),
        "w_k": np.einsum("tma,tmd->ad", d_k, cache.h_l),
        "w_v": np.einsum("tma,tmd->ad", d_v, cache.h_l),
        "w_o": np.einsum("tnd,tna->da", g, cache.merged),
    }


def _vision_reference(g, cache) -> dict[str, np.ndarray]:
    p = cache.params
    d_pre = np.einsum("tnd,dh->tnh", g, p.w2) * gelu_grad(cache.pre_act)
    return {
        "w1": np.einsum("tnh,tnr->hr", d_pre, cache.raw),
        "w2": np.einsum("tnd,tnh->dh", g, cache.hidden),
    }


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", ["frgca", "simple"])
def test_frgca_weight_gradients_match_einsum(shape, variant):
    T, N, d, heads, _ = SHAPES[shape]
    rng = np.random.default_rng(7)
    params = init_frgca(d, heads=heads, seed=8)
    h_v = rng.normal(size=(T, N, d))
    h_l = rng.normal(size=(T, M, d))
    mask = -np.abs(rng.normal(size=(T, N, M))) if variant == "frgca" else None
    g = rng.normal(size=(T, N, d))
    _, cache = frgca_forward(h_v, h_l, mask, params, variant=variant, return_cache=True)
    grads, _, _ = frgca_backward(g, cache)
    reference = _frgca_reference(g, cache)
    errors = {name: _rel_err(getattr(grads, name), ref) for name, ref in reference.items()}
    assert max(errors.values()) <= RTOL, errors


@pytest.mark.parametrize("shape", SHAPES)
def test_vision_weight_gradients_match_einsum(shape):
    T, N, d, _, d_raw = SHAPES[shape]
    rng = np.random.default_rng(9)
    params = init_vision_projector(d_raw, d, seed=10)
    raw = rng.normal(size=(T, N, d_raw))
    g = rng.normal(size=(T, N, d))
    _, cache = vision_project(raw, params, return_cache=True)
    grads = vision_backward(g, cache)
    reference = _vision_reference(g, cache)
    errors = {name: _rel_err(getattr(grads, name), ref) for name, ref in reference.items()}
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
