"""Central finite-difference verification of the hand-written backward passes.

Every trainable array is perturbed element by element and the resulting
difference quotient is compared against the analytic gradient. The
relative-error floor keeps near-zero gradient pairs from being flagged by
finite-difference noise. Element by element is affordable only at tiny
shapes; ``directional_error`` checks a whole parameter vector along one
direction at a time, which is affordable at any shape.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .frgca import frgca_backward, frgca_forward, init_frgca
from .frlp import FrlpParams, frlp_backward, frlp_forward, init_frlp, select_tokens
from .geometry import LandmarkClip, default_partition
from .registry import empty_like, named
from .toytrain.projector import init_vision_projector, vision_backward, vision_project
from .toytrain.synth import SynthSample
from .toytrain.training import (
    TrainConfig,
    attention_masks,
    backward_pass,
    forward_loss,
    init_model,
    model_arrays,
)

DEFAULT_STEP = 1e-5
# Error denominator floor: gradients in the suites are O(1e-3..1), while
# central-difference roundoff on a true-zero gradient is O(1e-10); the
# floor keeps that noise from registering as relative error.
REL_ERR_FLOOR = 1e-5

MODULE_TOLERANCE = 1e-4
PIPELINE_TOLERANCE = 1e-3

# Directional checks of the training loss at T=8, a 16x16 grid, d=256,
# H=8: over 12 seeded unit directions the central difference at this step
# was within 2.8e-9 relative of <grad, v> (roundoff ~ ulp(loss) / step,
# truncation ~ step^2; 1e-3 and 1e-5 each gave up to 2e-8). The tolerance
# leaves ~350x headroom over that noise.
DIRECTIONAL_STEP = 1e-4
DIRECTIONAL_TOLERANCE = 1e-6


def finite_difference_gradient(
    loss_fn: Callable[[], float], array: np.ndarray, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Central differences of loss_fn with respect to every element of array.

    The array is mutated in place during probing and restored afterwards;
    loss_fn must read the live array.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        plus = loss_fn()
        flat[i] = original - step
        minus = loss_fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * step)
    return grad


def max_relative_error(
    analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_ERR_FLOOR
) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def directional_error(
    loss_fn: Callable[[], float],
    params: np.ndarray,
    grad: np.ndarray,
    direction: np.ndarray,
    step: float = DIRECTIONAL_STEP,
) -> float:
    """Relative error between <grad, direction> and the central difference
    of loss_fn along direction.

    params is moved in place to params +- step * direction for the two
    probes and restored bit for bit afterwards; loss_fn must read it live.
    """
    original = params.copy()
    try:
        np.add(original, step * direction, out=params)
        plus = loss_fn()
        np.subtract(original, step * direction, out=params)
        minus = loss_fn()
    finally:
        params[:] = original
    numeric = (plus - minus) / (2.0 * step)
    return max_relative_error(np.dot(grad, direction), numeric)


def check_named_gradients(
    loss_fn: Callable[[], float],
    arrays: Mapping[str, np.ndarray],
    analytic: Mapping[str, np.ndarray],
    step: float = DEFAULT_STEP,
) -> dict[str, float]:
    """Max relative error per named array between analytic and FD gradients."""
    errors: dict[str, float] = {}
    for name, arr in arrays.items():
        numeric = finite_difference_gradient(loss_fn, arr, step=step)
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors


# ---------------------------------------------------------------------------
# per-module suites driven by the gradcheck CLI subcommand


def frlp_suite(seed: int = 0) -> float:
    """FRLP parameter gradients vs finite differences; returns max rel error."""
    rng = np.random.default_rng(seed)
    partition = default_partition()
    params = init_frlp(8, partition, seed=seed)
    clip = LandmarkClip(rng.uniform(0.0, 1.0, size=(2, 68, 2)))
    weights = rng.normal(size=(2, 9, 8))

    def loss() -> float:
        tokens = frlp_forward(clip, partition, params)
        return float((select_tokens(tokens, "both") * weights).sum())

    grads = empty_like(params)
    frlp_backward(weights, clip, partition, params, mode="both", out=grads)
    spec = FrlpParams.SPEC
    arrays = named(spec, params.arrays())
    return max(check_named_gradients(loss, arrays, named(spec, grads.arrays())).values())


def frgca_suite(seed: int = 0) -> float:
    """FRGCA parameter and input gradients vs finite differences."""
    rng = np.random.default_rng(seed)
    params = init_frgca(8, heads=2, seed=seed)
    h_v = rng.normal(size=(2, 8, 8))
    h_l = rng.normal(size=(2, 9, 8))
    mask = -np.abs(rng.normal(size=(2, 8, 9)))
    weights = rng.normal(size=h_v.shape)

    def loss() -> float:
        return float((frgca_forward(h_v, h_l, mask, params) * weights).sum())

    _, cache = frgca_forward(h_v, h_l, mask, params, return_cache=True)
    grads = empty_like(params)
    d_h_v, d_h_l = frgca_backward(weights, cache, grads)
    arrays = {**named(params.SPEC, params.arrays()), "h_v": h_v, "h_l": h_l}
    analytic = {**named(params.SPEC, grads.arrays()), "h_v": d_h_v, "h_l": d_h_l}
    return max(check_named_gradients(loss, arrays, analytic).values())


def vision_suite(seed: int = 0) -> float:
    """Vision projector gradients vs finite differences."""
    rng = np.random.default_rng(seed)
    params = init_vision_projector(6, 8, seed=seed)
    raw = rng.normal(size=(2, 8, 6))
    weights = rng.normal(size=(2, 8, 8))

    def loss() -> float:
        return float((vision_project(raw, params)[0] * weights).sum())

    _, cache = vision_project(raw, params)
    grads = empty_like(params)
    vision_backward(weights, cache, grads)
    arrays = named(params.SPEC, params.arrays())
    analytic = named(params.SPEC, grads.arrays())
    return max(check_named_gradients(loss, arrays, analytic).values())


def pipeline_suite(seed: int = 0) -> float:
    """End-to-end pipeline gradients (all four groups) vs finite differences."""
    rng = np.random.default_rng(seed)
    config = TrainConfig(
        stage="finetune",
        frames=1,
        grid_rows=2,
        grid_cols=2,
        d=4,
        d_attn=4,
        heads=2,
        d_raw=3,
        vocab=5,
        variant="frgca",
        tokens="both",
        seed=seed,
    )
    model = init_model(config)
    sample = SynthSample(
        raw=rng.normal(size=(1, 4, 3)),
        clip=LandmarkClip(rng.uniform(0.1, 0.9, size=(1, 68, 2))),
        instruction_ids=(3, 4),
        response_ids=(1, 2),
        label=1,
    )

    masks = attention_masks([sample.clip], model.grid, config.variant, config.tokens)

    def loss() -> float:
        return forward_loss(model, sample, config, masks)[0]

    _, state = forward_loss(model, sample, config, masks)
    grad = model.laid_over(np.empty_like(model.flat))
    backward_pass(model, sample, config, state, grad)
    return max(check_named_gradients(loss, model_arrays(model), model_arrays(grad)).values())


def run_full_suite(seed: int = 0) -> dict:
    """All gradient suites with their tolerances; used by the CLI."""
    results = {
        "frlp": {"max_rel_error": frlp_suite(seed), "tolerance": MODULE_TOLERANCE},
        "frgca": {"max_rel_error": frgca_suite(seed), "tolerance": MODULE_TOLERANCE},
        "vision": {"max_rel_error": vision_suite(seed), "tolerance": MODULE_TOLERANCE},
        "pipeline": {"max_rel_error": pipeline_suite(seed), "tolerance": PIPELINE_TOLERANCE},
    }
    passed = all(r["max_rel_error"] < r["tolerance"] for r in results.values())
    return {"seed": seed, "checks": results, "passed": passed}
