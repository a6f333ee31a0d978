"""JSON tensor archive for model parameters.

Flat key -> tensor mapping ("frlp.local.3.weight", "frgca.w_q.bias",
"vision.fc1.weight", "decoder.embedding.weight", ...) plus a small meta
section with the non-tensor configuration. Floats serialize via repr,
so save/load round-trips are bit-exact.

The parameter registry is the single source of key names and shapes:
each parameter class's spec names its tensors, ``model_arrays`` adds the
group prefix, and loading checks every tensor against the spec, failing
with the file and the key named, also for a tensor under a group prefix
that the spec does not name. ``load_model`` also rejects a tensor under
none of the four group prefixes; ``enrich`` reads only the ``frlp.`` and
``frgca.`` groups, so it loads a full model's archive. A loaded model is
packed into one flat vector whose views are its arrays (see
``facecond.toytrain.training``).
"""

from __future__ import annotations

import numpy as np

from .frgca import FrgcaParams
from .frlp import FrlpParams
from .geometry import PatchGrid
from .jsonio import INTEGER, INTEGERS, OBJECT, member, number_array, read_json, typed, within, write_json
from .registry import take
from .toytrain.decoder import ToyDecoderParams
from .toytrain.projector import VisionProjectorParams
from .toytrain.training import ModelParams, model_arrays

FORMAT_TAG = "facecond-checkpoint-v1"
# FRGCA has one configuration (per-head logit scaling, biased query, value
# and output projections);
# archives keep recording it, and loading rejects any other
FRGCA_META = {"scale": "per_head", "use_bias": True}


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    doc = {
        "format": FORMAT_TAG,
        "meta": meta or {},
        "tensors": {
            key: {"shape": list(arr.shape), "data": np.asarray(arr, dtype=np.float64).ravel()}
            for key, arr in arrays.items()
        },
    }
    write_json(path, doc)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    return read_json(path, _archive)


def _archive(doc) -> tuple[dict[str, np.ndarray], dict]:
    doc = typed(doc, OBJECT, "document")
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"not a {FORMAT_TAG} archive")
    meta = typed(doc.get("meta", {}), OBJECT, "'meta'")
    arrays = {}
    for key, entry in member(doc, "tensors", OBJECT).items():
        where = f"tensor {key!r}"
        entry = typed(entry, OBJECT, where)
        with within(where):
            data = number_array(entry["data"], 1, "data")
            shape = member(entry, "shape", INTEGERS)
            # reshape would read a negative entry as a size left to infer
            if min(shape, default=0) < 0:
                raise ValueError(f"shape {shape} has a negative dimension")
            arrays[key] = data.reshape(shape)
    return arrays, meta


def save_model(path: str, model: ModelParams) -> None:
    meta = {
        "heads": model.frgca.heads,
        **FRGCA_META,
        "grid_rows": model.grid.rows,
        "grid_cols": model.grid.cols,
    }
    save_arrays(path, model_arrays(model), meta)


def _meta_int(meta: dict, key: str, default: int) -> int:
    """An integer >= 1 (heads, grid rows and grid cols)."""
    what = f"checkpoint meta {key!r}"
    value = typed(meta.get(key, default), INTEGER, what)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def build_frlp(arrays: dict[str, np.ndarray], dims: dict[str, int] | None = None) -> FrlpParams:
    return FrlpParams.with_arrays(take(arrays, FrlpParams.SPEC, "frlp.", dims))


def build_frgca(
    arrays: dict[str, np.ndarray], meta: dict, dims: dict[str, int] | None = None
) -> FrgcaParams:
    for key, value in FRGCA_META.items():
        got = meta.get(key, value)
        if type(got) is not type(value) or got != value:  # 1 and 1.0 equal True
            raise ValueError(f"checkpoint meta {key!r} is {got!r}; only {value!r} is supported")
    return FrgcaParams(
        *take(arrays, FrgcaParams.SPEC, "frgca.", dims), heads=_meta_int(meta, "heads", 8)
    )


def load_model(path: str) -> ModelParams:
    arrays, meta = load_arrays(path)
    dims: dict[str, int] = {}  # shared, so all four groups agree on d
    with within(path):  # the builders' errors name the tensor, not the file
        model = ModelParams(
            frlp=build_frlp(arrays, dims),
            frgca=build_frgca(arrays, meta, dims),
            vision=VisionProjectorParams(*take(arrays, VisionProjectorParams.SPEC, "vision.", dims)),
            decoder=ToyDecoderParams(*take(arrays, ToyDecoderParams.SPEC, "decoder.", dims)),
            grid=PatchGrid(_meta_int(meta, "grid_rows", 16), _meta_int(meta, "grid_cols", 16)),
        )
        # each group rejected its own unknown tensors; any left lie under
        # no group prefix
        unknown = sorted(arrays.keys() - model_arrays(model).keys())
        if unknown:
            raise ValueError(f"checkpoint has unknown tensor {unknown[0]!r}")
    return model
