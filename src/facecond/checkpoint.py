"""JSON tensor archive for model parameters.

Flat key -> tensor mapping ("frlp.local.3.weight", "frgca.w_q.bias",
"vision.fc1.weight", "decoder.embedding.weight", ...) plus a small meta
section with the non-tensor configuration. Floats serialize via repr,
so save/load round-trips are bit-exact.

The parameter registry is the single source of key names and shapes:
each parameter class's spec names its tensors, ``model_arrays`` adds the
group prefix, and loading checks every tensor against the spec, failing
with the key named. A loaded model is packed into one flat vector whose
views are its arrays (see ``facecond.toytrain.training``).
"""

from __future__ import annotations

import json

import numpy as np

from .frgca import FrgcaParams
from .frlp import FrlpParams
from .geometry import PatchGrid, default_partition
from .registry import take
from .toytrain.decoder import ToyDecoderParams
from .toytrain.projector import VisionProjectorParams
from .toytrain.training import ModelParams, model_arrays

FORMAT_TAG = "facecond-checkpoint-v1"
# FRGCA has one configuration (per-head logit scaling, biased projections);
# archives keep recording it, and loading rejects any other
FRGCA_META = {"scale": "per_head", "use_bias": True}


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    doc = {
        "format": FORMAT_TAG,
        "meta": meta or {},
        "tensors": {
            key: {"shape": list(arr.shape), "data": np.asarray(arr, dtype=np.float64).ravel().tolist()}
            for key, arr in arrays.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"{path}: not a {FORMAT_TAG} archive")
    arrays = {}
    for key, entry in doc["tensors"].items():
        try:
            arrays[key] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: tensor {key!r}: {exc}") from None
    return arrays, doc.get("meta", {})


def save_model(path: str, model: ModelParams) -> None:
    meta = {
        "heads": model.frgca.heads,
        **FRGCA_META,
        "grid_rows": model.grid.rows,
        "grid_cols": model.grid.cols,
    }
    save_arrays(path, model_arrays(model), meta)


def build_frlp(arrays: dict[str, np.ndarray], dims: dict[str, int] | None = None) -> FrlpParams:
    return FrlpParams.with_arrays(
        take(arrays, FrlpParams.spec(default_partition()), "frlp.", dims)
    )


def build_frgca(
    arrays: dict[str, np.ndarray], meta: dict, dims: dict[str, int] | None = None
) -> FrgcaParams:
    for key, value in FRGCA_META.items():
        if meta.get(key, value) != value:
            raise ValueError(f"checkpoint meta {key!r} is {meta[key]!r}; only {value!r} is supported")
    return FrgcaParams(
        *take(arrays, FrgcaParams.SPEC, "frgca.", dims), heads=int(meta.get("heads", 8))
    )


def load_model(path: str) -> ModelParams:
    arrays, meta = load_arrays(path)
    dims: dict[str, int] = {}  # shared, so all four groups agree on d
    return ModelParams(
        frlp=build_frlp(arrays, dims),
        frgca=build_frgca(arrays, meta, dims),
        vision=VisionProjectorParams(*take(arrays, VisionProjectorParams.SPEC, "vision.", dims)),
        decoder=ToyDecoderParams(*take(arrays, ToyDecoderParams.SPEC, "decoder.", dims)),
        grid=PatchGrid(int(meta.get("grid_rows", 16)), int(meta.get("grid_cols", 16))),
    )
