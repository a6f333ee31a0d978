"""Parameter registry: checkpoint keys, shapes and the flat layout.

Each parameter class (FrlpParams, FrgcaParams, VisionProjectorParams,
ToyDecoderParams) names its arrays once, as a spec of (key, shape) rows
in checkpoint order; a shape entry is a size or a named dimension such
as "d". ``arrays()`` returns an instance's arrays in spec order and
``with_arrays`` rebuilds it around new ones, so one spec names weights,
gradients, checkpoint tensors and gradcheck arrays alike.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

Spec = tuple[tuple[str, tuple[int | str, ...]], ...]


class SpecParams:
    """Base for parameter dataclasses whose leading fields are their
    arrays, one per ``SPEC`` row and in ``SPEC`` order; any later fields
    are configuration that ``with_arrays`` keeps."""

    SPEC: ClassVar[Spec] = ()

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)[: len(self.SPEC)]]

    def with_arrays(self, arrays: Iterable[np.ndarray]):
        names = [f.name for f in fields(self)[: len(self.SPEC)]]
        return replace(self, **dict(zip(names, arrays, strict=True)))


def named(spec: Spec, arrays: Sequence[np.ndarray], prefix: str = "") -> dict[str, np.ndarray]:
    """Key each array by its spec row."""
    return {prefix + key: arr for (key, _), arr in zip(spec, arrays, strict=True)}


def take(
    archive: Mapping[str, np.ndarray], spec: Spec, prefix: str, dims: dict[str, int] | None = None
) -> list[np.ndarray]:
    """The tensors ``spec`` names, in spec order, with their shapes checked.

    A named dimension binds in ``dims`` at its first use; share ``dims``
    to make several groups agree. Failures name the key.
    """
    dims = {} if dims is None else dims
    out = []
    for key, shape in spec:
        name = prefix + key
        if name not in archive:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        arr = archive[name]
        for dim, size in zip(shape, arr.shape):
            if isinstance(dim, str):
                dims.setdefault(dim, size)
        expected = tuple(dims.get(dim, dim) for dim in shape)
        if arr.shape != expected:
            raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
        out.append(arr)
    return out


def unflatten(vec: np.ndarray, like: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into ``vec``, keyed and shaped like ``like``, tiling it in order."""
    out, start = {}, 0
    for key, arr in like.items():
        out[key] = vec[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    if start != vec.size:
        raise ValueError(f"vector has {vec.size} elements, layout needs {start}")
    return out
