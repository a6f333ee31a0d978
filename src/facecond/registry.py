"""Parameter registry: checkpoint keys, shapes and the flat layout.

Each parameter class (FrlpParams, FrgcaParams, VisionProjectorParams,
ToyDecoderParams) names its arrays once, as a spec of (key, shape) rows
in checkpoint order; a shape entry is a size or a named dimension such
as "d". ``arrays()`` returns an instance's arrays in spec order and
``with_arrays`` rebuilds it around new ones, so one spec names weights,
gradients, checkpoint tensors and gradcheck arrays alike. Both resolve a
class's array and configuration field names once per class, not per call.
``empty_like`` is an instance rebuilt around fresh arrays of its shapes,
such as a destination for a layer backward to fill.
``init_arrays`` gives every spec its initial values by one rule, the
fan-in scaling of LeCun et al., "Efficient BackProp" (1998), and ``take``
loads exactly the tensors a spec names, failing on one missing or extra.

The dimension rule: every array a layer takes, like every checkpoint
tensor, is checked by ``shaped(arr, shape, dims, what)`` against a shape
written once in sizes and named dimensions, such as ("T", "N", "d"). A
named dimension binds in ``dims`` at its first use, and the arrays of one
call share ``dims``, so they must agree on it. A mismatch fails as
``h_l has shape (3, 10, 16), expected (2, 10, 16)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

Spec = tuple[tuple[str, tuple[int | str, ...]], ...]


class SpecParams:
    """Base for parameter dataclasses whose leading fields are their
    arrays, one per ``SPEC`` row and in ``SPEC`` order; any later fields
    are configuration that ``with_arrays`` keeps."""

    SPEC: ClassVar[Spec] = ()

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _field_names(type(self))[0]]

    def with_arrays(self, arrays: Iterable[np.ndarray]):
        names, config = _field_names(type(self))
        arrays = list(arrays)
        if len(arrays) != len(names):
            raise ValueError(f"{type(self).__name__} has {len(names)} arrays, got {len(arrays)}")
        return type(self)(*arrays, *[getattr(self, name) for name in config])


@functools.cache
def _field_names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of ``cls``'s array fields, then of its configuration fields."""
    names = tuple(f.name for f in fields(cls))
    return names[: len(cls.SPEC)], names[len(cls.SPEC) :]


def empty_like(params):
    """A parameter object of ``params``' type and configuration around
    fresh, unfilled arrays of its arrays' shapes, such as the gradient
    destination a caller hands a layer backward."""
    return params.with_arrays([np.empty_like(a) for a in params.arrays()])


def named(spec: Spec, arrays: Sequence[np.ndarray], prefix: str = "") -> dict[str, np.ndarray]:
    """Key each array by its spec row."""
    return {prefix + key: arr for (key, _), arr in zip(spec, arrays, strict=True)}


def init_arrays(spec: Spec, dims: Mapping[str, int], seed: int) -> list[np.ndarray]:
    """``spec``'s arrays at the sizes ``dims`` names: one ``default_rng(seed)``
    draws each 2-D weight in spec order from Uniform(-b, b), b = 1/sqrt(fan_in),
    fan_in = shape[1]; each 1-D bias is zero and draws nothing. A size
    below 1 fails naming its dimension, as ``d_attn must be >= 1, got 0``."""
    for name, size in dims.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    arrays = []
    for _, shape in spec:
        sizes = tuple(dims[dim] if isinstance(dim, str) else dim for dim in shape)
        if len(sizes) == 2:
            bound = 1.0 / math.sqrt(sizes[1])
            arrays.append(rng.uniform(-bound, bound, size=sizes))
        else:
            arrays.append(np.zeros(sizes))
    return arrays


def take(
    archive: Mapping[str, np.ndarray], spec: Spec, prefix: str, dims: dict[str, int] | None = None
) -> list[np.ndarray]:
    """The tensors ``spec`` names, in spec order, with their shapes checked.

    A named dimension binds in ``dims`` at its first use; share ``dims``
    to make several groups agree. Failures name the key, also of a tensor
    under ``prefix`` the spec does not name, such as "frgca.w_k.bias".
    """
    known = {prefix + key for key, _ in spec}
    for name in archive:
        if name.startswith(prefix) and name not in known:
            raise ValueError(f"checkpoint has unknown tensor {name!r}")
    dims = {} if dims is None else dims
    out = []
    for key, shape in spec:
        name = prefix + key
        if name not in archive:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        out.append(shaped(archive[name], shape, dims, name))
    return out


def shaped(
    arr: np.ndarray, shape: tuple[int | str, ...], dims: dict[str, int], what: str
) -> np.ndarray:
    """`arr` if its shape is `shape`, else ValueError ``<what> has shape
    (2, 5), expected (2, 4)``. When `arr` has as many axes as `shape`, a
    named dimension binds in `dims` at its first use; one left unbound is
    shown by its name, as in ``expected (T, 68, 2)``."""
    if arr.ndim == len(shape):
        matches = True
        for dim, size in zip(shape, arr.shape):
            if (dims.setdefault(dim, size) if isinstance(dim, str) else dim) != size:
                matches = False
        if matches:
            return arr
    expected = tuple(dims.get(dim, dim) for dim in shape)
    shown = str(expected).replace("'", "")  # a dimension's name, unquoted
    raise ValueError(f"{what} has shape {arr.shape}, expected {shown}")


def unflatten(vec: np.ndarray, like: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into ``vec``, keyed and shaped like ``like``, tiling it in order."""
    out, start = {}, 0
    for key, arr in like.items():
        out[key] = vec[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    if start != vec.size:
        raise ValueError(f"vector has {vec.size} elements, layout needs {start}")
    return out
