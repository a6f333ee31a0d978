"""How facecond encodes and decodes its files.

Every file facecond reads or writes is JSON, or JSONL for record streams:
landmark clips, visual tokens, checkpoints, manifests, instruction banks,
split targets, taxonomies, configs and reports. Files are UTF-8. Objects
are written with sorted keys and the default separators, and each document
or JSONL record ends in one newline. Floats serialize via repr, so a
write/read round trip is bit-exact. A file that is not valid JSON fails as
``<path>: malformed JSON: ...``; ``read_json(path, build)`` returns
``build(doc)``, and a document `build` rejects fails with ``<path>: ``
before the reason.

``read_jsonl`` reads every JSONL stream (manifests, eval records). Each
line is split at its newline byte and decoded as UTF-8 on its own;
surrounding whitespace, a CR included, is stripped, and a blank line is
skipped. A line is malformed when it is not UTF-8, is not JSON, or the
caller's builder rejects what it holds; the loader gets each malformed
line's 1-based number and message.

``write_json`` streams the containers of the top two levels (the document
and the values it holds) item by item, and encodes each value below them
in one call to the C encoder: one call per frame of a token or landmark
document, per tensor entry of a checkpoint, per value of an attention
map entry. Only one such value's text is in memory at a time. A numpy
array may stand wherever a list may; it is written as its ``tolist()``
would be, and a streamed array is listed one item at a time, so the
whole array is never a Python list at once. An object with a key that is
not a string is encoded in one call, so the encoder's key rule applies.
The bytes are those of ``json.dumps(obj, sort_keys=True)`` plus the
newline.

This module alone decides what a JSON number is: an integer or a float
that is finite as float64. Booleans, null, strings, NaN, the infinities
and integers beyond float64 range are not numbers. ``fits(value, INTEGER)``
and ``fits(value, NUMBER)`` test one value; ``number_array`` reads nested
lists of numbers (landmark frames, visual tokens, checkpoint tensor data)
and fails naming the first bad index.

It alone decides, too, what kind a decoded value is (``KINDS``): a
string, an object, an integer, a finite number, a list of strings or of
integers, or null. ``typed`` and ``member`` return a value of the kind asked
for or fail as ``'id' is null, not a string``; no value is converted.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from itertools import chain
from typing import Callable, Iterable

import numpy as np


def _array_as_list(value):
    """A numpy array as its ``tolist()``; any other type fails as in json."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# json.dumps(value, sort_keys=True), through the C encoder, with numpy
# arrays written as lists
_encode = json.JSONEncoder(sort_keys=True, default=_array_as_list).encode


def write_json(path: str, obj) -> None:
    """Write `obj` to `path` as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(obj, 2))
        fh.write("\n")


def _chunks(value, levels: int):
    """The text of `value` in pieces: the containers of the top `levels`
    levels one item at a time, each value below them in one `_encode` call."""
    if isinstance(value, np.ndarray) and value.ndim < 2:
        value = value.tolist()  # a number, or a list of numbers, not numpy scalars
    if levels and isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield (", " if i else "") + _encode(key) + ": "
            yield from _chunks(value[key], levels - 1)
        yield "}"
    elif levels and isinstance(value, (list, tuple, np.ndarray)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _chunks(item, levels - 1)
        yield "]"
    else:  # a scalar, a value below the streamed levels, or an object with a non-str key
        yield _encode(value)


def write_jsonl(path: str, objs: Iterable) -> None:
    """Write each of `objs` to `path` as one JSON line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(_encode(obj) + "\n")


def read_jsonl(path: str, build: Callable) -> tuple[list, list[tuple[int, str]]]:
    """`build(obj)` for each non-blank line of `path`, and a (line, message)
    for each line that is not UTF-8, not JSON, or that `build` rejects with
    KeyError (reported as ``missing key 'name'``), TypeError or ValueError.
    Lines are split at newline bytes and decoded one by one, so a bad byte
    costs only its own line."""
    values, errors = [], []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    values.append(build(json.loads(line)))
            # UnicodeDecodeError and JSONDecodeError are ValueErrors
            except (KeyError, TypeError, ValueError) as exc:
                errors.append((lineno, _reason(exc)))
    return values, errors


def read_json(path: str, build: Callable):
    """`build(doc)` for the JSON document `doc` in `path`; what `build`
    rejects fails as ``within(path)`` words it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
    with within(path):
        return build(doc)


@contextmanager
def within(where: str):
    """Re-raise a KeyError (as ``missing key 'name'``), TypeError or
    ValueError of the block as a ValueError prefixed with ``<where>: ``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {_reason(exc)}") from None


def _reason(exc: Exception) -> str:
    # str() of a KeyError is the bare key
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


# The closed table of kinds and how an error names each. A plain kind is the
# one type its values decode to (`type(v) is int` leaves out bool); a list
# kind's items are all of one plain kind; a number follows the number rule.
STRING, OBJECT, INTEGER, NUMBER, NULL = str, dict, int, (int, float), type(None)
STRINGS, INTEGERS = list[str], list[int]
KINDS = {
    STRING: "a string",
    OBJECT: "an object",
    INTEGER: "an integer",
    NUMBER: "a finite number",
    STRINGS: "a list of strings",
    INTEGERS: "a list of integers",
    NULL: "null",
}


def fits(value, kind) -> bool:
    """Whether `value` is of `kind`, one of `KINDS`."""
    # `is`, not ==: comparing generic aliases costs more than the test itself
    if kind is NUMBER:
        # math.isfinite raises OverflowError on an integer beyond float64 range
        return (isinstance(value, float) or type(value) is int) and abs(value) <= sys.float_info.max
    if kind is STRINGS or kind is INTEGERS:
        return type(value) is list and all(type(item) is kind.__args__[0] for item in value)
    return type(value) is kind


def typed(value, kind, what: str):
    """`value` if it is of `kind`; otherwise ValueError
    ``<what> is <value as JSON>, not <kind>``."""
    if type(value) is kind or fits(value, kind):
        return value
    raise ValueError(f"{what} is {_shown(value)}, not {KINDS[kind]}")


def member(obj: dict, key: str, kind, optional: bool = False):
    """`obj[key]`, typed as ``'key'``. A missing key raises KeyError; with
    `optional`, a missing or null member is None."""
    value = obj.get(key) if optional else obj[key]
    if type(value) is kind or (optional and value is None):
        return value
    return typed(value, kind, repr(key))


def number_array(value, ndim: int, where: str) -> np.ndarray:
    """`value`, `ndim` levels of equal-length lists of numbers, as a float64
    array; otherwise ValueError naming `where` and the first bad index."""
    try:
        arr = np.array(value)
    except (ValueError, OverflowError):  # ragged nesting, an integer beyond float64
        arr = None
    if arr is not None and arr.ndim == ndim and arr.dtype.kind in "iuf":
        leaves = value
        for _ in range(ndim - 1):
            leaves = chain.from_iterable(leaves)
        # numpy reads a boolean among numbers as 1 or 0
        if set(map(type, leaves)) <= {int, float} and np.isfinite(arr).all():
            return arr.astype(np.float64, copy=False)
    shape: dict[int, int] = {}
    _check_nesting(value, ndim, where, shape)
    # valid data off the fast path: integers beyond int64, or empty lists
    return np.array(value, dtype=np.float64).reshape([shape.get(k, 0) for k in range(ndim)])


def _check_nesting(value, ndim: int, where: str, shape: dict[int, int], depth: int = 0) -> None:
    """Raise naming the first entry that breaks the nesting or is not a
    number. Each level's length binds in `shape` at its first list."""
    if depth == ndim:
        if not fits(value, NUMBER):
            numeric = fits(value, INTEGER) or isinstance(value, float)
            kind = "a non-finite value" if numeric else "not a number"
            raise ValueError(f"{where} is {_shown(value)}, {kind}")
    elif not isinstance(value, list):
        raise ValueError(f"{where} is {_shown(value)}, not a list")
    elif len(value) != shape.setdefault(depth, len(value)):
        raise ValueError(f"{where} has {len(value)} entries, not {shape[depth]}")
    else:
        for i, item in enumerate(value):
            _check_nesting(item, ndim, f"{where}[{i}]", shape, depth + 1)


def _shown(value) -> str:
    """`value` as JSON, cut after 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:40] + "..."
