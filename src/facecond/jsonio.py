"""How facecond encodes and decodes its files.

Every file facecond reads or writes is JSON, or JSONL for record streams:
landmark clips, visual tokens, checkpoints, manifests, instruction banks,
split targets, taxonomies, configs and reports. Files are UTF-8. Objects
are written with sorted keys and the default separators, and each document
or JSONL record ends in one newline. Floats serialize via repr, so a
write/read round trip is bit-exact. A file that is not valid JSON fails as
``<path>: malformed JSON: ...``; each loader checks the shape it expects
after parsing.
"""

from __future__ import annotations

import json
from typing import Iterable

_ENCODING = {"sort_keys": True}


def write_json(path: str, obj) -> None:
    """Write `obj` to `path` as one JSON document."""
    # json.dump streams the text through the Python encoder; one-shot
    # json.dumps is faster but holds the whole text in memory, which raises
    # `facecond enrich`'s peak RSS
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, **_ENCODING)
        fh.write("\n")


def write_jsonl(path: str, objs: Iterable) -> None:
    """Write each of `objs` to `path` as one JSON line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, **_ENCODING) + "\n")


def read_json(path: str):
    """The JSON document in `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
