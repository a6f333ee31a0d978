"""Machine pace: a fixed calibration loop timed next to the requests.

On a shared host one core's speed drifts by up to 2x over minutes,
which would swamp any change the benchmark is meant to show. Timed just
before each round, a fixed loop tells how fast the machine ran then,
and the end-to-end figures are scaled by it to a machine on which the
loop takes REFERENCE_S. Contention slows interpreter-bound and
array-streaming code by different factors, so there are two loops:
"python" (dict and regex work, JSON, many small numpy products) for the
workloads that Python overhead dominates, and "dense" (an einsum, a
GEMM, erf and exp over megabyte arrays) for paper_step.

The loops never call facecond, so a change to the program cannot move
them; garbage collection is off while they run, so the program's heap
cannot either. The loops and REFERENCE_S define the unit of every
end-to-end figure: changing either is a change of the benchmark.
"""

from __future__ import annotations

import gc
import json
import re
from time import perf_counter

import numpy as np
from scipy.special import erf

REFERENCE_S = 0.03

_WORDS = tuple(f"w{i}" for i in range(200))
_TEXT = " ".join(_WORDS * 5)
_PATTERN = re.compile(r"(?<!\w)w1\d(?!\w)")
_ROWS = [[x * 0.1 for x in range(50)] for _ in range(40)]
_SMALL = np.full((16, 16), 0.01)
_MEDIUM = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_TOKENS = np.linspace(-1.0, 1.0, 8 * 256 * 64).reshape(8, 256, 64)
_COTANGENT = np.cos(_TOKENS)
_WEIGHT = np.linspace(-1.0, 1.0, 64 * 256).reshape(64, 256)


def pace(kind: str = "python") -> float:
    """Time of the fixed loop now, as a multiple of REFERENCE_S (above 1
    when the machine runs slower than the reference)."""
    loop = {"python": _python_loop, "dense": _dense_loop}[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        loop()
        return (perf_counter() - start) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()


def _python_loop() -> None:
    counts: dict[str, int] = {}
    for i in range(40_000):
        word = _WORDS[i % 200]
        counts[word] = counts.get(word, 0) + i
    for _ in range(80):
        _PATTERN.findall(_TEXT)
    for _ in range(2):
        json.loads(json.dumps(_ROWS))
    x = _SMALL
    for _ in range(600):
        x = np.tanh(x @ _SMALL)
    for _ in range(10):
        np.einsum("ij,jk->ik", _MEDIUM, _MEDIUM)


def _dense_loop() -> None:
    np.einsum("tnd,tna->da", _TOKENS, _COTANGENT)
    h = _TOKENS.reshape(-1, 64) @ _WEIGHT
    0.5 * h * (1.0 + erf(h * 0.7071))
    np.exp(h - h.max(axis=-1, keepdims=True))
