"""In-memory spans around calls into facecond's layers.

A span is (name, start, end, parent, request id). Spans are kept in a
list while the benchmark runs and written out once it ends. Wrappers are
installed on the module attributes that facecond's own code looks up at
call time, and removed again after each traced round, so untraced rounds
run the program exactly as shipped.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# Spans reported by every traced run, in report order. A span a workload
# never enters reports 0 calls.
SPANS = (
    "geometry.masks",
    "geometry.load_landmarks",
    "frlp.forward",
    "frlp.backward",
    "frgca.forward",
    "frgca.backward",
    "projector.forward",
    "projector.backward",
    "decoder.forward",
    "decoder.backward",
    "training.train",
    "training.evaluate",
    "training.step",
    "training.adamw",
    "checkpoint.load",
    "cli.main",
    "cli.enrich",
    "cli.eval",
    "cli.decode",
    "cli.encode",
    "evalkit.load",
    "evalkit.score",
    "evalkit.aggregate",
    "evalkit.extract.expression",
    "evalkit.extract.attribute",
    "evalkit.extract.deepfake",
    "evalkit.extract.au",
    "evalkit.extract.age",
    "datapipe.load",
    "datapipe.filter",
    "datapipe.pair",
    "datapipe.split",
    "datapipe.save",
)

LAYERS = (
    "geometry",
    "frlp",
    "frgca",
    "projector",
    "decoder",
    "training",
    "checkpoint",
    "cli",
    "evalkit",
    "datapipe",
)

# Derived figures reported beside the span statistics: (name, unit).
EXTRA_METRICS = (
    ("training.step.self_ms", "ms"),
    ("frgca.backward_over_forward", "ratio"),
    ("evalkit.phrase_hit_ratio", "ratio"),
    ("datapipe.parse_errors", "count"),
    ("trace.overhead_pct", "%"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_ms"] = "ms"
        units[f"{name}.p50_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or None, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: str | None = None
        self.counts: dict[str, int] = {}

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        while self._stack:
            if self._stack.pop() == sid:
                break

    def top(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, fn, name: str):
        """fn, timed as one span per call."""

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    def wrap_open(self, fn, name: str, under: str | None = None):
        """fn, opening a span that a later wrap_close call ends. With
        `under`, the span opens only when the innermost open span has
        that name."""

        def traced(*args, **kwargs):
            if under is None or self.top() == under:
                self.begin(name)
            return fn(*args, **kwargs)

        return traced

    def wrap_close(self, fn, name: str, inner: str | None = None):
        """fn, ending the innermost span if it is `name` once fn returns;
        with `inner`, fn itself is timed as a child span of that name."""
        timed = self.wrap(fn, inner) if inner else fn

        def traced(*args, **kwargs):
            result = timed(*args, **kwargs)
            if self._stack and self.top() == name:
                self.end(self._stack[-1])
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i] if end is not None else 0.0
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def summary(self, rounds: int) -> dict[str, float]:
        """Span statistics per traced round, layer self times, and the
        derived ratios (all but trace.overhead_pct, which the caller
        measures)."""
        rounds = max(rounds, 1)
        self_ms = [t * 1e3 for t in self.self_times()]
        durations: dict[str, list[float]] = {name: [] for name in SPANS}
        layer_self = {layer: 0.0 for layer in LAYERS}
        step_self = 0.0
        in_step = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None:
                continue
            if parent is not None and (self.spans[parent][0] == "training.step" or in_step[parent]):
                in_step[i] = True
            durations[name].append((end - start) * 1e3)
            layer_self[name.split(".", 1)[0]] += self_ms[i]
            if name == "evalkit.score":
                durations["evalkit.aggregate"].append(self_ms[i])
            if name == "training.step":
                step_self += self_ms[i]

        out: dict[str, float] = {}
        for name in SPANS:
            values = durations[name]
            out[f"{name}.calls"] = len(values) / rounds
            out[f"{name}.total_ms"] = sum(values) / rounds
            out[f"{name}.p50_ms"] = statistics.median(values) if values else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] / rounds
        out["training.step.self_ms"] = step_self / rounds

        fwd = sum(
            (e - s) for i, (n, s, e, _, _) in enumerate(self.spans)
            if n == "frgca.forward" and in_step[i] and e is not None
        )
        bwd = sum(
            (e - s) for i, (n, s, e, _, _) in enumerate(self.spans)
            if n == "frgca.backward" and in_step[i] and e is not None
        )
        out["frgca.backward_over_forward"] = bwd / fwd if fwd else 0.0
        scanned = self.counts.get("evalkit.phrase_pairs", 0)
        out["evalkit.phrase_hit_ratio"] = (
            self.counts.get("evalkit.phrase_hits", 0) / scanned if scanned else 0.0
        )
        out["datapipe.parse_errors"] = self.counts.get("datapipe.parse_errors", 0) / rounds
        return out


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
