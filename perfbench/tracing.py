"""In-memory timing spans recorded around the benchmark's calls into the
library, plus the self-time arithmetic the per-layer metrics use.

A span records its name, layer, start, end, parent span and a trace id
shared by everything under one top-level call.  Spans stay in memory and
are written out once, when the run ends.  Untraced passes use
``NULL_TRACER``, whose spans cost one function call and record nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_trace = 0

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Time the body as a child of the innermost open span.

        A span opened with no parent starts a new trace.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._next_trace += 1
        record = {
            "id": len(self.spans) + 1,
            "trace": parent["trace"] if parent else self._next_trace,
            "parent": parent["id"] if parent else None,
            "name": name,
            "layer": layer,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def total(spans, name: str, **attrs) -> float:
    """Summed duration of the spans with this name whose attrs match."""
    return sum(s["end"] - s["start"] for s in matching(spans, name, **attrs))


def matching(spans, name: str, **attrs) -> list[dict]:
    return [s for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())]


def layer_self_times(spans) -> dict[str, float]:
    """Per-layer self time of a closed set of spans: each span's duration
    minus the part of it that its child spans cover, summed by layer."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        covered = _covered(children.get(s["id"], []), s["start"], s["end"])
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"] - covered)
    return out


def _covered(spans, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    length, reach = 0.0, lo
    for s in sorted(spans, key=lambda s: s["start"]):
        start, end = max(s["start"], reach), min(s["end"], hi)
        if end > start:
            length += end - start
            reach = end
    return length


class _NullTracer:
    def span(self, name, layer, **attrs):
        return nullcontext()


NULL_TRACER = _NullTracer()
