"""In-memory spans around the benchmark's calls into the library.

A span is ``(name, layer, start, end, parent, job)``: ``parent`` is the index
of the enclosing span (or -1) and ``job`` the id of the job it ran under.
Names of library calls start with their layer (``solvers.bnb.exact``);
spans the benchmark adds to group its own work carry layer ``bench``, and
the speed probe between jobs runs in spans of layer ``probe``, which no
metric reports.

The untraced run uses :class:`NoTracer`, whose ``call`` is a plain call, so
end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

GLUE = "bench"


class NoTracer:
    enabled = False
    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, layer=GLUE):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name, layer=GLUE):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name, name.partition(".")[0]):
            return fn(*args, **kwargs)

    def write(self, path):
        """Write every span as one JSON object per line."""
        keys = ("name", "layer", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def totals(spans):
    """Per span name: (total seconds, call count)."""
    out = {}
    for name, _, start, end, _, _ in spans:
        seconds, calls = out.get(name, (0.0, 0))
        out[name] = (seconds + (end - start), calls + 1)
    return out


def self_seconds(spans):
    """Per layer: span time minus the time its direct children cover.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of it and their durations can simply be subtracted.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = {}
    for (_, layer, _, _, _, _), seconds in zip(spans, own):
        out[layer] = out.get(layer, 0.0) + seconds
    return out
