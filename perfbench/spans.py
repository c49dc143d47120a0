"""In-memory spans recorded around the package's public calls.

A span has a name (``layer.stage``), start and end times from
``time.perf_counter``, the id of the span that was open when it started,
and the id of the instance being processed.  Spans stay in memory and are
written out when the run ends.  ``NullTracer`` has the same interface and
records nothing, so the untraced passes run the same pipeline code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    instance: str | None = None
    counts = None

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.instance: str | None = None
        self.counts = None  # the counters of the instance being processed
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus what its
    children cover.  Spans nest and never overlap (one thread)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
    return dict(out)


@contextmanager
def patched(module, tracer: Tracer, wrappers: dict):
    """Temporarily replace ``module.<name>`` with a version that runs inside
    a span and hands its result to a hook.

    ``wrappers`` maps attribute name to ``(span name, hook)``.  Only public
    functions that the module looks up at call time are replaced, so the
    package itself is unchanged and untraced passes are unaffected.
    """
    originals = {name: getattr(module, name) for name in wrappers}

    def wrap(fn, span_name, hook):
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            hook(result)
            return result
        return traced

    for name, (span_name, hook) in wrappers.items():
        setattr(module, name, wrap(originals[name], span_name, hook))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
