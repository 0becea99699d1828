"""Outside-in tracing for the benchmark's traced run.

Timed wrappers replace module attributes of canalis for the length of the
run, so every call the library makes through that attribute is recorded
as a span with its parent span; a counting proxy stands in for the random
source. Nothing in canalis changes and the untraced run installs nothing.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Raw spans kept for the trace file; totals cover every span regardless.
MAX_KEPT_SPANS = 20000


class CountingRandom:
    """Proxy over a ``random.Random`` that counts ``getrandbits`` calls and
    the bits they return."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0
        self.bits = 0

    def getrandbits(self, k: int) -> int:
        self.calls += 1
        self.bits += k
        return self.rng.getrandbits(k)


class Tracer:
    """Span recorder. ``total_ns[name]`` and ``calls[name]`` cover all
    spans; ``child_ns[name]`` is the part of those spans covered by their
    direct children, so self time is total minus child time."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, str]] = []
        self.total_ns: dict[str, int] = defaultdict(int)
        self.child_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        self._stack.append(name)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            took = end - start
            self.total_ns[name] += took
            self.calls[name] += 1
            parent = self._stack[-1] if self._stack else ""
            if parent:
                self.child_ns[parent] += took
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((name, start, end, parent))

    def install(self, module, attr: str) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        ``attr`` around every call made through the attribute."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(attr, original, *args, **kwargs)

        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def ms(self, name: str) -> float:
        return self.total_ns[name] / 1e6

    def self_ms(self, name: str) -> float:
        return (self.total_ns[name] - self.child_ns[name]) / 1e6

    def write(self, path, extra: dict) -> None:
        """Write totals, ``extra`` and the kept spans as one JSON document."""
        doc = {
            **extra,
            "totals_ms": {k: v / 1e6 for k, v in sorted(self.total_ns.items())},
            "self_ms": {k: self.self_ms(k) for k in sorted(self.total_ns)},
            "calls": dict(sorted(self.calls.items())),
            "spans_kept": len(self.spans),
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
