"""In-process span tracer for the aquagauge benchmark.

The tracer times each layer from outside the program. It replaces a module
attribute with a wrapper that records one span per call (name, start, end,
parent span) and puts the original back afterwards, so nothing under src/ is
edited. Spans live in flat arrays in memory and are written out as CSV once
the run is over.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float
    durations: np.ndarray


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def patch(self, module, attr: str, name: str, observe=None) -> bool:
        """Wrap module.attr in a span named `name`; False when it is absent.

        `observe(result, args, kwargs)` runs after each successful call,
        outside the span, to record counts at the same boundary.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        open_, close = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        starts = np.frombuffer(self.starts, dtype=np.float64)
        durations = np.frombuffer(self.ends, dtype=np.float64) - starts
        return durations, np.frombuffer(self.parents, dtype=np.int64)

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: call count, total time, and self time (span time
        minus the time of its direct child spans)."""
        durations, parents = self._arrays()
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=durations[nested], minlength=len(self.names))
        own = durations - child
        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(i)
        out = {}
        for name, idx in by_name.items():
            d = durations[idx]
            out[name] = SpanStats(len(idx), float(d.sum()), float(own[idx].sum()), d)
        return out

    def root_coverage(self) -> tuple[float, float]:
        """(total time of root spans, time their direct children cover)."""
        durations, parents = self._arrays()
        roots = parents < 0
        under_root = ~roots
        under_root[under_root] = roots[parents[under_root]]
        return float(durations[roots].sum()), float(durations[under_root].sum())

    def write_csv(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                writer.writerow(
                    [i, self.parents[i], name, f"{self.starts[i] - origin:.9f}", f"{self.ends[i] - origin:.9f}"]
                )
