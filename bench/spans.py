"""In-memory span recorder used by the benchmark.

A span is (name, start, end, parent, run id).  Spans are opened around
calls into fmash's public functions by patching the module attributes that
callers look up; the patches are undone when the recorder is closed, so no
program file changes.  Spans stay in memory and are written once, when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's.  The recorder keeps one
    stack, so a span's children never overlap."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


class Recorder:
    """Records spans around patched callables; ``close()`` restores them."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close_span(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close_span(index)

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(self.spans[i].name == name for i in self._stack)

    # -- patching --------------------------------------------------------------

    def wrap(self, fn, name: str, keep_result: bool = False, before=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(recorder, args)
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close_span(index)
            if keep_result:
                recorder.results.setdefault(name, []).append(result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, **opts) -> None:
        """Wrap ``module.attr`` and every fmash module attribute bound to the
        same object (``from .x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **opts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fmash" or mod_name.startswith("fmash.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **opts) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **opts))

    def close(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- summaries -------------------------------------------------------------

    def named(self, name: str, under: str | None = None,
              exclude: str | None = None) -> list[int]:
        """Indices of spans called ``name``, optionally only those with an
        ancestor called ``under`` and none called ``exclude``."""
        out = []
        for i, span in enumerate(self.spans):
            if span.name != name:
                continue
            if under is not None and not self._has_ancestor(i, under):
                continue
            if exclude is not None and self._has_ancestor(i, exclude):
                continue
            out.append(i)
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def durations(self, name: str, under: str | None = None,
                  exclude: str | None = None) -> list[float]:
        return [self.spans[i].duration for i in self.named(name, under, exclude)]

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time, self time, median call time."""
        selfs = self_times(self.spans)
        rows: dict[str, dict] = {}
        for span, own in zip(self.spans, selfs):
            row = rows.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "_d": []})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += own
            row["_d"].append(span.duration)
        for row in rows.values():
            row["median_s"] = statistics.median(row.pop("_d"))
        return dict(sorted(rows.items()))

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed by layer, the span-name prefix before the dot."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            layer = span.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return dict(sorted(out.items()))

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id} for s in self.spans]
