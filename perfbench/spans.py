"""Spans recorded around calls into the program's public functions.

The program itself is not instrumented.  The traced run replaces a module
attribute (for example ``gridfreq.sim.integrate``) with a wrapper that
opens a span, calls the original and closes the span, and puts the
original back afterwards.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, List, Optional


class Tracer:
    """Keeps every span of one run: name, start, end, parent, attributes."""

    def __init__(self):
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (module, attribute, span name, attrs_fn) for the duration.

        attrs_fn(args, kwargs, result) returns attributes stored on the span
        once the call has returned; it may be None.
        """
        saved = []
        try:
            for module, attr, name, attrs_fn in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name, attrs_fn))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, fn: Callable, name: str, attrs_fn: Optional[Callable]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    rec["attrs"].update(attrs_fn(args, kwargs, result))
                return result
        return traced

    def descendants(self, root: dict) -> List[dict]:
        """Spans below ``root``, in start order."""
        inside = {root["id"]}
        out = []
        for rec in self.spans[root["id"] + 1:]:
            if rec["parent"] in inside:
                inside.add(rec["id"])
                out.append(rec)
        return out

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra or {}, spans=self.spans)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_time(rec: dict, spans: List[dict]) -> float:
    """Duration of rec minus the time its direct children cover."""
    children = sum(duration(s) for s in spans if s["parent"] == rec["id"])
    return duration(rec) - children

