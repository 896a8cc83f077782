"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions: either explicitly (``with tracer.span(...)``)
or by temporarily wrapping a public method (``tracer.patch``). Nothing is
patched when tracing is off, so the untraced run calls the program
exactly as a user would.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None  # id of the span that caused this one
    request: int  # id of the outermost span; spans of one request share it
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans: name, start, end, parent and request."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            request=parent.request if parent else len(self.spans),
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patch(self, targets: list[tuple[type, str, str]]):
        """Wrap ``cls.attr`` in a span named ``name`` for each target, and
        restore the originals on exit."""
        saved = []
        for cls, attr, name in targets:
            orig = cls.__dict__[attr]
            saved.append((cls, attr, orig))
            if isinstance(orig, classmethod):
                setattr(cls, attr, classmethod(self._wrap(orig.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(orig, name))
        try:
            yield self
        finally:
            for cls, attr, orig in reversed(saved):
                setattr(cls, attr, orig)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- summaries
    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span named ``name``, in seconds."""
        return sum(s.seconds for s in self.of(name))

    def self_seconds(self, name: str) -> float:
        """Summed self time of ``name``: duration minus direct children."""
        ids = {s.id for s in self.of(name)}
        child = sum(s.seconds for s in self.spans if s.parent in ids)
        return self.total(name) - child

    def dump(self) -> dict:
        return {
            "spans": [
                [s.id, s.parent, s.request, s.name, round(s.start, 7), round(s.end, 7)]
                for s in self.spans
            ],
            "span_fields": ["id", "parent", "request", "name", "start", "end"],
        }
