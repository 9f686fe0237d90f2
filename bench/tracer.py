"""In-memory span tracer that wraps module attributes from outside.

A span records one call of a wrapped function: its name, the module whose
binding was called, start and end times, the enclosing span, the
operation it belongs to, and whether it raised. Wrapping replaces the
attribute on the calling module (``bootstrap_infer.fit_var_ls`` rather
than ``estimate.fit_var_ls``), so every call site is traced separately and
no source file of the library changes. Spans stay in memory until the
caller reads them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    error: bool = False
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# note(args, kwargs, result) -> counters attached to the span
Note = Callable[[tuple, dict, Any], dict[str, float]]


class Tracer:
    """Collects spans from wrapped callables; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, Any]] = []

    def wrap(self, owner: object, attr: str, name: str, note: Note | None = None) -> bool:
        """Replace ``owner.attr`` by a traced version; False if it is absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        site = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(
                name=name,
                site=site,
                start=time.perf_counter(),
                parent=self._stack[-1] if self._stack else None,
                op=self.op,
            )
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.notes = note(args, kwargs, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)
        return True

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
