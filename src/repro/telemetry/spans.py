"""Span tracing: named, nested, attributed wall-clock intervals.

A :class:`Tracer` hands out context-manager spans::

    with tracer.span("launch", {"kernel": "forces"}) as sp:
        ...
        sp.set(cycles=result.cycles)

Finished spans become :class:`SpanRecord` entries on ``tracer.records``
(ordered by start time) and can be rendered to a Chrome trace by
:mod:`repro.telemetry.chrome_trace`.

The module also defines the disabled-path span: :data:`NOOP_SPAN` is a
single shared instance whose enter/exit do nothing, so instrumented code
can unconditionally write ``with telemetry.span(...)`` and pay only a
global read + branch when telemetry is off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "NoopSpan", "NOOP_SPAN", "Tracer"]


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float  # seconds since the tracer's epoch
    end_s: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NoopSpan":
        return self


#: The one instance every disabled ``telemetry.span(...)`` call returns.
NOOP_SPAN = NoopSpan()


class _LiveSpan:
    """Context manager recording one interval on its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._record: SpanRecord | None = None

    def __enter__(self) -> "_LiveSpan":
        self._record = self._tracer._open(self._name, self._attrs)
        return self

    def set(self, **attrs) -> "_LiveSpan":
        if self._record is not None:
            self._record.attrs.update(attrs)
        elif self._attrs is None:
            self._attrs = dict(attrs)
        else:
            self._attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._record is not None, "span exited without being entered"
        if exc_type is not None:
            self._record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self._record)
        return False


class Tracer:
    """Collects spans against a monotonic clock with a fixed epoch."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._next_id = 0
        self._lock = threading.Lock()
        # Parent attribution is per thread: a stream worker's spans must
        # not become children of whatever the main thread has open.
        self._stacks = threading.local()
        self.records: list[SpanRecord] = []

    @property
    def _stack(self) -> list[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def now_s(self) -> float:
        """Seconds since this tracer was created."""
        return self._clock() - self._epoch

    def span(self, name: str, attrs: dict | None = None) -> _LiveSpan:
        return _LiveSpan(self, name, attrs)

    # -- span lifecycle (called by _LiveSpan) ------------------------------

    def _open(self, name: str, attrs: dict | None) -> SpanRecord:
        stack = self._stack
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        rec = SpanRecord(
            name=name,
            span_id=span_id,
            parent_id=stack[-1] if stack else None,
            start_s=self.now_s(),
            attrs=attrs if attrs is not None else {},
        )
        stack.append(rec.span_id)
        self.records.append(rec)
        return rec

    def _close(self, rec: SpanRecord) -> None:
        rec.end_s = self.now_s()
        # Spans close LIFO in the common case; tolerate out-of-order exits.
        if rec.span_id in self._stack:
            self._stack.remove(rec.span_id)

    def finished(self) -> list[SpanRecord]:
        return [r for r in self.records if r.end_s is not None]
