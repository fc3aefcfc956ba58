"""Spans, counters, and the active-tracer registry.

A :class:`Span` is one timed region with attributes (set at entry or via
:meth:`Span.set`), named counters, and child spans. A :class:`Tracer` owns
a stack of open spans and the forest of finished root spans. The stack is
per-thread: spans opened by worker threads (a served session evaluates its
windows off the event loop) nest within that thread's own spans and finish
as additional roots, so concurrent windows cannot corrupt each other's trees.

The module-level functions (:func:`span`, :func:`count`) are what
instrumented code calls. When no tracer is active they return shared no-op
singletons without allocating, keeping the disabled overhead to a global
read and a ``None`` check.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "active",
    "count",
    "disable",
    "enable",
    "enabled",
    "is_enabled",
    "span",
]


class Span:
    """One timed region of the recognition stack.

    Entering the span (``with tracer.span(...) as sp``) starts the clock
    and pushes it on the tracer's stack; exiting records the monotonic
    duration and attaches the span to its parent (or to the tracer's
    roots). ``sp.enabled`` is ``True``, so instrumented code can guard
    expensive attribute computation with ``if sp.enabled:``.
    """

    __slots__ = ("name", "attrs", "counters", "children", "duration", "_tracer", "_start")

    enabled = True

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self.duration: Optional[float] = None
        self._tracer = tracer
        self._start: Optional[float] = None

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on the span."""
        self.attrs.update(attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + n

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration = time.perf_counter() - (self._start or 0.0)
        stack = self._tracer._stack
        # Tolerate a corrupted stack (an unexited child) rather than
        # masking the caller's exception with an assertion.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            self._tracer.roots.append(self)
        return False


class _NullSpan:
    """Shared no-op stand-in returned while telemetry is disabled."""

    __slots__ = ()

    enabled = False
    name = ""
    duration = None

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}

    @property
    def counters(self) -> Dict[str, int]:
        return {}

    @property
    def children(self) -> List[Span]:
        return []

    def set(self, **attrs: Any) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


#: The singleton no-op span; safe to re-enter concurrently and recursively.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of spans plus tracer-level counters."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self.counters: Dict[str, int] = {}
        # Open spans, per thread: a span must close on the thread that
        # opened it, and the finished forest in ``roots`` (append-only,
        # atomic under the GIL) merges all threads' trees.
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """Create a span; it only starts timing when entered."""
        return Span(self, name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter on the innermost open span, or on the
        tracer itself when no span is open."""
        if self._stack:
            self._stack[-1].count(name, n)
        else:
            self.counters[name] = self.counters.get(name, 0) + n

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        self.roots = []
        self.counters = {}
        self._local = threading.local()

    def report(self) -> "TelemetryReport":
        from repro.telemetry.report import TelemetryReport

        return TelemetryReport(list(self.roots), dict(self.counters))


#: The active tracer; ``None`` means telemetry is off (the default).
_active: Optional[Tracer] = None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the active tracer; a fresh one by default."""
    global _active
    _active = tracer if tracer is not None else Tracer()
    return _active


def disable() -> None:
    """Deactivate telemetry; instrumented code reverts to no-ops."""
    global _active
    _active = None


def is_enabled() -> bool:
    return _active is not None


def active() -> Optional[Tracer]:
    """The active tracer, or ``None`` when telemetry is off."""
    return _active


def span(name: str, **attrs: Any):
    """A span on the active tracer, or the shared no-op span when off."""
    if _active is None:
        return NULL_SPAN
    return _active.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    """Increment a counter on the active tracer's innermost open span."""
    if _active is None:
        return
    _active.count(name, n)


@contextmanager
def enabled(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Temporarily activate telemetry, restoring the previous state after.

    Yields the tracer so callers can build a report afterwards::

        with telemetry.enabled() as tracer:
            engine.recognise(stream, window=600)
        print(tracer.report().render())
    """
    global _active
    previous = _active
    installed = tracer if tracer is not None else Tracer()
    _active = installed
    try:
        yield installed
    finally:
        _active = previous
