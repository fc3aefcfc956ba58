"""Rendering and aggregation of finished traces.

:class:`TelemetryReport` wraps the span forest a :class:`~repro.telemetry.tracer.Tracer`
collected and offers three views:

* :meth:`~TelemetryReport.render` — an indented span tree with durations,
  attributes and counters (what ``repro profile`` prints);
* :meth:`~TelemetryReport.to_dict` / :meth:`~TelemetryReport.to_json` —
  machine-readable nesting (``repro profile --json``);
* :meth:`~TelemetryReport.aggregate` — per-span-name totals (call count,
  total seconds, summed counters), the per-stage summary
  :meth:`~TelemetryReport.render_summary` prints.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.telemetry.tracer import Span

__all__ = ["StageStats", "TelemetryReport"]


class StageStats:
    """Totals for all spans sharing one name."""

    __slots__ = ("name", "calls", "seconds", "counters")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.counters: Dict[str, int] = {}

    def add(self, span: Span) -> None:
        self.calls += 1
        self.seconds += span.duration or 0.0
        for key, value in span.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def __repr__(self) -> str:
        return "StageStats(%s: %d calls, %.6fs)" % (self.name, self.calls, self.seconds)


class TelemetryReport:
    """A finished trace: span forest plus tracer-level counters."""

    def __init__(self, roots: List[Span], counters: Optional[Dict[str, int]] = None) -> None:
        self.roots = roots
        self.counters = counters or {}

    # -- structured views ---------------------------------------------------

    @staticmethod
    def _span_dict(span: Span) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "name": span.name,
            "seconds": span.duration,
        }
        if span.attrs:
            entry["attrs"] = {key: _jsonable(value) for key, value in span.attrs.items()}
        if span.counters:
            entry["counters"] = dict(span.counters)
        if span.children:
            entry["children"] = [TelemetryReport._span_dict(c) for c in span.children]
        return entry

    def to_dict(self) -> Dict[str, Any]:
        result: Dict[str, Any] = {
            "spans": [self._span_dict(root) for root in self.roots],
        }
        if self.counters:
            result["counters"] = dict(self.counters)
        return result

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> Dict[str, StageStats]:
        """Per-span-name totals over the whole forest, in first-seen order."""
        stats: Dict[str, StageStats] = {}

        def visit(span: Span) -> None:
            stage = stats.get(span.name)
            if stage is None:
                stage = stats[span.name] = StageStats(span.name)
            stage.add(span)
            for child in span.children:
                visit(child)

        for root in self.roots:
            visit(root)
        return stats

    # -- text rendering -----------------------------------------------------

    def render(
        self,
        min_seconds: float = 0.0,
        max_depth: Optional[int] = None,
        max_children: Optional[int] = None,
    ) -> str:
        """The span tree as indented text.

        ``min_seconds`` hides spans faster than the threshold;
        ``max_depth`` truncates nesting; ``max_children`` elides all but
        the slowest children of each span (noting how many were hidden).
        """
        lines: List[str] = []

        def visit(span: Span, depth: int) -> None:
            duration = span.duration or 0.0
            if duration < min_seconds and depth > 0:
                return
            detail = []
            for key, value in span.attrs.items():
                detail.append("%s=%s" % (key, _compact(value)))
            for key, value in sorted(span.counters.items()):
                detail.append("%s=%d" % (key, value))
            lines.append(
                "%s%-*s %9.3fms%s"
                % (
                    "  " * depth,
                    max(1, 44 - 2 * depth),
                    span.name,
                    duration * 1e3,
                    ("  " + " ".join(detail)) if detail else "",
                )
            )
            if max_depth is not None and depth + 1 > max_depth:
                return
            children = span.children
            hidden = 0
            if max_children is not None and len(children) > max_children:
                children = sorted(
                    children, key=lambda c: c.duration or 0.0, reverse=True
                )[:max_children]
                hidden = len(span.children) - len(children)
            for child in children:
                visit(child, depth + 1)
            if hidden:
                lines.append("%s… %d more span(s)" % ("  " * (depth + 1), hidden))

        for root in self.roots:
            visit(root, 0)
        for name, value in sorted(self.counters.items()):
            lines.append("%-44s %9s  %s=%d" % ("(tracer)", "", name, value))
        return "\n".join(lines)

    def render_summary(self) -> str:
        """The per-stage aggregate as an aligned table."""
        stats = self.aggregate()
        if not stats and not self.counters:
            return "(no spans recorded)"
        lines = ["%-36s %8s %12s  %s" % ("stage", "calls", "total", "counters")]
        for name, stage in sorted(
            stats.items(), key=lambda item: item[1].seconds, reverse=True
        ):
            counters = " ".join(
                "%s=%d" % (key, value) for key, value in sorted(stage.counters.items())
            )
            lines.append(
                "%-36s %8d %10.3fms  %s" % (name, stage.calls, stage.seconds * 1e3, counters)
            )
        for name, value in sorted(self.counters.items()):
            lines.append("%-36s %8s %12s  %s=%d" % ("(tracer)", "", "", name, value))
        return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)
