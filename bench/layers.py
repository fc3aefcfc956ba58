"""From trace files and outside counters to the per-layer metrics.

Layers are the repo's modules (``shim/benchtrace.py`` names the entry points
and the layer of each). Self times come only from a traced run; counters
from ``status``, ``/proc`` and the checkpoint directory are collected on
every run. A metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent / "shim"))
from benchtrace import LAYERS, WAITING_SPANS  # noqa: E402

SERVER = "server"   # single-process server, cluster workers, pipeline pass
ROUTER = "router"   # the cluster's front process
ANY = (SERVER, ROUTER)

#: metric -> (span names, field, roles). ``self``/``total`` are seconds,
#: ``count`` is calls.
SPAN_METRICS: Dict[str, Tuple[Tuple[str, ...], str, Tuple[str, ...]]] = {
    "protocol.decode_self_s": (("protocol.decode",), "self", (SERVER,)),
    "protocol.parse_term_self_s": (("protocol.parse_term",), "self", ANY),
    "protocol.encode_self_s": (("protocol.encode",), "self", ANY),
    "protocol.lines": (("protocol.decode",), "count", (SERVER,)),
    "server.dispatch_self_s": (("server.dispatch",), "self", ANY),
    "sessions.offer_self_s": (("sessions.offer",), "self", ANY),
    "sessions.query_s": (("sessions.query",), "total", ANY),
    "stream.append_self_s": (("stream.append",), "self", ANY),
    "stream.slice_self_s": (("stream.slice",), "self", ANY),
    "stream.appends": (("stream.append",), "count", ANY),
    "session.submit_self_s": (("session.submit",), "self", ANY),
    "session.advance_s": (("session.advance",), "total", ANY),
    "session.advance_self_s": (("session.advance",), "self", ANY),
    "session.advances": (("session.advance",), "count", ANY),
    "session.snapshot_self_s": (("session.snapshot",), "self", ANY),
    "engine.init_self_s": (("engine.init",), "self", ANY),
    "engine.recognise_self_s": (("engine.recognise",), "self", ANY),
    "compile.rule_self_s": (("compile.rule",), "self", ANY),
    "compile.rules": (("compile.rule",), "count", ANY),
    "simple.eval_self_s": (("simple.eval",), "self", ANY),
    "simple.calls": (("simple.eval",), "count", ANY),
    "static.eval_self_s": (("static.eval",), "self", ANY),
    "static.calls": (("static.eval",), "count", ANY),
    "intervals.union_self_s": (("intervals.union",), "self", ANY),
    "intervals.intersect_self_s": (("intervals.intersect",), "self", ANY),
    "intervals.complement_self_s": (("intervals.complement",), "self", ANY),
    "intervals.pairing_self_s": (("intervals.pairing",), "self", ANY),
    "intervals.calls": (("intervals.union", "intervals.intersect", "intervals.complement",
                         "intervals.pairing"), "count", ANY),
    "checkpoint.encode_self_s": (("checkpoint.encode",), "self", ANY),
    "checkpoint.write_self_s": (("checkpoint.write",), "self", ANY),
    "checkpoint.writes": (("checkpoint.write",), "count", ANY),
    "router.lines": (("protocol.decode",), "count", (ROUTER,)),
    "router.decode_self_s": (("protocol.decode",), "self", (ROUTER,)),
    "llm.generate_self_s": (("llm.generate",), "self", ANY),
    "generation.correct_self_s": (("generation.correct",), "self", ANY),
    "evaluation.recognise_s": (("evaluation.recognise",), "total", ANY),
    "evaluation.score_self_s": (("evaluation.score",), "self", ANY),
    "similarity.description_self_s": (("similarity.description",), "self", ANY),
    "similarity.assignment_self_s": (("similarity.assignment",), "self", ANY),
    "similarity.assignment_calls": (("similarity.assignment",), "count", ANY),
    "analysis.lint_self_s": (("analysis.lint",), "self", ANY),
    "analysis.certify_self_s": (("analysis.certify",), "self", ANY),
    "parser.parse_self_s": (("parser.parse",), "self", ANY),
    "maritime.dataset_self_s": (("maritime.dataset",), "self", ANY),
}

#: Metrics taken outside the program: name -> unit. Filled by the runner.
OUTSIDE_METRICS: Dict[str, str] = {
    "loadgen.events_per_s_raw": "ev/s",
    "loadgen.advance_p95_ms": "ms",
    "loadgen.advance_p99_ms": "ms",
    "loadgen.ack_p50_ms": "ms",
    "loadgen.steps": "count",
    "loadgen.lines_sent": "count",
    "loadgen.failed_share": "ratio",
    "loadgen.steal_share": "ratio",
    "server.cpu_s": "s",
    "sessions.windows": "count",
    "sessions.queue_peak": "count",
    "sessions.rejected": "count",
    "sessions.invalid": "count",
    "sessions.dropped": "count",
    "sessions.checkpoints": "count",
    "checkpoint.bytes_per_file": "B",
    "router.cpu_s": "s",
    "worker.cpu_s": "s",
    "worker.cpu_skew": "ratio",
    "trace_overhead_share": "ratio",
    "unattributed_share": "ratio",
}

LAYER_NAMES: List[str] = list(dict.fromkeys(LAYERS.values()))

#: Sizes of the work done read "higher"; every cost reads "lower".
_HIGHER = {"loadgen.events_per_s_raw", "loadgen.steps", "loadgen.lines_sent", "protocol.lines", "router.lines",
           "sessions.windows", "stream.appends", "session.advances"}


def _unit_of(metric: str) -> str:
    if metric in OUTSIDE_METRICS:
        return OUTSIDE_METRICS[metric]
    if metric.startswith("busy_share."):
        return "ratio"
    return "s" if SPAN_METRICS[metric][1] in ("self", "total") else "count"


def per_layer_schema() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``, in reporting order."""
    names = list(OUTSIDE_METRICS) + list(SPAN_METRICS)
    names += ["busy_share.%s" % layer for layer in LAYER_NAMES]
    return [
        {"name": name, "unit": _unit_of(name),
         "better": "higher" if name in _HIGHER else "lower"}
        for name in names
    ]


@dataclass
class SpanStats:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: Durations of individually recorded calls (aggregated spans have none).
    durations_ns: List[int] = field(default_factory=list)
    #: Self time of recorded calls that started inside the timed phase.
    timed_self_ns: int = 0
    aggregated_self_ns: int = 0


class TraceError(RuntimeError):
    """The traced run did not produce the spans it owes."""


def load_traces(trace_dir: Path, owed_pids: Iterable[int]) -> List[Dict[str, Any]]:
    """Every process's trace file; a missing one fails with its pid."""
    complaints = [path.read_text().strip() for path in sorted(trace_dir.glob("unresolved-*.txt"))]
    if complaints:
        raise TraceError("; ".join(complaints))
    traces = []
    for pid in owed_pids:
        path = trace_dir / ("trace-%d.json" % pid)
        if not path.exists():
            raise TraceError(
                "process %d of the traced tree exited without writing %s" % (pid, path.name)
            )
        traces.append(json.loads(path.read_text()))
    return traces


def reduce_traces(
    traces: Sequence[Dict[str, Any]],
    router_pid: Optional[int],
    timed_window_ns: Optional[Tuple[int, int]] = None,
) -> Dict[Tuple[str, str], SpanStats]:
    """(role, span name) -> statistics over every traced process."""
    reduced: Dict[Tuple[str, str], SpanStats] = {}
    for trace in traces:
        role = ROUTER if trace["pid"] == router_pid else SERVER
        names = trace["names"]
        records = trace["records"]
        for name_id, start, end, self_ns in zip(
            records["name"], records["start_ns"], records["end_ns"], records["self_ns"]
        ):
            stats = reduced.setdefault((role, names[name_id]), SpanStats())
            stats.count += 1
            stats.total_ns += end - start
            stats.self_ns += self_ns
            stats.durations_ns.append(end - start)
            if timed_window_ns and timed_window_ns[0] <= start <= timed_window_ns[1]:
                stats.timed_self_ns += self_ns
        for name_id, _parent, count, total_ns, self_ns in trace["aggregates"]:
            stats = reduced.setdefault((role, names[name_id]), SpanStats())
            stats.count += count
            stats.total_ns += total_ns
            stats.self_ns += self_ns
            stats.aggregated_self_ns += self_ns
    return reduced


def _busy_self_ns(reduced: Dict[Tuple[str, str], SpanStats]) -> Dict[str, int]:
    """Layer name -> self nanoseconds, waiting spans left out."""
    busy = {layer: 0 for layer in LAYER_NAMES}
    for (_role, span), stats in reduced.items():
        if span not in WAITING_SPANS:
            busy[LAYERS[span.split(".", 1)[0]]] += stats.self_ns
    return busy


def span_metrics(
    reduced: Dict[Tuple[str, str], SpanStats], traced_cpu_s: float
) -> Dict[str, float]:
    """Every trace-derived per-layer metric, plus the busy shares."""
    metrics: Dict[str, float] = {}
    for metric, (spans, field_name, roles) in SPAN_METRICS.items():
        value = 0.0
        for role in roles:
            for span in spans:
                stats = reduced.get((role, span))
                if stats is None:
                    continue
                if field_name == "count":
                    value += stats.count
                elif field_name == "self":
                    value += stats.self_ns / 1e9
                else:
                    value += stats.total_ns / 1e9
        metrics[metric] = value
    busy = _busy_self_ns(reduced)
    total_busy = sum(busy.values())
    for layer in LAYER_NAMES:
        metrics["busy_share.%s" % layer] = busy[layer] / total_busy if total_busy else 0.0
    metrics["unattributed_share"] = (
        max(0.0, 1.0 - total_busy / 1e9 / traced_cpu_s) if traced_cpu_s > 0 else 0.0
    )
    return metrics


def layer_table(reduced: Dict[Tuple[str, str], SpanStats]) -> List[Dict[str, Any]]:
    """Rows of the human view: one per (layer, span, role), blocking path first."""
    busy_total = sum(_busy_self_ns(reduced).values()) or 1
    order = {key: index for index, key in enumerate(LAYERS)}
    rows = []
    for (role, span), stats in reduced.items():
        durations = sorted(stats.durations_ns)
        row: Dict[str, Any] = {
            "layer": LAYERS[span.split(".", 1)[0]],
            "span": span if role == SERVER else "%s@router" % span,
            "count": stats.count,
            "avg_ms": stats.total_ns / stats.count / 1e6 if stats.count else 0.0,
            "p50_ms": None,
            "p95_ms": None,
            "self_s": stats.self_ns / 1e9,
            "busy_share": None if span in WAITING_SPANS else stats.self_ns / busy_total,
        }
        if len(durations) >= 2:
            row["p50_ms"] = statistics.median(durations) / 1e6
            row["p95_ms"] = durations[min(len(durations) - 1, int(len(durations) * 0.95))] / 1e6
        rows.append((order[span.split(".", 1)[0]], row["span"], row))
    return [row for _order, _span, row in sorted(rows, key=lambda item: item[:2])]


def latency_budget(
    reduced: Dict[Tuple[str, str], SpanStats], timed_steps: int, timed_share: float,
    advance_mean_ms: float,
) -> List[Dict[str, Any]]:
    """Milliseconds of one step per layer, the remainder last.

    Recorded spans count when they started inside the timed phase; the
    aggregated kernels carry no timestamps, so their self time is scaled by
    the timed share of all steps. On a cluster the layers of concurrent
    workers overlap, and the remainder can be negative.
    """
    per_layer = {layer: 0.0 for layer in LAYER_NAMES}
    for (_role, span), stats in reduced.items():
        if span in WAITING_SPANS:
            continue
        self_ns = stats.timed_self_ns + stats.aggregated_self_ns * timed_share
        per_layer[LAYERS[span.split(".", 1)[0]]] += self_ns / 1e6 / timed_steps
    rows = [{"layer": layer, "ms_per_step": value}
            for layer, value in per_layer.items() if value >= 0.0005]
    rows.append({
        "layer": "(generator, sockets, event loop, waiting; minus worker overlap)",
        "ms_per_step": advance_mean_ms - sum(per_layer.values()),
    })
    return rows
