"""Spans around the public entry points of each layer, recorded from outside.

No file under ``src/`` knows about this module. :func:`install` imports every
``repro`` module, wraps the functions named in :data:`WRAP_TABLE` and rebinds
each wrapper everywhere the original was bound (the defining module or class,
and every ``repro`` module that did ``from x import f``). A wrapped call
records name, start, end, self time, parent span and root-call id in memory;
the hot interval kernels keep one aggregate per (span, parent span) instead.
Everything is written to ``trace-<pid>.json`` when the process exits.

Self time is a span's duration minus the time covered by its child spans.
The current span lives in a ``contextvars`` variable, so spans of interleaved
asyncio tasks and of executor threads do not adopt each other's parents.
"""

from __future__ import annotations

import atexit
import contextvars
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

RECORD = "record"
AGGREGATE = "aggregate"

#: ``module:qualname`` -> (span name, mode). The part of a span name before
#: the first dot is its layer key (see :data:`LAYERS`); two entry points of
#: one layer may share a span name, nested calls then add up correctly
#: because self time excludes children.
WRAP_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.protocol:decode_line", "protocol.decode", RECORD),
    ("repro.serve.protocol:parse_event_term", "protocol.parse_term", RECORD),
    ("repro.serve.protocol:encode", "protocol.encode", RECORD),
    ("repro.serve.server:RecognitionServer.dispatch_line", "server.dispatch", RECORD),
    ("repro.serve.server:RecognitionServer.dispatch", "server.dispatch", RECORD),
    ("repro.serve.cluster.worker:WorkerServer.dispatch", "server.dispatch", RECORD),
    ("repro.serve.sessions:ManagedSession.offer_events", "sessions.offer", RECORD),
    ("repro.serve.sessions:ManagedSession.query", "sessions.query", RECORD),
    ("repro.rtec.stream:EventStream.append", "stream.append", RECORD),
    ("repro.rtec.stream:EventStream.slice_window", "stream.slice", RECORD),
    ("repro.rtec.stream:EventStream.events_in_window", "stream.slice", AGGREGATE),
    ("repro.rtec.stream:EventStream.count_in_window", "stream.slice", AGGREGATE),
    ("repro.rtec.session:RTECSession.submit", "session.submit", RECORD),
    ("repro.rtec.session:RTECSession.advance", "session.advance", RECORD),
    ("repro.rtec.session:RTECSession.snapshot", "session.snapshot", RECORD),
    ("repro.rtec.engine:RTECEngine.__init__", "engine.init", RECORD),
    ("repro.rtec.engine:RTECEngine.recognise", "engine.recognise", RECORD),
    ("repro.rtec.engine:RTECEngine.certificate", "analysis.certify", RECORD),
    ("repro.rtec.compile:compile_rule", "compile.rule", RECORD),
    ("repro.rtec.compile:precompile_description", "compile.rule", RECORD),
    ("repro.rtec.simple:evaluate_simple_fluent", "simple.eval", RECORD),
    ("repro.rtec.static:evaluate_static_fluent", "static.eval", RECORD),
    ("repro.intervals.operations:union_all", "intervals.union", AGGREGATE),
    ("repro.intervals.operations:intersect_all", "intervals.intersect", AGGREGATE),
    ("repro.intervals.operations:relative_complement_all", "intervals.complement", AGGREGATE),
    ("repro.intervals.operations:complement_within", "intervals.complement", AGGREGATE),
    ("repro.intervals.pairing:pair_intervals", "intervals.pairing", AGGREGATE),
    ("repro.serve.checkpoint:snapshot_to_dict", "checkpoint.encode", RECORD),
    ("repro.serve.checkpoint:write_checkpoint", "checkpoint.write", RECORD),
    ("repro.generation.generator:generate", "llm.generate", RECORD),
    ("repro.llm.pipeline:GenerationPipeline.run", "llm.generate", RECORD),
    ("repro.generation.correction:correct_event_description", "generation.correct", RECORD),
    ("repro.generation.evaluation:run_recognition", "evaluation.recognise", RECORD),
    ("repro.generation.evaluation:score_activities", "evaluation.score", RECORD),
    ("repro.similarity.event_description:event_description_similarity",
     "similarity.description", RECORD),
    ("repro.similarity.event_description:event_description_distance",
     "similarity.description", RECORD),
    ("repro.similarity.assignment:kuhn_munkres", "similarity.assignment", AGGREGATE),
    ("repro.analysis.analyzer:analyse", "analysis.lint", RECORD),
    ("repro.logic.parser:parse_term", "parser.parse", AGGREGATE),
    ("repro.rtec.description:EventDescription.from_text", "parser.parse", RECORD),
    ("repro.maritime.dataset:build_dataset", "maritime.dataset", RECORD),
)

#: Layer key (first component of a span name) -> the repo module it measures,
#: in blocking-path order for the serve workloads, then the batch pipeline.
LAYERS: Dict[str, str] = {
    "protocol": "serve.protocol",
    "server": "serve.server",
    "sessions": "serve.sessions",
    "stream": "rtec.stream",
    "session": "rtec.session",
    "engine": "rtec.engine",
    "compile": "rtec.compile",
    "simple": "rtec.simple",
    "static": "rtec.static",
    "intervals": "intervals",
    "checkpoint": "serve.checkpoint",
    "llm": "llm",
    "generation": "generation",
    "evaluation": "generation",
    "similarity": "similarity",
    "analysis": "analysis",
    "parser": "logic.parser",
    "maritime": "maritime",
}

#: Spans whose duration is mostly waiting (a coroutine parked on a queue or a
#: future): reported inclusive, left out of busy shares.
WAITING_SPANS = frozenset({"sessions.query"})

_now = time.perf_counter_ns
_current: "contextvars.ContextVar[Optional[List[Any]]]" = contextvars.ContextVar(
    "bench_span", default=None
)


class _Trace:
    """All spans of this process, in memory until exit."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.started_ns = _now()
        self.names: List[str] = []
        # Parallel columns, one entry per finished RECORD span.
        self.name_ids: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.selfs: List[int] = []
        self.span_ids: List[int] = []
        self.parents: List[int] = []
        self.roots: List[int] = []
        # (name id, parent name id) -> [count, total ns, self ns]
        self.aggregates: Dict[Tuple[int, int], List[int]] = {}
        self.next_span_id = 1
        self.written = False

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def write(self) -> None:
        if self.written:
            return
        self.written = True
        times = os.times()
        payload = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "argv": list(sys.orig_argv),
            "wall_s": (_now() - self.started_ns) / 1e9,
            "cpu_s": times.user + times.system,
            "names": self.names,
            "records": {
                "name": self.name_ids,
                "start_ns": self.starts,
                "end_ns": self.ends,
                "self_ns": self.selfs,
                "span": self.span_ids,
                "parent": self.parents,
                "root": self.roots,
            },
            "aggregates": [
                [name, parent, count, total, self_ns]
                for (name, parent), (count, total, self_ns) in self.aggregates.items()
            ],
        }
        path = os.path.join(self.directory, "trace-%d.json" % os.getpid())
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(path + ".tmp", path)


# A frame is the mutable state of one open span:
# [name id, span id, root id, ns covered by children, still open].
_NAME, _SPAN, _ROOT, _CHILD_NS, _OPEN = range(5)


def _open_frame(trace: _Trace, name_id: int) -> Tuple[List[Any], Optional[List[Any]]]:
    parent = _current.get()
    # A task created inside a span inherits that span as its context's
    # current one; once the span has ended it is nobody's parent.
    if parent is not None and not parent[_OPEN]:
        parent = None
    span_id = trace.next_span_id
    trace.next_span_id = span_id + 1
    root = span_id if parent is None else parent[_ROOT]
    return [name_id, span_id, root, 0, True], parent


def _close_frame(
    trace: _Trace, frame: List[Any], parent: Optional[List[Any]],
    started: int, ended: int, aggregate: bool,
) -> None:
    frame[_OPEN] = False
    duration = ended - started
    self_ns = duration - frame[_CHILD_NS]
    if parent is not None:
        parent[_CHILD_NS] += duration
    if aggregate:
        key = (frame[_NAME], -1 if parent is None else parent[_NAME])
        cell = trace.aggregates.get(key)
        if cell is None:
            trace.aggregates[key] = [1, duration, self_ns]
        else:
            cell[0] += 1
            cell[1] += duration
            cell[2] += self_ns
        return
    trace.name_ids.append(frame[_NAME])
    trace.starts.append(started)
    trace.ends.append(ended)
    trace.selfs.append(self_ns)
    trace.span_ids.append(frame[_SPAN])
    trace.parents.append(0 if parent is None else parent[_SPAN])
    trace.roots.append(frame[_ROOT])


def _wrap(trace: _Trace, function: Callable[..., Any], name: str, mode: str) -> Callable[..., Any]:
    name_id = trace.name_id(name)
    aggregate = mode == AGGREGATE
    if inspect.iscoroutinefunction(function):

        async def traced_coroutine(*args: Any, **kwargs: Any) -> Any:
            frame, parent = _open_frame(trace, name_id)
            token = _current.set(frame)
            started = _now()
            try:
                return await function(*args, **kwargs)
            finally:
                ended = _now()
                _current.reset(token)
                _close_frame(trace, frame, parent, started, ended, aggregate)

        wrapper: Callable[..., Any] = traced_coroutine
    else:

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame, parent = _open_frame(trace, name_id)
            token = _current.set(frame)
            started = _now()
            try:
                return function(*args, **kwargs)
            finally:
                ended = _now()
                _current.reset(token)
                _close_frame(trace, frame, parent, started, ended, aggregate)

        wrapper = traced
    for attribute in ("__name__", "__qualname__", "__doc__", "__module__"):
        try:
            setattr(wrapper, attribute, getattr(function, attribute))
        except AttributeError:
            pass
    wrapper.__wrapped__ = function  # type: ignore[attr-defined]
    return wrapper


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, raw attribute) of ``module:qualname``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, parts[-1])
    return owner, parts[-1], raw


def _import_all_of_repro() -> None:
    """Load every module up front, so each ``from x import f`` binding exists
    when the wrappers are rebound and none is made from the original later."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        importlib.import_module(info.name)


def install(directory: str) -> None:
    """Wrap every entry of :data:`WRAP_TABLE`; exit the process on a bad name."""
    trace = _Trace(directory)
    unresolved: List[str] = []
    replaced: Dict[int, Callable[..., Any]] = {}
    try:
        _import_all_of_repro()
        table = WRAP_TABLE
    except ImportError as exc:
        unresolved.append("import of repro failed: %s" % exc)
        table = ()
    for target, name, mode in table:
        try:
            owner, attribute, raw = _resolve(target)
        except (ImportError, AttributeError):
            unresolved.append(target)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            rewrapped = type(raw)(_wrap(trace, raw.__func__, name, mode))
            setattr(owner, attribute, rewrapped)
        elif callable(raw):
            wrapper = _wrap(trace, raw, name, mode)
            setattr(owner, attribute, wrapper)
            if inspect.ismodule(owner):
                replaced[id(raw)] = wrapper
        else:
            unresolved.append(target)
    if unresolved:
        # Loud, and early: a renamed entry point must not turn into zeros.
        message = "bench shim: cannot resolve " + ", ".join(unresolved)
        with open(os.path.join(directory, "unresolved-%d.txt" % os.getpid()), "w") as handle:
            handle.write(message + "\n")
        raise SystemExit(message)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for global_name, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, global_name, wrapper)
    atexit.register(trace.write)
    # multiprocessing children leave through os._exit, which skips atexit but
    # runs multiprocessing's own finalizers.
    from multiprocessing import util

    util.Finalize(None, trace.write, exitpriority=0)
