"""Replay a recorded workload through a live service — with crash drills.

:func:`run_replay` boots a real :class:`~repro.serve.server.RecognitionServer`
on a loopback socket, pumps a workload through the JSON-lines protocol,
and optionally *kills* the service partway through (no graceful shutdown,
workers aborted mid-stream), boots a fresh one that restores the latest
checkpoints, resumes ingest from each checkpoint's ``applied`` offset, and
collects the final detections. With ``verify=True`` the detections are
compared byte-for-byte (stable JSON) against an uninterrupted run of the
same service and against a directly driven, unsplit
:class:`~repro.rtec.session.RTECSession` — the repo's strongest
end-to-end statement of the checkpoint/restore guarantee.

:func:`drive_reference_session` implements exactly the advance policy of
the service worker (step-grid boundaries crossed by event time, then a
grid-walked final query), so the reference run and the served runs share
one window schedule by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.intervals import IntervalList
from repro.rtec.engine import RTECEngine
from repro.rtec.result import RecognitionResult
from repro.rtec.session import RTECSession
from repro.rtec.stream import Event, EventStream, InputFluents
from repro.serve.loadgen import LoadReport, ServiceClient, Workload, run_ingest
from repro.serve.protocol import parse_event_term
from repro.serve.server import RecognitionServer
from repro.serve.sessions import SessionConfig, SessionManager

__all__ = [
    "ReplayOutcome",
    "applied_event_offsets",
    "drive_reference_session",
    "reference_merged",
    "reference_result",
    "resume_workload",
    "run_replay",
]

#: Builds one fresh engine per hosted session; called again on restart so
#: a "rebooted process" never shares state with the killed one.
EngineFactory = Callable[[], Dict[str, RTECEngine]]


@dataclass
class ReplayOutcome:
    """What a replay run produced and measured."""

    first_pass: LoadReport
    resumed_pass: Optional[LoadReport]
    merged: RecognitionResult
    killed_at_event: Optional[int]
    checkpoints_restored: Dict[str, int]
    verified: Optional[bool] = None
    verify_detail: str = ""

    @property
    def final_report(self) -> LoadReport:
        return self.resumed_pass if self.resumed_pass is not None else self.first_pass


async def _boot(
    engine_factory: EngineFactory,
    config: SessionConfig,
    checkpoint_dir: Optional[str],
    restore: bool,
) -> Tuple[RecognitionServer, ServiceClient, int]:
    manager = SessionManager(checkpoint_dir=checkpoint_dir)
    for name, engine in engine_factory().items():
        manager.add_session(name, engine, config, restore=restore)
    server = RecognitionServer(manager)
    port = await server.start_tcp("127.0.0.1", 0)
    client = await ServiceClient.connect("127.0.0.1", port)
    return server, client, port


async def applied_event_offsets(
    client: ServiceClient, workload: Workload
) -> Dict[str, int]:
    """Events already applied per session, from restored ``applied`` counters.

    A checkpoint's ``applied`` counts every input item in arrival order;
    the workload delivers all fluents before any event, so the event
    offset is ``applied`` minus the session's fluent count (floored at 0
    for checkpoints written before all fluents had been applied).
    """
    fluents_per_session: Dict[str, int] = {name: 0 for name in workload.sessions}
    for name, _fvp, _pairs in workload.fluents:
        fluents_per_session[name] = fluents_per_session.get(name, 0) + 1
    status = await client.request({"type": "status"})
    offsets: Dict[str, int] = {}
    for name in workload.sessions:
        applied = status["sessions"][name]["applied"]
        offsets[name] = max(0, applied - fluents_per_session.get(name, 0))
    return offsets


def resume_workload(workload: Workload, offsets: Dict[str, int]) -> Workload:
    """The unapplied suffix: skip each session's first ``offsets[s]`` events."""
    seen: Dict[str, int] = {name: 0 for name in workload.sessions}
    events: List[Tuple[str, int, str]] = []
    for name, time, term in workload.events:
        if seen[name] < offsets.get(name, 0):
            seen[name] += 1
            continue
        events.append((name, time, term))
    return Workload(
        sessions=workload.sessions,
        fluents=workload.fluents,
        events=events,
        end_time=workload.end_time,
    )


async def run_replay(
    engine_factory: EngineFactory,
    workload: Workload,
    config: SessionConfig,
    checkpoint_dir: Optional[str] = None,
    kill_at: Optional[float] = None,
    verify: bool = False,
    batch_size: int = 512,
    mode: str = "batched",
) -> ReplayOutcome:
    """Pump ``workload`` through a served deployment; optionally crash+restore.

    ``kill_at`` is the fraction of events after which the service is
    killed (e.g. ``0.5`` — mid-stream, between checkpoints). Requires a
    ``checkpoint_dir`` and ``config.checkpoint_every > 0`` so there is
    something to restore.
    """
    kill_index: Optional[int] = None
    if kill_at is not None:
        if checkpoint_dir is None or config.checkpoint_every <= 0:
            raise ValueError("kill_at needs checkpoint_dir and checkpoint_every > 0")
        kill_index = max(0, min(len(workload.events), int(len(workload.events) * kill_at)))
    server, client, _port = await _boot(
        engine_factory, config, checkpoint_dir, restore=False
    )
    resumed_pass: Optional[LoadReport] = None
    checkpoints_restored: Dict[str, int] = {}
    try:
        if kill_index is None:
            first_pass = await run_ingest(
                client, workload, mode=mode, batch_size=batch_size
            )
            merged = first_pass.merged_result()
        else:
            truncated = Workload(
                sessions=workload.sessions,
                fluents=workload.fluents,
                events=workload.events[:kill_index],
                end_time=workload.end_time,
            )
            first_pass = await run_ingest(
                client, truncated, mode=mode, batch_size=batch_size, final_query=False
            )
            await client.close()
            await server.kill()
            server, client, _port = await _boot(
                engine_factory, config, checkpoint_dir, restore=True
            )
            for name, managed in server.manager.sessions.items():
                checkpoints_restored[name] = managed.counters.windows
            offsets = await applied_event_offsets(client, workload)
            resumed = resume_workload(workload, offsets)
            resumed_pass = await run_ingest(
                client, resumed, mode=mode, batch_size=batch_size
            )
            merged = resumed_pass.merged_result()
    finally:
        await client.close()
        await server.stop()
    outcome = ReplayOutcome(
        first_pass=first_pass,
        resumed_pass=resumed_pass,
        merged=merged,
        killed_at_event=kill_index,
        checkpoints_restored=checkpoints_restored,
    )
    if verify:
        await _verify(outcome, engine_factory, workload, config, mode, batch_size)
    return outcome


async def _verify(
    outcome: ReplayOutcome,
    engine_factory: EngineFactory,
    workload: Workload,
    config: SessionConfig,
    mode: str,
    batch_size: int,
) -> None:
    """Compare against an uninterrupted served run and a direct session run."""
    server, client, _port = await _boot(engine_factory, config, None, restore=False)
    try:
        uninterrupted = await run_ingest(
            client, workload, mode=mode, batch_size=batch_size
        )
    finally:
        await client.close()
        await server.stop()
    expected = uninterrupted.merged_result().to_json()
    actual = outcome.merged.to_json()
    details = []
    if actual == expected:
        details.append("served run matches uninterrupted served run")
        outcome.verified = True
    else:
        details.append("MISMATCH versus uninterrupted served run")
        outcome.verified = False
    reference = reference_merged(engine_factory, workload, config)
    if actual == reference.to_json():
        details.append("matches direct RTECSession reference")
    else:
        details.append("MISMATCH versus direct RTECSession reference")
        outcome.verified = False
    outcome.verify_detail = "; ".join(details)


def reference_merged(
    engine_factory: EngineFactory,
    workload: Workload,
    config: SessionConfig,
) -> RecognitionResult:
    """Drive every session directly (no service) and union the detections."""
    engines = engine_factory()
    merged = RecognitionResult()
    step = config.resolved_step()
    for name in workload.sessions:
        fluents = InputFluents()
        for fname, fvp, pairs in workload.fluents:
            if fname == name:
                fluents.set(
                    parse_event_term(fvp),
                    IntervalList((int(start), int(end)) for start, end in pairs),
                )
        events = [
            Event(time, parse_event_term(term))
            for ename, time, term in workload.events
            if ename == name
        ]
        result = drive_reference_session(
            engines[name],
            events,
            fluents,
            config.window,
            step,
            end=workload.end_time,
        )
        for pair, intervals in result.items():
            merged.merge(pair, intervals)
    return merged


def drive_reference_session(
    engine: RTECEngine,
    events: "List[Event]",
    input_fluents: Optional[InputFluents],
    window: int,
    step: int,
    end: Optional[int] = None,
    incremental: bool = False,
) -> RecognitionResult:
    """An uninterrupted :class:`RTECSession` run under the service's policy.

    Same cadence as the session worker: fluents first, then events in
    time order with advances at every step-grid boundary their timestamps
    cross, then a grid-walked final advance to ``end`` (default: the last
    event time). The serving tests compare served output against this.
    ``incremental`` defaults to off — the reference is the full-window
    recomputation oracle, so comparing a served (incremental) run against
    it is also a cross-mode equality check of the delta evaluation.
    """
    session = RTECSession(engine, window, incremental=incremental)
    next_query: Optional[int] = None

    def grid_after(time: int) -> int:
        return (time // step + 1) * step

    if input_fluents is not None:
        for pair, intervals in input_fluents.items():
            session.submit_fluent(pair, intervals)
            if next_query is None and intervals:
                next_query = grid_after(intervals.span[0])
    last_time: Optional[int] = None
    for event in events:
        if next_query is None:
            next_query = grid_after(event.time)
        while event.time > next_query:
            session.advance(next_query)
            next_query += step
        session.submit((event,))
        last_time = event.time if last_time is None else max(last_time, event.time)
    if end is None:
        end = last_time if last_time is not None else 0
    if next_query is not None:
        while next_query < end:
            session.advance(next_query)
            next_query += step
    if session.last_query_time is None or end > session.last_query_time:
        session.advance(end)
    return session.result


def reference_result(
    engine: RTECEngine,
    stream: EventStream,
    input_fluents: Optional[InputFluents],
    config: SessionConfig,
    end: Optional[int] = None,
) -> RecognitionResult:
    """Convenience wrapper: drive the unsplit stream under the service policy."""
    return drive_reference_session(
        engine,
        list(stream),
        input_fluents,
        config.window,
        config.resolved_step(),
        end=end,
    )
