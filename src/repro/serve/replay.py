"""Replay a recorded workload through a live service — with crash drills.

:func:`run_replay` boots a served deployment on a loopback socket — the
in-process :class:`~repro.serve.server.RecognitionServer` for
``workers == 1``, a :class:`~repro.serve.cluster.router.ClusterRouter` in
front of that many worker processes otherwise — pumps a workload through
the JSON-lines protocol, and optionally *crashes* it partway through: the
whole service is killed (no graceful shutdown, workers aborted mid-stream)
and a fresh one restores the latest checkpoints, or the fleet's busiest
worker is SIGKILLed and the router restores its sessions onto the
survivors under bumped leases. Either way ingest resumes from each
checkpoint's ``applied`` offset. With ``verify=True`` the final detections
are compared byte-for-byte (stable JSON) against an uninterrupted
single-process served run and against directly driven
:class:`~repro.rtec.session.RTECSession` runs — the repo's strongest
end-to-end statement of the checkpoint/restore guarantee.

:func:`drive_reference_session` walks the same step grid as the service
worker (:meth:`~repro.rtec.session.RTECSession.due`: the points crossed by
event time, then those before the final query), so the reference run and the
served runs share one window schedule by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.intervals import IntervalList
from repro.rtec.engine import RTECEngine
from repro.rtec.result import RecognitionResult
from repro.rtec.session import RTECSession
from repro.rtec.stream import Event, InputFluents
from repro.serve.loadgen import LoadReport, ServiceClient, Workload, run_ingest
from repro.serve.protocol import parse_event_term
from repro.serve.server import LineServer, RecognitionServer
from repro.serve.sessions import SessionConfig, SessionManager

__all__ = [
    "ReplayOutcome",
    "applied_event_offsets",
    "drive_reference_session",
    "reference_merged",
    "resume_workload",
    "run_replay",
]

#: Returns a fresh engine on every call: one per hosted session, and again
#: after a crash, so a "rebooted process" never shares state with the
#: killed one. :meth:`repro.serve.cluster.engines.EngineSpec.create` is one.
EngineFactory = Callable[[], RTECEngine]


@dataclass
class ReplayOutcome:
    """What a replay run produced and measured."""

    first_pass: LoadReport
    resumed_pass: Optional[LoadReport]
    merged: RecognitionResult
    workers: int
    killed_at_event: Optional[int]
    #: The SIGKILLed fleet worker; ``None`` without a crash and for
    #: ``workers == 1``, where the crash takes the whole service.
    killed_worker: Optional[str] = None
    #: Sessions the crash took down and their checkpoints brought back:
    #: every session for ``workers == 1``, the victim's in a fleet.
    restored_sessions: List[str] = field(default_factory=list)
    #: Worker id → sessions when a fleet run ended (no workers, no entries).
    placement: Dict[str, List[str]] = field(default_factory=dict)
    verified: Optional[bool] = None
    verify_detail: str = ""

    @property
    def final_report(self) -> LoadReport:
        return self.resumed_pass if self.resumed_pass is not None else self.first_pass


async def _boot(
    engine: Any,
    workload: Workload,
    config: SessionConfig,
    workers: int,
    checkpoint_dir: Optional[str],
    restore: bool = False,
) -> Tuple[Any, ServiceClient]:
    """Start the deployment hosting ``workload.sessions``; connect to it."""
    if workers == 1:
        manager = SessionManager(checkpoint_dir=checkpoint_dir)
        for name in workload.sessions:
            manager.add_session(name, engine(), config, restore=restore)
        service: LineServer = RecognitionServer(manager)
    else:
        from repro.serve.cluster import ClusterRouter

        service = ClusterRouter(
            engine, config, workers=workers, checkpoint_dir=checkpoint_dir,
            sessions=workload.sessions,
        )
    try:
        port = await service.start_tcp("127.0.0.1", 0)
    except BaseException:
        await service.stop()
        raise
    return service, await ServiceClient.connect("127.0.0.1", port)


async def _crash(
    service: Any,
    client: ServiceClient,
    engine: Any,
    workload: Workload,
    config: SessionConfig,
    checkpoint_dir: Optional[str],
) -> Tuple[Any, ServiceClient, Optional[str], List[str]]:
    """Crash what serves ``workload`` and bring its sessions back.

    The in-process service dies whole and a fresh one (new engines, new
    socket) restores every session, as ``repro serve --restore`` does; a
    fleet loses its busiest worker to SIGKILL while the router, and the
    client's connection to it, stay up. Returns ``(service, client, killed
    worker, restored sessions)``.
    """
    if isinstance(service, RecognitionServer):
        await client.close()
        await service.kill()
        service, client = await _boot(
            engine, workload, config, 1, checkpoint_dir, restore=True
        )
        return service, client, None, sorted(workload.sessions)
    # max() keeps the first of equals: ties go to the lowest worker id.
    victim = max(
        service.live_workers(), key=lambda wid: len(service.workers[wid].sessions)
    )
    orphaned = sorted(service.workers[victim].sessions)
    await service.kill_worker(victim)
    return service, client, victim, orphaned


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
    engine: Any,
    workload: Workload,
    config: SessionConfig,
    workers: int = 1,
    checkpoint_dir: Optional[str] = None,
    kill_at: Optional[float] = None,
    verify: bool = False,
    batch_size: int = 512,
    mode: str = "batched",
) -> ReplayOutcome:
    """Pump ``workload`` through a served deployment; optionally crash+restore.

    ``engine`` is an :data:`EngineFactory`, or an
    :class:`~repro.serve.cluster.engines.EngineSpec` (whose ``create`` is
    one). ``workers > 1`` spawns processes, which a closure cannot reach:
    it needs the spec.

    ``kill_at`` is the fraction of events, in ``[0, 1]``, after which the
    deployment is crashed (e.g. ``0.5`` — mid-stream, between checkpoints).
    Requires a ``checkpoint_dir`` and ``config.checkpoint_every > 0`` so
    there is something to restore.
    """
    create: EngineFactory = engine if callable(engine) else engine.create
    if workers > 1:
        from repro.serve.cluster import EngineSpec

        if not isinstance(engine, EngineSpec):
            raise ValueError(
                "workers > 1 needs an EngineSpec: worker processes are spawned "
                "and cannot receive %r" % (engine,)
            )
    else:
        engine = create
    kill_index: Optional[int] = None
    if kill_at is not None:
        if checkpoint_dir is None or config.checkpoint_every <= 0:
            raise ValueError("kill_at needs checkpoint_dir and checkpoint_every > 0")
        if not 0 <= kill_at <= 1:
            raise ValueError("kill_at is a fraction in [0, 1], got %r" % (kill_at,))
        kill_index = int(len(workload.events) * kill_at)
    service, client = await _boot(engine, workload, config, workers, checkpoint_dir)
    resumed_pass: Optional[LoadReport] = None
    killed_worker: Optional[str] = None
    restored: List[str] = []
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
            # The first pass is fully acknowledged before the crash, so what
            # the checkpoints miss is exactly what the resume pass re-sends.
            first_pass = await run_ingest(
                client, truncated, mode=mode, batch_size=batch_size, final_query=False
            )
            service, client, killed_worker, restored = await _crash(
                service, client, engine, workload, config, checkpoint_dir
            )
            offsets = await applied_event_offsets(client, workload)
            resumed_pass = await run_ingest(
                client, resume_workload(workload, offsets),
                mode=mode, batch_size=batch_size,
            )
            merged = resumed_pass.merged_result()
        placement = service.placement() if workers > 1 else {}
    finally:
        await client.close()
        await service.stop()
    outcome = ReplayOutcome(
        first_pass=first_pass,
        resumed_pass=resumed_pass,
        merged=merged,
        workers=workers,
        killed_at_event=kill_index,
        killed_worker=killed_worker,
        restored_sessions=restored,
        placement=placement,
    )
    if verify:
        await _verify(outcome, create, workload, config, mode, batch_size)
    return outcome


async def _verify(
    outcome: ReplayOutcome,
    create: EngineFactory,
    workload: Workload,
    config: SessionConfig,
    mode: str,
    batch_size: int,
) -> None:
    """Compare against an uninterrupted single-process run and direct sessions."""
    uninterrupted = await run_replay(
        create, workload, config, mode=mode, batch_size=batch_size
    )
    actual = outcome.merged.to_json()
    details = []
    if actual == uninterrupted.merged.to_json():
        details.append("served run matches uninterrupted single-process run")
        outcome.verified = True
    else:
        details.append("MISMATCH versus uninterrupted single-process run")
        outcome.verified = False
    if actual == reference_merged(create, workload, config).to_json():
        details.append("matches direct RTECSession reference")
    else:
        details.append("MISMATCH versus direct RTECSession reference")
        outcome.verified = False
    outcome.verify_detail = "; ".join(details)


def reference_merged(
    create: EngineFactory,
    workload: Workload,
    config: SessionConfig,
) -> RecognitionResult:
    """Drive every session directly (no service) and union the detections."""
    merged = RecognitionResult()
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
            create(),
            events,
            fluents,
            config.window,
            config.step,
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
    step: Optional[int],
    end: Optional[int] = None,
    incremental: bool = False,
) -> RecognitionResult:
    """An uninterrupted :class:`RTECSession` run under the service's policy.

    Same cadence as the session worker: fluents first, then events in
    time order with advances at every step-grid point their timestamps
    cross, then a grid-walked final advance to ``end`` (default: the last
    event time). The serving tests compare served output against this.
    ``incremental`` defaults to off — the reference is the full-window
    recomputation oracle, so comparing a served (incremental) run against
    it is also a cross-mode equality check of the delta evaluation.
    """
    session = RTECSession(engine, window, step, incremental=incremental)
    if input_fluents is not None:
        for pair, intervals in input_fluents.items():
            session.submit_fluent(pair, intervals)
    last_time: Optional[int] = None
    for event in events:
        while (due := session.due(event.time)) is not None:
            session.advance(due)
        session.submit((event,))
        last_time = event.time if last_time is None else max(last_time, event.time)
    if end is None:
        end = last_time if last_time is not None else 0
    while (due := session.due(end)) is not None:
        session.advance(due)
    if session.last_query_time is None or end > session.last_query_time:
        session.advance(end)
    return session.result
