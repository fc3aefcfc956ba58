"""Workload construction and load generation for the recognition service.

The load generator turns a recognition dataset into protocol traffic:

* :func:`build_workload` splits a dataset's stream across ``sessions``
  tenants by entity component (re-using the partitionability analysis of
  :mod:`repro.rtec.partition`, so co-dependent entities — a proximity
  pair, a tug and its tow — always land in the same session) and can tile
  the stream ``repeat`` times along the timeline for sustained load;
* :class:`ServiceClient` is a minimal asyncio JSON-lines client with
  backpressure-aware retries;
* :func:`run_ingest` pumps a workload through a live service and measures
  sustained ingest (events/second accepted, rejections, retries), then
  collects the final detections with ``query`` messages.

Two pumping modes:

``batched`` (default)
    stop-and-wait batches of ``events`` messages with acks: a rejected
    batch is re-sent after ``retry_after``, so the applied order equals
    the workload order exactly — the mode replay verification uses.
``firehose``
    one fire-and-forget ``event`` line per event, rejections correlated
    by ``seq`` and re-sent after the first pass. Duplicates cannot arise
    (only rejected events are re-sent) but late retries may be applied
    after later events; RTEC's windowing tolerates that, and this mode
    measures the per-message ceiling of the ingest path.
"""

from __future__ import annotations

import asyncio
import json
import random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.logic.pretty import term_to_str
from repro.rtec.description import EventDescription
from repro.rtec.result import RecognitionResult
from repro.rtec.stream import EventStream, InputFluents, partition_input

__all__ = [
    "Workload",
    "build_soak_workload",
    "build_workload",
    "ServiceClient",
    "LoadReport",
    "run_ingest",
]


@dataclass
class Workload:
    """Protocol traffic derived from a dataset, ready to pump."""

    sessions: List[str]
    #: (session, fvp text, [[start, end], ...]) — delivered before events.
    fluents: List[Tuple[str, str, List[List[int]]]]
    #: (session, time, term text) in global time order.
    events: List[Tuple[str, int, str]]
    #: Highest event time (drives the final query).
    end_time: int


def build_workload(
    stream: EventStream,
    input_fluents: Optional[InputFluents],
    description: EventDescription,
    sessions: int = 1,
    session_prefix: str = "s",
    repeat: int = 1,
    limit: Optional[int] = None,
) -> Workload:
    """Split a dataset across ``sessions`` tenants, optionally tiled in time.

    With ``sessions > 1`` the entity components of the stream are assigned
    round-robin; entity-free (global) items are replicated to every
    session, whose identical derivations merge idempotently — the same
    argument that makes entity-sharded recognition exact. Descriptions
    with ``initially/1`` declarations cannot be split this way (each
    session would assert every entity's initial state) and are rejected.

    ``repeat`` tiles the stream ``repeat`` times along the timeline,
    shifting each copy past the previous one — sustained-load runs from a
    finite recording. ``limit`` truncates the final event list.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if input_fluents is None:
        input_fluents = InputFluents()
    names = [
        "%s%d" % (session_prefix, index) if sessions > 1 else session_prefix
        for index in range(sessions)
    ]
    if sessions == 1:
        routed_events = [(names[0], event.time, term_to_str(event.term)) for event in stream]
        routed_fluents = [
            (names[0], term_to_str(pair), [[iv.start, iv.end] for iv in intervals])
            for pair, intervals in input_fluents.items()
        ]
    else:
        if description.initial_fvps:
            raise ValueError(
                "cannot split a description with initially/1 declarations "
                "across sessions"
            )
        analysis = description.partitionability()
        if not analysis.shardable:
            raise ValueError(
                "event description is not entity-shardable; serve it as a "
                "single session: " + "; ".join(analysis.diagnostics)
            )
        shards, global_events, global_fluents = partition_input(
            stream, input_fluents, analysis
        )
        tagged: List[Tuple[int, "Any", str]] = []  # (time, event, session)
        routed_fluents = []
        for index, shard in enumerate(shards):
            name = names[index % sessions]
            for event in shard.events:
                tagged.append((event.time, event, name))
            for pair, intervals in shard.fluents.items():
                routed_fluents.append(
                    (name, term_to_str(pair), [[iv.start, iv.end] for iv in intervals])
                )
        for event in global_events:
            for name in names:
                tagged.append((event.time, event, name))
        for pair, intervals in global_fluents.items():
            pairs = [[iv.start, iv.end] for iv in intervals]
            for name in names:
                routed_fluents.append((name, term_to_str(pair), pairs))
        tagged.sort(key=lambda item: (item[0], repr(item[1].term), item[2]))
        routed_events = [
            (name, event.time, term_to_str(event.term)) for _time_, event, name in tagged
        ]
        routed_fluents.sort()
    end_time = stream.max_time or 0
    if repeat > 1:
        # Tile copies of the stream end to end; fluent intervals shift too.
        period = end_time + 1
        base_events = list(routed_events)
        base_fluents = list(routed_fluents)
        for copy_index in range(1, repeat):
            offset = copy_index * period
            routed_events.extend(
                (name, time + offset, term) for name, time, term in base_events
            )
            routed_fluents.extend(
                (name, fvp, [[start + offset, end + offset] for start, end in pairs])
                for name, fvp, pairs in base_fluents
            )
        end_time = period * repeat - 1
    if limit is not None:
        routed_events = routed_events[:limit]
        end_time = max((time for _name, time, _term in routed_events), default=0)
    return Workload(
        sessions=names,
        fluents=routed_fluents,
        events=routed_events,
        end_time=end_time,
    )


def build_soak_workload(
    sessions: int,
    events_per_session: int = 64,
    entities_per_session: int = 4,
    step: int = 60,
    seed: int = 0,
    session_prefix: str = "soak",
) -> Workload:
    """A synthetic fleet-scale workload over the cluster soak rules.

    Each session hosts ``entities_per_session`` independent entity state
    machines driven by ``start``/``spike``/``stop`` events (the vocabulary
    of :data:`repro.serve.cluster.engines.SOAK_RULES`) with pseudo-random
    but seed-deterministic timestamps on one shared timeline, so the
    events of all sessions interleave in global time order exactly like a
    real multi-tenant stream. The per-event recognition cost is tiny by
    construction — a soak run measures the serving fabric (routing,
    queues, checkpoints) rather than rule evaluation.

    Memory is O(total events); a millions-of-sessions soak is reached by
    pumping this workload repeatedly with fresh ``session_prefix`` ranges,
    each hosted before it is pumped, not by materializing one giant list.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if events_per_session < 1:
        raise ValueError("events_per_session must be >= 1")
    rng = random.Random(seed)
    names = ["%s%d" % (session_prefix, index) for index in range(sessions)]
    cycle = ("start", "spike", "stop")
    tagged: List[Tuple[int, str, str]] = []
    for name in names:
        time = 0
        for count in range(events_per_session):
            time += rng.randrange(1, step)
            entity = "e%d" % (count % entities_per_session)
            kind = cycle[(count // entities_per_session) % len(cycle)]
            tagged.append((time, name, "%s(%s)" % (kind, entity)))
    tagged.sort()
    events = [(name, time, term) for time, name, term in tagged]
    end_time = max(time for time, _name, _term in tagged)
    return Workload(sessions=names, fluents=[], events=events, end_time=end_time)


class ServiceClient:
    """A JSON-lines client: connect, send, await replies, retry on pushback."""

    def __init__(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def post(self, message: Dict[str, Any]) -> None:
        """Fire-and-forget send (no response expected on success)."""
        self.writer.write(
            json.dumps(message, separators=(",", ":")).encode() + b"\n"
        )

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message that always produces a response, and await it."""
        self.post(message)
        await self.writer.drain()
        return await self.read_response()

    async def read_response(self) -> Dict[str, Any]:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)


@dataclass
class LoadReport:
    """What the load generator measured."""

    events_sent: int = 0
    events_accepted: int = 0
    rejections: int = 0
    retries: int = 0
    ingest_seconds: float = 0.0
    drain_seconds: float = 0.0
    queue_peak: int = 0
    results: Dict[str, RecognitionResult] = field(default_factory=dict)
    status: Dict[str, Any] = field(default_factory=dict)

    @property
    def ingest_rate(self) -> float:
        """Accepted events per wall-clock second during the pump phase."""
        if self.ingest_seconds <= 0:
            return 0.0
        return self.events_accepted / self.ingest_seconds

    def merged_result(self) -> RecognitionResult:
        """Union of all sessions' detections (global items dedupe by union)."""
        merged = RecognitionResult()
        for result in self.results.values():
            for pair, intervals in result.items():
                merged.merge(pair, intervals)
        return merged


async def run_ingest(
    client: ServiceClient,
    workload: Workload,
    mode: str = "batched",
    batch_size: int = 512,
    final_query: bool = True,
) -> LoadReport:
    """Pump ``workload`` through ``client`` and collect detections.

    Fluent deliveries are sent in full every time, a resumed workload
    (:func:`repro.serve.replay.resume_workload`) included: sessions clip
    and union them idempotently, so re-delivery is safe and keeps the
    resume protocol stateless.
    """
    if batch_size < 1:
        # an empty batch is acknowledged and the pump never moves on
        raise ValueError("batch_size must be positive, got %r" % (batch_size,))
    report = LoadReport()
    for name, fvp, pairs in workload.fluents:
        response = await client.request(
            {"type": "fluent", "session": name, "fvp": fvp, "intervals": pairs, "ack": True}
        )
        if not response.get("ok"):
            raise RuntimeError("fluent delivery failed: %r" % response)
    started = _time.perf_counter()
    if mode == "batched":
        await _pump_batched(client, workload.events, batch_size, report)
    elif mode == "firehose":
        await _pump_firehose(client, workload.events, report)
    else:
        raise ValueError("unknown load mode %r" % mode)
    report.ingest_seconds = _time.perf_counter() - started
    started = _time.perf_counter()
    if final_query:
        for name in workload.sessions:
            response = await client.request(
                {"type": "query", "session": name, "at": workload.end_time}
            )
            if not response.get("ok"):
                raise RuntimeError("final query failed: %r" % response)
            report.results[name] = RecognitionResult.from_dict(response["fvps"])
    report.drain_seconds = _time.perf_counter() - started
    status = await client.request({"type": "status"})
    report.status = status
    for session_status in status.get("sessions", {}).values():
        report.queue_peak = max(report.queue_peak, session_status.get("queue_peak", 0))
    return report


async def _pump_batched(
    client: ServiceClient,
    events: Sequence[Tuple[str, int, str]],
    batch_size: int,
    report: LoadReport,
) -> None:
    """Stop-and-wait batches per session boundary, preserving global order."""
    index, total = 0, len(events)
    while index < total:
        name = events[index][0]
        upper = index
        batch: List[List[Any]] = []
        while upper < total and events[upper][0] == name and len(batch) < batch_size:
            batch.append([events[upper][1], events[upper][2]])
            upper += 1
        message = {"type": "events", "session": name, "batch": batch, "ack": True}
        while True:
            report.events_sent += len(batch)
            response = await client.request(message)
            if response.get("ok"):
                report.events_accepted += len(batch)
                break
            if response.get("error") == "backpressure":
                report.rejections += len(batch)
                report.retries += 1
                await asyncio.sleep(float(response.get("retry_after", 0.05)))
                continue
            raise RuntimeError("ingest failed: %r" % response)
        index = upper


async def _pump_firehose(
    client: ServiceClient,
    events: Sequence[Tuple[str, int, str]],
    report: LoadReport,
) -> None:
    """One unacked ``event`` line per event; rejected seqs re-sent per pass."""
    pending: List[int] = list(range(len(events)))
    drain_every = 1024
    while pending:
        rejected: List[int] = []
        reader_task = asyncio.ensure_future(
            _collect_rejections(client, rejected)
        )
        for position, seq in enumerate(pending):
            name, time, term = events[seq]
            client.post(
                {"type": "event", "session": name, "time": time, "term": term, "seq": seq}
            )
            report.events_sent += 1
            if position % drain_every == drain_every - 1:
                await client.writer.drain()
        # A sentinel status round-trip marks the end of the pass: once its
        # response arrives, every rejection for this pass has been read.
        client.post({"type": "status"})
        await client.writer.drain()
        await reader_task
        report.rejections += len(rejected)
        report.events_accepted += len(pending) - len(rejected)
        if rejected:
            report.retries += 1
            await asyncio.sleep(0.05)
        pending = sorted(rejected)


async def _collect_rejections(client: ServiceClient, rejected: List[int]) -> None:
    """Read responses until the sentinel ``status`` reply, noting rejections."""
    while True:
        response = await client.read_response()
        if response.get("type") == "status":
            return
        if not response.get("ok") and response.get("seq") is not None:
            rejected.append(int(response["seq"]))
