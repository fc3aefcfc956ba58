"""Multi-session hosting: routing, cadence, backpressure, checkpoints.

The :class:`SessionManager` hosts one :class:`~repro.rtec.session.RTECSession`
per named tenant (one event description each) and decouples *ingest* from
*reasoning*, mirroring RTEC's run-time design: accepting an event only
appends it to a bounded queue, while recognition runs at query times on a
configurable cadence, its cost governed by the window omega rather than by
the arrival rate.

Each managed session owns an ingest queue and a single worker task — the
only mutator of its ``RTECSession``, so no locks are needed. The worker
applies queued items in arrival order and fires a window advance whenever
an event's timestamp crosses the next point of the session's step grid
(:meth:`~repro.rtec.session.RTECSession.due`), so the advance schedule is a
pure function of the item sequence — the property the checkpoint/restore
equivalence guarantee rests on. Window evaluation runs in a thread pool
executor so other sessions keep ingesting while one session reasons.

Backpressure: once a session's queue reaches its high-water mark, further
events are rejected with a ``retry_after`` hint instead of being buffered
— a slow evaluator translates into client-visible pushback, never into
unbounded queue growth.

Malformed event terms and fluent deliveries discovered on the worker
(parsing is deferred off the accept path) are dropped and counted
(``invalid`` in ``status``) rather than failing the session; only internal
evaluation errors mark a session as failed, and a failed session rejects
further traffic without affecting its neighbours.

Checkpoints: every ``checkpoint_every`` windows (and on demand, and on
graceful shutdown) the worker snapshots the session — a cheap copy of its
containers — records how many input items had been applied, and persists
both via :mod:`repro.serve.checkpoint` (a file that grows with the stream).
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.intervals import IntervalList
from repro.logic.terms import Term
from repro.rtec.engine import RTECEngine
from repro.rtec.result import RecognitionResult
from repro.rtec.session import RTECSession
from repro.rtec.stream import Event
from repro.serve import checkpoint as checkpointing
from repro.serve.protocol import RETRY_AFTER, ProtocolError, parse_event_term, require_fvp

__all__ = ["SessionConfig", "ManagedSession", "SessionManager"]


@dataclass
class SessionConfig:
    """Per-session serving parameters."""

    #: RTEC's omega: the sliding-window extent, in stream time units.
    window: int
    #: Query-time cadence; advances fire on multiples of ``step`` as event
    #: time crosses them. Defaults to the window (tumbling windows).
    step: Optional[int] = None
    #: Ingest-queue high-water mark: events beyond this are rejected.
    high_water: int = 8192
    #: Write a checkpoint every this many windows (0: only on demand).
    checkpoint_every: int = 0
    #: Incremental (delta) window evaluation (``RTECSession(incremental=)``).
    #: Off forces full-window recomputation on every advance (the oracle).
    incremental: bool = True
    #: Certificate-gated admission (``RTECEngine.certificate``, read off the
    #: engine's one analysis; a strict engine has it from load): ``"off"``
    #: skips it, ``"warn"`` (default) records admission warnings in the
    #: session status for a description whose analysis reports an error or
    #: leaky fluents (RTEC027/028), and ``"require"`` rejects such a
    #: description at session creation.
    certify: str = "warn"


_STOP = object()

#: Worker batch cap: how many queued items are drained per wakeup.
_DRAIN_LIMIT = 2048

_EVENT = 0
_FLUENT = 1
_QUERY = 2
_CHECKPOINT = 3


@dataclass
class _Counters:
    ingested: int = 0
    rejected: int = 0
    dropped: int = 0
    invalid: int = 0
    applied: int = 0
    windows: int = 0
    checkpoints: int = 0
    queue_peak: int = 0


class ManagedSession:
    """One hosted tenant: an engine, its online session, queue and worker."""

    def __init__(
        self,
        name: str,
        engine: RTECEngine,
        config: SessionConfig,
        checkpoint_dir: Optional[str] = None,
        owner: Optional[str] = None,
        lease: Optional[int] = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.config = config
        self.checkpoint_dir = checkpoint_dir
        #: Cluster bookkeeping: the worker hosting this session and its
        #: fencing lease (see :func:`repro.serve.checkpoint.write_checkpoint`).
        #: Both stay ``None`` outside a cluster, keeping writes unfenced.
        self.owner = owner
        self.lease = lease
        self.session = RTECSession(
            engine, config.window, config.step, incremental=config.incremental
        )
        self.description_digest = checkpointing.description_hash(engine.description)
        #: The description's analysis certificate (None when admission is off).
        self.certificate = None
        #: Why admission flagged this description (empty = clean or off).
        self.admission_warnings: List[str] = []
        if config.certify not in ("off", "warn", "require"):
            raise ValueError(
                "certify must be 'off', 'warn' or 'require', not %r" % config.certify
            )
        if config.certify != "off":
            certificate = engine.certificate()
            self.certificate = certificate
            if not certificate.certified:
                self.admission_warnings.append(
                    "description is uncertifiable (base analysis errors)"
                )
            if not certificate.memory_bounded:
                self.admission_warnings.append(
                    "description has leaky fluents: %s"
                    % ", ".join(certificate.leaky_fluents)
                )
            if self.admission_warnings and config.certify == "require":
                raise ValueError(
                    "session %r rejected by certificate-gated admission: %s"
                    % (name, "; ".join(self.admission_warnings))
                )
        self.counters = _Counters()
        #: Checkpoint encoder state; the worker awaits each write: one writer.
        self._sealed: checkpointing.SealedText = {}
        #: Newer checkpoint files a restore could not read and passed over.
        self.restore_skipped: List[str] = []
        self.failure: Optional[str] = None
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue()
        #: Awaited by :meth:`room_for`; the worker resolves it each time it
        #: goes back to the queue for more.
        self._room: "Optional[asyncio.Future[None]]" = None
        self._task: Optional["asyncio.Task[None]"] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._worker())

    async def stop(self) -> None:
        if self._task is not None:
            await self.queue.put(_STOP)
            await self._task
            self._task = None

    async def kill(self) -> None:
        """Abort the worker without the graceful shutdown checkpoint.

        Simulates a crash for the kill-and-restore tests: whatever the
        latest on-disk checkpoint says is all a restart gets.
        """
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def adopt(self, loaded: checkpointing.Checkpoint) -> None:
        """Continue from a checkpoint (must be called before :meth:`start`)."""
        if loaded.description_hash != self.description_digest:
            raise checkpointing.CheckpointError(
                "checkpoint %s was produced by a different event description"
                % (loaded.path or loaded.session)
            )
        self.session.restore(loaded.snapshot)
        self.counters.applied = loaded.applied
        self.counters.windows = loaded.windows

    # -- ingest (called from connection handlers) ------------------------------

    def offer_events(self, batch: List[Tuple[int, str]]) -> Optional[Dict[str, Any]]:
        """Enqueue events, or return a rejection response.

        The batch is accepted or rejected atomically; acceptance is only a
        queue append — parsing and recognition happen on the worker.
        """
        if self.failure is not None:
            return {"error": "failed", "message": self.failure}
        depth = self.queue.qsize()
        if depth + len(batch) > self.config.high_water:
            self.counters.rejected += len(batch)
            if len(batch) > self.config.high_water:
                # no drain makes room for it: a retry hint would loop forever
                return {
                    "error": "batch-too-large",
                    "message": "a batch of %d events exceeds session '%s' "
                    "high-water mark %d: send smaller batches"
                    % (len(batch), self.name, self.config.high_water),
                }
            return {
                "error": "backpressure",
                "message": "session '%s' ingest queue is full" % self.name,
                "retry_after": RETRY_AFTER,
                "queue_depth": depth,
            }
        for time, term_text in batch:
            self.queue.put_nowait((_EVENT, time, term_text))
        depth += len(batch)
        if depth > self.counters.queue_peak:
            self.counters.queue_peak = depth
        return None

    async def room_for(self, size: int) -> None:
        """Wait until ``size`` more items fit under the high-water mark.

        For a peer that cannot retry (stdio): it waits where a socket client
        is answered ``backpressure``. Returns at once for a failed session
        and for a batch that can never fit, whose offer then rejects them.
        """
        high_water = self.config.high_water
        while self.failure is None and size <= high_water < self.queue.qsize() + size:
            if self._room is None:
                self._room = asyncio.get_running_loop().create_future()
            await self._room

    def offer_fluent(
        self, fvp_text: str, intervals: List[Tuple[int, int]]
    ) -> Optional[Dict[str, Any]]:
        if self.failure is not None:
            return {"error": "failed", "message": self.failure}
        depth = self.queue.qsize()
        if depth >= self.config.high_water:
            self.counters.rejected += 1
            return {
                "error": "backpressure",
                "message": "session '%s' ingest queue is full" % self.name,
                "retry_after": RETRY_AFTER,
                "queue_depth": depth,
            }
        self.queue.put_nowait((_FLUENT, fvp_text, intervals))
        return None

    async def query(
        self, at: Optional[int] = None, fvp: Optional[str] = None
    ) -> Dict[str, Any]:
        """Detections amalgamated so far (optionally advancing to ``at``).

        Runs on the worker, after everything already queued — a query
        observes every event accepted before it. ``fvp`` is parsed here, on
        the caller's side: a malformed one is the caller's ``bad-request``
        (:class:`ProtocolError`), not a failure of the tenant.
        """
        pair = None if fvp is None else require_fvp(fvp)
        future: "asyncio.Future[Dict[str, Any]]" = asyncio.get_running_loop().create_future()
        await self.queue.put((_QUERY, at, pair, future))
        payload = await future
        if fvp is not None:
            payload["fvp"] = fvp
        return payload

    async def checkpoint(self) -> Dict[str, Any]:
        """Snapshot now (after everything already queued); returns metadata."""
        if self.checkpoint_dir is None:
            raise ProtocolError("no-checkpoint-dir", "service started without --checkpoint-dir")
        future: "asyncio.Future[Dict[str, Any]]" = asyncio.get_running_loop().create_future()
        await self.queue.put((_CHECKPOINT, future))
        return await future

    # -- worker ----------------------------------------------------------------

    async def _worker(self) -> None:
        queue = self.queue
        while True:
            room, self._room = self._room, None
            if room is not None and not room.done():
                room.set_result(None)
            item = await queue.get()
            if item is _STOP:
                break
            try:
                stop = await self._apply(item)
                for _ in range(_DRAIN_LIMIT):
                    if stop or queue.empty():
                        break
                    item = queue.get_nowait()
                    if item is _STOP:
                        stop = True
                        break
                    stop = await self._apply(item)
                if stop:
                    break
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - a failed session must not kill the service
                # The item being applied is no longer in the queue, so its
                # client would wait forever: it gets the error itself.
                if item[0] in (_QUERY, _CHECKPOINT) and not item[-1].done():
                    item[-1].set_exception(exc)
                self.failure = "%s: %s" % (exc.__class__.__name__, exc)
                self._reject_pending()
        if self.checkpoint_dir is not None and self.failure is None:
            # Graceful shutdown: persist the final state so a restart
            # resumes exactly here.
            await self._write_checkpoint()

    def _reject_pending(self) -> None:
        while not self.queue.empty():
            item = self.queue.get_nowait()
            if item is _STOP or not isinstance(item, tuple):
                continue
            if item[0] in (_QUERY, _CHECKPOINT) and not item[-1].done():
                item[-1].set_exception(RuntimeError(self.failure or "session failed"))

    async def _apply(self, item: Tuple[Any, ...]) -> bool:
        """Apply one queued item in arrival order; True stops the worker."""
        kind = item[0]
        if kind == _EVENT:
            _kind, time, term_text = item
            try:
                term = parse_event_term(term_text)
            except ProtocolError:
                # A malformed term must not poison a long-lived tenant:
                # drop it, but still count it as applied so checkpointed
                # resume offsets keep matching the recorded stream.
                self.counters.applied += 1
                self.counters.invalid += 1
                return False
            while (due := self.session.due(time)) is not None:
                await self._advance(due)
            event = Event(time, term)
            accepted = self.session.submit((event,))
            self.counters.ingested += 1
            self.counters.applied += 1
            if not accepted:
                self.counters.dropped += 1
        elif kind == _FLUENT:
            _kind, fvp_text, intervals = item
            self.counters.applied += 1
            try:
                pair = parse_event_term(fvp_text)
                interval_list = IntervalList(intervals)
            except ValueError:
                # Like a malformed event term (ProtocolError is a
                # ValueError; IntervalList raises one on end < start).
                self.counters.invalid += 1
                return False
            self.session.submit_fluent(pair, interval_list)
        elif kind == _QUERY:
            _kind, at, pair, future = item
            payload = await self._run_query(at, pair)
            if not future.done():
                future.set_result(payload)
        elif kind == _CHECKPOINT:
            future = item[1]
            payload = await self._write_checkpoint()
            if not future.done():
                future.set_result(payload)
        return False

    async def _run_query(self, at: Optional[int], pair: Optional[Term]) -> Dict[str, Any]:
        last = self.session.last_query_time
        if at is not None and (last is None or at > last):
            # Walk the step grid instead of jumping straight to ``at``: with
            # tumbling windows a direct jump would leave the span between
            # the last window and ``(at - window, at]`` unevaluated, losing
            # intervals of still-open durative states — and it would give
            # sessions that saw fewer events a different advance schedule
            # than the uninterrupted run the equivalence tests compare with.
            while (due := self.session.due(at)) is not None:
                await self._advance(due)
            await self._advance(at)
        result = self.session.result
        payload: Dict[str, Any] = {"last_query": self.session.last_query_time}
        if pair is not None:
            payload["intervals"] = [
                [iv.start, iv.end] for iv in result.holds_for(pair)
            ]
        else:
            payload["fvps"] = result.to_dict()
        return payload

    async def _advance(self, query_time: int) -> None:
        with telemetry.span("serve.advance", session=self.name, query_time=query_time):
            loop = asyncio.get_running_loop()
            # The evaluator runs off-loop so other sessions keep ingesting;
            # this worker awaits it, so the session has a single mutator.
            await loop.run_in_executor(None, self.session.advance, query_time)
        self.counters.windows += 1
        every = self.config.checkpoint_every
        if self.checkpoint_dir is not None and every > 0 and self.counters.windows % every == 0:
            await self._write_checkpoint()

    async def _write_checkpoint(self) -> Dict[str, Any]:
        assert self.checkpoint_dir is not None
        with telemetry.span("serve.checkpoint", session=self.name):
            # Snapshot synchronously (the worker owns the state), persist
            # off-loop (file IO must not stall ingest).
            snapshot = self.session.snapshot()
            applied = self.counters.applied
            windows = self.counters.windows
            loop = asyncio.get_running_loop()
            path = await loop.run_in_executor(
                None,
                lambda: checkpointing.write_checkpoint(
                    self.checkpoint_dir,  # type: ignore[arg-type]
                    self.name,
                    snapshot,
                    applied=applied,
                    windows=windows,
                    description_digest=self.description_digest,
                    owner=self.owner,
                    lease=self.lease,
                    sealed=self._sealed,
                ),
            )
        self.counters.checkpoints += 1
        return {"path": path, "windows": windows, "applied": applied}

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        counters = self.counters
        status: Dict[str, Any] = {
            "window": self.config.window,
            "step": self.session.step,
            "ingested": counters.ingested,
            "applied": counters.applied,
            "rejected": counters.rejected,
            "dropped": counters.dropped,
            "invalid": counters.invalid,
            "windows": counters.windows,
            "checkpoints": counters.checkpoints,
            "queue_depth": self.queue.qsize(),
            "queue_peak": counters.queue_peak,
            "high_water": self.config.high_water,
            "buffered_events": self.session.buffered_events,
            "stored_fluent_intervals": self.session.stored_fluent_intervals,
            "last_query": self.session.last_query_time,
            "next_query": self.session.next_query,
            "fvps": len(self.session.result),
            "description_hash": self.description_digest,
            "failure": self.failure,
            "restore_skipped": list(self.restore_skipped),
            "owner": self.owner,
            "lease": self.lease,
            # Why the time went where it did: advances by evaluation mode and
            # whole-window recomputations by reason (RTECSession.recomputes).
            "advances": dict(self.session.advances),
            "recomputes": dict(self.session.recomputes),
        }
        if self.certificate is not None:
            status["certified"] = self.certificate.certified
            status["delta_safe"] = self.certificate.delta_safe
            status["memory_bounded"] = self.certificate.memory_bounded
        if self.admission_warnings:
            status["admission_warnings"] = list(self.admission_warnings)
        return status

    @property
    def result(self) -> RecognitionResult:
        return self.session.result


class SessionManager:
    """Routes protocol traffic to named sessions and owns their lifecycle."""

    def __init__(
        self, checkpoint_dir: Optional[str] = None, owner: Optional[str] = None
    ) -> None:
        self.checkpoint_dir = checkpoint_dir
        #: Worker identity stamped on every hosted session's checkpoints
        #: (``None`` outside a cluster).
        self.owner = owner
        self.sessions: Dict[str, ManagedSession] = {}

    def add_session(
        self,
        name: str,
        engine: RTECEngine,
        config: SessionConfig,
        restore: bool = False,
        lease: Optional[int] = None,
    ) -> ManagedSession:
        """Host ``engine`` under ``name``; optionally resume its latest checkpoint.

        ``lease``, when given, fences the session's checkpoint writes (a
        cluster bumps it on every ownership transfer). With ``restore`` and
        no explicit lease, the session continues under the lease found in
        the adopted checkpoint.
        """
        if name in self.sessions:
            raise ValueError("session %r already exists" % name)
        managed = ManagedSession(
            name, engine, config, self.checkpoint_dir, owner=self.owner, lease=lease
        )
        if restore and self.checkpoint_dir is not None:
            # The greatest lease first, then the newest: a superseded owner's
            # file can be ahead in sequence number, and every write after
            # adopting it would be fenced.
            found = sorted(
                (checkpointing.lease_of(path), windows, path)
                for windows, path in checkpointing.list_checkpoints(self.checkpoint_dir, name)
            )
            for _lease, _windows, path in reversed(found):
                try:
                    loaded = checkpointing.load_checkpoint(path)
                except checkpointing.TornCheckpointError:
                    # A torn newest file must not keep the session down: the
                    # one before it is a complete, older state of the same run.
                    managed.restore_skipped.append(os.path.basename(path))
                    continue
                managed.adopt(loaded)
                if lease is None and loaded.lease:
                    managed.lease = loaded.lease
                break
        self.sessions[name] = managed
        return managed

    def get(self, name: str) -> ManagedSession:
        managed = self.sessions.get(name)
        if managed is None:
            raise ProtocolError("no-such-session", "unknown session %r" % name)
        return managed

    def start(self) -> None:
        for managed in self.sessions.values():
            managed.start()

    async def stop(self) -> None:
        await asyncio.gather(*(managed.stop() for managed in self.sessions.values()))

    async def kill(self) -> None:
        await asyncio.gather(*(managed.kill() for managed in self.sessions.values()))

    def status(self) -> Dict[str, Any]:
        return {
            "sessions": {name: managed.status() for name, managed in self.sessions.items()},
            "checkpoint_dir": self.checkpoint_dir,
        }
