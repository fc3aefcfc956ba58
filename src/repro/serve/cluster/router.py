"""The cluster router: placement, forwarding, heartbeats, failover.

The router owns two listening sockets. The *control* port accepts exactly
one connection per worker — the worker dials in, registers, and the same
socket then carries router-originated protocol requests (heartbeat
``status`` polls, ``attach``, ``shutdown``), one request/reply at a time
under a per-worker lock. The *data* port speaks the ordinary JSON-lines
protocol to clients; every session-addressed line is decoded just enough
to read its ``session``, routed to the worker hosting it, and forwarded
*verbatim* over a per-client upstream connection. A name the router has
never hosted is answered ``no-such-session``, as one process answers it.
Worker responses stream back verbatim on the same path, so a cluster is
byte-compatible with a single process — per-connection FIFO order
included, which the load generator's sentinel accounting relies on.

A session is placed once, on a least-loaded live worker (load is the
number of sessions hosted; rendezvous hashing breaks ties), and moves only
when its worker dies. Two router-level behaviours sit on top of forwarding:

* **status merge** — a client ``status`` is never forwarded as-is; the
  router fans it out to every live worker (through the client's own
  upstreams where they exist, so the reply orders after all previously
  forwarded traffic; over the control channel otherwise) and replies with
  the union of all sessions plus a ``workers`` section of per-worker
  liveness, session counts and last-heartbeat queue depths.
* **failover** — a worker that misses :data:`HEARTBEAT_MISSES` heartbeats,
  drops its control connection, or whose process dies is declared dead:
  each of its sessions is re-placed among the survivors and attached
  there with ``restore`` (latest checkpoint) and a bumped fencing lease.
  While a session moves, its traffic is held at a gate instead
  of being bounced — clients see added latency, not errors.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set

from repro import telemetry
from repro.rtec.partition import rendezvous_owner
from repro.serve.cluster.engines import EngineSpec
from repro.serve.cluster.worker import worker_main
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    RETRY_AFTER,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
    read_protocol_lines,
    require_session,
)
from repro.serve.sessions import SessionConfig

__all__ = ["ClusterRouter", "WorkerHandle"]

#: Seconds between heartbeat ``status`` polls of each worker.
HEARTBEAT_INTERVAL = 1.0

#: Consecutive failed polls after which a worker is declared dead.
HEARTBEAT_MISSES = 3

#: Message types carrying a ``session`` that are forwarded to workers.
_ROUTED = frozenset({"event", "events", "fluent", "query", "checkpoint"})

#: Protocol error codes counted as ``protocol.reject`` (mirrors the server).
_REJECT_CODES = frozenset({"bad-json", "oversized"})


@dataclass
class WorkerHandle:
    """The router's view of one worker process."""

    worker_id: str
    port: int = 0
    pid: int = 0
    process: Optional[Any] = None
    reader: Optional["asyncio.StreamReader"] = None
    writer: Optional["asyncio.StreamWriter"] = None
    lock: "asyncio.Lock" = field(default_factory=asyncio.Lock)
    alive: bool = False
    sessions: Set[str] = field(default_factory=set)
    missed_heartbeats: int = 0
    last_status: Dict[str, Any] = field(default_factory=dict)
    registered: "asyncio.Event" = field(default_factory=asyncio.Event)

    async def control_request(
        self, message: Dict[str, Any], timeout: float = 30.0
    ) -> Dict[str, Any]:
        """One request/reply round-trip on the control channel."""
        if self.reader is None or self.writer is None:
            raise ConnectionError("worker %s has no control channel" % self.worker_id)
        async with self.lock:
            self.writer.write(encode(message))
            await self.writer.drain()
            line = await asyncio.wait_for(self.reader.readline(), timeout)
        if not line:
            raise ConnectionError("worker %s closed its control channel" % self.worker_id)
        return json.loads(line)

    def queue_depth(self) -> int:
        """Deepest session ingest queue at the last heartbeat."""
        depth = 0
        for status in self.last_status.get("sessions", {}).values():
            depth = max(depth, int(status.get("queue_depth", 0)))
        return depth


class _Upstream:
    """One router→worker data connection serving one client connection."""

    def __init__(
        self, worker_id: str, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        self.worker_id = worker_id
        self.reader = reader
        self.writer = writer
        #: Futures awaiting router-originated ``status`` replies, FIFO.
        self.status_waiters: Deque["asyncio.Future[Dict[str, Any]]"] = deque()
        #: Forwarded lines still expecting a reply (acked ingest, queries).
        self.pending_replies = 0
        self.pump: Optional["asyncio.Task[None]"] = None


class ClusterRouter:
    """Spawn, place, forward, heartbeat, and fail over a worker fleet."""

    def __init__(
        self,
        engine_spec: EngineSpec,
        config: SessionConfig,
        workers: int = 2,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.engine_spec = engine_spec
        self.config = config
        self.checkpoint_dir = checkpoint_dir
        self.workers: Dict[str, WorkerHandle] = {
            "w%d" % index: WorkerHandle("w%d" % index) for index in range(workers)
        }
        self.routes: Dict[str, str] = {}
        #: Every session this router has hosted, with its fencing lease.
        self.leases: Dict[str, int] = {}
        #: Failover gates: present while a session is moving; traffic waits.
        self.gates: Dict[str, "asyncio.Event"] = {}
        self.shutdown_requested: "asyncio.Event" = asyncio.Event()
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._data_server: Optional[asyncio.AbstractServer] = None
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._failing_over: Set[str] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Spawn the fleet, await registrations, open the data port."""
        self._control_server = await asyncio.start_server(
            self._handle_registration, host, 0, limit=MAX_LINE_BYTES
        )
        control_port = self._control_server.sockets[0].getsockname()[1]
        context = multiprocessing.get_context("spawn")
        for handle in self.workers.values():
            process = context.Process(
                target=worker_main,
                args=(
                    handle.worker_id,
                    host,
                    control_port,
                    self.engine_spec.to_dict(),
                    _config_payload(self.config),
                    self.checkpoint_dir,
                ),
                daemon=True,
            )
            process.start()
            handle.process = process
        await asyncio.gather(
            *(
                asyncio.wait_for(handle.registered.wait(), timeout=60.0)
                for handle in self.workers.values()
            )
        )
        self._data_server = await asyncio.start_server(
            self._handle_client, host, port, limit=MAX_LINE_BYTES
        )
        self._heartbeat_task = asyncio.get_running_loop().create_task(self._heartbeat())
        return self._data_server.sockets[0].getsockname()[1]

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Serve until a ``shutdown`` request (or signal) arrives, then stop."""
        bound = await self.start(host, port)
        print(
            "serving RTEC recognition on %s:%d (%d workers)"
            % (host, bound, len(self.workers)),
            file=sys.stderr,
        )
        await self.shutdown_requested.wait()
        await self.stop()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful stop (workers checkpoint)."""
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break

    async def stop(self) -> None:
        """Graceful cluster stop: every worker checkpoints and exits."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        if self._data_server is not None:
            self._data_server.close()
            await self._data_server.wait_closed()
            self._data_server = None
        for handle in self.workers.values():
            if not handle.alive:
                continue
            try:
                await handle.control_request({"type": "shutdown"}, timeout=60.0)
            except (ConnectionError, asyncio.TimeoutError, ValueError):
                pass
            handle.alive = False
        loop = asyncio.get_running_loop()
        for handle in self.workers.values():
            if handle.writer is not None:
                handle.writer.close()
                handle.writer = None
            process = handle.process
            if process is not None:
                await loop.run_in_executor(None, process.join, 30)
                if process.is_alive():
                    process.kill()
                    await loop.run_in_executor(None, process.join, 5)
                handle.process = None
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None

    # -- registration & heartbeats ---------------------------------------------

    async def _handle_registration(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            line = await reader.readline()
            message = decode_line(line)
            if message.get("type") != "register":
                raise ProtocolError("bad-request", "expected a 'register' message")
            worker_id = message.get("worker")
            handle = self.workers.get(worker_id) if isinstance(worker_id, str) else None
            if handle is None:
                raise ProtocolError("bad-request", "unknown worker %r" % worker_id)
            handle.port = int(message.get("port", 0))
            handle.pid = int(message.get("pid", 0))
            handle.reader = reader
            handle.writer = writer
            handle.alive = True
            writer.write(encode(ok_response(type="registered", worker=worker_id)))
            await writer.drain()
            handle.registered.set()
            # The connection stays open as the control channel; replies are
            # read inside control_request, never here.
        except (ProtocolError, ValueError, ConnectionError) as exc:
            try:
                writer.write(encode(error_response("bad-request", str(exc))))
                await writer.drain()
                writer.close()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _heartbeat(self) -> None:
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            dead: List[str] = []
            for handle in self.workers.values():
                if not handle.alive:
                    continue
                if handle.process is not None and not handle.process.is_alive():
                    dead.append(handle.worker_id)
                    continue
                if handle.lock.locked():
                    # A control exchange (attach, shutdown) is in flight;
                    # don't queue a poll behind a long checkpoint.
                    continue
                try:
                    status = await handle.control_request(
                        {"type": "status"}, timeout=10.0
                    )
                    handle.last_status = status
                    handle.missed_heartbeats = 0
                except (ConnectionError, asyncio.TimeoutError, ValueError):
                    handle.missed_heartbeats += 1
                    if handle.missed_heartbeats >= HEARTBEAT_MISSES:
                        dead.append(handle.worker_id)
            for worker_id in dead:
                telemetry.count("cluster.worker_deaths")
                await self.failover(worker_id)

    # -- placement -------------------------------------------------------------

    def live_workers(self) -> List[str]:
        return sorted(wid for wid, handle in self.workers.items() if handle.alive)

    def placement(self) -> Dict[str, List[str]]:
        """Current session placement, worker id → sorted session names."""
        return {
            wid: sorted(handle.sessions) for wid, handle in self.workers.items()
        }

    def _place(self, session: str) -> str:
        """Load-aware rendezvous: least-loaded live workers, hash tie-break.

        Pure rendezvous hashing balances poorly at fleet-scale-few (four
        sessions can all land on one of two workers); restricting the hash
        to the live workers hosting the fewest sessions bounds the imbalance
        while keeping placement deterministic for everything the hash does
        decide. Every session of a router runs the same engine spec, so a
        session count is the load.
        """
        live = self.live_workers()
        if not live:
            raise RuntimeError("no live workers to place sessions on")
        low = min(len(self.workers[wid].sessions) for wid in live)
        candidates = [wid for wid in live if len(self.workers[wid].sessions) == low]
        return rendezvous_owner(session, candidates)

    async def assign_sessions(self, names: List[str], restore: bool = False) -> None:
        """Pre-attach ``names`` across the fleet, balanced and deterministic."""
        for name in names:
            if name in self.routes:
                continue
            await self._attach(name, self._place(name), restore=restore)

    async def _attach(self, session: str, worker_id: str, restore: bool) -> None:
        handle = self.workers[worker_id]
        lease = self.leases.setdefault(session, 1)
        reply = await handle.control_request({
            "type": "attach",
            "session": session,
            "restore": restore,
            "lease": lease,
        })
        if not reply.get("ok"):
            raise RuntimeError(
                "attach of %r on %s failed: %r" % (session, worker_id, reply)
            )
        handle.sessions.add(session)
        self.routes[session] = worker_id

    # -- failure handling ------------------------------------------------------

    async def kill_worker(self, worker_id: str) -> None:
        """Drill: SIGKILL one worker, then restore its sessions elsewhere."""
        handle = self.workers[worker_id]
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            await asyncio.get_running_loop().run_in_executor(None, process.join, 30)
        await self.failover(worker_id)

    async def failover(self, worker_id: str) -> List[str]:
        """Declare ``worker_id`` dead; restore its sessions onto survivors.

        Every orphaned session is re-placed by rendezvous among the live
        workers and attached with ``restore`` (latest checkpoint) under a
        bumped lease, so a zombie instance of the dead worker can never
        overwrite the new owner's checkpoints.
        """
        if worker_id in self._failing_over:
            return []
        self._failing_over.add(worker_id)
        try:
            handle = self.workers[worker_id]
            handle.alive = False
            if handle.writer is not None:
                handle.writer.close()
                handle.writer = None
                handle.reader = None
            orphaned = sorted(handle.sessions)
            handle.sessions = set()
            if not orphaned:
                return []
            survivors = self.live_workers()
            if not survivors:
                raise RuntimeError(
                    "worker %s died with no survivors to restore onto" % worker_id
                )
            for session in orphaned:
                gate = asyncio.Event()
                self.gates[session] = gate
                try:
                    self.routes.pop(session, None)
                    self.leases[session] = self.leases.get(session, 1) + 1
                    await self._attach(session, self._place(session), restore=True)
                    telemetry.count("cluster.failovers")
                finally:
                    del self.gates[session]
                    gate.set()
            return orphaned
        finally:
            self._failing_over.discard(worker_id)

    # -- data plane ------------------------------------------------------------

    async def _route(self, session: str) -> WorkerHandle:
        """The live worker owning ``session``.

        A hosted session whose failover attach failed has a lease but no
        route: it is attached again, from its latest checkpoint. A name
        this router never hosted is not a session.
        """
        while True:
            gate = self.gates.get(session)
            if gate is not None:
                await gate.wait()
                continue
            worker_id = self.routes.get(session)
            if worker_id is None:
                if session not in self.leases:
                    raise ProtocolError("no-such-session", "unknown session %r" % session)
                await self._attach(
                    session,
                    self._place(session),
                    restore=self.checkpoint_dir is not None,
                )
                continue
            handle = self.workers[worker_id]
            if handle.alive:
                return handle
            # Routed to a worker that just died: wait for failover to
            # re-place it (the heartbeat task or kill_worker drives that).
            await asyncio.sleep(HEARTBEAT_INTERVAL / 2)

    async def _handle_client(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        upstreams: Dict[str, _Upstream] = {}
        try:
            async for line in read_protocol_lines(reader, MAX_LINE_BYTES):
                if self.shutdown_requested.is_set():
                    break
                if line is None:
                    telemetry.count("protocol.reject")
                    writer.write(encode(error_response(
                        "oversized", "line exceeds %d bytes" % MAX_LINE_BYTES
                    )))
                    continue
                if line.isspace():
                    continue
                response = await self._dispatch_client_line(line, writer, upstreams)
                if response is not None:
                    writer.write(encode(response))
                    if writer.transport.get_write_buffer_size() > MAX_LINE_BYTES:
                        await writer.drain()
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for upstream in upstreams.values():
                if upstream.pump is not None:
                    upstream.pump.cancel()
                try:
                    upstream.writer.close()
                except (ConnectionResetError, BrokenPipeError, RuntimeError):
                    pass
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def _dispatch_client_line(
        self,
        line: bytes,
        writer: "asyncio.StreamWriter",
        upstreams: Dict[str, _Upstream],
    ) -> Optional[Dict[str, Any]]:
        try:
            message = decode_line(line)
            kind = message["type"]
            if kind in _ROUTED:
                session = require_session(message)
                handle = await self._route(session)
                upstream = await self._upstream(handle, writer, upstreams)
                if message.get("ack") or kind in ("query", "checkpoint"):
                    upstream.pending_replies += 1
                upstream.writer.write(line + b"\n")
                if upstream.writer.transport.get_write_buffer_size() > MAX_LINE_BYTES:
                    await upstream.writer.drain()
                telemetry.count("cluster.forwarded")
                return None
            if kind == "status":
                return await self._merged_status(writer, upstreams)
            if kind == "shutdown":
                self.shutdown_requested.set()
                return ok_response(type="shutdown")
            raise ProtocolError("bad-request", "unknown message type %r" % kind)
        except ProtocolError as exc:
            if exc.code in _REJECT_CODES:
                telemetry.count("protocol.reject")
            return error_response(exc.code, exc.message)
        except (ConnectionError, asyncio.TimeoutError) as exc:
            return error_response(
                "backpressure",
                "cluster is reconfiguring: %s" % exc,
                retry_after=RETRY_AFTER,
            )
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill the router
            return error_response("internal", "%s: %s" % (exc.__class__.__name__, exc))

    async def _upstream(
        self,
        handle: WorkerHandle,
        client_writer: "asyncio.StreamWriter",
        upstreams: Dict[str, _Upstream],
    ) -> _Upstream:
        upstream = upstreams.get(handle.worker_id)
        if upstream is not None:
            return upstream
        reader, writer = await asyncio.open_connection("127.0.0.1", handle.port)
        upstream = _Upstream(handle.worker_id, reader, writer)
        upstream.pump = asyncio.get_running_loop().create_task(
            self._pump(upstream, client_writer)
        )
        upstreams[handle.worker_id] = upstream
        return upstream

    async def _pump(
        self, upstream: _Upstream, client_writer: "asyncio.StreamWriter"
    ) -> None:
        """Forward one worker's responses to the client, verbatim.

        The only router-originated traffic on an upstream is the ``status``
        fan-out, so a status-shaped reply resolves the oldest waiter
        instead of reaching the client. On connection loss with replies
        still owed (the worker died mid-drill), synthesized retryable
        rejections unblock a stop-and-wait client, which then retries
        through the re-routed path.
        """
        try:
            async for line in read_protocol_lines(upstream.reader, MAX_LINE_BYTES):
                if line is None:
                    continue
                if b'"type":"status"' in line and upstream.status_waiters:
                    waiter = upstream.status_waiters.popleft()
                    if not waiter.done():
                        waiter.set_result(json.loads(line))
                    continue
                if upstream.pending_replies > 0:
                    upstream.pending_replies -= 1
                client_writer.write(line + b"\n")
                if client_writer.transport.get_write_buffer_size() > MAX_LINE_BYTES:
                    await client_writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        while upstream.status_waiters:
            waiter = upstream.status_waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    ConnectionError("worker %s connection lost" % upstream.worker_id)
                )
        if upstream.pending_replies > 0:
            rejection = encode(error_response(
                "backpressure",
                "worker %s connection lost" % upstream.worker_id,
                retry_after=RETRY_AFTER,
            ))
            try:
                for _ in range(upstream.pending_replies):
                    client_writer.write(rejection)
                await client_writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            upstream.pending_replies = 0

    async def _merged_status(
        self,
        client_writer: "asyncio.StreamWriter",
        upstreams: Dict[str, _Upstream],
    ) -> Dict[str, Any]:
        """Fan a client ``status`` out to the fleet and merge the replies.

        Workers this client has traffic in flight to are polled *through
        those upstreams*, so the reply orders after every previously
        forwarded line — preserving the single-process sentinel guarantee
        that a status response proves all prior rejections were delivered.
        """
        pending: List["asyncio.Future[Dict[str, Any]]"] = []
        polled: Set[str] = set()
        for upstream in upstreams.values():
            handle = self.workers.get(upstream.worker_id)
            if handle is None or not handle.alive:
                continue
            waiter: "asyncio.Future[Dict[str, Any]]" = (
                asyncio.get_running_loop().create_future()
            )
            upstream.status_waiters.append(waiter)
            upstream.writer.write(encode({"type": "status"}))
            await upstream.writer.drain()
            pending.append(waiter)
            polled.add(upstream.worker_id)
        sessions: Dict[str, Any] = {}
        replies = await asyncio.gather(*pending, return_exceptions=True)
        for reply in replies:
            if isinstance(reply, BaseException):
                continue
            sessions.update(reply.get("sessions", {}))
        for worker_id, handle in self.workers.items():
            if worker_id in polled or not handle.alive:
                continue
            try:
                reply = await handle.control_request({"type": "status"}, timeout=30.0)
            except (ConnectionError, asyncio.TimeoutError, ValueError):
                continue
            sessions.update(reply.get("sessions", {}))
        workers = {
            worker_id: {
                "alive": handle.alive,
                "pid": handle.pid,
                "port": handle.port,
                "sessions": len(handle.sessions),
                "queue_depth": handle.queue_depth(),
                "ingested": sum(
                    int(status.get("ingested", 0))
                    for status in handle.last_status.get("sessions", {}).values()
                ),
            }
            for worker_id, handle in self.workers.items()
        }
        return ok_response(
            type="status",
            sessions=sessions,
            workers=workers,
            checkpoint_dir=self.checkpoint_dir,
        )


def _config_payload(config: SessionConfig) -> Dict[str, Any]:
    """A JSON-able ``SessionConfig`` for the spawn boundary."""
    from dataclasses import asdict

    return asdict(config)
