"""Asyncio front end: JSON-lines over TCP sockets or stdin/stdout.

:class:`LineServer` is the one front end of every endpoint: listening, the
connection loop (one request per line, at most one response line each, in
order), decoding, the ``shutdown`` verb, structured error replies, signal
handling and serving until shutdown. An endpoint supplies its
:meth:`~LineServer.dispatch` and the start and stop of what sits behind
its socket: :class:`RecognitionServer` a
:class:`~repro.serve.sessions.SessionManager` (``WorkerServer`` adds
``attach``), :class:`~repro.serve.cluster.router.ClusterRouter` a worker
fleet it forwards routed lines to.

Event ingest is fire-and-forget on success (responses are only written
for rejections, errors, or when the client asks for an ack), which keeps
the per-event cost on the hot path to a JSON parse, a route lookup and a
queue append. The same dispatcher serves both transports, so a pipeline
like::

    repro replay --gold fleet --emit | repro serve --stdio --gold fleet

exercises the code paths of a long-lived TCP deployment, with one
difference: a stdio peer cannot retry, so there ingest waits for room in
a full session queue instead of answering ``backpressure``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import stat
import sys
from typing import Any, Dict, Optional, Set

from repro import telemetry
from repro.serve.checkpoint import CheckpointError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
    read_protocol_lines,
    require_intervals,
    require_session,
    require_time,
)
from repro.serve.sessions import SessionManager

__all__ = ["Connection", "LineServer", "RecognitionServer"]

#: Above this many bytes per line, the reader rejects instead of buffering.
_LINE_LIMIT = MAX_LINE_BYTES

#: Protocol error codes counted as ``protocol.reject``: junk the framing
#: layer turned into a structured response instead of a torn connection.
_REJECT_CODES = frozenset({"bad-json", "oversized"})


def close_quietly(writer: Any) -> None:
    """Close a stream writer whose peer may already be gone."""
    try:
        writer.close()
    except (ConnectionResetError, BrokenPipeError, RuntimeError):
        pass


class Connection:
    """One client connection of the shared loop, as :meth:`LineServer.dispatch`
    sees it."""

    def __init__(self, writer: Any, waits: bool = False) -> None:
        self.writer = writer
        #: Ingest waits out backpressure instead of rejecting: a stdio peer
        #: cannot retry, so a rejection there would lose the events.
        self.waits = waits

    def close(self) -> None:
        close_quietly(self.writer)


class LineServer:
    """One JSON-lines endpoint: transports, connection loop, error replies.

    Subclasses implement :meth:`dispatch`, :meth:`_start_backend` and
    :meth:`_stop_backend`, and may keep per-connection state in a
    :class:`Connection` subclass named by :attr:`connection_type`.
    """

    #: What the connection loop builds for each connection it serves.
    connection_type = Connection

    def __init__(self) -> None:
        self.shutdown_requested: "asyncio.Event" = asyncio.Event()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._connections: "Set[Connection]" = set()
        self._connection_tasks: "Set[asyncio.Task[None]]" = set()

    # -- what sits behind the socket -------------------------------------------

    async def _start_backend(self) -> None:
        raise NotImplementedError

    async def _stop_backend(self) -> None:
        raise NotImplementedError

    async def dispatch(
        self,
        message: Dict[str, Any],
        line: bytes = b"",
        connection: Optional[Connection] = None,
    ) -> Optional[Dict[str, Any]]:
        """Answer one decoded request (``line`` is its raw bytes); ``None``
        means no response is due."""
        raise NotImplementedError

    # -- transports ------------------------------------------------------------

    async def start_tcp(self, host: str, port: int) -> int:
        """Start the backend, then accept TCP connections; returns the bound port."""
        await self._start_backend()
        self._tcp_server = await asyncio.start_server(
            self.handle_connection, host, port, limit=_LINE_LIMIT
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def serve_tcp(self, host: str, port: int) -> None:
        """Serve until a ``shutdown`` request (or signal) arrives, then stop."""
        try:
            bound = await self.start_tcp(host, port)
            print("serving RTEC recognition on %s:%d" % (host, bound), file=sys.stderr)
            await self.shutdown_requested.wait()
        finally:
            await self.stop()

    async def serve_stdio(self) -> None:
        """Serve one implicit connection on stdin/stdout until EOF or shutdown.

        A regular file or ``/dev/null``, which the loop cannot poll, is read
        or written with blocking calls (:class:`_ReadyFile`)."""
        await self._start_backend()
        loop = asyncio.get_running_loop()
        reader: Any = asyncio.StreamReader(limit=_LINE_LIMIT)
        if _pollable(sys.stdin):
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
            )
        else:
            reader = _ReadyFile(sys.stdin)
        writer: Any = _ReadyFile(sys.stdout)
        if _pollable(sys.stdout):
            transport, protocol = await loop.connect_write_pipe(
                asyncio.streams.FlowControlMixin, sys.stdout
            )
            writer = asyncio.StreamWriter(transport, protocol, None, loop)
        await self.serve(reader, writer, waits=True)

    async def serve(self, reader: Any, writer: Any, waits: bool = False) -> None:
        """Serve one connection until it ends or shutdown is requested, then stop.

        A signal must not wait for the peer's EOF: the connection races the
        shutdown event, and :meth:`stop` runs either way (session workers
        write their graceful final checkpoints there)."""
        connection = asyncio.ensure_future(self.handle_connection(reader, writer, waits))
        shutdown = asyncio.ensure_future(self.shutdown_requested.wait())
        await asyncio.wait({connection, shutdown}, return_when=asyncio.FIRST_COMPLETED)
        if not connection.done():
            connection.cancel()
            try:
                await connection
            except asyncio.CancelledError:
                pass
        shutdown.cancel()
        await self.stop()

    def install_signal_handlers(self) -> None:
        """Turn SIGTERM/SIGINT into a graceful shutdown request.

        The serving coroutines react to :attr:`shutdown_requested` by
        draining and stopping the backend, whose session workers write a
        final checkpoint each — so an operator ``kill`` (or Ctrl-C) leaves
        every live session restorable, not just those that happened to hit
        their every-k-windows cadence.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                # Platforms without loop signal support (or non-main
                # threads) keep the default handlers.
                break

    async def stop(self) -> None:
        """Stop listening, end every connection, then stop the backend."""
        await self._close_front()
        await self._stop_backend()

    async def _close_front(self) -> None:
        server, self._tcp_server = self._tcp_server, None
        if server is not None:
            server.close()
        await self._close_connections()
        if server is not None:
            # Since Python 3.12 this also waits for every open connection,
            # so it comes after they are closed.
            await server.wait_closed()

    async def _close_connections(self) -> None:
        """End open connections by EOF so their handler tasks return.

        Cancelling a ``start_server`` handler task instead would trip
        asyncio's streams callback ("Exception in callback ...") at loop
        teardown; closing the transports lets every handler finish its
        read loop and exit normally before the loop goes away.
        """
        for connection in list(self._connections):
            close_quietly(connection.writer)
        current = asyncio.current_task()
        pending = [task for task in self._connection_tasks if task is not current]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- connection handling ---------------------------------------------------

    async def handle_connection(
        self, reader: Any, writer: Any, waits: bool = False
    ) -> None:
        connection = self.connection_type(writer, waits)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self._connections.add(connection)
        try:
            async for line in read_protocol_lines(reader, _LINE_LIMIT):
                if self.shutdown_requested.is_set():
                    break
                if line is None:
                    telemetry.count("protocol.reject")
                    writer.write(encode(error_response(
                        "oversized", "line exceeds %d bytes" % _LINE_LIMIT
                    )))
                    continue
                if line.isspace():
                    continue
                response = await self.dispatch_line(line, connection)
                if response is not None:
                    writer.write(encode(response))
                    if writer.transport.get_write_buffer_size() > _LINE_LIMIT:
                        await writer.drain()
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(connection)
            if task is not None:
                self._connection_tasks.discard(task)
            connection.close()

    async def dispatch_line(
        self, line: bytes, connection: Optional[Connection] = None
    ) -> Optional[Dict[str, Any]]:
        """Handle one request line; ``None`` means no response is due."""
        try:
            message = decode_line(line)
            if message["type"] == "shutdown":
                self.shutdown_requested.set()
                return ok_response(type="shutdown")
            return await self.dispatch(message, line, connection)
        except ProtocolError as exc:
            if exc.code in _REJECT_CODES:
                telemetry.count("protocol.reject")
            return error_response(exc.code, exc.message)
        except CheckpointError as exc:
            return error_response("checkpoint-failed", str(exc))
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill the server
            return error_response("internal", "%s: %s" % (exc.__class__.__name__, exc))


class RecognitionServer(LineServer):
    """Serve one :class:`SessionManager` over TCP and/or stdio."""

    def __init__(self, manager: SessionManager) -> None:
        super().__init__()
        self.manager = manager

    async def _start_backend(self) -> None:
        self.manager.start()

    async def _stop_backend(self) -> None:
        await self.manager.stop()

    async def kill(self) -> None:
        """Crash simulation: drop connections and abort workers, no checkpoint."""
        await self._close_front()
        await self.manager.kill()

    async def dispatch(
        self,
        message: Dict[str, Any],
        line: bytes = b"",
        connection: Optional[Connection] = None,
    ) -> Optional[Dict[str, Any]]:
        kind = message["type"]
        waits = connection is not None and connection.waits
        if kind == "event":
            managed = self.manager.get(require_session(message))
            time = require_time(message.get("time"))
            term = message.get("term")
            if not isinstance(term, str):
                raise ProtocolError("bad-request", "event 'term' must be a string")
            if waits:
                await managed.room_for(1)
            rejection = managed.offer_events([(time, term)])
            if rejection is not None:
                rejection.setdefault("seq", message.get("seq"))
                return error_response(
                    rejection.pop("error"), rejection.pop("message"), **rejection
                )
            if message.get("ack"):
                return ok_response(seq=message.get("seq"))
            return None
        if kind == "events":
            managed = self.manager.get(require_session(message))
            raw = message.get("batch")
            if not isinstance(raw, list):
                raise ProtocolError("bad-request", "'batch' must be a list of [time, term]")
            batch = []
            for item in raw:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise ProtocolError("bad-request", "'batch' items are [time, term] pairs")
                time, term = item
                if not isinstance(term, str):
                    raise ProtocolError("bad-request", "event 'term' must be a string")
                batch.append((require_time(time), term))
            if waits:
                await managed.room_for(len(batch))
            rejection = managed.offer_events(batch)
            if rejection is not None:
                rejection.setdefault("seq", message.get("seq"))
                return error_response(
                    rejection.pop("error"), rejection.pop("message"), **rejection
                )
            if message.get("ack"):
                return ok_response(seq=message.get("seq"), accepted=len(batch))
            return None
        if kind == "fluent":
            managed = self.manager.get(require_session(message))
            fvp = message.get("fvp")
            if not isinstance(fvp, str):
                raise ProtocolError("bad-request", "fluent 'fvp' must be a string")
            intervals = require_intervals(message.get("intervals"))
            if waits:
                await managed.room_for(1)
            rejection = managed.offer_fluent(fvp, intervals)
            if rejection is not None:
                return error_response(
                    rejection.pop("error"), rejection.pop("message"), **rejection
                )
            if message.get("ack"):
                return ok_response(seq=message.get("seq"))
            return None
        if kind == "query":
            managed = self.manager.get(require_session(message))
            at = message.get("at")
            if at is not None:
                at = require_time(at)
            payload = await managed.query(at=at, fvp=message.get("fvp"))
            return ok_response(type="result", session=managed.name, **payload)
        if kind == "checkpoint":
            managed = self.manager.get(require_session(message))
            payload = await managed.checkpoint()
            return ok_response(type="checkpoint", session=managed.name, **payload)
        if kind == "status":
            name = message.get("session")
            if name is not None:
                managed = self.manager.get(require_session(message))
                return ok_response(
                    type="status", sessions={managed.name: managed.status()}
                )
            return ok_response(type="status", **self.manager.status())
        raise ProtocolError("bad-request", "unknown message type %r" % kind)


def _pollable(stream: Any) -> bool:
    """Whether the event loop can wait on ``stream``'s descriptor."""
    mode = os.fstat(stream.fileno()).st_mode
    return stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode) or stream.isatty()


class _ReadyFile:
    """A regular file or ``/dev/null`` as the stdio connection's reader or
    writer: it never waits on a peer, so a blocking call returns at once."""

    def __init__(self, stream: Any) -> None:
        self._fd = stream.fileno()
        self.transport = self  # for get_write_buffer_size

    async def read(self, size: int) -> bytes:
        await asyncio.sleep(0)  # let the session workers drain between chunks
        return os.read(self._fd, size)

    def write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]

    def get_write_buffer_size(self) -> int:
        return 0

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass
