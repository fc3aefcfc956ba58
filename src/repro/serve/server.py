"""Asyncio front end: JSON-lines over TCP sockets or stdin/stdout.

:class:`RecognitionServer` is a thin framing-and-dispatch layer over a
:class:`~repro.serve.sessions.SessionManager`: it reads one request per
line, routes it, and writes at most one response line. Event ingest is
fire-and-forget on success (responses are only written for rejections,
errors, or when the client asks for an ack), which keeps the per-event
cost on the hot path to a JSON parse, a route lookup and a queue append.

The same dispatcher serves both transports, so a pipeline like::

    repro replay --gold fleet --emit | repro serve --stdio --gold fleet

exercises exactly the code paths of a long-lived TCP deployment.
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

__all__ = ["RecognitionServer"]

#: Above this many bytes per line, the reader rejects instead of buffering.
_LINE_LIMIT = MAX_LINE_BYTES

#: Protocol error codes counted as ``protocol.reject``: junk the framing
#: layer turned into a structured response instead of a torn connection.
_REJECT_CODES = frozenset({"bad-json", "oversized"})


class RecognitionServer:
    """Serve one :class:`SessionManager` over TCP and/or stdio."""

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager
        self.shutdown_requested: "asyncio.Event" = asyncio.Event()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._connections: "Set[asyncio.StreamWriter]" = set()
        self._connection_tasks: "Set[asyncio.Task[None]]" = set()

    # -- transports ------------------------------------------------------------

    async def start_tcp(self, host: str, port: int) -> int:
        """Begin accepting TCP connections; returns the bound port."""
        self.manager.start()
        self._tcp_server = await asyncio.start_server(
            self.handle_connection, host, port, limit=_LINE_LIMIT
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def serve_tcp(self, host: str, port: int) -> None:
        """Serve until a ``shutdown`` request arrives, then drain and stop."""
        bound = await self.start_tcp(host, port)
        print("serving RTEC recognition on %s:%d" % (host, bound), file=sys.stderr)
        await self.shutdown_requested.wait()
        await self.stop()

    async def serve_stdio(self) -> None:
        """Serve one implicit connection on stdin/stdout until EOF or shutdown.

        A regular file or ``/dev/null``, which the loop cannot poll, is read
        or written with blocking calls (:class:`_ReadyFile`)."""
        self.manager.start()
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
        connection = asyncio.ensure_future(self.handle_connection(reader, writer))
        shutdown = asyncio.ensure_future(self.shutdown_requested.wait())
        # A signal must not wait for stdin EOF: race the connection against
        # the shutdown event, then stop the manager either way (its workers
        # write their graceful final checkpoints there).
        await asyncio.wait({connection, shutdown}, return_when=asyncio.FIRST_COMPLETED)
        if not connection.done():
            connection.cancel()
            try:
                await connection
            except asyncio.CancelledError:
                pass
        shutdown.cancel()
        await self.manager.stop()

    def install_signal_handlers(self) -> None:
        """Turn SIGTERM/SIGINT into a graceful shutdown request.

        The serving coroutines react to :attr:`shutdown_requested` by
        draining and stopping the manager, whose session workers write a
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
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        await self._close_connections()
        await self.manager.stop()

    async def kill(self) -> None:
        """Crash simulation: drop connections and abort workers, no checkpoint."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        await self._close_connections()
        await self.manager.kill()

    async def _close_connections(self) -> None:
        """End open connections by EOF so their handler tasks return.

        Cancelling a ``start_server`` handler task instead would trip
        asyncio's streams callback ("Exception in callback ...") at loop
        teardown; closing the transports lets every handler finish its
        read loop and exit normally before the loop goes away.
        """
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass
        current = asyncio.current_task()
        pending = [task for task in self._connection_tasks if task is not current]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- connection handling ---------------------------------------------------

    async def handle_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self._connections.add(writer)
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
                response = await self.dispatch_line(line)
                if response is not None:
                    writer.write(encode(response))
                    if writer.transport.get_write_buffer_size() > _LINE_LIMIT:
                        await writer.drain()
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def dispatch_line(self, line: bytes) -> Optional[Dict[str, Any]]:
        """Handle one request line; ``None`` means no response is due."""
        try:
            message = decode_line(line)
            return await self.dispatch(message)
        except ProtocolError as exc:
            if exc.code in _REJECT_CODES:
                telemetry.count("protocol.reject")
            return error_response(exc.code, exc.message)
        except CheckpointError as exc:
            return error_response("checkpoint-failed", str(exc))
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill the server
            return error_response("internal", "%s: %s" % (exc.__class__.__name__, exc))

    async def dispatch(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = message["type"]
        if kind == "event":
            managed = self.manager.get(require_session(message))
            time = require_time(message.get("time"))
            term = message.get("term")
            if not isinstance(term, str):
                raise ProtocolError("bad-request", "event 'term' must be a string")
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
        if kind == "shutdown":
            self.shutdown_requested.set()
            return ok_response(type="shutdown")
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
