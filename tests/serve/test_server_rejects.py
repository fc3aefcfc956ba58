"""Malformed and oversized input must not tear down a connection.

The framing layer turns junk into structured ``{"ok": false, ...}``
responses — counted under the ``protocol.reject`` telemetry counter — and
keeps serving the same socket. These tests drive a live TCP server with
garbage between valid requests and assert the session survives; the
structured-rejection cases run again through a two-worker router, which
must send the same bytes.
"""

import asyncio
import json
import threading

import pytest

from repro import telemetry
from repro.serve import MAX_LINE_BYTES, SessionConfig, SessionManager, read_protocol_lines
from repro.serve.cluster import ClusterRouter, EngineSpec
from repro.serve.cluster.engines import soak_engine
from repro.serve.server import RecognitionServer


async def _with_server(run):
    manager = SessionManager()
    manager.add_session("s", soak_engine(), SessionConfig(window=60, step=60))
    server = RecognitionServer(manager)
    port = await server.start_tcp("127.0.0.1", 0)
    return await _connected(port, run, server)


async def _connected(port, run, server=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await run(reader, writer)
    finally:
        writer.close()
        if server is not None:
            await server.stop()


async def _request(reader, writer, payload: bytes):
    writer.write(payload)
    await writer.drain()
    return json.loads(await reader.readline())


#: A line of each kind of junk: bad JSON, oversized, no type, unknown type.
_JUNK = (
    b"this is not json\n",
    b'{"type": "status", "pad": "' + b"x" * (MAX_LINE_BYTES + 64) + b'"}\n',
    b'{"session": "s"}\n',
    b'{"type": "frobnicate"}\n',
)


async def _junk_replies(reader, writer):
    """The raw reply to each junk line, then whether the connection serves."""
    replies = []
    for line in _JUNK:
        writer.write(line)
        await writer.drain()
        replies.append(await reader.readline())
    status = await _request(reader, writer, b'{"type": "status"}\n')
    return replies, status["ok"]


class TestStructuredRejection:
    def serve(self, run):
        """Run ``run(reader, writer)`` on a connection to a fresh server."""
        return asyncio.run(_with_server(run))

    def test_bad_json_gets_error_response_and_connection_survives(self):
        async def run(reader, writer):
            first = await _request(reader, writer, b"this is not json\n")
            second = await _request(reader, writer, b'{"type": "status"}\n')
            return first, second

        first, second = self.serve(run)
        assert first["ok"] is False
        assert first["error"] == "bad-json"
        assert second["ok"] is True
        assert "s" in second["sessions"]

    def test_oversized_line_gets_error_response_and_connection_survives(self):
        async def run(reader, writer):
            huge = b'{"type": "status", "pad": "' + b"x" * (MAX_LINE_BYTES + 64) + b'"}\n'
            first = await _request(reader, writer, huge)
            second = await _request(reader, writer, b'{"type": "status"}\n')
            return first, second

        first, second = self.serve(run)
        assert first["ok"] is False
        assert first["error"] == "oversized"
        assert second["ok"] is True

    def test_rejections_are_counted(self):
        async def run(reader, writer):
            await _request(reader, writer, b"junk\n")
            huge = b"y" * (MAX_LINE_BYTES + 1) + b"\n"
            await _request(reader, writer, huge)
            await _request(reader, writer, b'{"type": "status"}\n')

        with telemetry.enabled() as tracer:
            self.serve(run)
        assert tracer.counters.get("protocol.reject") == 2

    def test_unknown_type_is_not_a_framing_reject(self):
        async def run(reader, writer):
            return await _request(reader, writer, b'{"type": "frobnicate"}\n')

        with telemetry.enabled() as tracer:
            response = self.serve(run)
        assert response["ok"] is False
        assert tracer.counters.get("protocol.reject") is None

    def test_junk_gets_the_bytes_one_process_sends(self):
        replies, serving = self.serve(_junk_replies)
        assert serving is True
        assert [json.loads(reply)["error"] for reply in replies] == [
            "bad-json", "oversized", "bad-request", "bad-request"
        ]
        assert replies == asyncio.run(_with_server(_junk_replies))[0]


class TestStructuredRejectionThroughARouter(TestStructuredRejection):
    """The same cases through one two-worker router: the router runs the
    front end one process runs, so it answers junk with the same bytes."""

    @pytest.fixture(scope="class", autouse=True)
    def router(self, request):
        # One router for the class, on its own loop: every test connects to it.
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        router = ClusterRouter(
            EngineSpec("repro.serve.cluster.engines:soak_engine"),
            SessionConfig(window=60, step=60),
            workers=2,
            sessions=["s"],
        )
        try:
            request.cls.port = asyncio.run_coroutine_threadsafe(
                router.start_tcp("127.0.0.1", 0), loop
            ).result(120)
            yield
        finally:
            asyncio.run_coroutine_threadsafe(router.stop(), loop).result(120)
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()

    def serve(self, run):
        return asyncio.run(_connected(self.port, run))


class TestMalformedFluent:
    """A malformed ``fluent`` line is dropped and counted, like a malformed
    event term; it must not fail the tenant."""

    def _deliver(self, line: bytes):
        async def run(reader, writer):
            reply = await _request(reader, writer, line)
            query = await _request(
                reader, writer, b'{"type": "query", "session": "s", "at": 60}\n'
            )
            status = await _request(reader, writer, b'{"type": "status"}\n')
            return reply, query, status["sessions"]["s"]

        return asyncio.run(_with_server(run))

    def test_unparsable_fvp_is_dropped_and_the_session_keeps_serving(self):
        reply, query, status = self._deliver(
            b'{"type":"fluent","session":"s","fvp":"oops((=true",'
            b'"intervals":[[1,5]],"ack":true}\n'
        )
        assert reply["ok"] is True  # parsing is deferred off the accept path
        assert query["ok"] is True
        assert status["failure"] is None
        assert status["invalid"] == 1
        assert status["applied"] == 1

    def test_inverted_interval_is_a_bad_request(self):
        reply, query, status = self._deliver(
            b'{"type":"fluent","session":"s","fvp":"p(a, b)=true",'
            b'"intervals":[[9,3]],"ack":true}\n'
        )
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"
        assert query["ok"] is True
        assert status["failure"] is None
        assert status["applied"] == 0

    def test_inverted_interval_reaching_the_worker_is_dropped(self):
        # Front ends other than the socket enqueue without the wire check.
        async def run():
            manager = SessionManager()
            managed = manager.add_session(
                "s", soak_engine(), SessionConfig(window=60, step=60)
            )
            manager.start()
            try:
                managed.offer_fluent("p(a, b)=true", [(9, 3)])
                await managed.query(at=60)
                return managed.status()
            finally:
                await manager.stop()

        status = asyncio.run(run())
        assert status["failure"] is None
        assert status["invalid"] == 1
        assert status["applied"] == 1


class TestMalformedQueryFvp:
    """A ``query`` naming something that is not an FVP is the client's
    ``bad-request``; it used to raise on the session worker, fail the tenant
    and leave the client without a reply."""

    def _query(self, fvp):
        async def run(reader, writer):
            line = json.dumps({"type": "query", "session": "s", "at": 60, "fvp": fvp})
            reply = await asyncio.wait_for(_request(reader, writer, line.encode() + b"\n"), 10)
            again = await _request(
                reader, writer,
                b'{"type":"query","session":"s","at":120,"fvp":"p(a, b)=true"}\n',
            )
            status = await _request(reader, writer, b'{"type": "status"}\n')
            return reply, again, status["sessions"]["s"]

        return asyncio.run(_with_server(run))

    def test_unparsable_fvp(self):
        reply, again, status = self._query("notanfvp(")
        assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert (again["ok"], again["intervals"], again["last_query"]) == (True, [], 120)
        assert status["failure"] is None

    def test_term_that_is_not_a_pair(self):
        reply, again, status = self._query("foo(bar)")
        assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert again["ok"] is True
        assert status["failure"] is None

    def test_non_string_fvp(self):
        reply, again, _status = self._query(7)
        assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert again["ok"] is True


class TestLineScanner:
    def _scan(self, chunks, limit):
        async def run():
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            reader.feed_eof()
            return [line async for line in read_protocol_lines(reader, limit)]

        return asyncio.run(run())

    def test_plain_lines_come_back_verbatim(self):
        assert self._scan([b"a\nbb\n", b"ccc\n"], limit=64) == [b"a", b"bb", b"ccc"]

    def test_oversized_terminated_line_yields_none_once(self):
        payload = b"x" * 100 + b"\nok\n"
        assert self._scan([payload], limit=10) == [None, b"ok"]

    def test_oversized_line_split_across_chunks(self):
        chunks = [b"x" * 40, b"y" * 40, b"z\nafter\n"]
        assert self._scan(chunks, limit=16) == [None, b"after"]

    def test_final_unterminated_line_is_yielded(self):
        assert self._scan([b"one\ntail"], limit=64) == [b"one", b"tail"]

    def test_final_unterminated_oversized_line_is_rejected(self):
        assert self._scan([b"one\n" + b"t" * 99], limit=16) == [b"one", None]

    def test_blank_lines_are_skipped(self):
        assert self._scan([b"\n\na\n\n"], limit=64) == [b"a"]
