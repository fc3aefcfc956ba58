"""The JSON-lines wire protocol of the recognition service.

One request or response per line, UTF-8 JSON. Requests carry a ``type``:

``event``
    ``{"type": "event", "session": S, "time": T, "term": "entersArea(v1, a3)"}``
    — one input event for session ``S``. Successful ingest is *not*
    acknowledged (set ``"ack": true`` to force a reply); rejections always
    are, with ``"error": "backpressure"`` and a ``retry_after`` hint in
    seconds once the session's ingest queue passes its high-water mark.
``events``
    ``{"type": "events", "session": S, "batch": [[T, "term"], ...]}`` —
    the batched form; a batch is accepted or rejected atomically.
``fluent``
    ``{"type": "fluent", "session": S, "fvp": "proximity(v1, v2)=true",
    "intervals": [[s, e], ...]}`` — maximal intervals of a durative input.
``query``
    ``{"type": "query", "session": S}`` — the amalgamated detections.
    Optional ``"at": T`` first advances the session to query time ``T``;
    optional ``"fvp": "..."`` restricts the reply to one fluent-value pair.
``checkpoint``
    ``{"type": "checkpoint", "session": S}`` — snapshot the session's
    windowed state to a versioned file; replies with the path.
``status``
    ``{"type": "status"}`` — per-session counters (ingested, applied,
    rejected, windows, queue depth/high-water, last query time, ...).
``shutdown``
    ``{"type": "shutdown"}`` — stop the service after draining (the
    protocol is trusted: the service binds to operator-chosen endpoints).

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": CODE, "message": ...}``.

Events are routed by parsing their term; ground flat terms — the shape of
every real input stream — take a fast path that skips the full Prolog
reader, keeping the ingest budget per event in single-digit microseconds.
"""

from __future__ import annotations

import json
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from repro.logic.parser import ParseError, parse_term
from repro.logic.terms import Compound, Constant, Term, intern_constant, is_fvp, is_ground

__all__ = [
    "MAX_LINE_BYTES",
    "RETRY_AFTER",
    "ProtocolError",
    "decode_line",
    "encode",
    "error_response",
    "ok_response",
    "parse_event_term",
    "read_protocol_lines",
    "require_fvp",
    "require_intervals",
    "require_session",
    "require_time",
]

#: Above this many bytes per line, the reader rejects the line (with a
#: structured ``oversized`` error) instead of buffering it.
MAX_LINE_BYTES = 1 << 20

#: The ``retry_after`` hint (seconds) of every ``backpressure`` rejection.
RETRY_AFTER = 0.05

#: Read granularity of :func:`read_protocol_lines`.
_CHUNK_BYTES = 1 << 16


class ProtocolError(ValueError):
    """A malformed protocol line or field; carries a machine-readable code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-json", "not a JSON line: %s" % exc)
    if not isinstance(message, dict):
        raise ProtocolError("bad-json", "expected a JSON object per line")
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("bad-request", "missing message 'type'")
    return message


async def read_protocol_lines(
    reader: "Any", limit: int = MAX_LINE_BYTES
) -> AsyncIterator[Optional[bytes]]:
    """Yield request lines from an asyncio stream reader, surviving junk.

    Unlike ``StreamReader.readline`` with a ``limit`` — which raises and
    leaves the stream misframed mid-line — this scanner reads in chunks,
    splits on newlines itself, and on an oversized line *discards up to the
    next newline* and yields ``None`` exactly once, so the caller can send
    a structured rejection and keep the connection. Ordinary lines are
    yielded without their trailing newline; empty lines are skipped. The
    final unterminated line (EOF without a newline) is yielded as-is.
    """
    buffer = bytearray()
    overflowed = False
    while True:
        chunk = await reader.read(_CHUNK_BYTES)
        if not chunk:
            break
        buffer.extend(chunk)
        start = 0
        while True:
            newline = buffer.find(b"\n", start)
            if newline < 0:
                break
            line = bytes(buffer[start:newline])
            start = newline + 1
            if overflowed:
                # ``line`` is the tail of a line whose head was already
                # discarded: report the oversize, drop the fragment.
                overflowed = False
                yield None
            elif len(line) > limit:
                yield None
            elif line:
                yield line
        if start:
            del buffer[:start]
        if len(buffer) > limit:
            buffer.clear()
            overflowed = True
    if overflowed:
        yield None
    elif len(buffer) > limit:
        yield None
    elif buffer:
        yield bytes(buffer)


def encode(message: Dict[str, Any]) -> bytes:
    """One response line, compact and key-sorted so output is stable."""
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def ok_response(**fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def error_response(code: str, message: str, **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    response.update(fields)
    return response


# -- event term parsing --------------------------------------------------------

#: Cache of already-parsed event terms. Real streams repeat ground terms
#: (the same vessel re-enters the same area); numeric arguments keep the
#: hit rate from being perfect, so the cache is bounded.
_TERM_CACHE: Dict[str, Term] = {}
_TERM_CACHE_LIMIT = 65536


def parse_event_term(text: str) -> Term:
    """A ground event term from concrete syntax, on the ingest fast path.

    Flat terms (``functor(arg, ...)`` with atomic arguments, or a bare
    atom) are assembled directly; anything nested, quoted or otherwise
    unusual falls back to the full parser. The result is always checked to
    be ground — a term with variables is a protocol error, not an event.
    """
    cached = _TERM_CACHE.get(text)
    if cached is not None:
        return cached
    term = _parse_flat(text)
    if term is None:
        try:
            term = parse_term(text)
        except ParseError as exc:
            raise ProtocolError("bad-term", "unparsable event term %r: %s" % (text, exc))
    if not is_ground(term):
        raise ProtocolError("bad-term", "event terms must be ground: %r" % text)
    _remember(text, term)
    return term


def _remember(text: str, term: Term) -> None:
    if len(_TERM_CACHE) >= _TERM_CACHE_LIMIT:
        _TERM_CACHE.clear()
    _TERM_CACHE[text] = term


def _parse_flat(text: str) -> Optional[Term]:
    """``functor(a, b, 1.5)`` or a bare atom; ``None`` defers to the parser."""
    stripped = text.strip()
    if not stripped or not stripped[0].islower():
        return None
    open_paren = stripped.find("(")
    if open_paren < 0:
        if _is_plain_atom(stripped):
            return intern_constant(stripped)
        return None
    if not stripped.endswith(")"):
        return None
    functor = stripped[:open_paren]
    if not _is_plain_atom(functor):
        return None
    body = stripped[open_paren + 1 : -1]
    if any(ch in body for ch in "()[]'\""):
        return None
    args = []
    for chunk in body.split(","):
        argument = _parse_atomic(chunk.strip())
        if argument is None:
            return None
        args.append(argument)
    if not args:
        return None
    return Compound(functor, tuple(args))


def _parse_atomic(chunk: str) -> Optional[Term]:
    if not chunk:
        return None
    head = chunk[0]
    if head.islower():
        if _is_plain_atom(chunk):
            return intern_constant(chunk)
        return None
    if head.isdigit() or head in "+-.":
        try:
            return Constant(int(chunk))
        except ValueError:
            pass
        try:
            return Constant(float(chunk))
        except ValueError:
            return None
    return None


def _is_plain_atom(name: str) -> bool:
    return bool(name) and name[0].islower() and all(
        ch.isalnum() or ch == "_" for ch in name
    )


# -- field validation ----------------------------------------------------------


def require_session(message: Dict[str, Any]) -> str:
    name = message.get("session")
    if not isinstance(name, str) or not name:
        raise ProtocolError("bad-request", "missing 'session' name")
    return name


def require_time(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("bad-request", "event 'time' must be an integer")
    if value < 0:
        raise ProtocolError("bad-request", "event 'time' must be non-negative")
    return value


def require_fvp(value: Any) -> Term:
    """The ``F=V`` term a ``query`` names, parsed from concrete syntax."""
    if not isinstance(value, str):
        raise ProtocolError("bad-request", "query 'fvp' must be a string")
    # A polling client names one pair at every query: ground ones are cached.
    pair = _TERM_CACHE.get(value)
    if pair is None:
        try:
            pair = parse_term(value)
        except ParseError as exc:
            raise ProtocolError("bad-request", "unparsable query 'fvp' %r: %s" % (value, exc))
        if is_ground(pair):
            _remember(value, pair)
    if not is_fvp(pair):
        raise ProtocolError("bad-request", "query 'fvp' must be an F=V pair, not %r" % value)
    return pair


def require_intervals(value: Any) -> "list[Tuple[int, int]]":
    if not isinstance(value, list):
        raise ProtocolError("bad-request", "'intervals' must be a list of [start, end]")
    pairs = []
    for item in value:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(bound, int) for bound in item)
            or item[0] > item[1]
        ):
            raise ProtocolError(
                "bad-request", "'intervals' must be [start, end] pairs, start <= end"
            )
        pairs.append((item[0], item[1]))
    return pairs
