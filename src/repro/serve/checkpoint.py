"""Durable checkpoints of online recognition sessions.

A checkpoint is one JSON file holding a :class:`~repro.rtec.session.SessionSnapshot`
plus the bookkeeping a restart needs:

* ``version`` — the checkpoint format version (currently 2, which added
  the delta derivation cache and staleness flag of incremental window
  evaluation); a file of any other version is refused;
* ``session`` — the session name;
* ``windows`` — how many windows the session had advanced (also the file's
  monotonically increasing sequence number);
* ``applied`` — how many input items (events and fluent deliveries) the
  service had applied to the session, in arrival order. A replayer that
  recorded its stream resumes ingest at this offset: items in flight but
  not yet applied at the crash are re-sent, items already inside the
  snapshot's buffer are not;
* ``description_hash`` — SHA-256 of the event description's concrete
  syntax. Restoring onto a different description is refused: carried
  initiations and amalgamated intervals are only meaningful against the
  rules that produced them;
* ``owner`` / ``lease`` — optional cluster bookkeeping. ``owner`` names
  the worker that wrote the file; ``lease`` is a monotonically increasing
  fencing token bumped on every ownership transfer (a failover
  restore). A writer presenting a lease below the latest on-disk
  lease is a zombie — its session was moved elsewhere while it was still
  running — and the write is refused instead of clobbering the new
  owner's state. Single-process serving omits both fields (``lease`` is
  then 0) and keeps the unfenced fast path.

Files are named ``<session>-<windows:08d>.json`` and written atomically
(temp file + rename), so the latest complete checkpoint is always loadable
even if the process dies mid-write.

Bounded by omega: the window buffer, the stored input-fluent intervals, the
carried initiations and barriers, the derivation cache, the *time* of an
advance and, for a session, of *encoding* a checkpoint (only what the window
added is rendered, :func:`_render_result`). Not bounded: the amalgamated
result, hence the file's size and the time to copy and write it; and, unless
a ``keep`` budget prunes old files, the fence's directory scan on every write.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.intervals import Interval, IntervalList
from repro.logic.parser import parse_term
from repro.logic.pretty import sorted_by_text, term_to_str
from repro.logic.terms import Term
from repro.rtec.description import EventDescription
from repro.rtec.result import RecognitionResult
from repro.rtec.session import SessionSnapshot
from repro.rtec.stream import Event

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "TornCheckpointError",
    "description_hash",
    "latest_checkpoint",
    "latest_lease",
    "list_checkpoints",
    "load_checkpoint",
    "snapshot_from_dict",
    "snapshot_to_dict",
    "write_checkpoint",
]

CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied."""


class TornCheckpointError(CheckpointError):
    """The file is not a JSON object at all: empty, truncated, overwritten."""


def description_hash(description: EventDescription) -> str:
    """SHA-256 of the description's concrete syntax (restore compatibility key)."""
    return hashlib.sha256(description.to_text().encode()).hexdigest()


@dataclass
class Checkpoint:
    """One loaded checkpoint file."""

    session: str
    windows: int
    applied: int
    description_hash: str
    snapshot: SessionSnapshot
    path: Optional[str] = None
    owner: Optional[str] = None
    lease: int = 0


# -- snapshot (de)serialization ------------------------------------------------


def snapshot_to_dict(snapshot: SessionSnapshot) -> Dict[str, object]:
    """A JSON-ready mapping; terms render to concrete syntax, intervals to pairs."""

    def pairs(mapping: Dict[Term, IntervalList]) -> Dict[str, List[List[int]]]:
        return {
            text: [[iv.start, iv.end] for iv in intervals]
            for text, intervals in sorted_by_text(mapping)
        }

    return {
        "window": snapshot.window,
        "buffer": [[event.time, term_to_str(event.term)] for event in snapshot.buffer],
        "fluents": pairs(snapshot.fluent_intervals),
        "pending": dict(sorted_by_text(snapshot.pending)),
        "barriers": dict(sorted_by_text(snapshot.barriers)),
        "result": snapshot.result.to_dict(),
        "last_query": snapshot.last_query,
        "first_advance": snapshot.first_advance,
        "cache": None if snapshot.derived_cache is None else pairs(snapshot.derived_cache),
        "stale": snapshot.stale,
    }


def snapshot_from_dict(data: Dict[str, object]) -> SessionSnapshot:
    buffer = [
        Event(int(time), parse_term(text)) for time, text in data.get("buffer", [])  # type: ignore[union-attr]
    ]
    fluent_intervals: Dict[Term, IntervalList] = {}
    for text, pairs in dict(data.get("fluents", {})).items():  # type: ignore[arg-type]
        fluent_intervals[parse_term(text)] = IntervalList(
            (int(start), int(end)) for start, end in pairs
        )
    pending = {
        parse_term(text): int(started)
        for text, started in dict(data.get("pending", {})).items()  # type: ignore[arg-type]
    }
    # "barriers" is absent in checkpoints written before deadline barriers
    # existed; such sessions simply restore without them.
    barriers = {
        parse_term(text): int(barrier)
        for text, barrier in dict(data.get("barriers", {})).items()  # type: ignore[arg-type]
    }
    last_query = data.get("last_query")
    # A non-incremental session keeps no derivation cache: the restored
    # session's first advance recomputes the full window, which builds one.
    raw_cache = data.get("cache")
    derived_cache: Optional[Dict[Term, IntervalList]] = None
    if raw_cache is not None:
        derived_cache = {
            parse_term(text): IntervalList(
                (int(start), int(end)) for start, end in pairs
            )
            for text, pairs in dict(raw_cache).items()  # type: ignore[arg-type]
        }
    return SessionSnapshot(
        window=int(data["window"]),  # type: ignore[arg-type]
        buffer=buffer,
        fluent_intervals=fluent_intervals,
        pending=pending,
        barriers=barriers,
        result=RecognitionResult.from_dict(data.get("result", {})),  # type: ignore[arg-type]
        last_query=None if last_query is None else int(last_query),  # type: ignore[arg-type]
        first_advance=bool(data.get("first_advance", False)),
        derived_cache=derived_cache,
        stale=bool(data.get("stale", False)),
    )


#: What a session keeps between checkpoints per FVP of its result: the term's
#: text, the member rendered up to its ``count``-th interval, and that interval.
SealedText = Dict[Term, Tuple[str, str, int, Optional[Interval]]]


def _render_result(result: RecognitionResult, sealed: SealedText) -> str:
    """``json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))``.

    What a session merges starts after its previous query time, so every
    interval of an FVP but its last is final: only what follows the cached
    text is rendered. An entry is trusted while the list still holds its
    last interval at its position; a restored session, or a ``merge`` that
    re-normalised the list, renders the FVP from its first interval again.
    """
    members: Dict[str, str] = {}
    for pair, intervals in result.items():
        items = intervals.raw()
        final = max(len(items) - 1, 0)
        text, member, count, last = sealed.get(pair) or ("", "", 0, None)
        if not member or count > final or (count and items[count - 1] is not last):
            text = term_to_str(pair)
            member, count = json.dumps(text) + ":[", 0
        member += "".join("[%d,%d]," % (iv.start, iv.end) for iv in items[count:final])
        sealed[pair] = (text, member, final, items[final - 1] if final else None)
        members[text] = member + "".join("[%d,%d]" % (iv.start, iv.end) for iv in items[final:])
    return "{%s}" % ",".join(members[text] + "]" for text in sorted(members))


# -- files ---------------------------------------------------------------------


def _checkpoint_name(session: str, windows: int) -> str:
    return "%s-%08d.json" % (session, windows)


_FileIdentity = Tuple[str, int, int, int]

#: ``(directory, session)`` -> the newest checkpoint this process wrote or
#: parsed and the lease inside it. Never trusted without comparing the
#: identity with the file on disk (:func:`latest_lease`).
_PARSED_LEASES: Dict[Tuple[str, str], Tuple[_FileIdentity, int]] = {}


def _file_identity(path: str, descriptor: int) -> _FileIdentity:
    """What tells one complete checkpoint file from any replacement of it."""
    status = os.fstat(descriptor)
    return (path, status.st_ino, status.st_mtime_ns, status.st_size)


def write_checkpoint(
    directory: str,
    session: str,
    snapshot: SessionSnapshot,
    *,
    applied: int,
    windows: int,
    description_digest: str,
    keep: Optional[int] = None,
    owner: Optional[str] = None,
    lease: Optional[int] = None,
    sealed: Optional[SealedText] = None,
) -> str:
    """Write one checkpoint atomically; returns the file path.

    ``keep``, when given, prunes all but the newest ``keep`` checkpoints of
    the session after a successful write.

    ``lease``, when given, enables write fencing: if the newest on-disk
    checkpoint of the session carries a strictly greater lease, the session
    has been handed to a new owner and this (stale) writer is refused with
    :class:`CheckpointError`. ``owner`` labels the file with the writing
    worker for diagnostics; neither field changes the snapshot payload.

    ``sealed`` is the session's encoder state (:func:`_render_result`); it
    changes what a write costs, never a byte of the file.
    """
    os.makedirs(directory, exist_ok=True)
    if lease is not None:
        current = latest_lease(directory, session)
        if current > lease:
            raise CheckpointError(
                "fenced: checkpoint %s lease %d is stale (disk lease is %d)"
                % (session, lease, current)
            )
    payload = {
        "version": CHECKPOINT_VERSION,
        "session": session,
        "windows": windows,
        "applied": applied,
        "description_hash": description_digest,
        "snapshot": snapshot_to_dict(replace(snapshot, result=RecognitionResult())),
    }
    if owner is not None:
        payload["owner"] = owner
    if lease is not None:
        payload["lease"] = lease
    # ``dumps`` runs the C encoder; ``json.dump`` to a file always takes the
    # pure-Python generators (same bytes, five times slower). The result, the
    # one member that grows with the stream, is spliced in from cached text:
    # only booleans and integers follow it, so the last match is the member.
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    head, tail = encoded.rsplit('"result":{}', 1)
    rendered = _render_result(snapshot.result, {} if sealed is None else sealed)
    path = os.path.join(directory, _checkpoint_name(session, windows))
    handle, temp_path = tempfile.mkstemp(
        prefix=".%s-" % session, suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write('%s"result":%s%s' % (head, rendered, tail))
            stream.flush()
            os.fsync(stream.fileno())
            # Taken from the descriptor, before the rename: a stat of ``path``
            # after it could see another owner's replacement of the file and
            # pin this writer's lease to it.
            identity = _file_identity(path, stream.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise CheckpointError("cannot write checkpoint %s: %s" % (path, exc))
    _PARSED_LEASES[(directory, session)] = (identity, lease or 0)
    if keep is not None and keep > 0:
        for _windows, stale in list_checkpoints(directory, session)[:-keep]:
            try:
                os.unlink(stale)
            except OSError:
                pass
    return path


def _sequences(directory: str, session: str) -> Iterator[Tuple[int, str]]:
    """``(sequence number, file name)`` of every complete checkpoint of ``session``."""
    prefix = session + "-"
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        if entry.startswith(prefix) and entry.endswith(".json"):
            sequence = entry[len(prefix) : -len(".json")]
            if sequence.isdigit():
                yield int(sequence), entry


def list_checkpoints(directory: str, session: str) -> List[Tuple[int, str]]:
    """All complete checkpoints of ``session``, oldest first."""
    found = _sequences(directory, session)
    return sorted((number, os.path.join(directory, entry)) for number, entry in found)


def latest_checkpoint(directory: str, session: str) -> Optional[str]:
    """Path of the newest complete checkpoint of ``session``, if any.

    One pass, no path joined, nothing sorted: the fence runs it on every write.
    """
    newest = max(_sequences(directory, session), default=None)
    return None if newest is None else os.path.join(directory, newest[1])


def latest_lease(directory: str, session: str) -> int:
    """The fencing lease of the newest checkpoint of ``session`` (0 if none).

    Unreadable files count as lease 0 rather than an error: fencing guards
    against a *newer* owner, and a torn or missing file cannot prove one.
    The directory is listed and the newest file ``fstat``-ed on every call;
    only the JSON parse is skipped, when that file is the very one this
    process last wrote or parsed for the session.
    """
    path = latest_checkpoint(directory, session)
    if path is None:
        return 0
    try:
        with open(path) as stream:
            identity = _file_identity(path, stream.fileno())
            known = _PARSED_LEASES.get((directory, session))
            if known is not None and known[0] == identity:
                return known[1]
            payload = json.load(stream)
        lease = int(payload.get("lease", 0)) if isinstance(payload, dict) else 0
    except (OSError, TypeError, ValueError):
        return 0
    _PARSED_LEASES[(directory, session)] = (identity, lease)
    return lease


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (OSError, ValueError) as exc:
        raise TornCheckpointError("cannot read checkpoint %s: %s" % (path, exc))
    if not isinstance(payload, dict):
        raise TornCheckpointError(
            "malformed checkpoint %s: not a JSON object" % (path,)
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            "checkpoint %s has format version %r; this build reads version %d"
            % (path, version, CHECKPOINT_VERSION)
        )
    try:
        return Checkpoint(
            session=payload["session"],
            windows=int(payload["windows"]),
            applied=int(payload["applied"]),
            description_hash=payload["description_hash"],
            snapshot=snapshot_from_dict(payload["snapshot"]),
            path=path,
            owner=payload.get("owner"),
            lease=int(payload.get("lease", 0)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError("malformed checkpoint %s: %s" % (path, exc))
