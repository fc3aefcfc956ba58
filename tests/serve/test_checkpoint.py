"""Unit tests for durable session checkpoints."""

import json
import os
import random

import pytest

from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, RTECEngine
from repro.rtec.session import RTECSession
from repro.serve.checkpoint import (
    _PARSED_LEASES,
    CHECKPOINT_VERSION,
    CheckpointError,
    description_hash,
    latest_checkpoint,
    latest_lease,
    list_checkpoints,
    load_checkpoint,
    snapshot_from_dict,
    snapshot_to_dict,
    write_checkpoint,
)

RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""


def _engine():
    return RTECEngine(EventDescription.from_text(RULES), strict=False)


def _session_with_state():
    session = RTECSession(_engine(), window=20)
    session.submit_fluent(parse_term("speedNear(v1)=true"), IntervalList([(2, 30)]))
    session.submit([Event(5, parse_term("start(v1)"))])
    session.advance(10)
    session.submit([Event(14, parse_term("start(v2)"))])
    return session


class TestSnapshotSerialization:
    def test_round_trip_preserves_state(self):
        session = _session_with_state()
        snapshot = session.snapshot()
        restored = snapshot_from_dict(snapshot_to_dict(snapshot))
        assert restored.window == snapshot.window
        assert restored.last_query == snapshot.last_query
        assert restored.next_query == snapshot.next_query == 20
        assert [(e.time, e.term) for e in restored.buffer] == [
            (e.time, e.term) for e in snapshot.buffer
        ]
        assert restored.pending == snapshot.pending
        assert restored.result == snapshot.result
        assert {
            pair: intervals.as_pairs()
            for pair, intervals in restored.fluent_intervals.items()
        } == {
            pair: intervals.as_pairs()
            for pair, intervals in snapshot.fluent_intervals.items()
        }

    def test_dict_form_is_json_serialisable(self):
        payload = snapshot_to_dict(_session_with_state().snapshot())
        assert json.loads(json.dumps(payload)) == json.loads(json.dumps(payload))

    def test_restored_snapshot_continues_identically(self):
        session = _session_with_state()
        resumed = RTECSession(_engine(), window=20)
        resumed.restore(snapshot_from_dict(snapshot_to_dict(session.snapshot())))
        tail = [Event(25, parse_term("stop(v1)"))]
        for target in (session, resumed):
            target.submit(tail)
            target.advance(30)
        assert resumed.result.to_json() == session.result.to_json()


class TestCheckpointFiles:
    def test_write_then_load(self, tmp_path):
        session = _session_with_state()
        digest = description_hash(session.engine.description)
        path = write_checkpoint(
            str(tmp_path), "s0", session.snapshot(),
            applied=7, windows=2, description_digest=digest,
        )
        assert os.path.basename(path) == "s0-00000002.json"
        loaded = load_checkpoint(path)
        assert loaded.session == "s0"
        assert loaded.windows == 2
        assert loaded.applied == 7
        assert loaded.description_hash == digest
        assert loaded.snapshot.result == session.snapshot().result

    def test_a_session_holding_a_small_or_large_float_restores(self, tmp_path):
        """Buffered events are written as concrete syntax: a float ``str``
        renders in exponent form (``1e-05``) must still read back, as a float."""
        session = RTECSession(_engine(), window=600)
        session.submit([
            Event(20, parse_term("velocity(v1, 0.00001, 90, 90)")),
            Event(21, parse_term("velocity(v1, 10000000000000000.0, -0.000000125, 90)")),
        ])
        path = write_checkpoint(
            str(tmp_path), "s", session.snapshot(), applied=2, windows=0,
            description_digest=description_hash(session.engine.description),
        )
        restored = load_checkpoint(path).snapshot.buffer
        assert [(e.time, repr(e.term)) for e in restored] == [
            (e.time, repr(e.term)) for e in session.snapshot().buffer
        ]

    def test_the_gold_description_hashes_are_unchanged(self):
        """A float written positionally keeps its text, so checkpoints of the
        golds written before exponent forms were expanded still restore."""
        from repro.fleet import fleet_gold_event_description
        from repro.maritime import gold_event_description

        assert description_hash(gold_event_description()) == (
            "09b1f6dc7678f6b0e714fc914302ff63670895e6680a9a5ceaa638578d591c73"
        )
        assert description_hash(fleet_gold_event_description()) == (
            "82f11919787d3836fcda7fbb73989116d66d21a13b4071d9025924fbb7d53d3e"
        )

    def test_file_is_the_one_shot_encoding_of_the_payload(self, tmp_path):
        # The bytes are the contract (parent-written files restore here and
        # vice versa): compact, key-sorted, nothing after the object.
        session = _session_with_state()
        snapshot = session.snapshot()
        digest = description_hash(session.engine.description)
        path = write_checkpoint(
            str(tmp_path), "s0", snapshot,
            applied=7, windows=2, description_digest=digest, owner="w0", lease=3,
        )
        payload = {
            "version": CHECKPOINT_VERSION, "session": "s0", "windows": 2, "applied": 7,
            "description_hash": digest, "snapshot": snapshot_to_dict(snapshot),
            "owner": "w0", "lease": 3,
        }
        with open(path) as stream:
            assert stream.read() == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert snapshot_to_dict(load_checkpoint(path).snapshot) == payload["snapshot"]

    def test_listing_is_ordered_and_per_session(self, tmp_path):
        for name in ("s0-00000003.json", "s0-00000001.json", "s0-00000002.json",
                     "other-00000009.json"):
            (tmp_path / name).write_text("{}")
        listed = list_checkpoints(str(tmp_path), "s0")
        assert [windows for windows, _path in listed] == [1, 2, 3]
        assert latest_checkpoint(str(tmp_path), "s0") == listed[-1][1]

    def test_keep_prunes_oldest(self, tmp_path):
        session = _session_with_state()
        digest = description_hash(session.engine.description)
        for windows in (1, 2, 3, 4):
            write_checkpoint(
                str(tmp_path), "s0", session.snapshot(),
                applied=windows, windows=windows, description_digest=digest,
            )
        assert [w for w, _ in list_checkpoints(str(tmp_path), "s0")] == [3, 4]

    def test_a_write_deletes_only_what_it_listed(self, tmp_path, monkeypatch):
        # Another writer lands s0-00000009.json while this one is between its
        # listing and its rename; a live writer's temp file sits beside them.
        # Neither is deleted, though both are older or not a checkpoint at all.
        session = _session_with_state()
        digest = description_hash(session.engine.description)
        for windows in (1, 2):
            write_checkpoint(
                str(tmp_path), "s0", session.snapshot(),
                applied=windows, windows=windows, description_digest=digest,
            )
        (tmp_path / ".s0-live.tmp").write_text("{")
        (tmp_path / "s1-00000001.json").write_text("{}")
        fsync = os.fsync

        def landing(descriptor):
            (tmp_path / "s0-00000009.json").write_text("{}")
            fsync(descriptor)

        monkeypatch.setattr(os, "fsync", landing)
        write_checkpoint(
            str(tmp_path), "s0", session.snapshot(),
            applied=3, windows=3, description_digest=digest,
        )
        assert sorted(os.listdir(tmp_path)) == [
            ".s0-live.tmp", "s0-00000002.json", "s0-00000003.json",
            "s0-00000009.json", "s1-00000001.json",
        ]
        monkeypatch.setattr(os, "fsync", fsync)
        write_checkpoint(
            str(tmp_path), "s0", session.snapshot(),
            applied=4, windows=4, description_digest=digest,
        )
        assert [w for w, _ in list_checkpoints(str(tmp_path), "s0")] == [4, 9]
        assert (tmp_path / ".s0-live.tmp").exists()
        assert (tmp_path / "s1-00000001.json").exists()

    def test_load_rejects_other_versions(self, tmp_path):
        path = tmp_path / "s0-00000001.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION + 1}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_rejects_corrupt_files(self, tmp_path):
        path = tmp_path / "s0-00000001.json"
        path.write_text("{ truncated")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            "null",
            "7",
            json.dumps(
                {
                    "version": CHECKPOINT_VERSION, "session": "s0", "windows": 1,
                    "applied": 1, "description_hash": "x", "snapshot": [1, 2],
                }
            ),
        ],
    )
    def test_load_rejects_json_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "s0-00000001.json"
        path.write_text(text)
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(str(path))

    def test_missing_directory_lists_empty(self, tmp_path):
        assert list_checkpoints(str(tmp_path / "nope"), "s0") == []
        assert latest_checkpoint(str(tmp_path / "nope"), "s0") is None

    def test_description_hash_tracks_text(self):
        one = EventDescription.from_text(RULES)
        other = EventDescription.from_text(
            RULES + "\ninitiatedAt(g(V)=true, T) :- happensAt(go(V), T).\n"
        )
        assert description_hash(one) == description_hash(EventDescription.from_text(RULES))
        assert description_hash(one) != description_hash(other)


ESCAPED = "'k \"q\" \\\\ é'"  # a vessel whose FVP text needs JSON escaping


class TestEncoderStateKeepsTheBytes:
    """Every file is the one-shot encoding, whatever the encoder state has seen."""

    STEP = 10

    def _advance(self, session, rng, query_time):
        for vessel in ("v1", "v2", ESCAPED):
            for kind in ("start", "stop"):
                if rng.random() < 0.6:
                    time = rng.randrange(query_time - self.STEP + 1, query_time + 1)
                    session.submit([Event(time, parse_term("%s(%s)" % (kind, vessel)))])
        session.advance(query_time)

    def _checkpoint(self, directory, session, windows, **state):
        snapshot = session.snapshot()
        digest = description_hash(session.engine.description)
        path = write_checkpoint(
            str(directory), "s0", snapshot,
            applied=windows, windows=windows, description_digest=digest, lease=1, **state,
        )
        payload = {
            "version": CHECKPOINT_VERSION, "session": "s0", "windows": windows,
            "applied": windows, "description_hash": digest, "lease": 1,
            "snapshot": snapshot_to_dict(snapshot),
        }
        with open(path) as stream:
            text = stream.read()
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return text

    def _run(self, directory, disturb=None, windows=60):
        rng = random.Random(22)
        session = RTECSession(_engine(), window=20)
        sealed = {}
        for number in range(1, windows + 1):
            self._advance(session, rng, number * self.STEP)
            if disturb is not None and number == windows // 2:
                disturb(session)
            self._checkpoint(directory, session, number, sealed=sealed)
        # The state was used: whole runs of sealed intervals were not rendered again.
        assert max(entry[2] for entry in sealed.values()) >= 10
        assert any(entry[0] == "f(%s)=true" % ESCAPED and entry[2] for entry in sealed.values())
        return session, sealed

    def test_sixty_checkpoints_through_one_state(self, tmp_path):
        self._run(tmp_path)

    def test_after_a_restore_mid_run(self, tmp_path):
        def restore(session):
            session.restore(snapshot_from_dict(snapshot_to_dict(session.snapshot())))

        self._run(tmp_path, disturb=restore)

    @pytest.mark.parametrize(
        "which", ["bridges two sealed intervals", "extends the last sealed one", "adds a first one"]
    )
    def test_after_a_merge_that_is_not_a_tail_append(self, tmp_path, which):
        pair = parse_term("f(v1)=true")

        def merge(session):
            stored = session.result.holds_for(pair)
            assert len(stored) >= 4
            late = {
                "bridges two sealed intervals": (stored[0].end, stored[1].start),
                "extends the last sealed one": (stored[-2].end, stored[-2].end + 1),
                "adds a first one": (-5, -3),
            }[which]
            assert late[0] < stored[-1].start  # takes merge's union_all branch
            session.result.merge(pair, IntervalList([late]))
            assert session.result.holds_for(pair).raw()[:-1] != stored.raw()[:-1]

        self._run(tmp_path, disturb=merge)

    def test_a_write_without_state_is_the_same_file(self, tmp_path):
        session, sealed = self._run(tmp_path / "with", windows=20)
        with_state = self._checkpoint(tmp_path / "with", session, 21, sealed=sealed)
        assert self._checkpoint(tmp_path / "without", session, 21) == with_state

    def test_an_empty_result_and_an_empty_interval_list(self, tmp_path):
        session = RTECSession(_engine(), window=20)
        sealed = {}
        assert '"result":{}' in self._checkpoint(tmp_path, session, 1, sealed=sealed)
        emptied = dict(snapshot_to_dict(session.snapshot()), result={"f(v1)=true": []})
        session.restore(snapshot_from_dict(emptied))
        assert '"result":{"f(v1)=true":[]}' in self._checkpoint(tmp_path, session, 2, sealed=sealed)


class TestLatestCheckpoint:
    def test_agrees_with_the_listing_on_a_crowded_directory(self, tmp_path):
        names = [
            "s0-00000002.json", "s0-00000010.json", "s0-9.json",  # s0's own
            "s0-latest.json", "s0-0000000a.json", "s0-.json", "s0-00000011.json.bak",
            ".s0-k3j2.tmp", "s0-00000012.tmp",  # temp files
            "s-00000099.json", "s00-00000098.json", "s0-b-00000097.json",  # other sessions
        ]
        for name in names:
            (tmp_path / name).write_text("{}")
        directory = str(tmp_path)
        for session in ("s0", "s", "s00", "s0-b"):
            listed = list_checkpoints(directory, session)
            assert latest_checkpoint(directory, session) == listed[-1][1]
        assert latest_checkpoint(directory, "s0") == str(tmp_path / "s0-00000010.json")
        assert latest_checkpoint(directory, "s1") is None
        assert latest_checkpoint(str(tmp_path / "missing"), "s0") is None


class TestOwnershipAndLeases:
    def _write(self, directory, windows, *, owner=None, lease=None):
        session = _session_with_state()
        return write_checkpoint(
            str(directory), "s0", session.snapshot(),
            applied=windows, windows=windows,
            description_digest=description_hash(session.engine.description),
            owner=owner, lease=lease,
        )

    def test_owner_and_lease_round_trip(self, tmp_path):
        path = self._write(tmp_path, 1, owner="w3", lease=7)
        loaded = load_checkpoint(path)
        assert loaded.owner == "w3"
        assert loaded.lease == 7

    def test_unfenced_checkpoints_default_owner_none_lease_zero(self, tmp_path):
        loaded = load_checkpoint(self._write(tmp_path, 1))
        assert loaded.owner is None
        assert loaded.lease == 0

    def test_latest_lease_tracks_the_newest_checkpoint(self, tmp_path):
        assert latest_lease(str(tmp_path), "s0") == 0
        self._write(tmp_path, 1, owner="w0", lease=1)
        self._write(tmp_path, 2, owner="w1", lease=2)
        assert latest_lease(str(tmp_path), "s0") == 2

    def test_stale_lease_write_is_fenced(self, tmp_path):
        # The failover sequence: w0 owned the session at lease 1, the
        # router re-homed it onto w1 at lease 2. A zombie w0 coming back
        # to write "one last checkpoint" must be refused, or it would
        # roll the session's durable state back behind the new owner.
        self._write(tmp_path, 1, owner="w0", lease=1)
        self._write(tmp_path, 2, owner="w1", lease=2)
        with pytest.raises(CheckpointError, match="fenced"):
            self._write(tmp_path, 3, owner="w0", lease=1)
        # The new owner (and any later lease) still writes fine.
        self._write(tmp_path, 3, owner="w1", lease=2)
        self._write(tmp_path, 4, owner="w2", lease=3)

    def test_unfenced_writers_skip_the_lease_check(self, tmp_path):
        # lease=None is the single-process fast path: no fencing reads.
        self._write(tmp_path, 1, owner="w0", lease=5)
        self._write(tmp_path, 2)
        assert latest_lease(str(tmp_path), "s0") == 0

    @pytest.mark.parametrize("name", ["s0-00000001.json", "s0-00000002.json"])
    @pytest.mark.parametrize("text", ["[1,2]", "null", "7", "{ torn"])
    def test_non_object_newest_file_counts_as_lease_zero(self, tmp_path, text, name):
        # A fenced writer reads the newest file's lease before every
        # checkpoint: an unreadable one proves no newer owner — whether it
        # sits after the writer's own last file or has taken its place.
        self._write(tmp_path, 1, owner="w0", lease=1)
        (tmp_path / name).write_text(text)
        assert latest_lease(str(tmp_path), "s0") == 0
        self._write(tmp_path, 3, owner="w0", lease=1)

    def _foreign(self, tmp_path, destination, *, windows, lease):
        """A checkpoint another process wrote: moved in, never seen by this one."""
        elsewhere = tmp_path / "elsewhere"
        os.replace(self._write(elsewhere, windows, owner="w1", lease=lease), destination)

    def test_own_newest_file_is_listed_but_not_parsed_again(self, tmp_path, monkeypatch):
        listings, parses = [], []
        listdir, load = os.listdir, json.load
        monkeypatch.setattr(os, "listdir", lambda path: listings.append(path) or listdir(path))
        monkeypatch.setattr(json, "load", lambda stream: parses.append(stream.name) or load(stream))
        directory = tmp_path / "checkpoints"
        for windows in (1, 2, 3):
            self._write(directory, windows, owner="w0", lease=1)
        assert latest_lease(str(directory), "s0") == 1
        assert parses == []
        assert listings.count(str(directory)) == 4
        # A file this process has not seen is parsed — once.
        self._foreign(tmp_path, directory / "s0-00000004.json", windows=4, lease=1)
        assert latest_lease(str(directory), "s0") == 1
        assert latest_lease(str(directory), "s0") == 1
        assert parses == [str(directory / "s0-00000004.json")]

    def test_a_zombie_two_checkpoints_ahead_is_fenced(self, tmp_path):
        # The old owner wrote windows 5 and 10; the new owner restored from 5
        # and writes window 7 under lease 2. The newest file by sequence
        # number still carries lease 1, but the zombie must not get past the
        # new owner's file: its write would be what a restore picks, and its
        # prune would delete the new owner's checkpoint.
        self._write(tmp_path, 5, owner="w0", lease=1)
        self._write(tmp_path, 10, owner="w0", lease=1)
        self._write(tmp_path, 7, owner="w1", lease=2)
        with pytest.raises(CheckpointError, match="fenced: .* lease 1 is stale .*is 2"):
            self._write(tmp_path, 15, owner="w0", lease=1)
        listed = list_checkpoints(str(tmp_path), "s0")
        assert [windows for windows, _path in listed] == [7, 10]
        assert load_checkpoint(listed[0][1]).lease == 2

    def test_a_pruned_file_is_forgotten(self, tmp_path):
        for windows in (1, 2, 3):
            self._write(tmp_path, windows, owner="w0", lease=1)
        remembered = {path for path in _PARSED_LEASES if path.startswith(str(tmp_path))}
        assert remembered == {
            str(tmp_path / "s0-00000002.json"), str(tmp_path / "s0-00000003.json")
        }

    @pytest.mark.parametrize("windows", [1, 2])
    def test_new_owner_fences_a_writer_that_remembers_its_own_file(self, tmp_path, windows):
        # The new owner's checkpoint lands at the very path the zombie last
        # wrote (same windows count, same size: only the lease digit and the
        # owner differ) or at a later sequence; either way the remembered
        # lease must not stand in for the file now on disk.
        directory = tmp_path / "checkpoints"
        own = self._write(directory, 1, owner="w0", lease=1)
        size = os.path.getsize(own)
        self._foreign(tmp_path, directory / ("s0-%08d.json" % windows), windows=windows, lease=2)
        assert os.path.getsize(own) == size
        assert latest_lease(str(directory), "s0") == 2
        with pytest.raises(CheckpointError, match="fenced"):
            self._write(directory, 3, owner="w0", lease=1)


class TestVersionCompatibility:
    def test_round_trip_preserves_derivation_cache(self):
        session = _session_with_state()
        snapshot = session.snapshot()
        assert snapshot.derived_cache is not None
        restored = snapshot_from_dict(snapshot_to_dict(snapshot))
        assert restored.stale == snapshot.stale
        assert restored.derived_cache is not None
        assert {
            pair: intervals.as_pairs()
            for pair, intervals in restored.derived_cache.items()
        } == {
            pair: intervals.as_pairs()
            for pair, intervals in snapshot.derived_cache.items()
        }

    def test_version_1_checkpoint_is_rejected(self, tmp_path):
        # Doctor a current checkpoint back into the version-1 shape (no
        # cache/stale fields) and the version-2 shape (a first-advance flag
        # where the step grid's next point is now).
        session = _session_with_state()
        path = write_checkpoint(
            str(tmp_path), "s0", session.snapshot(),
            applied=3, windows=1,
            description_digest=description_hash(session.engine.description),
        )
        current = json.loads(open(path).read())
        for version in (1, 2):
            payload = json.loads(json.dumps(current))
            payload["version"] = version
            payload["snapshot"]["first_advance"] = False
            del payload["snapshot"]["next_query"]
            if version == 1:
                del payload["snapshot"]["cache"]
                del payload["snapshot"]["stale"]
            open(path, "w").write(json.dumps(payload))
            with pytest.raises(CheckpointError, match="format version %d" % version):
                load_checkpoint(path)
