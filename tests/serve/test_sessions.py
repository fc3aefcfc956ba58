"""Unit tests for managed sessions: backpressure, ordering, failure isolation."""

import asyncio

import pytest

from repro.rtec import EventDescription, RTECEngine
from repro.serve.checkpoint import CheckpointError, list_checkpoints
from repro.serve.protocol import ProtocolError
from repro.serve.sessions import ManagedSession, SessionConfig, SessionManager

RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""


def _engine():
    return RTECEngine(EventDescription.from_text(RULES), strict=False)


def _run(coroutine):
    return asyncio.run(coroutine)


class TestBackpressure:
    def test_queue_overflow_rejects_with_retry_hint(self):
        async def scenario():
            managed = ManagedSession(
                "s", _engine(), SessionConfig(window=20, high_water=4)
            )
            # Worker not started: everything offered stays queued.
            assert managed.offer_events([(1, "start(v1)"), (2, "start(v2)")]) is None
            assert managed.offer_events([(3, "start(v3)"), (4, "start(v4)")]) is None
            rejection = managed.offer_events([(5, "start(v5)")])
            assert rejection is not None
            assert rejection["error"] == "backpressure"
            assert rejection["retry_after"] > 0
            assert rejection["queue_depth"] == 4
            return managed

        managed = _run(scenario())
        assert managed.counters.rejected == 1
        assert managed.counters.queue_peak == 4

    def test_batches_accept_or_reject_atomically(self):
        async def scenario():
            managed = ManagedSession(
                "s", _engine(), SessionConfig(window=20, high_water=4)
            )
            assert managed.offer_events([(1, "start(v1)")]) is None
            oversized = [(t, "start(v%d)" % t) for t in range(2, 6)]
            rejection = managed.offer_events(oversized)
            assert rejection is not None
            # Nothing from the rejected batch was queued.
            assert managed.queue.qsize() == 1
            return managed

        managed = _run(scenario())
        assert managed.counters.rejected == 4

    def test_fluent_overflow_rejects(self):
        async def scenario():
            managed = ManagedSession(
                "s", _engine(), SessionConfig(window=20, high_water=1)
            )
            assert managed.offer_events([(1, "start(v1)")]) is None
            rejection = managed.offer_fluent("speedNear(v1)=true", [(1, 9)])
            assert rejection is not None
            assert rejection["error"] == "backpressure"

        _run(scenario())


class TestWorker:
    def test_query_observes_everything_queued_before_it(self):
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=20, step=10))
            managed.start()
            assert managed.offer_events([(5, "start(v1)"), (15, "stop(v1)")]) is None
            payload = await managed.query(at=20)
            await managed.stop()
            return payload

        payload = _run(scenario())
        assert payload["last_query"] == 20
        assert payload["fvps"]["f(v1)=true"] == [[6, 15]]

    def test_auto_advance_follows_the_step_grid(self):
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=10, step=10))
            managed.start()
            # The event at t=35 crosses the boundaries at 10, 20 and 30.
            managed.offer_events([(5, "start(v1)"), (35, "stop(v1)")])
            await managed.query()
            status = managed.status()
            await managed.stop()
            return status

        status = _run(scenario())
        assert status["windows"] == 3
        assert status["next_query"] == 40

    def test_status_reports_advance_modes_and_recompute_reasons(self):
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=30, step=10))
            managed.start()
            managed.offer_events([(5, "start(v1)"), (6, "start(v2)")])
            await managed.query(at=10)
            managed.offer_events([(8, "stop(v1)"), (15, "stop(v2)")])  # t=8 is late
            await managed.query(at=20)
            managed.offer_events([(25, "start(v1)")])
            payload = await managed.query(at=30)
            status = managed.status()
            await managed.stop()
            return payload, status

        payload, status = _run(scenario())
        # Detections up to the previous query time are final: the late stop
        # ends f(v1) from t=10 on, it does not rewrite (8, 10].
        assert payload["fvps"] == {
            "f(v1)=true": [[6, 10], [26, 30]],
            "f(v2)=true": [[7, 15]],
        }
        assert status["advances"] == {"full": 1, "repaired": 1, "delta": 1}
        assert status["recomputes"] == {"first": 1}

    def test_fvp_filtered_query(self):
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=20, step=10))
            managed.start()
            managed.offer_events([(5, "start(v1)")])
            payload = await managed.query(at=10, fvp="f(v1)=true")
            await managed.stop()
            return payload

        payload = _run(scenario())
        assert payload["intervals"] == [[6, 10]]
        assert payload["fvp"] == "f(v1)=true"

    @pytest.mark.parametrize("fvp", ["notanfvp(", "foo(bar)"])
    def test_malformed_query_fvp_is_refused_before_it_reaches_the_worker(self, fvp):
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=20, step=10))
            managed.start()
            managed.offer_events([(5, "start(v1)")])
            with pytest.raises(ProtocolError) as refusal:
                await managed.query(at=10, fvp=fvp)
            payload = await managed.query(at=10, fvp="f(v1)=true")
            await managed.stop()
            return managed, refusal.value.code, payload

        managed, code, payload = _run(scenario())
        assert code == "bad-request"
        assert managed.failure is None
        assert payload["intervals"] == [[6, 10]]

    def test_a_failing_query_or_checkpoint_answers_its_own_client(self, tmp_path):
        # The item being applied has left the queue, so the sweep that
        # rejects queued requests cannot see it: it used to wait forever.
        async def scenario():
            managed = ManagedSession(
                "s", _engine(), SessionConfig(window=20, step=10), str(tmp_path)
            )

            def explode(query_time):
                raise RuntimeError("evaluation exploded at %d" % query_time)

            managed.session.advance = explode
            managed.start()
            with pytest.raises(RuntimeError, match="exploded at 10"):
                await asyncio.wait_for(managed.query(at=10), 10)
            failure = managed.failure
            managed.session.snapshot = lambda: explode(0)
            with pytest.raises(RuntimeError, match="exploded at 0"):
                await asyncio.wait_for(managed.checkpoint(), 10)
            await managed.stop()
            return failure

        assert "evaluation exploded at 10" in _run(scenario())

    def test_bad_event_is_dropped_not_fatal(self):
        # Parsing is deferred off the accept path, so a malformed term
        # surfaces on the worker: it must be counted and skipped, never
        # poison the tenant.
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=20, step=10))
            managed.start()
            managed.offer_events([(5, "not ) a term"), (6, "start(v1)")])
            payload = await managed.query(at=10)
            status = managed.status()
            await managed.stop()
            return managed, payload, status

        managed, payload, status = _run(scenario())
        assert managed.failure is None
        assert status["invalid"] == 1
        assert status["applied"] == 2  # the dropped item still advances the offset
        assert payload["fvps"]["f(v1)=true"] == [[7, 10]]

    def test_checkpoint_requires_directory(self):
        async def scenario():
            managed = ManagedSession("s", _engine(), SessionConfig(window=20))
            managed.start()
            try:
                with pytest.raises(ProtocolError):
                    await managed.checkpoint()
            finally:
                await managed.stop()

        _run(scenario())

    def test_checkpoint_and_adopt_round_trip(self, tmp_path):
        async def first_life():
            manager = SessionManager(checkpoint_dir=str(tmp_path))
            managed = manager.add_session(
                "s", _engine(), SessionConfig(window=20, step=10)
            )
            manager.start()
            managed.offer_events([(5, "start(v1)"), (15, "stop(v1)")])
            await managed.query(at=20)
            payload = await managed.checkpoint()
            await manager.kill()  # crash: no graceful shutdown checkpoint
            return payload

        payload = _run(first_life())
        assert payload["windows"] >= 1

        async def second_life():
            manager = SessionManager(checkpoint_dir=str(tmp_path))
            managed = manager.add_session(
                "s", _engine(), SessionConfig(window=20, step=10), restore=True
            )
            manager.start()
            result = await managed.query()
            status = managed.status()
            await manager.stop()
            return result, status

        result, status = _run(second_life())
        assert result["fvps"]["f(v1)=true"] == [[6, 15]]
        assert status["applied"] == 2
        assert status["next_query"] == 30


    @staticmethod
    def _two_checkpoints(directory):
        """A killed session that left checkpoints 1 (f(v1) open) and 2 (closed)."""

        async def first_life():
            manager = SessionManager(checkpoint_dir=directory)
            managed = manager.add_session("s", _engine(), SessionConfig(window=20, step=10))
            manager.start()
            managed.offer_events([(5, "start(v1)")])
            await managed.query(at=10)
            await managed.checkpoint()
            managed.offer_events([(15, "stop(v1)")])
            await managed.query(at=20)
            await managed.checkpoint()
            await manager.kill()

        _run(first_life())
        (_one, older), (_two, newest) = list_checkpoints(directory, "s")
        return older, newest

    @staticmethod
    def _restore(directory, engine=None):
        async def second_life():
            manager = SessionManager(checkpoint_dir=directory)
            managed = manager.add_session(
                "s", engine or _engine(), SessionConfig(window=20, step=10), restore=True
            )
            manager.start()
            result = await managed.query()
            status = managed.status()
            await manager.kill()
            return result, status

        return _run(second_life())

    def test_restore_of_intact_files_skips_nothing(self, tmp_path):
        self._two_checkpoints(str(tmp_path))
        result, status = self._restore(str(tmp_path))
        assert result["fvps"]["f(v1)=true"] == [[6, 15]]
        assert (status["windows"], status["applied"]) == (2, 2)
        assert status["restore_skipped"] == []

    @pytest.mark.parametrize("damage", ["zero-length", "truncated", "not an object"])
    def test_restore_skips_a_torn_newest_checkpoint(self, tmp_path, damage):
        _older, newest = self._two_checkpoints(str(tmp_path))
        with open(newest) as stream:
            intact = stream.read()
        with open(newest, "w") as stream:
            stream.write(
                {"zero-length": "", "truncated": intact[: len(intact) // 2],
                 "not an object": "[1, 2]"}[damage]
            )
        result, status = self._restore(str(tmp_path))
        # The state of checkpoint 1: one window, one item, f(v1) still open.
        assert result["fvps"]["f(v1)=true"] == [[6, 10]]
        assert (status["windows"], status["applied"]) == (1, 1)
        assert status["restore_skipped"] == ["s-00000002.json"]

    def test_restore_with_every_file_torn_starts_fresh_and_says_so(self, tmp_path):
        for path in self._two_checkpoints(str(tmp_path)):
            open(path, "w").close()
        result, status = self._restore(str(tmp_path))
        assert result["fvps"] == {} and status["windows"] == 0
        assert status["restore_skipped"] == ["s-00000002.json", "s-00000001.json"]

    def test_restore_still_refuses_another_format_version(self, tmp_path):
        _older, newest = self._two_checkpoints(str(tmp_path))
        with open(newest, "w") as stream:
            stream.write('{"version": 1}')
        with pytest.raises(CheckpointError, match="format version"):
            self._restore(str(tmp_path))

    def test_restore_still_refuses_another_description(self, tmp_path):
        self._two_checkpoints(str(tmp_path))
        with pytest.raises(CheckpointError, match="different event description"):
            self._restore(str(tmp_path), engine=_leaky_engine())


LEAKY_RULES = """
initiatedAt(hot(V)=true, T) :- happensAt(start(V), T).
"""


def _leaky_engine():
    return RTECEngine(EventDescription.from_text(LEAKY_RULES), strict=False)


class TestCertifiedAdmission:
    def test_clean_description_admits_with_certificate_status(self):
        managed = ManagedSession("s", _engine(), SessionConfig(window=20))
        assert managed.certificate is not None
        assert managed.admission_warnings == []
        status = managed.status()
        assert status["certified"] and status["memory_bounded"]
        assert status["delta_safe"]
        assert status["cost_weight"] > 0
        assert "admission_warnings" not in status

    def test_warn_mode_records_admission_warnings(self):
        managed = ManagedSession(
            "s", _leaky_engine(), SessionConfig(window=20, certify="warn")
        )
        assert managed.admission_warnings
        status = managed.status()
        assert not status["memory_bounded"]
        assert any("leaky" in warning for warning in status["admission_warnings"])

    def test_require_mode_rejects_leaky_descriptions(self):
        with pytest.raises(ValueError, match="leaky"):
            ManagedSession(
                "s", _leaky_engine(), SessionConfig(window=20, certify="require")
            )

    def test_require_mode_admits_clean_descriptions(self):
        managed = ManagedSession(
            "s", _engine(), SessionConfig(window=20, certify="require")
        )
        assert managed.admission_warnings == []

    def test_off_mode_skips_certification(self):
        managed = ManagedSession(
            "s", _leaky_engine(), SessionConfig(window=20, certify="off")
        )
        assert managed.certificate is None
        assert "certified" not in managed.status()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="certify"):
            ManagedSession("s", _engine(), SessionConfig(window=20, certify="bogus"))


class TestManager:
    def test_unknown_session_is_a_protocol_error(self):
        manager = SessionManager()
        with pytest.raises(ProtocolError):
            manager.get("nope")

    def test_duplicate_session_rejected(self):
        async def scenario():
            manager = SessionManager()
            manager.add_session("s", _engine(), SessionConfig(window=20))
            with pytest.raises(ValueError):
                manager.add_session("s", _engine(), SessionConfig(window=20))

        _run(scenario())
