"""Tests for online recognition sessions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, EventStream, InputFluents, RTECEngine
from repro.rtec.session import RTECSession
from tests.rtec import pair_joins

RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).

holdsFor(g(V)=true, I) :-
    holdsFor(f(V)=true, I1),
    union_all([I1], I).
"""


def _engine():
    return RTECEngine(EventDescription.from_text(RULES), strict=False)


def _event(t, text):
    return Event(t, parse_term(text))


class TestSessionBasics:
    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            RTECSession(_engine(), window=0)

    def test_incremental_detection(self):
        session = RTECSession(_engine(), window=20)
        session.submit([_event(5, "start(v1)")])
        session.advance(10)
        assert session.holds_for("f(v1)=true").as_pairs() == [(6, 10)]
        session.submit([_event(15, "stop(v1)")])
        session.advance(20)
        assert session.holds_for("f(v1)=true").as_pairs() == [(6, 15)]
        assert session.holds_for("g(v1)=true").as_pairs() == [(6, 15)]

    def test_inertia_across_many_advances(self):
        session = RTECSession(_engine(), window=10)
        # t=1 falls inside the first window (0, 10]; an event at t=0 would
        # be legitimately forgotten (outside every window).
        session.submit([_event(1, "start(v1)")])
        for query_time in range(10, 101, 10):
            session.advance(query_time)
        assert session.holds_for("f(v1)=true").as_pairs() == [(2, 100)]

    def test_event_outside_every_window_is_forgotten(self):
        session = RTECSession(_engine(), window=10)
        session.submit([_event(0, "start(v1)")])
        session.advance(10)  # window (0, 10] excludes t=0
        assert not session.holds_for("f(v1)=true")

    def test_forgetting_bounds_the_buffer(self):
        session = RTECSession(_engine(), window=10)
        session.submit([_event(t, "start(v%d)" % t) for t in range(0, 100, 2)])
        session.advance(100)
        assert session.buffered_events <= 5  # only events in (90, 100]

    def test_late_events_are_dropped(self):
        session = RTECSession(_engine(), window=10)
        session.advance(50)
        accepted = session.submit([_event(5, "start(v1)")])
        assert accepted == 0
        session.advance(60)
        assert not session.holds_for("f(v1)=true")

    def test_query_times_must_be_monotonic(self):
        session = RTECSession(_engine(), window=10)
        session.advance(50)
        with pytest.raises(ValueError):
            session.advance(40)

    def test_input_fluents(self):
        rules = RULES + """
        holdsFor(h(V, W)=true, I) :-
            holdsFor(p(V, W)=true, Ip),
            holdsFor(f(V)=true, If),
            intersect_all([Ip, If], I).
        """
        session = RTECSession(
            RTECEngine(EventDescription.from_text(rules), strict=False), window=50
        )
        session.submit([_event(5, "start(v1)"), _event(30, "stop(v1)")])
        session.submit_fluent(parse_term("p(v1, v2)=true"), IntervalList([(10, 40)]))
        session.advance(50)
        assert session.holds_for("h(v1, v2)=true").as_pairs() == [(10, 30)]


class TestFluentMemory:
    """Input-fluent storage must be bounded by the window, like the buffer."""

    def test_fluent_storage_is_clipped_by_forgetting(self):
        session = RTECSession(_engine(), window=10)
        pair = parse_term("p(v1, v2)=true")
        for start in range(0, 1000, 20):
            session.submit_fluent(pair, IntervalList([(start, start + 5)]))
            session.advance(start + 10)
        storage = session.fluent_storage()
        assert session.stored_fluent_intervals <= 2
        for intervals in storage.values():
            assert intervals.span[0] > session.last_query_time - session.window

    def test_fully_forgotten_fluent_is_dropped(self):
        session = RTECSession(_engine(), window=10)
        pair = parse_term("p(v1, v2)=true")
        session.submit_fluent(pair, IntervalList([(1, 5)]))
        session.advance(10)
        assert session.stored_fluent_intervals == 1
        session.advance(30)
        assert session.stored_fluent_intervals == 0
        assert session.fluent_storage() == {}

    def test_late_fluent_portions_are_dropped_on_submission(self):
        session = RTECSession(_engine(), window=10)
        session.advance(50)
        pair = parse_term("p(v1, v2)=true")
        session.submit_fluent(pair, IntervalList([(0, 20)]))  # entirely forgotten
        assert session.stored_fluent_intervals == 0
        session.submit_fluent(pair, IntervalList([(30, 60)]))  # clipped to (40, 60]
        assert session.fluent_storage()[pair].as_pairs() == [(41, 60)]

    def test_resubmission_merges_intervals(self):
        session = RTECSession(_engine(), window=100)
        pair = parse_term("p(v1, v2)=true")
        session.submit_fluent(pair, IntervalList([(10, 20)]))
        session.submit_fluent(pair, IntervalList([(15, 30)]))
        assert session.fluent_storage()[pair].as_pairs() == [(10, 30)]


class TestSessionEquivalence:
    _streams = st.lists(
        st.tuples(
            st.integers(0, 80),
            st.sampled_from(("start", "stop")),
            st.sampled_from(("v1", "v2")),
        ),
        min_size=1,
        max_size=20,
    )

    @given(raw=_streams, window=st.integers(5, 100), step=st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_session_matches_batch_recognition(self, raw, window, step):
        events = [_event(t, "%s(%s)" % (name, vessel)) for t, name, vessel in raw]
        stream = EventStream(events)
        start, end = stream.min_time, stream.max_time
        batch_engine = _engine()
        # Batch run with the same query times the session will use.
        batch = batch_engine.recognise(stream, window=window, step=step)

        session = RTECSession(_engine(), window=window)
        session.submit(events)
        query_time = min(start - 1 + step, end)
        while True:
            session.advance(query_time)
            if query_time >= end:
                break
            query_time = min(query_time + step, end)

        assert sorted(map(repr, batch.fvps())) == sorted(map(repr, session.result.fvps()))
        for pair in batch.fvps():
            assert session.holds_for(pair) == batch.holds_for(pair), pair

    _FLUENT_RULES = RULES + """
    holdsFor(h(V, W)=true, I) :-
        holdsFor(p(V, W)=true, Ip),
        holdsFor(f(V)=true, If),
        intersect_all([Ip, If], I).
    """
    _fluent_arrivals = st.lists(
        st.tuples(
            st.sampled_from(("p(v1, v2)=true", "p(v2, v1)=true")),
            st.integers(0, 80),
            st.integers(1, 15),
        ),
        min_size=1,
        max_size=8,
    )

    @given(
        raw=_streams,
        arrivals=_fluent_arrivals,
        window=st.integers(5, 100),
        step=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_fluents_match_batch_and_stay_bounded(
        self, raw, arrivals, window, step
    ):
        """Input fluents submitted incrementally across many advances give
        the batch result, while fluent storage stays bounded by omega."""
        events = [_event(t, "%s(%s)" % (name, vessel)) for t, name, vessel in raw]
        stream = EventStream(events)

        def _make_engine():
            return RTECEngine(
                EventDescription.from_text(self._FLUENT_RULES), strict=False
            )

        merged = {}
        for text, start, length in arrivals:
            pair = parse_term(text)
            merged.setdefault(pair, []).append((start, start + length))
        batch_fluents = InputFluents(
            {pair: IntervalList(pairs) for pair, pairs in merged.items()}
        )
        batch = _make_engine().recognise(
            stream, batch_fluents, window=window, step=step
        )

        # Same query-time sequence as the batch run (which also stretches
        # its span over the input-fluent intervals).
        start = min(stream.min_time, min(a[1] for a in arrivals))
        end = max(stream.max_time, max(a[1] + a[2] for a in arrivals))
        session = RTECSession(_make_engine(), window=window)
        session.submit(events)
        todo = sorted(
            ((a[1], a[0], a[2]) for a in arrivals), key=lambda item: item[0]
        )
        query_time = min(start - 1 + step, end)
        while True:
            # An interval "arrives" at its start time: deliver everything
            # that has arrived by this query time.
            while todo and todo[0][0] <= query_time:
                arrived, text, length = todo.pop(0)
                session.submit_fluent(
                    parse_term(text), IntervalList([(arrived, arrived + length)])
                )
            session.advance(query_time)
            for intervals in session.fluent_storage().values():
                assert intervals.span[0] > query_time - window
            if query_time >= end:
                break
            query_time = min(query_time + step, end)

        assert sorted(map(repr, batch.fvps())) == sorted(map(repr, session.result.fvps()))
        for pair in batch.fvps():
            assert session.holds_for(pair) == batch.holds_for(pair), pair


class TestSessionOnShardableInput:
    @given(
        raw_events=pair_joins.raw_events,
        raw_proximity=pair_joins.raw_proximity,
        window=st.integers(5, 40),
        step=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_session_matches_batch(self, raw_events, raw_proximity, window, step):
        """The online path over the same multi-component input (pair joins,
        maxDuration/2, initially/1) lands on the batch result."""

        def engine():
            return RTECEngine(EventDescription.from_text(pair_joins.RULES), strict=False)

        stream, fluents = pair_joins.build_input(raw_events, raw_proximity)
        batch = engine().recognise(stream, fluents, window=window, step=step)

        start, end = RTECEngine._bounds(stream, fluents)
        session = RTECSession(engine(), window=window)
        session.submit(stream)
        for pair, intervals in fluents.items():
            session.submit_fluent(pair, intervals)
        query_time = min(start - 1 + step, end)
        while True:
            session.advance(query_time)
            if query_time >= end:
                break
            query_time = min(query_time + step, end)

        assert dict(session.result.items()) == dict(batch.items())


class TestSnapshot:
    def test_snapshot_restore_round_trip(self):
        session = RTECSession(_engine(), window=20)
        session.submit([_event(5, "start(v1)")])
        session.advance(10)
        snapshot = session.snapshot()
        fresh = RTECSession.from_snapshot(_engine(), snapshot)
        assert fresh.result.to_json() == session.result.to_json()
        assert fresh.last_query_time == session.last_query_time

    def test_restored_session_continues_identically(self):
        driver = RTECSession(_engine(), window=20)
        driver.submit([_event(5, "start(v1)")])
        driver.advance(10)
        resumed = RTECSession.from_snapshot(_engine(), driver.snapshot())
        tail = [_event(15, "stop(v1)"), _event(24, "start(v2)")]
        for session in (driver, resumed):
            session.submit(tail)
            session.advance(30)
        assert resumed.result.to_json() == driver.result.to_json()

    def test_snapshot_is_isolated_from_later_mutation(self):
        session = RTECSession(_engine(), window=20)
        session.submit([_event(5, "start(v1)")])
        session.advance(10)
        snapshot = session.snapshot()
        buffered = list(snapshot.buffer)
        session.submit([_event(12, "stop(v1)")])
        session.advance(20)
        assert list(snapshot.buffer) == buffered

    def test_restore_rejects_window_mismatch(self):
        session = RTECSession(_engine(), window=20)
        session.advance(10)
        other = RTECSession(_engine(), window=40)
        with pytest.raises(ValueError):
            other.restore(session.snapshot())

    def test_snapshot_carries_pending_initiations(self):
        # An initiation with no terminator stays open across the snapshot:
        # the restored session must keep extending it.
        session = RTECSession(_engine(), window=10)
        session.submit([_event(3, "start(v1)")])
        session.advance(10)
        resumed = RTECSession.from_snapshot(_engine(), session.snapshot())
        session.advance(20)
        resumed.advance(20)
        assert resumed.holds_for("f(v1)=true").as_pairs() == (
            session.holds_for("f(v1)=true").as_pairs()
        )

    def test_snapshot_carries_deadline_barriers_across_restore(self):
        text = RULES + "\nmaxDuration(f(V)=true, 7)."

        def make():
            return RTECEngine(EventDescription.from_text(text), strict=False)

        driver = RTECSession(make(), window=25)
        # Anchor at 1, intermediate initiation at 6: one period (1, 8]
        # closed by the deadline. In the next window the anchor falls
        # outside while the intermediate survives; only the carried
        # barrier stops it from re-anchoring a phantom period — and the
        # barrier must survive the snapshot/restore in between.
        driver.submit([_event(1, "start(v1)"), _event(6, "start(v1)")])
        driver.advance(10)
        assert driver.holds_for("f(v1)=true").as_pairs() == [(2, 8)]
        resumed = RTECSession.from_snapshot(make(), driver.snapshot())
        for session in (driver, resumed):
            session.advance(30)
        assert driver.holds_for("f(v1)=true").as_pairs() == [(2, 8)]
        assert resumed.result.to_json() == driver.result.to_json()

    def test_restore_without_cache_falls_back_then_rebuilds(self):
        # A snapshot of a non-incremental session restores with no
        # derivation cache: the next advance recomputes the full window
        # (same results) and rebuilds the cache for the advances after it.
        driver = RTECSession(_engine(), window=20)
        driver.submit([_event(5, "start(v1)")])
        driver.advance(10)
        snapshot = driver.snapshot()
        snapshot.derived_cache = None
        resumed = RTECSession.from_snapshot(_engine(), snapshot)
        tail = [_event(15, "stop(v1)")]
        for session in (driver, resumed):
            session.submit(tail)
            session.advance(20)
            session.advance(28)
        assert resumed.result.to_json() == driver.result.to_json()
        assert resumed._derived_cache is not None


class TestSameQueryIdempotence:
    def test_repeated_advance_is_a_noop(self):
        session = RTECSession(_engine(), window=20)
        session.submit([_event(5, "start(v1)")])
        first = session.advance(10)
        assert session.advance(10) is first
        assert session.holds_for("f(v1)=true").as_pairs() == [(6, 10)]

    def test_repeated_advance_leaves_the_result_unchanged(self):
        session = RTECSession(_engine(), window=20)
        session.submit([_event(5, "start(v1)")])
        session.advance(10)
        before = session.result.to_json()
        for _ in range(3):
            session.advance(10)
        assert session.result.to_json() == before

    def test_events_between_equal_advances_are_not_lost(self):
        session = RTECSession(_engine(), window=20)
        session.submit([_event(5, "start(v1)")])
        session.advance(10)
        session.submit([_event(15, "stop(v1)")])
        session.advance(10)  # no-op; the buffered event stays queued
        session.advance(20)
        assert session.holds_for("f(v1)=true").as_pairs() == [(6, 15)]

    def test_smaller_query_time_still_rejected(self):
        session = RTECSession(_engine(), window=20)
        session.advance(10)
        with pytest.raises(ValueError):
            session.advance(9)


#: Every shape the component-wise advance has to keep apart: per-vessel
#: fluents, a ``maxDuration/2`` deadline, a pair input fluent that joins two
#: vessels' components (in a simple-fluent condition, so a back-dated delivery
#: changes firings, and in a static fluent), and an entity-free event whose
#: global fluent every component reads.
RICH_RULES = RULES + """
maxDuration(f(V)=true, 12).

initiatedAt(alert=true, T) :- happensAt(alarm, T).
terminatedAt(alert=true, T) :- happensAt(clear, T).

initiatedAt(q(V)=true, T) :- happensAt(start(V), T), holdsAt(alert=true, T).
terminatedAt(q(V)=true, T) :- happensAt(stop(V), T).

initiatedAt(m(V, W)=true, T) :- happensAt(start(V), T), holdsAt(p(V, W)=true, T).
terminatedAt(m(V, W)=true, T) :- happensAt(stop(V), T), holdsAt(p(V, W)=true, T).

holdsFor(h(V, W)=true, I) :-
    holdsFor(p(V, W)=true, Ip),
    holdsFor(f(V)=true, If),
    intersect_all([Ip, If], I).
"""


def _rich_engine():
    return RTECEngine(EventDescription.from_text(RICH_RULES), strict=False)


def _drive(
    make_engine,
    events,
    queries,
    window,
    incremental,
    deliveries=(),
    restore_at=None,
    on_slot=None,
):
    """Drive a session over ``queries`` and return it.

    ``events`` are ``(Event, delayed)`` pairs and ``deliveries``
    ``(FVP, (start, end), delayed)`` triples: an item is submitted before the
    first advance whose query time reaches its (start) time, one advance
    later when ``delayed`` — a late arrival inside the window. ``on_slot`` is
    called with the session and the slot index after every advance.
    """

    def slot(time, delayed):
        reached = next(index for index, q in enumerate(queries) if q >= time)
        return reached + (1 if delayed else 0)

    session = RTECSession(make_engine(), window=window, incremental=incremental)
    for index, query_time in enumerate(queries):
        session.submit(
            [event for event, delayed in events if slot(event.time, delayed) == index]
        )
        for pair, (start, end), delayed in deliveries:
            if slot(start, delayed) == index:
                session.submit_fluent(pair, IntervalList([(start, end)]))
        session.advance(query_time)
        if incremental:
            session.advance(query_time)  # idempotent repeat
        if on_slot is not None:
            on_slot(session, index)
        if restore_at == index:
            session = RTECSession.from_snapshot(
                make_engine(), session.snapshot(), incremental=incremental
            )
    return session


class TestIncrementalEquivalence:
    """Delta and repaired advances are byte-equal to full recomputation."""

    _events = st.lists(
        st.tuples(
            st.integers(0, 80),
            st.sampled_from(
                ("start(v1)", "stop(v1)", "start(v2)", "stop(v2)",
                 "start(v3)", "stop(v3)", "alarm", "clear")
            ),
            st.booleans(),
        ),
        min_size=1,
        max_size=24,
    )
    _deliveries = st.lists(
        st.tuples(
            st.sampled_from(("p(v1, v2)=true", "p(v2, v1)=true", "p(v3, v1)=true")),
            st.integers(0, 80),
            st.integers(1, 15),
            st.booleans(),
        ),
        max_size=6,
    )

    @given(
        raw=_events,
        arrivals=_deliveries,
        window=st.integers(5, 100),
        step=st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_incremental_matches_full_recomputation(self, raw, arrivals, window, step):
        """Random streams and window/step grids with late events, late
        (back-dated) fluent deliveries (both repaired per entity component)
        and a mid-run kill-and-restore all land on the oracle's bytes."""
        events = [(_event(t, text), delayed) for t, text, delayed in raw]
        deliveries = [
            (parse_term(text), (start, start + length), delayed)
            for text, start, length, delayed in arrivals
        ]
        end = max([e.time for e, _ in events] + [iv[1] for _, iv, _ in deliveries])
        queries = list(range(step, end + 2 * step + 1, step))

        def run(**how):
            return _drive(
                _rich_engine, events, queries, window, deliveries=deliveries, **how
            ).result.to_json()

        expected = run(incremental=False)
        assert run(incremental=True) == expected
        assert run(incremental=True, restore_at=len(queries) // 2) == expected

    def test_two_vessel_delta_matches_full_recomputation(self):
        events = []
        for base, vessel in ((0, "v1"), (3, "v2")):
            for start in range(base, 70, 12):
                events.append((_event(start, "start(%s)" % vessel), False))
                events.append((_event(start + 5, "stop(%s)" % vessel), False))
        queries = list(range(10, 90, 10))
        expected = _drive(_engine, events, queries, 30, incremental=False)
        session = _drive(_engine, events, queries, 30, incremental=True)
        assert session.result.to_json() == expected.result.to_json()
        assert session.advances == {"full": 1, "delta": len(queries) - 1}


class TestDeliveredAndDerived:
    """A delivery of an FVP the description also derives: both count."""

    _DELIVERED = ("f(v1)=true", "g(v1)=true", "g(v3)=true")  # simple, static, static underived

    @pytest.mark.parametrize("slot", (0, 1, 2))
    def test_every_mode_holds_on_the_union(self, slot):
        events = [_event(12, "start(v1)"), _event(15, "stop(v1)"), _event(22, "start(v1)")]
        queries = [10, 20, 30]
        span = (queries[slot] - 3, queries[slot] - 1)
        deliveries = [(parse_term(text), span, False) for text in self._DELIVERED]

        def served(incremental):
            session = _drive(
                _engine, [(e, False) for e in events], queries, 30, incremental,
                deliveries=deliveries,
            )
            return session.result

        fluents = InputFluents({pair: IntervalList([span]) for pair, span, _ in deliveries})
        # Two events no rule reads span the batch run from 1 to 30, so it
        # queries at 10, 20 and 30 as the sessions do.
        markers = [_event(1, "tick"), _event(30, "tick")]
        batch = _engine().recognise(
            EventStream(events + markers), fluents, window=30, step=10
        )
        assert served(True).to_json() == served(False).to_json() == batch.to_json()
        for text in self._DELIVERED:
            assert batch.holds_at(text, span[0]) and batch.holds_at(text, span[1])
        assert batch.holds_at("f(v1)=true", 14) and batch.holds_at("g(v1)=true", 14)
        if slot == 1:
            assert batch.holds_for("f(v1)=true").as_pairs() == [(13, 15), (17, 19), (23, 30)]
            assert batch.holds_for("g(v3)=true").as_pairs() == [(17, 19)]


class TestLateArrivalRepair:
    """A late arrival re-derives its own entity component, nothing else."""

    #: v1 and v2 are active in every window; one stop(v1) arrives a slot late.
    _EVENTS = [
        (_event(t, "%s(%s)" % (name, vessel)), False)
        for vessel, offset in (("v1", 0), ("v2", 2))
        for t, name in ((3 + offset, "start"), (14 + offset, "stop"), (23 + offset, "start"))
    ]
    _QUERIES = [10, 20, 30, 40]

    def _sessions(self, extra, deliveries=(), **how):
        """The incremental session over ``_EVENTS + extra``, checked against
        the oracle."""
        args = (_rich_engine, self._EVENTS + extra, self._QUERIES, 30)
        oracle = _drive(*args, incremental=False, deliveries=deliveries)
        session = _drive(*args, incremental=True, deliveries=deliveries, **how)
        assert session.result.to_json() == oracle.result.to_json()
        return session

    def test_late_event_leaves_other_components_on_the_delta_path(self):
        spans = []

        def watch(session, index):
            spans.append(telemetry.active().roots[-1])

        with telemetry.enabled():
            session = self._sessions(
                [(_event(18, "stop(v1)"), True)], on_slot=watch
            )
        assert session.advances == {"full": 1, "delta": 2, "repaired": 1}
        assert session.recomputes == {"first": 1}
        repaired = [span for span in spans if span.attrs["mode"] == "repair"]
        assert len(repaired) == 1
        # v1's four events of the window (0, 30] are re-derived by the oracle
        # routine; v2 sees only its delta event (start at 25).
        assert repaired[0].counters["dirty_components"] == 1
        assert repaired[0].counters["dirty_events"] == 4
        assert repaired[0].counters["events"] == 5
        # One routine, called once per unit: the dirty components without a
        # cache, the clean ones with it.
        assert [(child.name, child.attrs["mode"]) for child in repaired[0].children] == [
            ("rtec.window", "full"),
            ("rtec.window", "delta"),
        ]

    def test_late_pair_delivery_dirties_both_of_its_vessels(self):
        delivery = (parse_term("p(v1, v2)=true"), (12, 26), True)
        session = self._sessions([], deliveries=[delivery])
        assert session.advances == {"full": 1, "delta": 2, "repaired": 1}

    def test_delivery_starting_at_the_previous_query_time_is_late(self):
        # Interval lists are closed: a delivery whose first point *is* the
        # previous query time changes what held there (here: m is initiated
        # at t=10, where start(v1) meets the back-dated p), so it is late.
        events = [(_event(10, "start(v1)"), False)]
        delivery = (parse_term("p(v1, v2)=true"), (10, 14), True)
        args = (_rich_engine, events, [10, 20], 30)
        oracle = _drive(*args, incremental=False, deliveries=[delivery])
        session = _drive(*args, incremental=True, deliveries=[delivery])
        assert oracle.holds_for("m(v1, v2)=true").as_pairs() == [(11, 20)]
        assert session.result.to_json() == oracle.result.to_json()
        assert session.advances == {"full": 1, "repaired": 1}

    def test_repair_under_initially_declarations_matches_the_oracle(self):
        # initially/1 is injected by the first advance only, which is never
        # a repair: the units of a repair need no declarations of their own.
        def make_engine():
            text = RICH_RULES + "initially(f(v2)=true).\ninitially(alert=true).\n"
            return RTECEngine(EventDescription.from_text(text), strict=False)

        events = self._EVENTS + [(_event(18, "stop(v1)"), True)]
        oracle = _drive(make_engine, events, self._QUERIES, 30, incremental=False)
        session = _drive(make_engine, events, self._QUERIES, 30, incremental=True)
        assert oracle.holds_for("f(v2)=true").as_pairs()[0] == (0, 11)  # maxDuration
        assert oracle.holds_for("q(v1)=true")  # start(v1) under the initial alert
        assert session.result.to_json() == oracle.result.to_json()
        assert session.advances == {"full": 1, "delta": 2, "repaired": 1}

    def test_late_entity_free_event_recomputes_the_window(self):
        session = self._sessions([(_event(15, "alarm"), True)])
        assert session.advances == {"full": 2, "delta": 2}
        assert session.recomputes == {"first": 1, "late_global": 1}

    def test_restore_with_late_input_pending_recomputes_once(self):
        session = self._sessions([(_event(18, "stop(v1)"), True)])
        session.submit([_event(31, "stop(v2)")])
        snapshot = session.snapshot()
        assert snapshot.stale
        resumed = RTECSession.from_snapshot(_rich_engine(), snapshot)
        for each in (session, resumed):
            each.advance(50)
            each.advance(60)
        assert resumed.result.to_json() == session.result.to_json()
        assert resumed.recomputes == {"restored": 1}
        assert resumed.advances == {"full": 1, "delta": 1}

    def test_rule_appended_after_a_repair_is_seen_by_the_next_one(self):
        # The partitionability analysis is on the correctness path of every
        # late advance. It once had to be recomputed when a repair appended
        # a rule to the live description; now the append raises, and a
        # description built with a rule that joins unrelated vessels sends
        # every late arrival to the whole window.
        joining = (
            "initiatedAt(f(V)=true, T) :- happensAt(start(W), T), happensAt(stop(V), T).\n"
        )

        def mutate(session, index):
            definition = session.engine.description.simple_fluents[("f", 1)]
            with pytest.raises(AttributeError):
                definition.initiated_rules.extend(EventDescription.from_text(joining).rules)

        late = [(_event(18, "stop(v1)"), True), (_event(28, "stop(v2)"), True)]
        session = self._sessions(late, on_slot=mutate)
        assert session.advances == {"full": 1, "delta": 1, "repaired": 2}
        assert session.recomputes == {"first": 1}

        def joined():
            return RTECEngine(EventDescription.from_text(RICH_RULES + joining), strict=False)

        args = (joined, self._EVENTS + late, self._QUERIES, 30)
        oracle = _drive(*args, incremental=False)
        session = _drive(*args, incremental=True)
        assert session.result.to_json() == oracle.result.to_json()
        assert session.advances == {"full": 3, "delta": 1}
        assert session.recomputes == {"first": 1, "unshardable": 2}

    def test_late_item_no_rule_reads_stays_on_the_delta_path(self):
        # No rule reads noise/1 or weather/1, so what arrives of them late
        # changes no derivation: it is buffered, and no window is recomputed.
        delivery = (parse_term("weather(v1)=rain"), (12, 26), True)
        session = self._sessions([(_event(15, "noise(v1)"), True)], deliveries=[delivery])
        assert session.advances == {"full": 1, "delta": 3}
        assert session.recomputes == {"first": 1}
        assert session.holds_for("weather(v1)=rain")

class TestGoldMaritimeDisorder:
    def test_benchmark_style_disorder_period_matches_the_oracle(self):
        """Two simulated hours of gold maritime at small scale, window 600 /
        step 60, one event of the previous step held back in a quarter of
        the steps (the shape of the ``maritime_disorder`` benchmark)."""
        import random

        from repro.maritime import build_dataset, gold_event_description

        dataset = build_dataset(seed=0, scale=0.1, traffic=2)
        step, steps = 60, 120
        batches = [[] for _ in range(steps)]
        for event in dataset.stream:
            if event.time <= steps * step:
                batches[max(1, -(-event.time // step)) - 1].append(event)
        rng = random.Random(0)
        for index in sorted(rng.sample(range(1, steps), steps // 4)):
            donors = batches[index - 1]
            if len(donors) > 1:
                batches[index].insert(0, donors.pop(rng.randrange(len(donors))))

        def run(incremental):
            engine = RTECEngine(
                gold_event_description(), dataset.kb, dataset.vocabulary
            )
            session = RTECSession(engine, window=600, incremental=incremental)
            for pair, intervals in dataset.input_fluents.items():
                session.submit_fluent(pair, intervals)
            for index, batch in enumerate(batches):
                session.submit(batch)
                session.advance((index + 1) * step)
            return session

        session, oracle = run(True), run(False)
        assert session.result.to_json() == oracle.result.to_json()
        assert len(session.result) > 0
        assert session.advances["repaired"] >= steps // 8
        assert session.recomputes == {"first": 1}


class TestAdvanceCostIsBoundedByTheWindow:
    def test_normalised_items_do_not_grow_with_the_stream(self, monkeypatch):
        """Gold fleet, one vehicle, its scripted day replayed 60 times at
        window 600 / step 300 (the ``fleet_cluster`` benchmark's shape).
        Counts a clock cannot blur: the intervals handed to
        ``IntervalList._normalise`` per day. Amalgamating a window by
        re-normalising the whole stored list made the last ten days cost
        5.8 times days 2-11."""
        from repro.fleet import build_fleet_dataset, fleet_gold_event_description

        dataset = build_fleet_dataset()
        day = [event for event in dataset.stream if event.term.args[0].value == "bus1"]
        step = 300
        span = -(-(dataset.stream.max_time + 10) // step) * step
        engine = RTECEngine(fleet_gold_event_description(), dataset.kb, dataset.vocabulary)
        session = RTECSession(engine, window=600)
        normalised = [0]
        normalise = IntervalList._normalise

        def counting(items):
            normalised[0] += len(items)
            return normalise(items)

        monkeypatch.setattr(IntervalList, "_normalise", staticmethod(counting))
        per_day = []
        for index in range(60):
            before = normalised[0]
            session.submit([Event(e.time + index * span, e.term) for e in day])
            for query_time in range(index * span + step, (index + 1) * span + 1, step):
                session.advance(query_time)
            per_day.append(normalised[0] - before)
        assert len(session.result.holds_for("overSpeeding(bus1)=true")) == 60
        assert sum(per_day[-10:]) <= 1.1 * sum(per_day[1:11])
