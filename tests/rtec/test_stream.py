"""Unit tests for event streams and input fluents."""

import gc
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import Event, EventStream, InputFluents


def _event(time, text):
    return Event(time, parse_term(text))


class TestEvent:
    def test_functor_and_arity(self):
        event = _event(5, "entersArea(v1, a1)")
        assert event.functor == "entersArea"
        assert event.arity == 2

    def test_zero_arity_event(self):
        event = _event(5, "alarm")
        assert event.functor == "alarm"
        assert event.arity == 0

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError):
            _event(5, "entersArea(V, a1)")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            _event(-1, "gap_start(v1)")


class TestEventStream:
    @pytest.fixture
    def stream(self):
        return EventStream(
            [
                _event(10, "velocity(v1, 5.0, 90, 90)"),
                _event(20, "velocity(v1, 6.0, 90, 90)"),
                _event(20, "velocity(v2, 1.0, 10, 10)"),
                _event(30, "gap_start(v1)"),
            ]
        )

    def test_len_and_bounds(self, stream):
        assert len(stream) == 4
        assert stream.min_time == 10
        assert stream.max_time == 30

    def test_empty_stream(self):
        stream = EventStream()
        assert len(stream) == 0
        assert stream.min_time is None and stream.max_time is None

    def test_events_in_window_is_half_open(self, stream):
        # RTEC windows are (start, end]: the event at 10 is excluded when
        # start == 10 and included when end == 10.
        times = [e.time for e in stream.events_in_window("velocity", 4, 10, 20)]
        assert times == [20, 20]
        times = [e.time for e in stream.events_in_window("velocity", 4, 9, 10)]
        assert times == [10]

    def test_events_at_exact_time(self, stream):
        events = list(stream.events_at("velocity", 4, 20))
        assert len(events) == 2
        assert not list(stream.events_at("velocity", 4, 15))

    def test_unknown_functor(self, stream):
        assert not list(stream.events_in_window("stop_start", 1, 0, 100))

    def test_iteration_is_time_ordered(self, stream):
        times = [e.time for e in stream]
        assert times == sorted(times)

    def test_iteration_is_cached(self, stream):
        # Regression: the merged time-ordered list used to be rebuilt and
        # re-sorted on every call; it is now precomputed at construction.
        assert list(stream) == list(stream)
        assert stream._sorted is stream._sorted  # stable storage, no rebuild

    def test_count_in_window_is_half_open(self, stream):
        assert stream.count_in_window(10, 20) == 2  # excludes t=10, includes 20
        assert stream.count_in_window(10, 30) == 3
        assert stream.count_in_window(9, 10) == 1
        assert stream.count_in_window(0, 100) == 4
        assert stream.count_in_window(30, 100) == 0

    def test_functors_listing(self, stream):
        assert ("gap_start", 1) in stream.functors()
        assert ("velocity", 4) in stream.functors()


class TestInputFluents:
    def test_set_and_get(self):
        fluents = InputFluents()
        pair = parse_term("proximity(v1, v2)=true")
        fluents.set(pair, IntervalList([(5, 10)]))
        assert fluents.get(pair).as_pairs() == [(5, 10)]
        assert pair in fluents
        assert len(fluents) == 1

    def test_get_missing_is_empty(self):
        fluents = InputFluents()
        assert not fluents.get(parse_term("proximity(v1, v2)=true"))

    def test_rejects_non_ground(self):
        fluents = InputFluents()
        with pytest.raises(ValueError):
            fluents.set(parse_term("proximity(V, v2)=true"), IntervalList())


class TestAppend:
    def _assert_equivalent(self, incremental, batch):
        assert list(incremental) == list(batch)
        assert len(incremental) == len(batch)
        assert incremental.min_time == batch.min_time
        assert incremental.max_time == batch.max_time
        assert incremental.functors() == batch.functors()
        span = (-1, (batch.max_time or 0) + 1)
        for functor, arity in batch.functors():
            assert list(incremental.events_in_window(functor, arity, *span)) == list(
                batch.events_in_window(functor, arity, *span)
            )

    def test_tail_append_matches_batch(self):
        events = [_event(t, "speed(v1, %d)" % t) for t in (1, 3, 3, 7)]
        incremental = EventStream()
        for event in events:
            incremental.append(event)
        self._assert_equivalent(incremental, EventStream(events))

    def test_out_of_order_append_matches_batch(self):
        events = [
            _event(7, "entersArea(v1, a1)"),
            _event(1, "speed(v1, 9)"),
            _event(4, "speed(v2, 3)"),
            _event(4, "entersArea(v2, a1)"),
            _event(2, "speed(v1, 5)"),
        ]
        incremental = EventStream()
        for event in events:
            incremental.append(event)
        self._assert_equivalent(incremental, EventStream(sorted(events, key=lambda e: e.time)))

    def test_append_updates_entity_index(self):
        stream = EventStream([_event(5, "speed(v1, 9)")])
        stream.append(_event(3, "speed(v1, 7)"))
        stream.append(_event(8, "speed(v2, 2)"))
        times = [e.time for e in stream.events_in_window("speed", 2, 0, 10, first=parse_term("v1"))]
        assert times == [3, 5]

    def test_append_then_window_query(self):
        stream = EventStream()
        for t in (2, 9, 4, 11):
            stream.append(_event(t, "alarm"))
        assert [e.time for e in stream.events_in_window("alarm", 0, 3, 10)] == [4, 9]
        assert stream.count_in_window(3, 10) == 2

    def test_same_time_late_append_keeps_index_order(self):
        # A late append at a timestamp that already has events must land at
        # the position the global (time, term) order dictates, in the
        # per-functor and per-entity indexes as well as the main sequence.
        events = [
            _event(4, "speed(v2, 3)"),
            _event(4, "speed(v1, 9)"),
            _event(4, "speed(v1, 1)"),
        ]
        incremental = EventStream(events[:2])
        incremental.append(events[2])
        self._assert_equivalent(incremental, EventStream(events))

    def test_append_is_not_quadratic(self):
        """4x the events must cost far less than 16x the time.

        The bound is deliberately generous (CI boxes are noisy); a
        quadratic regression — rebuilding or re-sorting per arrival —
        overshoots it by an order of magnitude. Each size is timed as the
        best of five runs with the collector off, so one descheduling or
        collection pause does not decide the ratio.
        """
        terms = [parse_term("speed(v%d, 12)" % i) for i in range(50)]

        def once(count):
            events = [Event(t, terms[t % 50]) for t in range(count)]
            stream = EventStream()
            started = perf_counter()
            for event in events:
                stream.append(event)
            return perf_counter() - started

        def timed(count):
            enabled = gc.isenabled()
            gc.disable()
            try:
                return min(once(count) for _ in range(5))
            finally:
                if enabled:
                    gc.enable()

        once(8000)  # warm-up
        ratio = timed(32000) / max(timed(8000), 1e-6)
        assert ratio < 10.0, "append scaled x%.1f for 4x events" % ratio


class TestAppendProperties:
    _TEXTS = ("speed(v1, 1)", "speed(v1, 7)", "speed(v2, 3)", "entersArea(v1, a1)", "alarm")
    _raw = st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(_TEXTS)),
        max_size=25,
    )

    @given(raw=_raw, split=st.integers(0, 25))
    @settings(max_examples=150, deadline=None)
    def test_mixed_construction_and_append_orders_agree(self, raw, split):
        """A stream grown by any mix of batch construction, in-order appends
        and late (out-of-order) appends — including repeats of an existing
        timestamp — is indistinguishable from building it in one shot: same
        iteration order, and same answers from the time, functor and entity
        indexes."""
        events = [_event(t, text) for t, text in raw]
        incremental = EventStream(events[:split])
        for event in events[split:]:
            incremental.append(event)
        batch = EventStream(events)
        assert list(incremental) == list(batch)
        assert incremental.count_in_window(-1, 31) == batch.count_in_window(-1, 31)
        for functor, arity in batch.functors():
            assert list(incremental.events_in_window(functor, arity, -1, 31)) == (
                list(batch.events_in_window(functor, arity, -1, 31))
            )
        vessel = parse_term("v1")
        assert list(incremental.events_in_window("speed", 2, -1, 31, first=vessel)) == (
            list(batch.events_in_window("speed", 2, -1, 31, first=vessel))
        )
        for time in sorted({event.time for event in events}):
            for functor, arity in batch.functors():
                assert list(incremental.events_at(functor, arity, time)) == (
                    list(batch.events_at(functor, arity, time))
                )


def _streams():
    item = st.tuples(
        st.integers(0, 80),
        st.sampled_from(["speed", "turn"]),
        st.integers(0, 3),
        st.integers(-5, 5),
    )
    return st.lists(item, max_size=30).map(
        lambda items: EventStream(
            _event(t, "%s(v%d, %d)" % (functor, vid, value))
            for t, functor, vid, value in items
        )
    )


class TestEventStreamEquivalence:
    """``count_in_window`` and ``slice_window`` against their definitional
    per-event equivalents."""

    @settings(deadline=None)
    @given(_streams(), st.integers(-5, 90), st.integers(-5, 90))
    def test_count_in_window(self, stream, start, end):
        expected = sum(1 for e in stream if start < e.time <= end)
        assert stream.count_in_window(start, end) == expected

    @settings(deadline=None)
    @given(_streams(), st.integers(-5, 90), st.integers(-5, 90))
    def test_slice_window_matches_filtered_rebuild(self, stream, start, end):
        sliced = stream.slice_window(start, end)
        rebuilt = EventStream(e for e in stream if start < e.time <= end)
        assert list(sliced) == list(rebuilt)
        assert len(sliced) == len(rebuilt)
        assert sliced.min_time == rebuilt.min_time
        assert sliced.max_time == rebuilt.max_time
        for functor in ("speed", "turn"):
            assert list(sliced.events_in_window(functor, 2, -10, 1000)) == list(
                rebuilt.events_in_window(functor, 2, -10, 1000)
            )

    @settings(deadline=None)
    @given(_streams(), st.integers(-5, 90))
    def test_slice_window_unbounded(self, stream, start):
        sliced = stream.slice_window(start)
        assert list(sliced) == [e for e in stream if e.time > start]
