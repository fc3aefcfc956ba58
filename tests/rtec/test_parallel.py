"""Property tests: sharded recognition is identical to sequential recognition.

The sharded executor promises bit-identical results (same FVPs, same
maximal intervals) for shardable descriptions, over any window schedule —
including carried open initiations across window boundaries, maxDuration/2
deadlines and initially/1 declarations. These tests drive randomized
multi-vessel streams through both paths and compare the full result maps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import (
    Event,
    EventDescription,
    EventStream,
    InputFluents,
    RTECEngine,
)
from repro.rtec.parallel import recognise_sharded
from repro.rtec.session import RTECSession

RULES = """
initiatedAt(moving(V)=true, T) :- happensAt(start(V), T).
terminatedAt(moving(V)=true, T) :- happensAt(stop(V), T).

initiatedAt(escort(V1, V2)=true, T) :-
    happensAt(start(V1), T),
    holdsAt(proximity(V1, V2)=true, T).
terminatedAt(escort(V1, V2)=true, T) :-
    happensAt(split(V1, V2), T).

maxDuration(moving(V)=true, 15).
initially(moving(v1)=true).
"""

VESSELS = ("v1", "v2", "v3", "v4")
PAIRS = (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4"))


def _engine():
    return RTECEngine(EventDescription.from_text(RULES), strict=False)


def _build_input(raw_events, raw_proximity):
    events = []
    for time, kind, index in raw_events:
        if kind == "split":
            left, right = PAIRS[index % len(PAIRS)]
            term = parse_term("split(%s, %s)" % (left, right))
        else:
            term = parse_term("%s(%s)" % (kind, VESSELS[index % len(VESSELS)]))
        events.append(Event(time, term))
    merged = {}
    for index, start, length in raw_proximity:
        left, right = PAIRS[index % len(PAIRS)]
        pair = parse_term("proximity(%s, %s)=true" % (left, right))
        merged.setdefault(pair, []).append((start, start + length))
    fluents = InputFluents(
        {pair: IntervalList(spans) for pair, spans in merged.items()}
    )
    return EventStream(events), fluents


_events = st.lists(
    st.tuples(
        st.integers(0, 60),
        st.sampled_from(("start", "stop", "split")),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=25,
)
_proximity = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 50), st.integers(1, 20)),
    max_size=6,
)


class TestShardedEquivalence:
    @given(
        raw_events=_events,
        raw_proximity=_proximity,
        window=st.integers(5, 40),
        step=st.integers(1, 10),
        executor=st.sampled_from(("inline", "thread")),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_matches_sequential(
        self, raw_events, raw_proximity, window, step, executor
    ):
        stream, fluents = _build_input(raw_events, raw_proximity)
        sequential = _engine().recognise(stream, fluents, window=window, step=step)
        sharded = recognise_sharded(
            _engine(), stream, fluents, window=window, step=step,
            jobs=4, executor=executor,
        )
        assert dict(sharded.items()) == dict(sequential.items())

    @given(raw_events=_events, raw_proximity=_proximity)
    @settings(max_examples=30, deadline=None)
    def test_single_window_matches_sequential(self, raw_events, raw_proximity):
        stream, fluents = _build_input(raw_events, raw_proximity)
        sequential = _engine().recognise(stream, fluents)
        sharded = recognise_sharded(
            _engine(), stream, fluents, jobs=4, executor="inline"
        )
        assert dict(sharded.items()) == dict(sequential.items())

    def test_process_pool_matches_sequential(self):
        raw_events = [
            (2, "start", 0), (4, "start", 1), (6, "start", 2), (9, "split", 0),
            (12, "stop", 1), (20, "start", 3), (26, "stop", 0), (33, "split", 2),
        ]
        raw_proximity = [(0, 1, 12), (2, 18, 20)]
        stream, fluents = _build_input(raw_events, raw_proximity)
        sequential = _engine().recognise(stream, fluents, window=10, step=5)
        sharded = recognise_sharded(
            _engine(), stream, fluents, window=10, step=5, jobs=2, executor="process"
        )
        assert dict(sharded.items()) == dict(sequential.items())


class TestSessionOnShardableInput:
    @given(
        raw_events=_events,
        raw_proximity=_proximity,
        window=st.integers(5, 40),
        step=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_session_matches_batch(self, raw_events, raw_proximity, window, step):
        """The online path over the same multi-component input (pair joins,
        maxDuration/2, initially/1) lands on the batch result."""
        stream, fluents = _build_input(raw_events, raw_proximity)
        batch = _engine().recognise(stream, fluents, window=window, step=step)

        start, end = RTECEngine._bounds(stream, fluents)
        session = RTECSession(_engine(), window=window)
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


class TestShardedEngineWrapper:
    """``recognise(jobs=)`` is the wrapper: 1 (or None) means sequential."""

    def test_jobs_1_equals_sequential(self):
        stream, fluents = _build_input([(2, "start", 0), (9, "stop", 0)], [])
        sequential = _engine().recognise(stream, fluents, window=10)
        via_jobs = _engine().recognise(stream, fluents, window=10, jobs=1)
        assert dict(via_jobs.items()) == dict(sequential.items())
