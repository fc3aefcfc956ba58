"""Engine-level tests: validation, windowing, inertia carry-over, tolerance."""

from dataclasses import FrozenInstanceError

import pytest

from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import (
    Event,
    EventDescription,
    EventStream,
    InputFluents,
    InvalidEventDescriptionError,
    RTECEngine,
    Vocabulary,
)

RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
holdsFor(g(V)=true, I) :-
    holdsFor(f(V)=true, I1),
    union_all([I1], I).
"""

VOCAB = Vocabulary(input_events=frozenset({("start", 1), ("stop", 1)}))


def _stream(*events):
    return EventStream([Event(t, parse_term(text)) for t, text in events])


class TestValidationAtConstruction:
    def test_valid_description_accepted(self):
        RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)

    def test_invalid_description_raises(self):
        bad = RULES + "initiatedAt(h(V)=true, T) :- happensAt(unknown(V), T).\n"
        with pytest.raises(InvalidEventDescriptionError) as excinfo:
            RTECEngine(EventDescription.from_text(bad), vocabulary=VOCAB)
        assert any(i.category == "undefined-event" for i in excinfo.value.issues)

    def test_strict_false_skips_validation(self):
        bad = RULES + "initiatedAt(h(V)=true, T) :- happensAt(unknown(V), T).\n"
        RTECEngine(EventDescription.from_text(bad), vocabulary=VOCAB, strict=False)


class TestWindowing:
    EVENTS = [(5, "start(v1)"), (40, "stop(v1)")]

    def test_single_window_equals_whole_stream(self):
        engine = RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)
        result = engine.recognise(_stream(*self.EVENTS))
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 40)]

    def test_sliding_window_matches_single_window(self):
        engine = RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)
        whole = engine.recognise(_stream(*self.EVENTS))
        for window in (10, 17, 50):
            windowed = engine.recognise(_stream(*self.EVENTS), window=window)
            assert windowed.holds_for("f(v1)=true") == whole.holds_for("f(v1)=true"), window
            assert windowed.holds_for("g(v1)=true") == whole.holds_for("g(v1)=true"), window

    def test_inertia_carries_across_windows(self):
        # The initiation at 5 is forgotten by later windows; the carried
        # initiation keeps f alive until the termination at 40.
        engine = RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)
        result = engine.recognise(_stream(*self.EVENTS), window=8, step=8)
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 40)]

    def test_step_larger_than_window_forgets_events(self):
        # With step > window some events are never inside any window,
        # faithfully to RTEC's forgetting mechanism.
        engine = RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)
        result = engine.recognise(
            _stream((5, "start(v1)"), (6, "stop(v1)"), (100, "start(v2)")),
            window=2,
            step=50,
        )
        assert not result.holds_for("f(v1)=true")

    def test_invalid_window_parameters(self):
        engine = RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)
        with pytest.raises(ValueError):
            engine.recognise(_stream(*self.EVENTS), window=0)
        with pytest.raises(ValueError):
            engine.recognise(_stream(*self.EVENTS), window=10, step=0)

    def test_empty_stream(self):
        engine = RTECEngine(EventDescription.from_text(RULES), vocabulary=VOCAB)
        result = engine.recognise(_stream())
        assert len(result) == 0

    def test_input_fluents_windowed_and_merged(self):
        vocab = Vocabulary(
            input_events=frozenset({("start", 1), ("stop", 1)}),
            input_fluents=frozenset({("p", 2)}),
        )
        rules = RULES + """
        holdsFor(h(V, W)=true, I) :-
            holdsFor(p(V, W)=true, Ip),
            holdsFor(f(V)=true, If),
            intersect_all([Ip, If], I).
        """
        engine = RTECEngine(EventDescription.from_text(rules), vocabulary=vocab)
        fluents = InputFluents()
        fluents.set(parse_term("p(v1, v2)=true"), IntervalList([(10, 30)]))
        whole = engine.recognise(_stream(*self.EVENTS), input_fluents=fluents)
        windowed = engine.recognise(_stream(*self.EVENTS), input_fluents=fluents, window=7)
        assert whole.holds_for("h(v1, v2)=true").as_pairs() == [(10, 30)]
        assert windowed.holds_for("h(v1, v2)=true") == whole.holds_for("h(v1, v2)=true")


class TestTolerantExecution:
    BAD = """
    initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
    initiatedAt(f(V)=true, T) :-
        happensAt(start(V), T),
        Speed > 3.
    """

    def test_strict_run_raises_on_evaluation_error(self):
        from repro.rtec.errors import EvaluationError

        engine = RTECEngine(EventDescription.from_text(self.BAD), strict=False)
        with pytest.raises(EvaluationError):
            engine.recognise(_stream((1, "start(v1)")))

    def test_skip_errors_records_warning_and_continues(self):
        engine = RTECEngine(
            EventDescription.from_text(self.BAD), strict=False, skip_errors=True
        )
        result = engine.recognise(_stream((1, "start(v1)"), (5, "start(v2)")))
        assert result.holds_for("f(v1)=true")
        assert engine.runtime_warnings
        assert "unbound variable" in engine.runtime_warnings[0]


class TestDescriptionEditedAfterLoading:
    """A loaded description cannot be edited, so nothing the engine derives
    from it can go stale. The ``optimise=True`` clone cache did — keyed by
    injected fluents only, it kept answering with the rules it was built
    from — and left with the option; this guards against its return."""

    EVENTS = [(1, "start(a)"), (5, "ping(a)"), (9, "stop(a)")]

    def _engine(self):
        return RTECEngine(EventDescription.from_text(RULES), strict=False)

    def test_an_appended_rule_is_seen_by_the_next_run(self):
        from repro.logic.parser import parse_rule

        text = "terminatedAt(f(V)=true, T) :- happensAt(ping(V), T).\n"
        engine = self._engine()
        before = engine.recognise(_stream(*self.EVENTS))
        assert before.holds_for("f(a)=true").as_pairs() == [(2, 9)]
        description, rule = engine.description, parse_rule(text)
        with pytest.raises(AttributeError):
            description.simple_fluents[("f", 1)].terminated_rules.append(rule)
        with pytest.raises(FrozenInstanceError):
            description.rules = description.rules + (rule,)
        assert engine.recognise(_stream(*self.EVENTS)).to_json() == before.to_json()
        edited = RTECEngine(EventDescription.from_text(RULES + text), strict=False)
        after = edited.recognise(_stream(*self.EVENTS))
        assert after.holds_for("f(a)=true").as_pairs() == [(2, 5)]

    def test_there_is_no_optimise_argument(self):
        with pytest.raises(TypeError):
            self._engine().recognise(_stream(*self.EVENTS), optimise=True)
        for name in ("optimised_for", "_optimised", "optimisation"):
            assert not hasattr(self._engine(), name)


class TestOverlappingWindowsForgetClosedPeriods:
    """When windows overlap, only the periods still open at the previous query
    time are carried into the next window. ``base(a)`` holds on (1, 9]; once
    ``mark(a)@1`` is forgotten, a window starting after 1 cannot re-derive
    that ``base(a)`` held at 9, so unless it reads the overlap from what the
    earlier windows derived, ``not holdsAt(base(a)=true, 9)`` succeeds there
    and ``high(a)`` is initiated by ``ev(a)@9``. Batch recognition seeds the
    overlap from the previous window's store and the session's delta path
    from its cache; a session's full recomputation still has the defect."""

    RULES = """
    initiatedAt(base(V)=true, T) :- happensAt(mark(V), T).
    terminatedAt(base(V)=true, T) :- happensAt(clear(V), T).
    initiatedAt(high(V)=true, T) :- happensAt(ev(V), T), not holdsAt(base(V)=true, T).
    """
    EVENTS = [(1, "mark(a)"), (9, "clear(a)"), (9, "ev(a)"), (12, "tick")]
    QUERIES = (3, 7, 11, 12)

    def _engine(self):
        return RTECEngine(EventDescription.from_text(self.RULES), strict=False)

    def _session(self, incremental):
        from repro.rtec.session import RTECSession

        session = RTECSession(self._engine(), window=4, incremental=incremental)
        previous = None
        for query in self.QUERIES:
            session.submit(
                Event(t, parse_term(text))
                for t, text in self.EVENTS
                if (previous is None or t > previous) and t <= query
            )
            session.advance(query)
            previous = query
        return session

    def test_unwindowed_run_oracle_and_delta_session_find_no_high(self):
        from repro.logic.knowledge import KnowledgeBase
        from repro.rtec.reference import ReferenceEvaluator

        stream = _stream(*self.EVENTS)
        assert not self._engine().recognise(stream).holds_for("high(a)=true")
        oracle = ReferenceEvaluator(self._engine().description, KnowledgeBase(), stream)
        assert oracle.holding_points(parse_term("high(a)=true"), 0, 12) == set()
        session = self._session(incremental=True)
        assert session.advances == {"full": 1, "delta": 3}
        assert not session.holds_for("high(a)=true")

    def test_overlapping_windows_find_no_high(self):
        result = self._engine().recognise(_stream(*self.EVENTS), window=4, step=2)
        assert result.holds_for("high(a)=true").as_pairs() == []

    def test_clamped_last_window_finds_no_high(self):
        # step = window, but the last window (8, 12] is clamped to the stream
        # end and overlaps (7, 11].
        result = self._engine().recognise(_stream(*self.EVENTS), window=4)
        assert result.holds_for("high(a)=true").as_pairs() == []

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="the last window (8, 12] overlaps (7, 11]"
    )
    def test_full_recompute_session_finds_no_high(self):
        session = self._session(incremental=False)
        assert session.holds_for("high(a)=true").as_pairs() == []  # is [(12, 12)]
