"""Engine-level tests: validation, windowing, inertia carry-over, tolerance."""

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
    """The engine keeps nothing derived from the rules that an edit of the
    loaded description leaves stale. The ``optimise=True`` clone cache did —
    keyed by injected fluents only, it kept answering with the rules it was
    built from — and left with the option; this guards against its return."""

    EVENTS = [(1, "start(a)"), (5, "ping(a)"), (9, "stop(a)")]

    def _engine(self):
        return RTECEngine(EventDescription.from_text(RULES), strict=False)

    def test_an_appended_rule_is_seen_by_the_next_run(self):
        from repro.logic.parser import parse_rule

        rule = parse_rule("terminatedAt(f(V)=true, T) :- happensAt(ping(V), T).")
        engine, fresh = self._engine(), self._engine()
        before = engine.recognise(_stream(*self.EVENTS))
        assert before.holds_for("f(a)=true").as_pairs() == [(2, 9)]
        for edited in (engine, fresh):
            edited.description.simple_fluents[("f", 1)].terminated_rules.append(rule)
        after = engine.recognise(_stream(*self.EVENTS))
        assert after.holds_for("f(a)=true").as_pairs() == [(2, 5)]
        assert after.to_json() == fresh.recognise(_stream(*self.EVENTS)).to_json()

    def test_there_is_no_optimise_argument(self):
        with pytest.raises(TypeError):
            self._engine().recognise(_stream(*self.EVENTS), optimise=True)
        for name in ("optimised_for", "_optimised", "optimisation"):
            assert not hasattr(self._engine(), name)
