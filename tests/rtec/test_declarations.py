"""Tests for initially/1 and maxDuration/2 declarations (RTEC extensions)."""


import pytest

from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, EventStream, RTECEngine, Vocabulary
from repro.rtec.reference import ReferenceEvaluator

VOCAB = Vocabulary(input_events=frozenset({("start", 1), ("stop", 1)}))

BASE = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
"""


def _run(text, events, **kwargs):
    engine = RTECEngine(EventDescription.from_text(text), vocabulary=VOCAB)
    stream = EventStream([Event(t, parse_term(s)) for t, s in events])
    return engine.recognise(stream, **kwargs)


class TestClassification:
    def test_initially_recorded(self):
        desc = EventDescription.from_text(BASE + "initially(f(v0)=true).")
        assert desc.initial_fvps == (parse_term("f(v0)=true"),)

    def test_max_duration_recorded(self):
        desc = EventDescription.from_text(BASE + "maxDuration(f(V)=true, 10).")
        assert desc.max_durations[0][1] == 10
        assert desc.max_duration_for(parse_term("f(v1)=true")) == 10
        assert desc.max_duration_for(parse_term("g(v1)=true")) is None

    def test_initially_must_be_ground(self):
        desc = EventDescription.from_text(BASE + "initially(f(V)=true).")
        assert any(i.category == "malformed-rule" for i in desc.validate(VOCAB))

    def test_max_duration_must_be_positive(self):
        desc = EventDescription.from_text(BASE + "maxDuration(f(V)=true, 0).")
        assert any(i.category == "malformed-rule" for i in desc.validate(VOCAB))

    def test_declarations_target_defined_simple_fluents(self):
        desc = EventDescription.from_text(BASE + "initially(g(v0)=true).")
        assert any(i.category == "undefined-fluent" for i in desc.validate(VOCAB))
        desc = EventDescription.from_text(BASE + "maxDuration(g(V)=true, 5).")
        assert any(i.category == "undefined-fluent" for i in desc.validate(VOCAB))

    def test_valid_declarations_pass_validation(self):
        desc = EventDescription.from_text(
            BASE + "initially(f(v0)=true).\nmaxDuration(f(V)=true, 10)."
        )
        assert desc.validate(VOCAB) == []


class TestInitially:
    def test_holds_from_time_zero(self):
        result = _run(
            BASE + "initially(f(v0)=true).",
            [(5, "start(v1)"), (40, "stop(v0)")],
        )
        assert result.holds_for("f(v0)=true").as_pairs() == [(0, 40)]

    def test_survives_windowed_recognition(self):
        result = _run(
            BASE + "initially(f(v0)=true).",
            [(5, "start(v1)"), (40, "stop(v0)")],
            window=10,
            step=10,
        )
        assert result.holds_for("f(v0)=true").as_pairs() == [(0, 40)]

    def test_unaffected_instances(self):
        result = _run(
            BASE + "initially(f(v0)=true).",
            [(5, "start(v1)"), (40, "stop(v1)")],
        )
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 40)]


class TestMaxDuration:
    def test_deadline_terminates_period(self):
        result = _run(
            BASE + "maxDuration(f(V)=true, 10).",
            [(5, "start(v1)"), (40, "stop(v1)")],
        )
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 15)]

    def test_earlier_event_termination_wins(self):
        result = _run(
            BASE + "maxDuration(f(V)=true, 10).",
            [(5, "start(v1)"), (8, "stop(v1)"), (40, "start(v2)")],
        )
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 8)]

    def test_reinitiation_after_deadline_starts_new_period(self):
        result = _run(
            BASE + "maxDuration(f(V)=true, 10).",
            [(5, "start(v1)"), (30, "start(v1)"), (60, "stop(v1)")],
        )
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 15), (31, 40)]

    def test_deadline_in_windowed_recognition(self):
        result = _run(
            BASE + "maxDuration(f(V)=true, 10).",
            [(5, "start(v1)"), (40, "stop(v1)")],
            window=7,
            step=7,
        )
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 15)]

    def test_deadline_capped_by_query_time(self):
        result = _run(
            BASE + "maxDuration(f(V)=true, 100).",
            [(5, "start(v1)"), (20, "start(v2)")],
        )
        # Stream ends at 20: the deadline (105) is beyond the query time.
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 20)]


class TestDeadlineLookupOnlyWhereADeclarationMayApply:
    """A grounding looks a ``maxDuration/2`` deadline up only if its fluent
    may be named by a declaration; results equal the independent oracle's."""

    TWO = BASE + """
initiatedAt(h(V)=true, T) :- happensAt(start(V), T).
terminatedAt(h(V)=true, T) :- happensAt(stop(V), T).
"""
    EVENTS = [(5, "start(v1)"), (30, "start(v1)"), (60, "stop(v1)"), (70, "start(v2)")]

    def _recognise_against_oracle(self, engine):
        """The engine's result, checked point by point against the oracle,
        and the fluents whose groundings the engine looked a deadline up for."""
        stream = EventStream([Event(t, parse_term(s)) for t, s in self.EVENTS])
        looked_up = set()
        lookup = EventDescription.max_duration_for

        def spy(description, pair):
            looked_up.add(pair.args[0].functor)
            return lookup(description, pair)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EventDescription, "max_duration_for", spy)
            result = engine.recognise(stream, window=7, step=7)
        oracle = ReferenceEvaluator(engine.description, KnowledgeBase(), stream)
        for key in engine.description.simple_fluents:
            for pair in oracle.ground_instances(*key):
                assert set(result.holds_for(pair).points()) == oracle.holding_points(
                    pair, 0, stream.max_time
                ), pair
        return result, looked_up

    def test_a_deadline_on_one_of_two_fluents(self):
        description = EventDescription.from_text(self.TWO + "maxDuration(f(V)=true, 10).")
        assert description.deadlined_fluents() == {("f", 1)}
        result, looked_up = self._recognise_against_oracle(
            RTECEngine(description, vocabulary=VOCAB)
        )
        assert looked_up == {"f"}
        assert result.holds_for("f(v1)=true").as_pairs() == [(6, 15), (31, 40)]
        assert result.holds_for("h(v1)=true").as_pairs() == [(6, 60)]

    def test_a_pattern_whose_fluent_is_a_variable_applies_to_every_fluent(self):
        description = EventDescription.from_text(self.TWO + "maxDuration(F=true, 10).")
        assert description.deadlined_fluents() == {("f", 1), ("h", 1)}
        result, looked_up = self._recognise_against_oracle(
            RTECEngine(description, strict=False)
        )
        assert looked_up == {"f", "h"}
        for pair in ("f(v1)=true", "h(v1)=true"):
            assert result.holds_for(pair).as_pairs() == [(6, 15), (31, 40)]
