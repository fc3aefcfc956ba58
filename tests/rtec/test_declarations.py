"""Tests for initially/1 and maxDuration/2 declarations (RTEC extensions)."""


from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, EventStream, RTECEngine, Vocabulary

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
