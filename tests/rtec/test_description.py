"""Unit tests for event description classification and validation."""

from dataclasses import FrozenInstanceError

import pytest

from repro.logic.parser import parse_rule, parse_term
from repro.rtec import EventDescription, Vocabulary
from repro.rtec.errors import CyclicDependencyError

VOCAB = Vocabulary(
    input_events=frozenset({("e", 1), ("velocity", 4)}),
    input_fluents=frozenset({("proximity", 2)}),
    background=frozenset({("areaType", 2), ("thresholds", 2)}),
)


def _issues(text, vocabulary=VOCAB):
    return EventDescription.from_text(text).validate(vocabulary)


def _categories(text, vocabulary=VOCAB):
    return sorted({issue.category for issue in _issues(text, vocabulary)})


class TestClassification:
    def test_simple_and_static_fluents(self):
        desc = EventDescription.from_text(
            """
            initiatedAt(f(V)=true, T) :- happensAt(e(V), T).
            terminatedAt(f(V)=true, T) :- happensAt(e(V), T).
            holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).
            """
        )
        assert set(desc.simple_fluents) == {("f", 1)}
        assert set(desc.static_fluents) == {("g", 1)}
        assert desc.defined_keys == {("f", 1), ("g", 1)}

    def test_multi_valued_fluent_values(self):
        desc = EventDescription.from_text(
            """
            initiatedAt(s(V)=near, T) :- happensAt(e(V), T).
            initiatedAt(s(V)=far, T) :- happensAt(e(V), T).
            """
        )
        values = desc.simple_fluents[("s", 1)].values
        assert len(values) == 2

    def test_round_trip_through_text(self):
        text = "initiatedAt(f(V)=true, T) :-\n    happensAt(e(V), T).\n"
        desc = EventDescription.from_text(text)
        assert EventDescription.from_text(desc.to_text()).rules == desc.rules


class TestImmutability:
    TEXT = """
        initially(f(v0)=true).
        maxDuration(f(V)=true, 10).
        initiatedAt(f(V)=true, T) :- happensAt(e(V), T).
        terminatedAt(f(V)=true, T) :- happensAt(e(V), T).
        holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).
        """

    def test_rule_collections_are_tuples(self):
        desc = EventDescription.from_text(self.TEXT)
        rule = desc.rules[2]
        for collection in (
            desc.rules,
            desc.initial_fvps,
            desc.max_durations,
            desc.simple_fluents[("f", 1)].initiated_rules,
            desc.simple_fluents[("f", 1)].terminated_rules,
            desc.static_fluents[("g", 1)].rules,
        ):
            assert isinstance(collection, tuple)
            with pytest.raises(AttributeError):
                collection.append(rule)

    def test_fields_of_a_definition_cannot_be_assigned(self):
        desc = EventDescription.from_text(self.TEXT)
        with pytest.raises(FrozenInstanceError):
            desc.simple_fluents[("f", 1)].initiated_rules = ()
        with pytest.raises(FrozenInstanceError):
            desc.static_fluents[("g", 1)].rules = ()

    def test_a_built_description_cannot_be_assigned(self):
        desc = EventDescription.from_text(self.TEXT)
        with pytest.raises(FrozenInstanceError):
            desc.rules = ()
        with pytest.raises(FrozenInstanceError):
            desc.initial_fvps = ()
        with pytest.raises(FrozenInstanceError):
            desc._dependencies = {}
        with pytest.raises(FrozenInstanceError):
            del desc.rules
        assert len(desc.rules) == 5


class TestReads:
    def test_read_and_defined_schemas(self):
        desc = EventDescription.from_text(
            """
            initiatedAt(f(V)=true, T) :- happensAt(start(V), T), holdsAt(p(V)=true, T).
            terminatedAt(f(V)=true, T) :- happensAt(stop(V), T), not happensAt(hold(V), T).
            holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), holdsFor(q(V)=on, I2),
                union_all([I1, I2], I).
            """
        )
        read = ["start(a)", "stop(a)", "hold(a)", "p(a)=true", "q(a)=off", "f(a)=true", "g(a)=true"]
        for item in read:
            assert desc.reads(parse_term(item)), item
        for item in ("noise(a)", "start(a, b)", "p(a, b)=true", "weather=rain"):
            assert not desc.reads(parse_term(item)), item

    @pytest.mark.parametrize(
        "condition", ["happensAt(E, T)", "holdsAt(F=true, T)", "holdsAt(P, T)"]
    )
    def test_a_condition_with_no_fixed_schema_reads_everything(self, condition):
        desc = EventDescription.from_text(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T), %s." % condition
        )
        assert desc.reads(parse_term("noise(a)"))
        assert desc.reads(parse_term("weather=rain"))


class TestDependencies:
    def test_dependency_graph(self):
        desc = EventDescription.from_text(
            """
            initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(h(V)=true, T).
            initiatedAt(h(V)=true, T) :- happensAt(e(V), T).
            holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).
            """
        )
        graph = desc.dependencies()
        assert graph[("f", 1)] == {("h", 1)}
        assert graph[("g", 1)] == {("f", 1)}

    def test_a_rule_appended_to_a_live_definition_changes_the_graph(self):
        # The append raises; the edge appears in a description built with
        # the extra rule.
        text = """
            initiatedAt(f(V)=true, T) :- happensAt(e(V), T).
            initiatedAt(h(V)=true, T) :- happensAt(e(V), T).
            """
        extra = "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(h(V)=true, T)."
        desc = EventDescription.from_text(text)
        graph = desc.dependencies()
        assert graph[("f", 1)] == frozenset()
        assert desc.dependencies() is graph  # computed once
        with pytest.raises(AttributeError):
            graph[("f", 1)].add(("h", 1))  # shared, hence frozen
        with pytest.raises(AttributeError):
            desc.simple_fluents[("f", 1)].initiated_rules.append(parse_rule(extra))
        assert desc.dependencies()[("f", 1)] == frozenset()
        assert EventDescription.from_text(text + extra).dependencies()[("f", 1)] == {("h", 1)}

    def test_topological_order(self):
        desc = EventDescription.from_text(
            """
            holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).
            initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsAt(h(V)=true, T).
            initiatedAt(h(V)=true, T) :- happensAt(e(V), T).
            """
        )
        order = desc.topological_order()
        assert order.index(("h", 1)) < order.index(("f", 1)) < order.index(("g", 1))

    def test_cycle_detected(self):
        desc = EventDescription.from_text(
            """
            holdsFor(a(V)=true, I) :- holdsFor(b(V)=true, I1), union_all([I1], I).
            holdsFor(b(V)=true, I) :- holdsFor(a(V)=true, I1), union_all([I1], I).
            """
        )
        with pytest.raises(CyclicDependencyError):
            desc.topological_order()
        assert "cycle" in {issue.category for issue in desc.validate()}


class TestValidation:
    def test_gold_style_rules_are_clean(self):
        issues = _issues(
            """
            initiatedAt(f(V)=true, T) :-
                happensAt(velocity(V, S, C, H), T),
                thresholds(movingMin, M),
                S >= M,
                not holdsAt(g(V)=true, T),
                areaType(a1, fishing).
            initiatedAt(g(V)=true, T) :- happensAt(e(V), T).
            """
        )
        assert issues == []

    def test_first_condition_must_be_positive_happens_at(self):
        assert "malformed-rule" in _categories(
            "initiatedAt(f(V)=true, T) :- holdsAt(g(V)=true, T).\n"
            "initiatedAt(g(V)=true, T) :- happensAt(e(V), T)."
        )
        assert "malformed-rule" in _categories(
            "initiatedAt(f(V)=true, T) :- not happensAt(e(V), T)."
        )

    def test_undefined_event(self):
        assert "undefined-event" in _categories(
            "initiatedAt(f(V)=true, T) :- happensAt(unknown(V), T)."
        )

    def test_undefined_fluent_error_category_three(self):
        # The paper's third error category: a condition with an activity
        # that the event description does not define.
        assert "undefined-fluent" in _categories(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), "
            "holdsAt(fishingOperation(V)=true, T)."
        )

    def test_input_fluent_reference_is_fine(self):
        assert (
            _issues(
                "holdsFor(f(V, W)=true, I) :- holdsFor(proximity(V, W)=true, I1), "
                "union_all([I1], I)."
            )
            == []
        )

    def test_undefined_background(self):
        assert "undefined-background" in _categories(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), vesselType(V, tug)."
        )

    def test_holds_for_in_simple_rule_rejected(self):
        assert "malformed-rule" in _categories(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), holdsFor(g(V)=true, I)."
        )

    def test_happens_at_in_holds_for_rejected(self):
        assert "malformed-rule" in _categories(
            "holdsFor(f(V)=true, I) :- holdsFor(proximity(V, W)=true, I), "
            "happensAt(e(V), T)."
        )

    def test_unbound_interval_variable(self):
        assert "malformed-rule" in _categories(
            "holdsFor(f(V)=true, I) :- holdsFor(proximity(V, W)=true, I1), "
            "union_all([I1, I2], I)."
        )

    def test_unbound_head_interval(self):
        assert "malformed-rule" in _categories(
            "holdsFor(f(V)=true, I) :- holdsFor(proximity(V, W)=true, I1), "
            "union_all([I1], I2)."
        )

    def test_self_referential_holds_for(self):
        assert "malformed-rule" in _categories(
            "holdsFor(f(V)=true, I) :- holdsFor(f(V)=true, I), union_all([I], I2)."
        )

    def test_unknown_head_predicate(self):
        assert "malformed-rule" in _categories("foo(f(V)=true, T) :- happensAt(e(V), T).")

    def test_empty_body_rejected(self):
        desc = EventDescription.from_text("initiatedAt(f(V)=true, T).")
        assert "malformed-rule" in {issue.category for issue in desc.validate(VOCAB)}

    def test_no_vocabulary_skips_vocabulary_checks(self):
        issues = _issues(
            "initiatedAt(f(V)=true, T) :- happensAt(unknown(V), T), mystery(V).",
            vocabulary=None,
        )
        assert issues == []

    def test_issue_reports_rule_index(self):
        issues = _issues(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T).\n"
            "initiatedAt(g(V)=true, T) :- happensAt(unknown(V), T)."
        )
        assert issues[0].rule_index == 1
        assert "undefined-event" in str(issues[0])
