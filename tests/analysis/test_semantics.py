"""The semantic layer: producible values and reachability (RTEC018, RTEC022-023).

Gold descriptions are semantically clean; each seeded corruption of the
gold maritime description is caught with the documented code.
"""

from repro.analysis import analyse, analyse_text
from repro.analysis.semantics import analyse_semantics
from repro.fleet import FLEET_VOCABULARY, fleet_gold_event_description
from repro.maritime import MARITIME_VOCABULARY, build_dataset, gold_event_description
from repro.rtec import EventDescription

SEMANTIC_CODES = {"RTEC018", "RTEC022", "RTEC023"}


def _semantic(report):
    return [d for d in report.diagnostics if d.code in SEMANTIC_CODES]


class TestGoldIsClean:
    def test_maritime_gold_has_no_semantic_diagnostics(self):
        description = gold_event_description()
        report = analyse(description, MARITIME_VOCABULARY)
        assert _semantic(report) == []

    def test_maritime_gold_clean_with_knowledge_base(self):
        # The kb enables the naming pass's constant checks; the gold uses
        # only known constants.
        dataset = build_dataset(seed=0, scale=0.1)
        description = gold_event_description()
        report = analyse(description, MARITIME_VOCABULARY, kb=dataset.kb)
        assert _semantic(report) == []

    def test_fleet_gold_has_no_semantic_diagnostics(self):
        description = fleet_gold_event_description()
        report = analyse(description, FLEET_VOCABULARY)
        assert _semantic(report) == []


class TestImpossibleValue:
    def test_rtec018_on_unproducible_fluent_value(self):
        text = gold_event_description().to_text()
        needle = "holdsFor(movingSpeed(Vessel)=below, I1),"
        assert needle in text
        mutated = text.replace(
            needle, "holdsFor(movingSpeed(Vessel)=crawling, I1),", 1
        )
        report = analyse_text(mutated, MARITIME_VOCABULARY)
        impossible = report.by_code("RTEC018")
        assert impossible
        assert "crawling" in impossible[0].message

    def test_union_branch_stays_reachable(self):
        # Regression: one impossible branch of a union_all must not make
        # the whole static fluent unreachable — the other branches still
        # produce intervals.
        text = gold_event_description().to_text()
        mutated = text.replace(
            "holdsFor(movingSpeed(Vessel)=below, I1),",
            "holdsFor(movingSpeed(Vessel)=crawling, I1),",
            1,
        )
        report = analyse_text(mutated, MARITIME_VOCABULARY)
        assert not report.by_code("RTEC022")
        assert not report.by_code("RTEC023")


class TestContradictoryConditions:
    def test_contradictory_rule_is_not_reported_unreachable(self):
        # Comparisons are not a reachability input: a rule whose bounds
        # contradict each other leaves movingSpeed producible.
        text = gold_event_description().to_text()
        mutated = text.replace(
            "    Speed>=MovingMin,",
            "    Speed>=MovingMin,\n    Speed<MovingMin,",
            1,
        )
        report = analyse_text(mutated, MARITIME_VOCABULARY)
        assert not report.by_code("RTEC022")
        assert not report.by_code("RTEC023")


GHOST_RULES = """
initiatedAt(ghost(Vessel)=true, T) :-
    happensAt(gap_start(Vessel), T),
    holdsAt(movingSpeed(Vessel)=warp, T).

terminatedAt(ghost(Vessel)=true, T) :-
    happensAt(gap_end(Vessel), T).
"""


class TestReachability:
    def _mutated(self):
        return gold_event_description().to_text() + GHOST_RULES

    def test_rtec022_on_unreachable_defined_fluent(self):
        report = analyse_text(self._mutated(), MARITIME_VOCABULARY)
        assert report.by_code("RTEC018")  # warp is not producible
        unreachable = report.by_code("RTEC022")
        assert unreachable
        assert "ghost" in unreachable[0].message

    def test_rtec023_when_the_fluent_is_a_declared_output(self):
        description = EventDescription.from_text(self._mutated())
        report = analyse(description, MARITIME_VOCABULARY, outputs=("ghost",))
        assert report.by_code("RTEC023")
        assert not report.by_code("RTEC022")


class TestAnalyseSemantics:
    def test_facts_surface_on_gold(self):
        description = gold_event_description()
        facts = analyse_semantics(description, vocabulary=MARITIME_VOCABULARY)
        assert facts.diagnostics == []
        assert facts.producible
        assert ("movingSpeed", 1) in facts.producible
        assert facts.unreachable == set()

    def test_diagnostics_have_semantic_codes(self):
        description = EventDescription.from_text(
            gold_event_description().to_text() + GHOST_RULES
        )
        facts = analyse_semantics(description, vocabulary=MARITIME_VOCABULARY)
        codes = {d.code for d in facts.diagnostics}
        assert codes and codes <= SEMANTIC_CODES

    def test_a_rule_on_an_impossible_value_is_dead(self):
        # Only the ghost initiation: its termination references no value.
        description = EventDescription.from_text(
            gold_event_description().to_text() + GHOST_RULES
        )
        facts = analyse_semantics(description, vocabulary=MARITIME_VOCABULARY)
        assert facts.dead_rules == {len(description.rules) - 2}
