"""Seeded-mutation tests: each corruption of the gold event description is
caught at lint time with the documented code, at the expected rule."""

import pytest

from repro.analysis import analyse, analyse_text
from repro.fleet import FLEET_VOCABULARY, fleet_gold_event_description
from repro.logic.parser import parse_rule
from repro.logic.terms import Compound
from repro.maritime import MARITIME_VOCABULARY, gold_event_description
from repro.rtec import EventDescription
from repro.rtec.compile import compile_rule
from repro.rtec.errors import EvaluationError


class TestGoldIsClean:
    def test_maritime_gold_has_no_error_diagnostics(self):
        description = gold_event_description()
        report = analyse(description, MARITIME_VOCABULARY, text=description.to_text())
        assert report.errors == []

    def test_fleet_gold_has_no_error_diagnostics(self):
        description = fleet_gold_event_description()
        report = analyse(description, FLEET_VOCABULARY, text=description.to_text())
        assert report.errors == []


class TestUnboundVariableMutation:
    """Unbinding a comparison variable used to crash at run time only
    (EvaluationError from evaluate_arithmetic mid-window); the linter now
    reports RTEC007 statically and the compiler rejects the rule."""

    def _mutate(self):
        text = gold_event_description().to_text()
        assert "Speed>=MovingMin," in text
        return text.replace("Speed>=MovingMin,", "Speed>=MovingMinUnbound,", 1)

    def test_rtec007_at_the_mutated_rule(self):
        mutated = self._mutate()
        report = analyse_text(mutated, MARITIME_VOCABULARY)
        unbound = [d for d in report.errors if d.code == "RTEC007"]
        assert len(unbound) == 1
        diag = unbound[0]
        assert "MovingMinUnbound" in diag.message
        description = EventDescription.from_text(mutated)
        mutated_rule = description.rules[diag.rule_index]
        assert "MovingMinUnbound" in repr(mutated_rule)
        assert "movingSpeed" in repr(mutated_rule.head)

    def test_compile_rejects_the_rule_before_any_window_runs(self):
        description = EventDescription.from_text(self._mutate())
        bad = next(r for r in description.rules if "MovingMinUnbound" in repr(r))
        with pytest.raises(EvaluationError, match="unbound variable"):
            compile_rule(bad)


class TestNeverTerminatedMutation:
    def test_dropping_terminations_reports_rtec010(self):
        rules = [
            rule
            for rule in gold_event_description().rules
            if not (
                isinstance(rule.head, Compound)
                and rule.head.functor == "terminatedAt"
                and "withinArea" in repr(rule.head)
            )
        ]
        report = analyse(EventDescription(rules), MARITIME_VOCABULARY)
        never = [d for d in report.warnings if d.code == "RTEC010"]
        assert len(never) == 1
        assert "withinArea/2" in never[0].message
        # A warning, not an error: the description still executes.
        assert all(d.code != "RTEC010" for d in report.errors)


class TestCycleMutation:
    def test_cycle_reports_rtec006_with_full_path(self):
        rules = list(gold_event_description().rules) + [
            parse_rule(
                "holdsFor(anchoredOrMoored(Vessel)=true, I) :- "
                "holdsFor(loitering(Vessel)=true, I1), union_all([I1], I)."
            )
        ]
        report = analyse(EventDescription(rules), MARITIME_VOCABULARY)
        cycles = [d for d in report.errors if d.code == "RTEC006"]
        assert len(cycles) == 1
        assert "anchoredOrMoored/1" in cycles[0].message
        assert "loitering/1" in cycles[0].message
        assert "->" in cycles[0].message


class TestWrongArityMutation:
    def test_union_all_arity_misuse_reports_rtec009(self):
        text = gold_event_description().to_text()
        assert "union_all([I1, I2, I3], I)" in text
        mutated = text.replace(
            "union_all([I1, I2, I3], I)", "union_all([I1, I2, I3], I, Extra)", 1
        )
        report = analyse_text(mutated, MARITIME_VOCABULARY)
        wrong = [d for d in report.at_or_above(report.errors[0].severity) if d.code == "RTEC009"]
        assert wrong, "expected a RTEC009 diagnostic"
        assert any("union_all" in d.message for d in wrong)
        description = EventDescription.from_text(mutated)
        target = next(
            i
            for i, rule in enumerate(description.rules)
            if "Extra" in repr(rule)
        )
        assert any(d.rule_index == target for d in wrong)


class TestNamingFixes:
    def test_close_variant_name_gets_a_fix(self):
        text = gold_event_description().to_text().replace("gap_start", "gapStart")
        report = analyse_text(text, MARITIME_VOCABULARY)
        naming = [d for d in report.diagnostics if d.code == "RTEC016"]
        assert naming
        fix = naming[0].fix
        assert fix is not None
        assert (fix.old, fix.new) == ("gapStart", "gap_start")


class TestDuplicateAndContradictoryRules:
    """RTEC013/014 compare rules through ``canonical``, the form definition
    keys use: identical up to variable renaming, constants compared with
    their type."""

    RULE = "initiatedAt(fast(V)=true, T) :- happensAt(velocity(V, S), T), S > %s."

    def _codes(self, text):
        return [d.code for d in analyse_text(text).diagnostics if d.code in ("RTEC013", "RTEC014")]

    def test_an_alpha_renamed_rule_is_a_duplicate(self):
        renamed = self.RULE.replace("V", "Vessel").replace("S", "Speed") % "2"
        assert self._codes("\n".join([self.RULE % "2", renamed])) == ["RTEC013"]

    def test_2_and_2_0_are_not_duplicates(self):
        # Constant(2) == Constant(2.0), but the rules render differently and
        # definition keys keep them apart too: one canonical form for both.
        assert self._codes("\n".join([self.RULE % "2", self.RULE % "2.0"])) == []

    def test_the_same_conditions_initiating_and_terminating_contradict(self):
        terminated = (self.RULE % "2").replace("initiatedAt", "terminatedAt").replace("V", "W")
        assert self._codes("\n".join([self.RULE % "2", terminated])) == ["RTEC014"]
