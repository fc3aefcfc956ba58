"""Tests for the whole-description certification layer (repro.analysis.certify)."""

import json
import time

import pytest

import repro.analysis.analyzer as analyzer
from repro.analysis.analyzer import analyse, analyse_text
from repro.analysis.certify import (
    AnalysisCertificate,
    certify_description,
    prove_rule_delta_safety,
)
from repro.analysis.diagnostics import Severity
from repro.logic.parser import parse_rule
from repro.rtec import EventDescription, RTECEngine, Vocabulary

VOCAB = Vocabulary(
    input_events=frozenset(
        {("start", 1), ("stop", 1), ("ping", 1), ("spike", 1), ("slow", 1), ("fast", 1)}
    )
)


def _certify(text, vocabulary=VOCAB, **kwargs):
    return certify_description(EventDescription.from_text(text), vocabulary, **kwargs)


class TestDeltaSafetyProver:
    def test_head_time_anchored_rule_is_safe(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T)."
        )
        safe, problems = prove_rule_delta_safety(rule)
        assert safe and not problems

    def test_unanchored_condition_is_unsafe(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T), happensAt(ping(V), T2)."
        )
        safe, problems = prove_rule_delta_safety(rule)
        assert not safe
        assert [p.category for p in problems] == ["delta-unsafe-condition"]
        assert problems[0].condition_index == 1
        # The suggested rewrite names the fix.
        assert "T2 =:= T" in problems[0].message

    def test_constant_time_condition_is_unsafe(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T), holdsAt(g(V)=true, 5)."
        )
        safe, problems = prove_rule_delta_safety(rule)
        assert not safe
        assert problems[0].category == "delta-unsafe-condition"

    def test_equality_chain_anchors_the_condition(self):
        # The seed time is T0, not the head time T: only the =:= equality
        # class anchors it, and without the comparison the rule is unsafe.
        body = "happensAt(start(V), T0), happensAt(ping(V), T)"
        rule = parse_rule("initiatedAt(f(V)=true, T) :- %s, T0 =:= T." % body)
        safe, problems = prove_rule_delta_safety(rule)
        assert safe and not problems
        unchained = parse_rule("initiatedAt(f(V)=true, T) :- %s." % body)
        assert not prove_rule_delta_safety(unchained)[0]

    def test_transitive_equality_chain(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T0), happensAt(ping(V), T1), "
            "happensAt(spike(V), T), "
            "T0 =:= T1, T1 =:= T, holdsAt(g(V)=true, T0)."
        )
        safe, problems = prove_rule_delta_safety(rule)
        assert safe and not problems

    def test_unanchored_seed_time_is_unsafe_head(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T0), happensAt(ping(V), T)."
        )
        safe, problems = prove_rule_delta_safety(rule)
        assert not safe
        assert any(p.category == "delta-unsafe-head" for p in problems)

    def test_negated_anchored_condition_is_safe(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T), not happensAt(ping(V), T)."
        )
        safe, _ = prove_rule_delta_safety(rule)
        assert safe

    def test_non_compiling_rule_is_unsafe(self):
        # First condition is not a positive happensAt: no seeded plan.
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- holdsAt(g(V)=true, T)."
        )
        safe, problems = prove_rule_delta_safety(rule)
        assert not safe
        assert problems[0].category == "delta-unsafe-head"
        assert "does not compile" in problems[0].message


class TestMemoryBoundedness:
    def test_untreated_initiation_is_leaky(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
        )
        assert certificate.certified
        assert not certificate.memory_bounded
        assert certificate.leaky_fluents == ("hot/1=true",)
        assert [d.code for d in certificate.diagnostics] == ["RTEC027"]

    def test_termination_bounds_the_fluent(self):
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        assert certificate.memory_bounded
        assert not certificate.leaky_fluents

    def test_max_duration_bounds_the_fluent(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
            "maxDuration(hot(V)=true, 60).\n"
        )
        assert certificate.memory_bounded

    def test_value_exclusivity_bounds_both_values(self):
        # Initiating speed=low terminates speed=high and vice versa.
        certificate = _certify(
            "initiatedAt(speed(V)=low, T) :- happensAt(slow(V), T).\n"
            "initiatedAt(speed(V)=high, T) :- happensAt(fast(V), T).\n"
        )
        assert certificate.memory_bounded

    def test_dead_termination_does_not_count(self):
        # The termination targets a value nothing initiates: it can never
        # pair, so f=true still leaks (RTEC010 would miss this — a
        # terminatedAt rule exists).
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=other, T) :- happensAt(stop(V), T).\n"
        )
        assert not certificate.memory_bounded
        assert "f/1=true" in certificate.leaky_fluents

    def test_union_all_propagates_the_leak(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
            "holdsFor(alarm(V)=true, I) :-\n"
            "    holdsFor(hot(V)=true, I1),\n"
            "    holdsFor(f(V)=true, I2),\n"
            "    union_all([I1, I2], I).\n"
        )
        assert not certificate.memory_bounded
        assert "alarm/1=true" in certificate.leaky_fluents
        assert any(d.code == "RTEC028" for d in certificate.diagnostics)

    def test_intersect_all_with_a_bounded_input_stops_the_leak(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
            "holdsFor(alarm(V)=true, I) :-\n"
            "    holdsFor(hot(V)=true, I1),\n"
            "    holdsFor(f(V)=true, I2),\n"
            "    intersect_all([I1, I2], I).\n"
        )
        assert "hot/1=true" in certificate.leaky_fluents
        assert "alarm/1=true" not in certificate.leaky_fluents

    def test_relative_complement_follows_its_first_operand(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
            "holdsFor(alarm(V)=true, I) :-\n"
            "    holdsFor(hot(V)=true, I1),\n"
            "    holdsFor(f(V)=true, I2),\n"
            "    relative_complement_all(I1, [I2], I).\n"
            "holdsFor(calm(V)=true, I) :-\n"
            "    holdsFor(f(V)=true, I2),\n"
            "    holdsFor(hot(V)=true, I1),\n"
            "    relative_complement_all(I2, [I1], I).\n"
        )
        assert "alarm/1=true" in certificate.leaky_fluents  # base is leaky
        assert "calm/1=true" not in certificate.leaky_fluents  # base bounded


class TestCertificate:
    def test_parse_failure_is_uncertifiable(self):
        report = analyse_text("initiatedAt(f(V)=", VOCAB)
        certificate = AnalysisCertificate.from_report(report)
        assert [d.code for d in report.diagnostics] == ["RTEC001"]
        assert not certificate.certified
        assert not certificate.delta_safe
        assert not certificate.memory_bounded
        assert certificate.diagnostics == ()

    def test_base_analysis_errors_are_uncertifiable(self):
        # Undefined event against the vocabulary: error severity. The
        # initiation is never terminated, but the certification passes did
        # not run, so no RTEC027 is reported.
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(unknownEvent(V), T).\n"
        )
        assert not certificate.certified
        assert not certificate.delta_safe and not certificate.memory_bounded
        assert certificate.diagnostics == ()

    def test_report_renders_all_formats(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
        )
        report = certificate.report(source="<test>")
        assert report.by_code("RTEC027")
        assert "RTEC027" in report.format_text()
        json.loads(report.to_json())


class TestOneAnalysis:
    """Certification is the analyser's last two passes, not a second analysis."""

    UNANCHORED = (
        "initiatedAt(f(V)=true, T) :- "
        "happensAt(start(V), T), happensAt(ping(V), T2).\n"
        "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
    )

    def test_lint_reports_an_unanchored_condition(self):
        report = analyse(EventDescription.from_text(self.UNANCHORED), VOCAB)
        assert not report.has_errors
        (unsafe,) = report.by_code("RTEC025")
        assert (unsafe.rule_index, unsafe.condition_index) == (0, 1)
        certificate = AnalysisCertificate.from_report(report)
        assert certificate.certified and not certificate.delta_safe
        assert certificate.diagnostics == (unsafe,)

    def test_a_base_error_silences_the_certification_passes(self):
        # Unanchored and leaky, but its undefined event is an error first.
        text = self.UNANCHORED + (
            "initiatedAt(hot(V)=true, T) :- happensAt(unknownEvent(V), T).\n"
        )
        report = analyse(EventDescription.from_text(text), VOCAB)
        assert report.by_code("RTEC003")
        codes = {d.code for d in report.diagnostics}
        assert not codes & {"RTEC025", "RTEC026", "RTEC027", "RTEC028"}

    def test_strict_engine_certificate_runs_no_second_analysis(self, monkeypatch):
        engine = RTECEngine(EventDescription.from_text(self.UNANCHORED), vocabulary=VOCAB)
        calls = []
        monkeypatch.setattr(analyzer, "analyse", lambda *a, **k: calls.append(a))
        certificate = engine.certificate()
        assert calls == []
        assert certificate.certified and not certificate.delta_safe
        assert certificate is engine.certificate()


class TestEngineIntegration:
    RULES = (
        "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
        "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
    )

    def test_engine_certificate_is_cached(self):
        engine = RTECEngine(EventDescription.from_text(self.RULES), strict=False)
        first = engine.certificate()
        assert first is engine.certificate()
        assert first.delta_safe

    def test_delta_diagnostics_accept_equality_anchoring(self):
        # Anchored through an =:= chain, so the rule keeps the delta path.
        rules = self.RULES + (
            "initiatedAt(g(V)=true, T) :- "
            "happensAt(start(V), T0), happensAt(ping(V), T), T0 =:= T.\n"
            "terminatedAt(g(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        engine = RTECEngine(EventDescription.from_text(rules), strict=False)
        assert engine.delta_diagnostics() == []

    UNSAFE = (
        "initiatedAt(f(V)=true, T) :- "
        "happensAt(start(V), T), happensAt(ping(V), T2).\n"
    )

    def test_delta_diagnostics_invalidate_on_description_mutation(self):
        # Regression: a repair that appended an unsafe rule to the loaded
        # description kept the stale "safe" verdict, and sessions ran the
        # unsound delta path. A description is now a value: the append
        # raises, and the description built with the rule is proved unsafe.
        engine = RTECEngine(EventDescription.from_text(self.RULES), strict=False)
        assert engine.delta_diagnostics() == []
        with pytest.raises(AttributeError):
            engine.description.simple_fluents[("f", 1)].initiated_rules.append(
                parse_rule(self.UNSAFE)
            )
        assert engine.delta_diagnostics() == []
        rebuilt = EventDescription.from_text(self.RULES + self.UNSAFE)
        assert RTECEngine(rebuilt, strict=False).delta_diagnostics() != []

    def test_certificate_invalidates_on_description_mutation(self):
        engine = RTECEngine(EventDescription.from_text(self.RULES), strict=False)
        assert engine.certificate().delta_safe
        with pytest.raises(AttributeError):
            engine.description.simple_fluents[("f", 1)].initiated_rules.append(
                parse_rule(self.UNSAFE)
            )
        assert engine.certificate().delta_safe
        rebuilt = EventDescription.from_text(self.RULES + self.UNSAFE)
        assert not RTECEngine(rebuilt, strict=False).certificate().delta_safe


class TestGoldCertification:
    @pytest.mark.parametrize("which", ["maritime", "fleet"])
    def test_golds_certify_clean(self, which):
        from repro.domain import gold_domain

        domain = gold_domain(which)
        certificate = certify_description(
            domain.gold(), domain.vocabulary, outputs=sorted(domain.outputs)
        )
        assert certificate.certified
        assert certificate.delta_safe
        assert certificate.memory_bounded
        assert not certificate.leaky_fluents
        assert not certificate.report().at_or_above(Severity.WARNING)

    def test_gold_maritime_certifies_under_budget(self, small_dataset, gold_description):
        # A strict engine certifies inline on every load, so certifying the
        # larger gold must stay under two seconds. Best of three: a loaded
        # runner swings one round by more than the budget.
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            certificate = certify_description(
                gold_description, small_dataset.vocabulary, kb=small_dataset.kb
            )
            timings.append(time.perf_counter() - started)
        assert certificate.certified
        assert certificate.delta_safe
        assert certificate.memory_bounded
        assert min(timings) < 2.0, "certification took %.3fs" % min(timings)

    def test_forgotten_termination_mutation_is_flagged(self):
        # The paper's DropRule error class applied to every termination of
        # one building-block fluent: the leak and its propagation through
        # the interval algebra must both be caught.
        from repro.maritime import MARITIME
        from repro.rtec.description import fluent_key

        rules = [
            rule
            for rule in MARITIME.gold().rules
            if not (
                getattr(rule.head, "functor", "") == "terminatedAt"
                and fluent_key(rule.head.args[0].args[0]) == ("lowSpeed", 1)
            )
        ]
        mutated = EventDescription(rules)
        certificate = certify_description(
            mutated, MARITIME.vocabulary, outputs=sorted(MARITIME.outputs)
        )
        assert certificate.certified
        assert not certificate.memory_bounded
        assert "lowSpeed/1=true" in certificate.leaky_fluents
        codes = {d.code for d in certificate.diagnostics}
        assert "RTEC027" in codes and "RTEC028" in codes
