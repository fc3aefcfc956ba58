"""Tests for the whole-description certification layer (repro.analysis.certify)."""

import json
import time

import pytest

from repro.analysis.certify import (
    AnalysisCertificate,
    certify_description,
    certify_text,
    condition_class,
    description_digest,
    prove_rule_delta_safety,
)
from repro.analysis.diagnostics import Severity
from repro.logic.parser import parse_rule
from repro.logic.terms import term_variables
from repro.rtec import EventDescription, RTECEngine, Vocabulary

VOCAB = Vocabulary(
    input_events=frozenset(
        {("start", 1), ("stop", 1), ("ping", 1), ("spike", 1), ("slow", 1), ("fast", 1)}
    )
)


def _certify(text, vocabulary=VOCAB, **kwargs):
    certificate, _lines = certify_text(text, vocabulary, **kwargs)
    return certificate


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
    def test_signature_round_trip(self):
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        assert certificate.verify()
        loaded = AnalysisCertificate.from_json(certificate.to_json())
        assert loaded.verify()
        assert loaded.to_dict() == certificate.to_dict()

    def test_tampering_breaks_the_signature(self):
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        data = certificate.to_dict()
        data["memory_bounded"] = not data["memory_bounded"]
        assert not AnalysisCertificate.from_dict(data).verify()

    def test_verify_binds_to_the_description(self):
        text = (
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        certificate = _certify(text)
        description = EventDescription.from_text(text)
        assert certificate.description_hash == description_digest(description)
        assert certificate.verify(description)
        other = EventDescription.from_text(
            "initiatedAt(g(V)=true, T) :- happensAt(start(V), T).\n"
        )
        assert not certificate.verify(other)

    def test_parse_failure_is_uncertifiable(self):
        certificate = _certify("initiatedAt(f(V)=")
        assert not certificate.certified
        assert not certificate.delta_safe
        assert not certificate.memory_bounded
        assert [d.code for d in certificate.diagnostics] == ["RTEC030"]
        assert certificate.diagnostics[0].severity == Severity.ERROR
        assert certificate.verify()

    def test_base_analysis_errors_are_uncertifiable(self):
        # Undefined event against the vocabulary: error severity.
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(unknownEvent(V), T).\n"
        )
        assert not certificate.certified
        assert [d.code for d in certificate.diagnostics] == ["RTEC030"]
        assert "RTEC003" in certificate.diagnostics[0].message

    def test_report_renders_all_formats(self):
        certificate = _certify(
            "initiatedAt(hot(V)=true, T) :- happensAt(spike(V), T).\n"
        )
        report = certificate.report(source="<test>")
        assert report.by_code("RTEC027")
        assert "RTEC027" in report.format_text()
        json.loads(report.to_json())

    def test_delta_messages_mirror_unsafe_rules(self):
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T), happensAt(ping(V), T2).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        assert not certificate.delta_safe
        messages = certificate.delta_messages()
        assert len(messages) == 1
        assert messages[0].startswith("f/1:")

    def test_uncertifiable_description_costs_nothing(self):
        certificate = _certify("initiatedAt(f(V)=")
        assert certificate.total_cost == 0.0
        assert not certificate.fluent_costs


#: ``total_cost`` and ``fluent_costs`` of the two
#: golds at PR 19, before ``condition_class`` / ``DEFAULT_EXPANSIONS`` moved
#: into ``certify.py``: the one remaining cost model must not move a number.
GOLD_COSTS = {
    "maritime": (
        196.8167,
        {
            "changingSpeed/1": 3.0,
            "drifting/1": 7.92,
            "gap/1": 6.0,
            "highSpeedNearCoast/1": 8.92,
            "lowSpeed/1": 3.0,
            "movingSpeed/1": 20.696,
            "sarMovement/1": 4.0,
            "sarSpeed/1": 7.24,
            "stopped/1": 8.0,
            "trawlSpeed/1": 12.8387,
            "trawlingMovement/1": 5.0,
            "tuggingSpeed/1": 10.296,
            "withinArea/2": 5.0,
            "anchoredOrMoored/1": 11.83,
            "loitering/1": 11.83,
            "lowSpeedOrStopped/1": 6.7,
            "pilotBoarding/2": 21.008,
            "searchAndRescue/1": 6.7,
            "trawling/1": 6.7,
            "tugging/2": 21.008,
            "underWay/1": 9.13,
        },
    ),
    "fleet": (
        55.46,
        {
            "engineOn/1": 2.0,
            "overSpeeding/1": 15.8,
            "stopped/1": 2.0,
            "unsafeManoeuvre/1": 4.0,
            "withinZone/2": 4.0,
            "dangerousDriving/1": 11.83,
            "idling/1": 6.7,
            "unauthorisedStop/1": 9.13,
        },
    ),
}


class TestCostModel:
    def test_classifies_a_mixed_body(self):
        # The class of each body literal, threading bound variables left to
        # right the way the evaluator does.
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(e(V, S), T), S > 5, areaType(A, B), "
            "holdsAt(g(V)=true, T), holdsAt(h(V, W)=true, T), "
            "not happensAt(x(V), T), not areaType(A, B)."
        )
        bound = set(term_variables(rule.head))
        classes = []
        for literal in rule.body:
            classes.append(condition_class(literal, bound))
            if not literal.negated:
                bound |= set(term_variables(literal.term))
        assert classes == [
            "happensat",
            "compare",
            "background",
            "holdsat.ground",
            "holdsat.enum",
            "happensat.neg",
            "background.neg",
        ]

    @pytest.mark.parametrize("which", ["maritime", "fleet"])
    def test_gold_costs_are_the_parents(self, which):
        from repro.cli import _gold_lint_target

        description, vocabulary, outputs, _source = _gold_lint_target(which)
        certificate = certify_description(description, vocabulary, outputs=sorted(outputs))
        total, fluent_costs = GOLD_COSTS[which]
        assert certificate.total_cost == total
        assert dict(certificate.fluent_costs) == fluent_costs

    def test_joins_raise_the_cost(self):
        cheap = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        joined = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T),\n"
            "    happensAt(ping(V), T), happensAt(spike(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        assert joined.total_cost > cheap.total_cost

    def test_window_sensitive_rule_costs_more(self):
        anchored = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T),\n"
            "    happensAt(ping(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        unanchored = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T),\n"
            "    happensAt(ping(V), T2).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
        )
        assert unanchored.total_cost > anchored.total_cost
        unsafe_rules = [r for r in unanchored.rules if r.window_sensitive]
        assert len(unsafe_rules) == 1
        assert unsafe_rules[0].kind == "initiatedAt"

    def test_fluent_costs_sum_to_total(self):
        certificate = _certify(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
            "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
            "holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).\n"
        )
        assert certificate.fluent_costs.keys() == {"f/1", "g/1"}
        assert certificate.total_cost == pytest.approx(
            sum(certificate.fluent_costs.values()), abs=1e-3
        )


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

    def test_delta_diagnostics_invalidate_on_description_mutation(self):
        # Regression: the cache used to survive description mutation, so a
        # repair rewrite appending an unsafe rule kept the stale "safe"
        # verdict and sessions ran the unsound delta path.
        engine = RTECEngine(EventDescription.from_text(self.RULES), strict=False)
        assert engine.delta_diagnostics() == []
        unsafe = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T), happensAt(ping(V), T2)."
        )
        engine.description.simple_fluents[("f", 1)].initiated_rules.append(unsafe)
        assert engine.delta_diagnostics() != []

    def test_certificate_invalidates_on_description_mutation(self):
        engine = RTECEngine(EventDescription.from_text(self.RULES), strict=False)
        assert engine.certificate().delta_safe
        unsafe = parse_rule(
            "initiatedAt(f(V)=true, T) :- "
            "happensAt(start(V), T), happensAt(ping(V), T2)."
        )
        engine.description.simple_fluents[("f", 1)].initiated_rules.append(unsafe)
        assert not engine.certificate().delta_safe


class TestGoldCertification:
    @pytest.mark.parametrize("which", ["maritime", "fleet"])
    def test_golds_certify_clean(self, which):
        from repro.cli import _gold_lint_target

        description, vocabulary, outputs, _source = _gold_lint_target(which)
        certificate = certify_description(
            description, vocabulary, outputs=sorted(outputs)
        )
        assert certificate.certified
        assert certificate.delta_safe
        assert certificate.memory_bounded
        assert not certificate.leaky_fluents
        assert not certificate.report().at_or_above(Severity.WARNING)
        assert certificate.verify(description)
        assert certificate.total_cost > 0

    def test_gold_maritime_certifies_under_budget(self, small_dataset, gold_description):
        # Admission certifies inline on every session attach, so certifying
        # the larger gold must stay under two seconds. Best of three: a
        # loaded runner swings one round by more than the budget.
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
        assert certificate.verify(gold_description)
        assert min(timings) < 2.0, "certification took %.3fs" % min(timings)

    def test_forgotten_termination_mutation_is_flagged(self):
        # The paper's DropRule error class applied to every termination of
        # one building-block fluent: the leak and its propagation through
        # the interval algebra must both be caught.
        from repro.cli import _gold_lint_target
        from repro.rtec.description import fluent_key

        description, vocabulary, outputs, _source = _gold_lint_target("maritime")
        rules = [
            rule
            for rule in description.rules
            if not (
                getattr(rule.head, "functor", "") == "terminatedAt"
                and fluent_key(rule.head.args[0].args[0]) == ("lowSpeed", 1)
            )
        ]
        mutated = EventDescription(rules)
        certificate = certify_description(
            mutated, vocabulary, outputs=sorted(outputs)
        )
        assert certificate.certified
        assert not certificate.memory_bounded
        assert "lowSpeed/1=true" in certificate.leaky_fluents
        codes = {d.code for d in certificate.diagnostics}
        assert "RTEC027" in codes and "RTEC028" in codes
