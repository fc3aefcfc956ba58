"""Tests for the rule-matching report."""

import pytest

from repro import telemetry
from repro.llm import MODEL_NAMES, PROMPT_SCHEMES
from repro.maritime import MARITIME
from repro.similarity import event_description_distance
from repro.similarity.report import format_matching, match_descriptions

GOLD = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
terminatedAt(f(V)=true, T) :- happensAt(gap(V), T).
"""

GENERATED = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(halt(V), T).
"""


class TestMatching:
    def test_distance_agrees_with_metric(self):
        report = match_descriptions(GENERATED, GOLD)
        assert report.distance == pytest.approx(
            event_description_distance(GENERATED, GOLD)
        )
        assert report.similarity == pytest.approx(1 - report.distance)

    def test_kinds(self):
        report = match_descriptions(GENERATED, GOLD)
        assert len(report.of_kind("exact")) == 1
        assert len(report.of_kind("edit")) == 1
        assert len(report.of_kind("missing")) == 1
        assert not report.of_kind("surplus")

    def test_surplus_rules(self):
        report = match_descriptions(GOLD, GENERATED)  # roles reversed
        assert len(report.of_kind("surplus")) == 1
        assert not report.of_kind("missing")

    def test_identical_descriptions(self):
        report = match_descriptions(GOLD, GOLD)
        assert report.distance == 0
        assert all(match.kind == "exact" for match in report.matches)

    def test_empty_inputs(self):
        assert match_descriptions("", "").distance == 0
        report = match_descriptions("", GOLD)
        assert report.distance == 1
        assert len(report.of_kind("missing")) == 3

    def test_sorted_worst_first(self):
        report = match_descriptions(GENERATED, GOLD)
        distances = [match.distance for match in report.matches]
        assert distances == sorted(distances, reverse=True)

    def test_symmetric_distance(self):
        forward = match_descriptions(GENERATED, GOLD).distance
        backward = match_descriptions(GOLD, GENERATED).distance
        assert forward == pytest.approx(backward)


class TestFormatting:
    def test_worklist_rendering(self):
        text = format_matching(match_descriptions(GENERATED, GOLD))
        assert "MISSING" in text
        assert "EDIT" in text
        assert "gap(V)" in text
        assert "halt(V)" in text
        assert "similarity" in text.splitlines()[0]

    def test_exact_hidden_by_default(self):
        text = format_matching(match_descriptions(GOLD, GOLD))
        assert "EDIT" not in text and "MISSING" not in text
        shown = format_matching(match_descriptions(GOLD, GOLD), show_exact=False)
        assert shown.splitlines()[0].startswith("similarity 1.000")


class TestOnGeneratedDescriptions:
    def test_o1_worklist_is_short(self):
        from repro.generation import generate
        from repro.llm import BEST_SCHEME
        from repro.maritime.gold import gold_event_description

        outcome = generate(MARITIME, "o1", BEST_SCHEME["o1"])
        report = match_descriptions(
            outcome.generated.to_event_description(), gold_event_description()
        )
        # o1's corrections are minor: few non-exact slots.
        assert len(report.of_kind("exact")) > 50
        assert len(report.of_kind("edit")) + len(report.of_kind("missing")) < 12

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_the_report_is_an_oracle_for_the_peeled_distance(self, model):
        """The report solves the full matrix; the metric peels renamed-equal
        rule pairs first. They agree on the distance, and the report's exact
        matches are exactly the pairs the metric peeled."""
        from repro.llm.pipeline import GenerationPipeline
        from repro.llm.simulated import SimulatedLLM
        from repro.maritime.gold import gold_event_description

        gold = gold_event_description()
        for scheme in PROMPT_SCHEMES:
            generated = GenerationPipeline(SimulatedLLM(model, MARITIME), scheme, MARITIME).run()
            description = generated.to_event_description()
            with telemetry.enabled() as tracer:
                distance = event_description_distance(description, gold)
            (span,) = tracer.roots
            report = match_descriptions(description, gold)
            assert report.distance == pytest.approx(distance, abs=1e-12)
            assert len(report.of_kind("exact")) == span.counters["peeled"]
