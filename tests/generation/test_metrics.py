"""Tests for per-activity similarity measurement."""

import pytest

from repro.generation.generator import generate
from repro.generation.metrics import (
    activity_similarity,
    average_similarity,
    headline_rules,
    per_activity_similarities,
)
from repro.llm import CHAIN_OF_THOUGHT, FEW_SHOT
from repro.logic.parser import parse_program
from repro.maritime import MARITIME


class TestHeadlineRules:
    def test_filters_by_head_fluent(self):
        rules = parse_program(
            """
            initiatedAt(trawlSpeed(V)=true, T) :- happensAt(e(V), T).
            holdsFor(trawling(V)=true, I) :-
                holdsFor(trawlSpeed(V)=true, I1),
                union_all([I1], I).
            """
        )
        selected = headline_rules(rules, "trawling")
        assert len(selected) == 1
        assert selected[0].head.functor == "holdsFor"

    def test_skips_facts_without_fvp_heads(self):
        rules = parse_program("areaType(a1, fishing).")
        assert headline_rules(rules, "areaType") == []


class TestActivitySimilarity:
    def test_perfect_for_untouched_activity(self):
        # o1's profile does not touch 'stopped'.
        outcome = generate(MARITIME, "o1", FEW_SHOT)
        assert activity_similarity(outcome.generated, "stopped") == 1.0

    def test_gemma_trawling_is_exactly_zero(self):
        # The paper: "Gemma-2 expressed 'trawling' as a simple fluent,
        # while the hand-crafted rules express it as a statically
        # determined fluent, resulting in a similarity of 0."
        outcome = generate(MARITIME, "gemma-2", CHAIN_OF_THOUGHT)
        assert activity_similarity(outcome.generated, "trawling") == 0.0

    def test_redundant_condition_reduces_but_keeps_high(self):
        # o1's trawling rule has one redundant condition: high similarity.
        outcome = generate(MARITIME, "o1", FEW_SHOT)
        similarity = activity_similarity(outcome.generated, "trawling")
        assert 0.7 < similarity < 1.0

    def test_unknown_group(self):
        outcome = generate(MARITIME, "o1", FEW_SHOT)
        with pytest.raises(KeyError):
            activity_similarity(outcome.generated, "piracy")


class TestAggregation:
    def test_per_activity_covers_all_groups(self):
        outcome = generate(MARITIME, "o1", FEW_SHOT)
        similarities = per_activity_similarities(outcome.generated)
        assert len(similarities) == 15
        assert all(0 <= value <= 1 for value in similarities.values())

    def test_average_in_unit_interval(self):
        outcome = generate(MARITIME, "mistral", CHAIN_OF_THOUGHT)
        assert 0 < average_similarity(outcome.generated) < 1

    def test_outcome_carries_summary(self):
        outcome = generate(MARITIME, "o1", FEW_SHOT)
        assert outcome.average_similarity == pytest.approx(
            average_similarity(outcome.generated)
        )
        assert outcome.model == "o1"
        assert outcome.scheme == FEW_SHOT
