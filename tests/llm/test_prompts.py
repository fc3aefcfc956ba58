"""Unit tests for the prompt builders (Section 3)."""

import pytest

from repro.llm.prompts import (
    CHAIN_OF_THOUGHT,
    FEW_SHOT,
    prompt_e,
    prompt_f,
    prompt_g,
    prompt_r,
    prompt_t,
)
from repro.maritime import MARITIME
from repro.maritime.thresholds import DEFAULT_THRESHOLDS


class TestPromptR:
    def test_teaches_core_predicates(self):
        text = prompt_r()
        for predicate in ("happensAt", "initiatedAt", "terminatedAt", "holdsAt", "holdsFor"):
            assert predicate in text

    def test_teaches_interval_constructs(self):
        text = prompt_r()
        for construct in ("union_all", "intersect_all", "relative_complement_all"):
            assert construct in text


class TestPromptF:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            prompt_f("zero-shot")

    def test_chain_of_thought_includes_explanations(self):
        text = prompt_f(CHAIN_OF_THOUGHT)
        assert "Answer: The activity 'withinArea' is expressed" in text

    def test_few_shot_omits_explanations(self):
        text = prompt_f(FEW_SHOT)
        assert "Answer:" not in text

    def test_both_schemes_carry_the_worked_rules(self):
        for scheme in (FEW_SHOT, CHAIN_OF_THOUGHT):
            text = prompt_f(scheme)
            assert "initiatedAt(withinArea(Vessel, AreaType)=true, T)" in text
            assert "holdsFor(underWay(Vessel)=true, I)" in text
            assert "union_all([I1, I2, I3], I)" in text


class TestPromptE:
    def test_lists_input_events_with_meanings(self):
        text = prompt_e(MARITIME)
        assert "Input Event 1:" in text
        assert "velocity(Vessel, Speed, CourseOverGround, TrueHeading)" in text
        assert "gap_start(Vessel)" in text

    def test_lists_input_fluents(self):
        assert "proximity(Vessel1, Vessel2)=true" in prompt_e(MARITIME)


class TestPromptT:
    def test_lists_thresholds_with_values(self):
        text = prompt_t(MARITIME)
        assert "thresholds(hcNearCoastMax, HcNearCoastMax)" in text
        assert str(DEFAULT_THRESHOLDS.hcNearCoastMax) in text

    def test_mentions_background_predicates(self):
        text = prompt_t(MARITIME)
        assert "vesselType(Vessel, Type)" in text
        assert "oneIsTug(Vessel1, Vessel2)" in text


class TestPromptG:
    def test_embeds_description(self):
        text = prompt_g("Trawling: some description.", "Maritime")
        assert text.endswith("Maritime Composite Activity Description - Trawling: some description.")
        assert "provide the rules in RTEC formalization" in text
        assert "already learned" in text
