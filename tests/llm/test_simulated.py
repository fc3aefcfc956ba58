"""Tests for the simulated LLMs and their interaction with the pipeline."""

import pytest

from repro.llm import (
    BEST_SCHEME,
    CHAIN_OF_THOUGHT,
    FEW_SHOT,
    ChatMessage,
    GenerationPipeline,
    MODEL_NAMES,
    SimulatedLLM,
    profile_for,
    prompt_f,
    prompt_g,
)
from repro.maritime import MARITIME
from repro.maritime.gold import ACTIVITY_GROUPS


class TestInterface:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            SimulatedLLM("gpt-5", MARITIME)

    def test_model_name(self):
        assert SimulatedLLM("o1", MARITIME).model_name == "o1"

    def test_acknowledges_teaching_prompts(self):
        client = SimulatedLLM("o1", MARITIME)
        reply = client.complete([ChatMessage("user", "Some teaching prompt.")])
        assert reply == "Understood."

    def test_unknown_activity_yields_comment(self):
        client = SimulatedLLM("o1", MARITIME)
        reply = client.complete(
            [
                ChatMessage(
                    "user",
                    prompt_g("Piracy: an activity we never taught the model about.", "Maritime"),
                )
            ]
        )
        assert reply.startswith("%")


class TestSchemeDetection:
    def test_detects_chain_of_thought_from_f_prompt(self):
        client = SimulatedLLM("gpt-4o", MARITIME)
        conversation = [
            ChatMessage("user", prompt_f(CHAIN_OF_THOUGHT)),
            ChatMessage("assistant", "Understood."),
            ChatMessage("user", prompt_g(ACTIVITY_GROUPS[0].description, "Maritime")),
        ]
        assert client._detect_scheme(conversation) == CHAIN_OF_THOUGHT

    def test_no_f_prompt_means_zero_shot(self):
        from repro.llm.prompts import ZERO_SHOT

        client = SimulatedLLM("gpt-4o", MARITIME)
        conversation = [ChatMessage("user", prompt_g(ACTIVITY_GROUPS[0].description, "Maritime"))]
        assert client._detect_scheme(conversation) == ZERO_SHOT


class TestGeneration:
    def test_gold_activity_without_profile_is_emitted_verbatim(self):
        # o1 has no transformation for 'stopped': the reply parses to the
        # gold rules.
        from repro.logic.parser import parse_program

        client = SimulatedLLM("o1", MARITIME)
        group = next(g for g in ACTIVITY_GROUPS if g.name == "stopped")
        conversation = [
            ChatMessage("user", prompt_f(FEW_SHOT)),
            ChatMessage("assistant", "Understood."),
            ChatMessage("user", prompt_g(group.description, "Maritime")),
        ]
        reply = client.complete(conversation)
        assert parse_program(reply) == parse_program(group.rules_text)

    def test_profile_transformations_applied(self):
        # o1's trawling profile renames 'fishing' to 'trawlingArea'.
        client = SimulatedLLM("o1", MARITIME)
        group = next(g for g in ACTIVITY_GROUPS if g.name == "trawling")
        conversation = [
            ChatMessage("user", prompt_f(FEW_SHOT)),
            ChatMessage("assistant", "Understood."),
            ChatMessage("user", prompt_g(group.description, "Maritime")),
        ]
        reply = client.complete(conversation)
        assert "trawlingArea" in reply
        assert "underWay" in reply  # the redundant condition

    def test_gemma_trawling_is_simple_fluent(self):
        client = SimulatedLLM("gemma-2", MARITIME)
        group = next(g for g in ACTIVITY_GROUPS if g.name == "trawling")
        conversation = [
            ChatMessage("user", prompt_f(CHAIN_OF_THOUGHT)),
            ChatMessage("assistant", "Understood."),
            ChatMessage("user", prompt_g(group.description, "Maritime")),
        ]
        reply = client.complete(conversation)
        assert "initiatedAt(trawling" in reply
        assert "holdsFor(trawling" not in reply


class TestProfiles:
    def test_all_models_have_both_schemes(self):
        for model in MODEL_NAMES:
            for scheme in (FEW_SHOT, CHAIN_OF_THOUGHT):
                assert isinstance(profile_for(model, scheme), dict)

    def test_weak_scheme_extends_best(self):
        for model in MODEL_NAMES:
            best = profile_for(model, BEST_SCHEME[model])
            weak_scheme = (
                FEW_SHOT if BEST_SCHEME[model] == CHAIN_OF_THOUGHT else CHAIN_OF_THOUGHT
            )
            weak = profile_for(model, weak_scheme)
            total_best = sum(len(v) for v in best.values())
            total_weak = sum(len(v) for v in weak.values())
            assert total_weak > total_best, model

    def test_unknown_model_or_scheme(self):
        with pytest.raises(KeyError):
            profile_for("gpt-5", FEW_SHOT)
        with pytest.raises(ValueError):
            profile_for("o1", "one-shot")

    def test_profiles_reference_real_groups(self):
        names = {group.name for group in ACTIVITY_GROUPS}
        for model in MODEL_NAMES:
            for scheme in (FEW_SHOT, CHAIN_OF_THOUGHT):
                assert set(profile_for(model, scheme)) <= names, model


class TestPipeline:
    def test_runs_all_activities(self):
        generated = GenerationPipeline(SimulatedLLM("o1", MARITIME), FEW_SHOT, MARITIME).run()
        assert len(generated.activities) == len(ACTIVITY_GROUPS)
        assert generated.model == "o1"
        assert generated.scheme == FEW_SHOT

    def test_rules_for_lookup(self):
        generated = GenerationPipeline(SimulatedLLM("o1", MARITIME), FEW_SHOT, MARITIME).run()
        assert generated.rules_for("withinArea")
        with pytest.raises(KeyError):
            generated.rules_for("piracy")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            GenerationPipeline(SimulatedLLM("o1", MARITIME), "one-shot", MARITIME)

    def test_deterministic_for_seed(self):
        first = GenerationPipeline(SimulatedLLM("o1", MARITIME), FEW_SHOT, MARITIME).run()
        second = GenerationPipeline(SimulatedLLM("o1", MARITIME), FEW_SHOT, MARITIME).run()
        assert first.to_text() == second.to_text()

    def test_full_description_parses_and_round_trips(self):
        generated = GenerationPipeline(SimulatedLLM("llama-3", MARITIME), FEW_SHOT, MARITIME).run()
        description = generated.to_event_description()
        assert len(description.rules) > 40
