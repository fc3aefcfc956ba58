"""Zero-shot prompting: supported, and measurably poor (Section 3).

The paper: "In our empirical analysis we found that zero-shot prompting
produced poor results, and thus we do not include it in our pipeline."
"""

import os
import subprocess
import sys

import pytest

from repro.generation import generate
from repro.llm import ChatMessage, GenerationPipeline, MODEL_NAMES, SimulatedLLM
from repro.llm.prompts import (
    ALL_PROMPT_SCHEMES,
    CHAIN_OF_THOUGHT,
    FEW_SHOT,
    PROMPT_SCHEMES,
    ZERO_SHOT,
    prompt_g,
    prompt_r,
)
from repro.maritime import MARITIME
from repro.maritime.gold import ACTIVITY_GROUPS


class TestSchemePlumbing:
    def test_zero_shot_not_in_pipeline_schemes(self):
        # Excluded from the paper's pipeline (best-of selection)...
        assert ZERO_SHOT not in PROMPT_SCHEMES
        # ... but supported for the comparison experiment.
        assert ZERO_SHOT in ALL_PROMPT_SCHEMES

    def test_pipeline_skips_prompt_f(self):
        pipeline = GenerationPipeline(SimulatedLLM("o1", MARITIME), ZERO_SHOT, MARITIME)
        prompts = pipeline._teaching_prompts()
        assert len(prompts) == 3  # R, E, T — no F
        assert prompts[0] == prompt_r()

    def test_simulated_model_detects_zero_shot(self):
        client = SimulatedLLM("o1", MARITIME)
        conversation = [
            ChatMessage("user", prompt_r()),
            ChatMessage("assistant", "Understood."),
            ChatMessage("user", prompt_g(ACTIVITY_GROUPS[0].description, "Maritime")),
        ]
        assert client._detect_scheme(conversation) == ZERO_SHOT

    def test_simulated_model_still_detects_few_shot(self):
        from repro.llm.prompts import prompt_f

        client = SimulatedLLM("o1", MARITIME)
        conversation = [ChatMessage("user", prompt_f(FEW_SHOT))]
        assert client._detect_scheme(conversation) == FEW_SHOT


class TestZeroShotQuality:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_zero_shot_much_worse_than_pipeline_schemes(self, model):
        zero_shot = generate(MARITIME, model, ZERO_SHOT).average_similarity
        few_shot = generate(MARITIME, model, FEW_SHOT).average_similarity
        chain = generate(MARITIME, model, CHAIN_OF_THOUGHT).average_similarity
        assert zero_shot < few_shot
        assert zero_shot < chain
        assert zero_shot < 0.5  # "poor results"

    def test_zero_shot_produces_syntax_errors(self):
        outcome = generate(MARITIME, "o1", ZERO_SHOT)
        assert outcome.generated.parse_errors

    def test_the_same_replies_under_every_hash_seed(self):
        # Which replies are broken must not depend on the str hash seed.
        script = (
            "from repro.generation import generate; from repro.llm import MODEL_NAMES; "
            "from repro.maritime import MARITIME; "
            "print([generate(MARITIME, m, 'zero-shot').average_similarity for m in MODEL_NAMES])"
        )
        here = str([generate(MARITIME, model, ZERO_SHOT).average_similarity for model in MODEL_NAMES])
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert run.stdout.strip() == here
