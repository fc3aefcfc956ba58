"""The LLM substrate: prompts, client protocol, simulated models, pipeline.

The paper generates activity definitions with GPT-4, GPT-4o, o1, Llama-3,
Mistral and Gemma-2 through the OpenAI and Groq APIs; this reproduction
substitutes deterministic :class:`~repro.llm.simulated.SimulatedLLM`
backends with per-model error profiles (see DESIGN.md, "Substitutions"):
the same conversation always gets the same reply. The pipeline
itself (:class:`~repro.llm.pipeline.GenerationPipeline`) is
backend-agnostic: point it at any :class:`~repro.llm.interface.LLMClient`
and any gold domain (:class:`repro.domain.GoldDomain`).
"""

from repro.llm.interface import ChatMessage, LLMClient
from repro.llm.pipeline import (
    GeneratedActivity,
    GeneratedEventDescription,
    GenerationPipeline,
)
from repro.llm.profiles import BEST_SCHEME, MODEL_NAMES, profile_for
from repro.llm.prompts import (
    CHAIN_OF_THOUGHT,
    FEW_SHOT,
    PROMPT_SCHEMES,
    prompt_e,
    prompt_f,
    prompt_g,
    prompt_r,
    prompt_t,
)
from repro.llm.simulated import SimulatedLLM

__all__ = [
    "ChatMessage",
    "LLMClient",
    "GeneratedActivity",
    "GeneratedEventDescription",
    "GenerationPipeline",
    "BEST_SCHEME",
    "MODEL_NAMES",
    "profile_for",
    "CHAIN_OF_THOUGHT",
    "FEW_SHOT",
    "PROMPT_SCHEMES",
    "prompt_e",
    "prompt_f",
    "prompt_g",
    "prompt_r",
    "prompt_t",
    "SimulatedLLM",
]
