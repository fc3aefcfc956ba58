"""High-level generation API: from gold domain and model name to event
description.

Convenience layer used by the examples and the experiment harnesses:
generate with a simulated model, pick the best prompting scheme per model
(as in Figure 2a), and correct the winners (Figure 2b).

The ``seed`` parameters are kept for the harnesses that pass one: the
simulated models draw nothing at random, so their replies do not depend
on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.generation.correction import CorrectionReport, correct_event_description
from repro.generation.metrics import average_similarity, per_activity_similarities
from repro.llm.interface import LLMClient
from repro.llm.pipeline import GeneratedEventDescription, GenerationPipeline
from repro.llm.prompts import PROMPT_SCHEMES
from repro.llm.simulated import SimulatedLLM
from repro.logic.knowledge import KnowledgeBase
from repro.rtec.description import Vocabulary

if TYPE_CHECKING:
    from repro.domain import GoldDomain

__all__ = ["GenerationOutcome", "generate", "generate_best"]

#: The reviewer-supplied renames the paper describes performing manually
#: ("we had to rename constant 'trawlingArea' as 'fishing'").
MANUAL_CONSTANT_RENAMES: Dict[str, Dict[str, str]] = {
    "o1": {"trawlingArea": "fishing"},
}


@dataclass
class GenerationOutcome:
    """A generated event description together with its similarity summary."""

    generated: GeneratedEventDescription
    average_similarity: float
    activity_similarities: Dict[str, float]

    @property
    def model(self) -> str:
        return self.generated.model

    @property
    def scheme(self) -> str:
        return self.generated.scheme


def generate(
    domain: "GoldDomain",
    model: str,
    scheme: str,
    seed: int = 0,
    client: Optional[LLMClient] = None,
) -> GenerationOutcome:
    """Generate an event description of ``domain`` with one model under one
    scheme (the simulated ``model`` unless a ``client`` is given)."""
    if client is None:
        client = SimulatedLLM(model, domain)
    generated = GenerationPipeline(client, scheme, domain).run()
    return GenerationOutcome(
        generated=generated,
        average_similarity=average_similarity(generated),
        activity_similarities=per_activity_similarities(generated),
    )


def generate_best(domain: "GoldDomain", model: str, seed: int = 0) -> GenerationOutcome:
    """Generate with both schemes and keep the higher-similarity one,
    exactly as the X-square / X-triangle selection of Figure 2a."""
    outcomes = [generate(domain, model, scheme, seed=seed) for scheme in PROMPT_SCHEMES]
    return max(outcomes, key=lambda outcome: outcome.average_similarity)


def correct_outcome(
    outcome: GenerationOutcome,
    vocabulary: Vocabulary,
    kb: KnowledgeBase,
) -> Tuple[GenerationOutcome, CorrectionReport]:
    """Apply minimal syntactic correction (the square/triangle -> filled
    square/triangle step of Figure 2b) and re-measure similarity."""
    corrected, report = correct_event_description(
        outcome.generated,
        vocabulary,
        kb,
        manual_constant_renames=MANUAL_CONSTANT_RENAMES.get(outcome.model, {}),
    )
    return (
        GenerationOutcome(
            generated=corrected,
            average_similarity=average_similarity(corrected),
            activity_similarities=per_activity_similarities(corrected),
        ),
        report,
    )
