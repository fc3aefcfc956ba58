"""Figure 2a: similarity values of LLM-generated definitions.

For each model, both prompting schemes are run and the event description
with the higher average similarity is kept (the paper's X-square /
X-triangle selection); the figure reports per-activity similarities for
the eight composite maritime activities plus the average over all activity
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.generation.generator import GenerationOutcome, generate_best
from repro.llm.profiles import MODEL_NAMES
from repro.llm.prompts import CHAIN_OF_THOUGHT
from repro.maritime import MARITIME
from repro.maritime.gold import ACTIVITY_SHORT_LABELS, COMPOSITE_ACTIVITIES

__all__ = ["Fig2aResult", "run_fig2a", "format_table", "scheme_mark"]


def scheme_mark(scheme: str, corrected: bool = False) -> str:
    """The paper's marker: square = few-shot, triangle = chain-of-thought
    (filled after correction)."""
    if scheme == CHAIN_OF_THOUGHT:
        return "▲" if corrected else "△"  # ▲ / △
    return "■" if corrected else "□"  # ■ / □


@dataclass
class Fig2aResult:
    """Best generation outcome per model."""

    outcomes: Dict[str, GenerationOutcome]

    def series(self) -> Dict[str, List[float]]:
        """Model -> the 9 bar heights (8 activities + 'all')."""
        data: Dict[str, List[float]] = {}
        for model, outcome in self.outcomes.items():
            values = [outcome.activity_similarities[a] for a in COMPOSITE_ACTIVITIES]
            values.append(outcome.average_similarity)
            data[model] = values
        return data

    def top_models(self, count: int = 3) -> List[str]:
        """The models with the highest average similarity (Fig. 2b/2c input)."""
        ranked = sorted(
            self.outcomes,
            key=lambda model: self.outcomes[model].average_similarity,
            reverse=True,
        )
        return ranked[:count]


def run_fig2a(models: Sequence[str] = MODEL_NAMES, seed: int = 0) -> Fig2aResult:
    """Run both prompting schemes for every model and keep the best.

    The simulated replies do not depend on ``seed``."""
    return Fig2aResult({model: generate_best(MARITIME, model, seed=seed) for model in models})


def format_table(result: Fig2aResult) -> str:
    """Render the bar groups of Figure 2a as a text table."""
    header_cells = [ACTIVITY_SHORT_LABELS[a] for a in COMPOSITE_ACTIVITIES] + ["all"]
    lines = ["%-22s" % "model" + "".join("%7s" % cell for cell in header_cells)]
    for model, values in result.series().items():
        outcome = result.outcomes[model]
        label = "%s%s" % (model, scheme_mark(outcome.scheme))
        lines.append("%-22s" % label + "".join("%7.2f" % value for value in values))
    return "\n".join(lines)
