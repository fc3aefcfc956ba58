"""Figure 2b: similarities after minimal syntactic correction.

The three event descriptions with the highest similarity (GPT-4o△, o1□ and
Llama-3□ in the paper) are corrected — automatic vocabulary matching plus
the reviewer-supplied ``trawlingArea`` -> ``fishing`` rename — turning them
into GPT-4o▲, o1■ and Llama-3■, and their similarities are re-measured.
The paper observes a small increase over Figure 2a, evidencing that the
required changes were minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.fig2a import Fig2aResult, run_fig2a, scheme_mark
from repro.generation.correction import CorrectionReport
from repro.generation.generator import GenerationOutcome, correct_outcome
from repro.logic.knowledge import KnowledgeBase
from repro.maritime.gold import ACTIVITY_SHORT_LABELS, COMPOSITE_ACTIVITIES, MARITIME_VOCABULARY

__all__ = ["Fig2bResult", "run_fig2b", "format_table"]


@dataclass
class Fig2bResult:
    """Corrected outcomes (and correction reports) for the top models."""

    fig2a: Fig2aResult
    corrected: Dict[str, GenerationOutcome]
    reports: Dict[str, CorrectionReport]

    def series(self) -> Dict[str, List[float]]:
        data: Dict[str, List[float]] = {}
        for model, outcome in self.corrected.items():
            values = [outcome.activity_similarities[a] for a in COMPOSITE_ACTIVITIES]
            values.append(outcome.average_similarity)
            data[model] = values
        return data

    def improvement(self, model: str) -> float:
        """Average-similarity delta of correction for one model."""
        return (
            self.corrected[model].average_similarity
            - self.fig2a.outcomes[model].average_similarity
        )


def run_fig2b(
    kb: KnowledgeBase,
    fig2a: Optional[Fig2aResult] = None,
    top: int = 3,
) -> Fig2bResult:
    """Correct the ``top`` best event descriptions of Figure 2a.

    ``kb`` supplies the known constants the corrector may map to (area
    types, vessel types, threshold names).
    """
    if fig2a is None:
        fig2a = run_fig2a()
    corrected: Dict[str, GenerationOutcome] = {}
    reports: Dict[str, CorrectionReport] = {}
    for model in fig2a.top_models(top):
        outcome, report = correct_outcome(
            fig2a.outcomes[model], MARITIME_VOCABULARY, kb
        )
        corrected[model] = outcome
        reports[model] = report
    return Fig2bResult(fig2a=fig2a, corrected=corrected, reports=reports)


def format_table(result: Fig2bResult) -> str:
    """Render the bar groups of Figure 2b as a text table."""
    header_cells = [ACTIVITY_SHORT_LABELS[a] for a in COMPOSITE_ACTIVITIES] + ["all"]
    lines = ["%-22s" % "model" + "".join("%7s" % cell for cell in header_cells)]
    for model, values in result.series().items():
        outcome = result.corrected[model]
        label = "%s%s" % (model, scheme_mark(outcome.scheme, corrected=True))
        lines.append("%-22s" % label + "".join("%7.2f" % value for value in values))
    for model in result.corrected:
        lines.append(
            "%-22s average improvement: %+0.3f (%d renames)"
            % (model, result.improvement(model), result.reports[model].total_changes)
        )
    return "\n".join(lines)
