"""Figure 2c: predictive accuracy of corrected event descriptions.

RTEC detects the composite maritime activities over the (synthetic) AIS
stream twice — once with the hand-crafted gold definitions and once with
each corrected LLM-generated event description — and the recognised
time-points are compared per activity: F1 against the gold detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.fig2a import scheme_mark
from repro.experiments.fig2b import Fig2bResult, run_fig2b
from repro.generation.evaluation import ActivityScore, score_activities
from repro.maritime.dataset import MaritimeDataset, build_dataset
from repro.maritime.gold import (
    ACTIVITY_SHORT_LABELS,
    COMPOSITE_ACTIVITIES,
    gold_event_description,
)
from repro.rtec.engine import RTECEngine, recognise_all
from repro.rtec.result import RecognitionResult

__all__ = ["Fig2cResult", "run_fig2c", "format_table"]


@dataclass
class Fig2cResult:
    """Per-model, per-activity CER accuracy against the gold detections."""

    fig2b: Fig2bResult
    dataset: MaritimeDataset
    gold_result: RecognitionResult
    candidate_results: Dict[str, RecognitionResult]
    scores: Dict[str, Dict[str, ActivityScore]]

    def series(self) -> Dict[str, List[float]]:
        """Model -> the 8 f1-score bar heights of Figure 2c."""
        return {
            model: [activity_scores[a].f1 for a in COMPOSITE_ACTIVITIES]
            for model, activity_scores in self.scores.items()
        }

    def average_f1(self, model: str) -> float:
        values = [self.scores[model][a].f1 for a in COMPOSITE_ACTIVITIES]
        return sum(values) / len(values)


def run_fig2c(
    fig2b: Optional[Fig2bResult] = None,
    dataset: Optional[MaritimeDataset] = None,
    seed: int = 0,
    scale: float = 0.5,
    window: Optional[int] = None,
) -> Fig2cResult:
    """Run the CER accuracy experiment.

    ``scale`` controls the synthetic dataset size (1.0 is roughly six
    hours of traffic); ``window`` optionally enables sliding-window
    recognition for both the gold and the generated descriptions.
    """
    if dataset is None:
        dataset = build_dataset(seed=seed, scale=scale)
    if fig2b is None:
        fig2b = run_fig2b(dataset.kb)
    # The engines of run_recognition (the gold strict, the candidates
    # tolerant) in one walk: what a candidate defines as the gold does is
    # evaluated once per window.
    engines = [RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)] + [
        RTECEngine(outcome.generated.to_event_description(), dataset.kb, dataset.vocabulary,
                   strict=False, skip_errors=True)
        for outcome in fig2b.corrected.values()
    ]
    gold_result, *results = recognise_all(engines, dataset.stream, dataset.input_fluents, window)
    candidate_results = dict(zip(fig2b.corrected, results))
    scores: Dict[str, Dict[str, ActivityScore]] = {
        model: score_activities(gold_result, result) for model, result in candidate_results.items()
    }
    return Fig2cResult(fig2b, dataset, gold_result, candidate_results, scores)


def format_table(result: Fig2cResult) -> str:
    """Render the f1-score bar groups of Figure 2c as a text table."""
    header_cells = [ACTIVITY_SHORT_LABELS[a] for a in COMPOSITE_ACTIVITIES] + ["avg"]
    lines = ["%-22s" % "model" + "".join("%7s" % cell for cell in header_cells)]
    for model, values in result.series().items():
        outcome = result.fig2b.corrected[model]
        label = "%s%s" % (model, scheme_mark(outcome.scheme, corrected=True))
        row = values + [result.average_f1(model)]
        lines.append("%-22s" % label + "".join("%7.2f" % value for value in row))
    return "\n".join(lines)
