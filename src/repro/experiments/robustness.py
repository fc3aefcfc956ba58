"""Robustness of the Figure 2c result across dataset seeds.

The paper runs once on the fixed Brest dataset; this reproduction's stream
is synthetic, so we check that the accuracy conclusions (o1 wins; the
union/intersect confusion zeroes loitering for GPT-4o and Llama-3) are not
artefacts of one particular seed: the experiment is repeated over several
seeded fleets and per-activity F1 is aggregated as mean +/- standard
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.fig2b import run_fig2b
from repro.experiments.fig2c import run_fig2c
from repro.maritime.dataset import build_dataset
from repro.maritime.gold import ACTIVITY_SHORT_LABELS, COMPOSITE_ACTIVITIES

__all__ = ["RobustnessResult", "run_robustness", "format_table"]


@dataclass
class RobustnessResult:
    """Per-model, per-activity F1 across seeds."""

    seeds: List[int]
    #: model -> activity -> list of F1 values, one per seed.
    samples: Dict[str, Dict[str, List[float]]]

    def mean(self, model: str, activity: str) -> float:
        values = self.samples[model][activity]
        return sum(values) / len(values)

    def std(self, model: str, activity: str) -> float:
        values = self.samples[model][activity]
        mu = self.mean(model, activity)
        return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))

    def average_f1(self, model: str) -> float:
        return sum(self.mean(model, a) for a in COMPOSITE_ACTIVITIES) / len(
            COMPOSITE_ACTIVITIES
        )


def run_robustness(
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.25,
) -> RobustnessResult:
    """Repeat the Figure 2c experiment over several dataset seeds.

    Generation is the same in every repetition (the simulated models are
    deterministic given their profiles); what varies is the synthetic fleet
    the definitions are evaluated on.
    """
    samples: Dict[str, Dict[str, List[float]]] = {}
    for seed in seeds:
        dataset = build_dataset(seed=seed, scale=scale)
        fig2b = run_fig2b(dataset.kb)
        fig2c = run_fig2c(fig2b=fig2b, dataset=dataset)
        for model, scores in fig2c.scores.items():
            per_model = samples.setdefault(model, {})
            for activity in COMPOSITE_ACTIVITIES:
                per_model.setdefault(activity, []).append(scores[activity].f1)
    return RobustnessResult(seeds=list(seeds), samples=samples)


def format_table(result: RobustnessResult) -> str:
    header = ["%-10s" % "model"] + [
        "%12s" % ACTIVITY_SHORT_LABELS[a] for a in COMPOSITE_ACTIVITIES
    ]
    lines = ["".join(header) + "%12s" % "avg"]
    for model in result.samples:
        cells = ["%-10s" % model]
        for activity in COMPOSITE_ACTIVITIES:
            cells.append(
                "%12s"
                % ("%.2f±%.2f" % (result.mean(model, activity), result.std(model, activity)))
            )
        cells.append("%12.2f" % result.average_f1(model))
        lines.append("".join(cells))
    return "\n".join(lines)
