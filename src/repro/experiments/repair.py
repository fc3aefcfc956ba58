"""Repair-loop convergence: similarity per iteration, per model x scheme.

A Figure 2b-style experiment for the iterative repair loop
(:mod:`repro.analysis.repair`): for every simulated model and prompting
scheme, generate an event description, correct it once and take the
corrected similarity as the baseline (the paper's "minimum required
changes" step), then run the repair loop on the corrected description and
record the similarity trajectory across iterations. The loop must never
end below the baseline — mechanical fixes subsume the single-shot renames
— and improves on it wherever diagnostics can be fed back to the model. It runs in any gold domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.repair import RepairResult, repair_event_description
from repro.generation.correction import correct_event_description
from repro.generation.generator import generate
from repro.generation.metrics import average_similarity
from repro.llm.profiles import MODEL_NAMES
from repro.llm.prompts import PROMPT_SCHEMES
from repro.llm.simulated import SimulatedLLM
from repro.logic.knowledge import KnowledgeBase

if TYPE_CHECKING:
    from repro.domain import GoldDomain

__all__ = [
    "RepairEntry",
    "RepairExperimentResult",
    "run_repair_experiment",
    "format_table",
]


@dataclass
class RepairEntry:
    """The repair outcome of one model under one prompting scheme."""

    model: str
    scheme: str
    baseline: float  # single-shot corrected similarity
    result: RepairResult

    @property
    def trajectory(self) -> List[float]:
        """Similarity before repair, then after each iteration."""
        return [self.result.initial_similarity] + [
            iteration.similarity for iteration in self.result.iterations
        ]

    @property
    def improvement(self) -> float:
        return self.result.final_similarity - self.baseline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "scheme": self.scheme,
            "baseline": self.baseline,
            "trajectory": self.trajectory,
            "improvement": self.improvement,
            "repair": self.result.to_dict(),
        }


@dataclass
class RepairExperimentResult:
    """All entries of one experiment run."""

    entries: List[RepairEntry] = field(default_factory=list)

    def entry(self, model: str, scheme: str) -> RepairEntry:
        for candidate in self.entries:
            if candidate.model == model and candidate.scheme == scheme:
                return candidate
        raise KeyError("no entry for %s/%s" % (model, scheme))

    @property
    def all_at_least_baseline(self) -> bool:
        return all(entry.improvement >= -1e-9 for entry in self.entries)

    @property
    def strictly_improved(self) -> List[Tuple[str, str]]:
        return [
            (entry.model, entry.scheme)
            for entry in self.entries
            if entry.improvement > 1e-9
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": [entry.to_dict() for entry in self.entries],
            "all_at_least_baseline": self.all_at_least_baseline,
            "strictly_improved": [list(pair) for pair in self.strictly_improved],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_repair_experiment(
    domain: "GoldDomain",
    kb: KnowledgeBase,
    models: Sequence[str] = MODEL_NAMES,
    schemes: Sequence[str] = PROMPT_SCHEMES,
    budget: int = 5,
) -> RepairExperimentResult:
    """Run the repair loop for every model x scheme over ``domain``.

    ``kb`` supplies the known constants for the naming fixes (as in
    Figure 2b). Each combination gets a *fresh* simulated client for the
    repair conversation, so repaired behaviour does not leak between runs.
    """
    result = RepairExperimentResult()
    for model in models:
        for scheme in schemes:
            generated = generate(domain, model, scheme).generated
            corrected, _report = correct_event_description(generated, domain.vocabulary, kb)
            repaired = repair_event_description(
                corrected,
                domain.vocabulary,
                kb,
                client=SimulatedLLM(model, domain),
                budget=budget,
            )
            result.entries.append(
                RepairEntry(
                    model=model,
                    scheme=scheme,
                    baseline=average_similarity(corrected),
                    result=repaired,
                )
            )
    return result


def format_table(result: RepairExperimentResult) -> str:
    """Similarity-convergence table: one row per model x scheme."""
    lines = [
        "%-10s %-17s %-16s %6s %9s %8s %8s  %s"
        % ("model", "scheme", "status", "iters", "baseline", "final", "delta", "trajectory")
    ]
    for entry in result.entries:
        repair = entry.result
        lines.append(
            "%-10s %-17s %-16s %6d %9.3f %8.3f %+8.3f  %s"
            % (
                entry.model,
                entry.scheme,
                repair.status,
                len(repair.iterations),
                entry.baseline,
                repair.final_similarity,
                entry.improvement,
                " -> ".join("%.3f" % value for value in entry.trajectory),
            )
        )
    improved = result.strictly_improved
    lines.append(
        "all >= single-shot baseline: %s; strictly improved: %d (%s)"
        % (
            "yes" if result.all_at_least_baseline else "NO",
            len(improved),
            ", ".join("%s/%s" % pair for pair in improved) or "none",
        )
    )
    return "\n".join(lines)
