"""Detailed matching reports for event-description comparisons.

The similarity metric is motivated as an estimate of "the human effort
required to correct" a generated event description (Section 4). A single
number tells the reviewer *how much* effort; this module tells them
*where*: the optimal rule-level matching of Definition 4.14, rule by rule,
with per-pair distances — matched rules needing edits, generated rules
with no gold counterpart (to delete), and gold rules left uncovered (to
write from scratch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.logic.parser import Rule
from repro.logic.pretty import rule_to_str
from repro.similarity.assignment import kuhn_munkres
from repro.similarity.event_description import Description, rules_of
from repro.similarity.rules import rule_distance_matrix

__all__ = ["RuleMatch", "MatchingReport", "match_descriptions", "format_matching"]


@dataclass(frozen=True)
class RuleMatch:
    """One entry of the optimal matching.

    Exactly one of the two rules may be ``None``: a generated rule with no
    gold counterpart (surplus), or a gold rule no generated rule covers
    (missing).
    """

    generated: Optional[Rule]
    gold: Optional[Rule]
    distance: float

    @property
    def kind(self) -> str:
        if self.generated is None:
            return "missing"
        if self.gold is None:
            return "surplus"
        if self.distance == 0:
            return "exact"
        return "edit"


@dataclass
class MatchingReport:
    """The full optimal matching between two descriptions."""

    matches: List[RuleMatch]

    @property
    def distance(self) -> float:
        """The Definition 4.14 distance this matching realises."""
        total = sum(match.distance for match in self.matches)
        return total / len(self.matches) if self.matches else 0.0

    @property
    def similarity(self) -> float:
        return 1.0 - self.distance

    def of_kind(self, kind: str) -> List[RuleMatch]:
        return [match for match in self.matches if match.kind == kind]

    def __len__(self) -> int:
        return len(self.matches)


def match_descriptions(generated: Description, gold: Description) -> MatchingReport:
    """Compute the optimal rule matching between two event descriptions.

    The report's :attr:`~MatchingReport.distance` equals
    :func:`repro.similarity.event_description_distance` on the same inputs
    (each unmatched rule contributes the maximal distance 1). Unlike it, the
    report solves the full matrix without peeling renamed-equal rule pairs:
    a peel can pick another of several equal-cost optima, which changes the
    worklist (an EDIT for a MISSING + SURPLUS pair) but not the distance.
    """
    generated_rules = rules_of(generated)
    gold_rules = rules_of(gold)
    if not generated_rules and not gold_rules:
        return MatchingReport(matches=[])
    swapped = len(generated_rules) < len(gold_rules)
    larger, smaller = (
        (gold_rules, generated_rules) if swapped else (generated_rules, gold_rules)
    )
    k = len(smaller)
    matrix = rule_distance_matrix(larger, smaller)
    assignment, _total = kuhn_munkres(matrix)
    matches: List[RuleMatch] = []
    for i, j in enumerate(assignment):
        if j < k:
            left, right = larger[i], smaller[j]
            distance = matrix[i][j]
        else:
            left, right = larger[i], None
            distance = 1.0  # unmatched: maximal effort (write or delete)
        if swapped:
            generated_rule, gold_rule = right, left
        else:
            generated_rule, gold_rule = left, right
        matches.append(RuleMatch(generated=generated_rule, gold=gold_rule, distance=distance))
    matches.sort(key=lambda match: (-match.distance, repr(match.gold)))
    return MatchingReport(matches=matches)


def format_matching(report: MatchingReport, show_exact: bool = False) -> str:
    """Render the matching as a correction worklist."""
    lines = [
        "similarity %.3f (distance %.3f) over %d matched slots; "
        "%d exact, %d to edit, %d missing, %d surplus"
        % (
            report.similarity,
            report.distance,
            len(report),
            len(report.of_kind("exact")),
            len(report.of_kind("edit")),
            len(report.of_kind("missing")),
            len(report.of_kind("surplus")),
        )
    ]
    for match in report.matches:
        if match.kind == "exact" and not show_exact:
            continue
        lines.append("")
        if match.kind == "missing":
            lines.append("MISSING (write this rule, effort 1.0):")
            lines.append("  " + rule_to_str(match.gold).replace("\n", "\n  "))
        elif match.kind == "surplus":
            lines.append("SURPLUS (delete this rule, effort 1.0):")
            lines.append("  " + rule_to_str(match.generated).replace("\n", "\n  "))
        else:
            lines.append("EDIT (distance %.4f):" % match.distance)
            lines.append("  generated: " + rule_to_str(match.generated).replace("\n", "\n  "))
            lines.append("  gold:      " + rule_to_str(match.gold).replace("\n", "\n  "))
    return "\n".join(lines)
