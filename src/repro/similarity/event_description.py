"""Distance between event descriptions (Definition 4.14).

An event description is a set of rules; the rule sets are matched optimally
(cost matrix of Definition 4.3 instantiated with the rule distance of
Definition 4.12), each unmatched rule of the larger description costing the
maximal distance 1. Similarity = 1 - distance; this is the quantity plotted
on the y-axes of Figures 2a and 2b of the paper.

Rules equal up to variable renaming are paired off before the assignment:
the metric is a pseudometric, so some optimal matching contains every such
pair (DESIGN.md section 5), and Kuhn-Munkres runs only over the rest.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro import telemetry
from repro.logic.parser import Rule, parse_program
from repro.rtec.description import EventDescription
from repro.similarity.assignment import kuhn_munkres
from repro.similarity.rules import rule_distance_matrix

__all__ = ["event_description_distance", "event_description_similarity"]

Description = Union[EventDescription, Sequence[Rule], str]


def rules_of(description: Description) -> List[Rule]:
    """The rules of a description given as an object, a rule list or text."""
    if isinstance(description, EventDescription):
        return list(description.rules)
    if isinstance(description, str):
        return parse_program(description)
    return list(description)


def event_description_distance(left: Description, right: Description) -> float:
    """Definition 4.14: distance between two event descriptions, in [0, 1].

    Accepts :class:`~repro.rtec.description.EventDescription` objects, rule
    lists, or program text. Symmetric; two empty descriptions are at
    distance 0, and an empty versus a non-empty description at distance 1.
    """
    left_rules = rules_of(left)
    right_rules = rules_of(right)
    if len(left_rules) < len(right_rules):
        left_rules, right_rules = right_rules, left_rules
    m, k = len(left_rules), len(right_rules)
    if m == 0:
        return 0.0
    if k == 0:
        return 1.0
    with telemetry.span("similarity.description", rules=m, matched_against=k) as sp:
        rest_larger, rest_smaller = _peel(left_rules, right_rules)
        matched_total = 0.0
        if rest_smaller:
            matrix = rule_distance_matrix(rest_larger, rest_smaller)
            _assignment, matched_total = kuhn_munkres(matrix)
        sp.count("peeled", k - len(rest_smaller))
        sp.count("rule_pairs", len(rest_larger) * len(rest_smaller))
        return ((m - k) + matched_total) / m


def _peel(larger: List[Rule], smaller: List[Rule]) -> Tuple[List[Rule], List[Rule]]:
    """The rules left once each rule of ``larger``, in order, has claimed the
    first unclaimed rule of ``smaller`` equal to it up to variable renaming
    (distance exactly 0); both remainders keep their order."""
    unclaimed: Dict[tuple, List[int]] = {}
    for j, rule in enumerate(smaller):
        unclaimed.setdefault(rule.key, []).append(j)
    claimed = set()
    rest_larger = []
    for rule in larger:
        twins = unclaimed.get(rule.key)
        if twins:
            claimed.add(twins.pop(0))
        else:
            rest_larger.append(rule)
    return rest_larger, [rule for j, rule in enumerate(smaller) if j not in claimed]


def event_description_similarity(left: Description, right: Description) -> float:
    """Similarity = 1 - distance (the quantity reported in Figures 2a/2b)."""
    return 1.0 - event_description_distance(left, right)
