"""Distance between rules (Definition 4.12).

Rule heads are only comparable with heads, so the head distance is computed
directly; the body conditions are matched optimally via the cost matrix of
Definition 4.3, instantiated with the non-ground expression distance of
Definition 4.11. Unmatched conditions of the larger body are penalised by
the maximal distance 1, through the ``M - K`` term.
"""

from __future__ import annotations

from typing import List, Sequence

from repro import telemetry
from repro.logic.parser import Rule
from repro.similarity.assignment import kuhn_munkres
from repro.similarity.expressions import expression_distance
from repro.similarity.variables import literal_expression, variable_instances

__all__ = ["rule_distance", "rule_distance_matrix", "rule_similarity"]


def _prepare(rule: Rule) -> tuple:
    """``rule``, its variable instance map and its conditions as expressions."""
    return rule, variable_instances(rule), [literal_expression(lit) for lit in rule.body]


def rule_distance(left: Rule, right: Rule) -> float:
    """Definition 4.12: distance between two rules, in [0, 1].

    Symmetric: arguments are oriented so that the rule with the larger body
    provides the ``M`` rows of the cost matrix.
    """
    return _distance(_prepare(left), _prepare(right))


def rule_distance_matrix(larger: Sequence[Rule], smaller: Sequence[Rule]) -> List[List[float]]:
    """Definition 4.14's square cost matrix, each rule prepared once: rule
    distances of ``larger[i]`` to ``smaller[j]``, padded with 0.0 columns."""
    rows, columns = [_prepare(rule) for rule in larger], [_prepare(rule) for rule in smaller]
    m, k = len(rows), len(columns)
    return [[_distance(row, columns[j]) if j < k else 0.0 for j in range(m)] for row in rows]


def _distance(left: tuple, right: tuple) -> float:
    """:func:`rule_distance` of two prepared rules."""
    if len(left[2]) < len(right[2]):
        left, right = right, left
    left_rule, left_instances, left_terms = left
    right_rule, right_instances, right_terms = right
    m, k = len(left_terms), len(right_terms)
    telemetry.count("rule_distance.calls")
    telemetry.count("rule_distance.conditions", m + k)
    head_distance = expression_distance(
        left_rule.head, right_rule.head, left_instances, right_instances
    )
    if m == 0:
        return head_distance  # both bodies empty: only heads are compared
    matrix: List[List[float]] = [
        [expression_distance(term, right_terms[j], left_instances, right_instances) if j < k
         else 0.0 for j in range(m)]
        for term in left_terms
    ]
    _assignment, matched_total = kuhn_munkres(matrix)
    return (head_distance + (m - k) + matched_total) / (m + 1)


def rule_similarity(left: Rule, right: Rule) -> float:
    """Similarity = 1 - distance."""
    return 1.0 - rule_distance(left, right)
