"""Automated qualitative error assessment (Section 5.2 of the paper).

The paper groups the errors of LLM-generated event descriptions into four
categories:

1. **naming divergence** — "minor divergences ... in the names chosen for
   expressions denoting events, composite activities and background
   knowledge";
2. **wrong fluent type** — "modeling a composite activity definition using
   a different type of fluent than the one used in the hand-crafted event
   description";
3. **undefined activity** — "generated definitions that cannot be used in
   practice, because their conditions include composite activities that
   are not defined in the generated event description";
4. **wrong operator** — "LLMs often fail at capturing definitions that
   include multiple operations between activities", e.g. ``intersect_all``
   in the place of ``union_all``.

This module is the repository's one classifier for those categories. Each
finding has exactly one source:

* facts relative to the vocabulary come from the static analyser — the
  naming pass's walker and known-name set for unknown functor names, and
  the ``RTEC004`` (undefined fluent) issues of
  :meth:`~repro.rtec.EventDescription.validate` for undefined activities,
  attributed to an activity by rule index;
* facts relative to the gold standard come from each activity's own
  :class:`~repro.maritime.gold.ActivityGroup`, so any domain works: fluent
  kinds, the interval-operator multiset, the constants of all the
  domain's gold groups, and the rule count.

The detectors are conservative — they only report what they can witness
structurally — and additionally report structural omissions (missing
rules) and unparseable definitions, which fall outside the paper's four
categories.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.analysis.passes import known_functor_names, referenced_names
from repro.llm.pipeline import GeneratedActivity, GeneratedEventDescription
from repro.logic.parser import Rule
from repro.logic.terms import Compound
from repro.rtec.description import INTERVAL_CONSTRUCTS, EventDescription, Vocabulary

__all__ = ["ErrorFinding", "ErrorReport", "analyse_errors", "format_report"]

#: The paper's four categories plus our structural catch-alls.
CATEGORIES = (
    "naming-divergence",
    "wrong-fluent-type",
    "undefined-activity",
    "wrong-operator",
    "missing-rule",
    "syntax-error",
)


@dataclass(frozen=True)
class ErrorFinding:
    """One detected error instance."""

    category: str
    activity: str
    detail: str

    def __str__(self) -> str:
        return "[%s] %s: %s" % (self.category, self.activity, self.detail)


@dataclass
class ErrorReport:
    """All findings for one generated event description."""

    model: str
    scheme: str
    findings: List[ErrorFinding] = field(default_factory=list)

    def by_category(self) -> Dict[str, int]:
        counts = Counter(finding.category for finding in self.findings)
        return {category: counts.get(category, 0) for category in CATEGORIES}

    def of_category(self, category: str) -> List[ErrorFinding]:
        return [f for f in self.findings if f.category == category]

    def __len__(self) -> int:
        return len(self.findings)


def _fluent_kinds(rules: Sequence[Rule]) -> Dict[str, Set[str]]:
    """Fluent name -> the kinds (``simple``/``static``) its rules define."""
    description = EventDescription(rules)
    kinds: Dict[str, Set[str]] = {}
    for name, _arity in description.simple_fluents:
        kinds.setdefault(name, set()).add("simple")
    for name, _arity in description.static_fluents:
        kinds.setdefault(name, set()).add("static")
    return kinds


def _operator_multiset(rules: Sequence[Rule]) -> Counter:
    counts: Counter = Counter()
    for rule in rules:
        for literal in rule.body:
            term = literal.term
            if isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS:
                counts[term.functor] += 1
    return counts


def analyse_errors(
    generated: GeneratedEventDescription, vocabulary: Vocabulary
) -> ErrorReport:
    """Classify the differences between ``generated`` and its activities' gold rules."""
    report = ErrorReport(model=generated.model, scheme=generated.scheme)
    description = generated.to_event_description()
    known_functors = known_functor_names(description, vocabulary)
    undefined: Dict[int, List[str]] = {}
    for issue in description.validate(vocabulary):
        index = generated.activity_of(issue.rule_index)
        if issue.code == "RTEC004" and index is not None:
            undefined.setdefault(index, []).append(issue.message)
    gold_constants: Set[str] = set()
    for activity in generated.activities:
        gold_constants |= referenced_names(activity.group.rules)[1]

    for index, activity in enumerate(generated.activities):
        if activity.parse_error:
            report.findings.append(
                ErrorFinding("syntax-error", activity.name, activity.parse_error)
            )
            continue
        _check_fluent_types(report, activity)
        _check_operators(report, activity)
        _check_naming(report, activity, known_functors, gold_constants)
        for message in undefined.get(index, ()):
            report.findings.append(
                ErrorFinding("undefined-activity", activity.name, message)
            )
        _check_missing_rules(report, activity)
    return report


def _check_fluent_types(report: ErrorReport, activity: GeneratedActivity) -> None:
    """Category 2: the same fluent defined with a different rule kind."""
    gold_kinds = _fluent_kinds(activity.group.rules)
    for name, kinds in _fluent_kinds(activity.rules).items():
        expected = gold_kinds.get(name)
        if expected is not None and kinds - expected:
            report.findings.append(
                ErrorFinding(
                    "wrong-fluent-type",
                    activity.name,
                    "%s is %s in the gold standard but defined as a %s fluent"
                    % (name, "/".join(sorted(expected)), min(kinds - expected)),
                )
            )
            return  # one finding per activity suffices


def _check_operators(report: ErrorReport, activity: GeneratedActivity) -> None:
    """Category 4: interval-operator counts diverge (union vs intersect)."""
    gold_ops = _operator_multiset(activity.group.rules)
    generated_ops = _operator_multiset(activity.rules)
    if gold_ops == generated_ops:
        return
    # Same total number of constructs but a different mix: an operator was
    # swapped, the paper's union_all/intersect_all confusion.
    if sum(gold_ops.values()) == sum(generated_ops.values()) and sum(gold_ops.values()):
        missing = gold_ops - generated_ops
        surplus = generated_ops - gold_ops
        if missing and surplus:
            report.findings.append(
                ErrorFinding(
                    "wrong-operator",
                    activity.name,
                    "uses %s in the place of %s"
                    % (
                        ", ".join(sorted(surplus)),
                        ", ".join(sorted(missing)),
                    ),
                )
            )


def _check_naming(
    report: ErrorReport,
    activity: GeneratedActivity,
    known_functors: Set[str],
    gold_constants: Set[str],
) -> None:
    """Category 1: names used that neither the vocabulary nor the gold rules know."""
    functors, constants = referenced_names(activity.rules)
    gold_functors = referenced_names(activity.group.rules)[0]
    for name in sorted(functors - known_functors - gold_functors):
        report.findings.append(
            ErrorFinding(
                "naming-divergence",
                activity.name,
                "uses the name %r, unknown to both the vocabulary and the "
                "gold definition" % name,
            )
        )
    # constants are legitimate domain-wide, not per activity
    for value in sorted(constants - gold_constants - {"true", "false", "[]"}):
        report.findings.append(
            ErrorFinding(
                "naming-divergence",
                activity.name,
                "uses the constant %r instead of a gold-standard one" % value,
            )
        )


def _check_missing_rules(report: ErrorReport, activity: GeneratedActivity) -> None:
    if len(activity.rules) < len(activity.group.rules):
        report.findings.append(
            ErrorFinding(
                "missing-rule",
                activity.name,
                "%d rules generated for %d gold rules"
                % (len(activity.rules), len(activity.group.rules)),
            )
        )


def format_report(report: ErrorReport) -> str:
    """Render the per-category counts plus the individual findings."""
    lines = [
        "error assessment for %s (%s): %d finding(s)"
        % (report.model, report.scheme, len(report)),
    ]
    for category, count in report.by_category().items():
        lines.append("  %-20s %d" % (category, count))
    for finding in report.findings:
        lines.append("  - %s" % finding)
    return "\n".join(lines)
