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

This module turns that qualitative discussion into an automated analysis:
given a generated event description and the gold standard, it detects and
reports instances of each category, per activity. The detectors are
conservative — they only report what they can witness structurally — and
additionally report structural omissions (missing rules/conditions) that
fall outside the paper's four categories.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.llm.pipeline import GeneratedEventDescription
from repro.logic.parser import Rule
from repro.logic.terms import Compound, Constant, Term
from repro.maritime.gold import ACTIVITY_GROUPS, ActivityGroup
from repro.rtec.description import INTERVAL_CONSTRUCTS, Vocabulary, fluent_key, head_fvp

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


def _head_kind(rule: Rule) -> Optional[str]:
    head = rule.head
    if not isinstance(head, Compound):
        return None
    if head.functor in ("initiatedAt", "terminatedAt"):
        return "simple"
    if head.functor == "holdsFor":
        return "static"
    return None


def _referenced_functors(rules: Sequence[Rule]) -> Set[str]:
    names: Set[str] = set()

    def walk(term: Term) -> None:
        if isinstance(term, Compound):
            names.add(term.functor)
            for arg in term.args:
                walk(arg)

    for rule in rules:
        walk(rule.head)
        for literal in rule.body:
            walk(literal.term)
    return names


def _constants(rules: Sequence[Rule]) -> Set[str]:
    values: Set[str] = set()

    def walk(term: Term) -> None:
        if isinstance(term, Constant) and isinstance(term.value, str):
            values.add(term.value)
        elif isinstance(term, Compound):
            for arg in term.args:
                walk(arg)

    for rule in rules:
        walk(rule.head)
        for literal in rule.body:
            walk(literal.term)
    return values


def _operator_multiset(rules: Sequence[Rule]) -> Counter:
    counts: Counter = Counter()
    for rule in rules:
        for literal in rule.body:
            term = literal.term
            if isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS:
                counts[term.functor] += 1
    return counts


def analyse_errors(
    generated: GeneratedEventDescription,
    vocabulary: Vocabulary,
    groups: Sequence[ActivityGroup] = ACTIVITY_GROUPS,
) -> ErrorReport:
    """Classify the differences between ``generated`` and the gold rules."""
    report = ErrorReport(model=generated.model, scheme=generated.scheme)
    full_description = generated.to_event_description()
    defined = {key[0] for key in full_description.defined_keys}
    known_functors = (
        {name for name, _ in vocabulary.input_events}
        | {name for name, _ in vocabulary.input_fluents}
        | {name for name, _ in vocabulary.background}
    )

    all_gold_constants: Set[str] = set()
    for group in groups:
        all_gold_constants |= _constants(group.rules)

    for group in groups:
        gold_rules = group.rules
        try:
            generated_activity = generated.activity(group.name)
        except KeyError:
            continue
        if generated_activity.parse_error:
            report.findings.append(
                ErrorFinding(
                    "syntax-error", group.name, generated_activity.parse_error
                )
            )
            continue
        generated_rules = generated_activity.rules
        _check_fluent_types(report, group, gold_rules, generated_rules)
        _check_operators(report, group, gold_rules, generated_rules)
        _check_naming(
            report,
            group,
            gold_rules,
            generated_rules,
            known_functors,
            defined,
            all_gold_constants,
        )
        _check_undefined(report, group, generated_rules, known_functors, defined)
        _check_missing_rules(report, group, gold_rules, generated_rules)
    return report


def _check_fluent_types(
    report: ErrorReport,
    group: ActivityGroup,
    gold_rules: Sequence[Rule],
    generated_rules: Sequence[Rule],
) -> None:
    """Category 2: the same fluent defined with a different rule kind."""
    gold_kinds: Dict[str, Set[str]] = {}
    for rule in gold_rules:
        kind = _head_kind(rule)
        if kind is None:
            continue
        try:
            name = fluent_key(head_fvp(rule)[0])[0]
        except ValueError:
            continue
        gold_kinds.setdefault(name, set()).add(kind)
    for rule in generated_rules:
        kind = _head_kind(rule)
        if kind is None:
            continue
        try:
            name = fluent_key(head_fvp(rule)[0])[0]
        except ValueError:
            continue
        expected = gold_kinds.get(name)
        if expected is not None and kind not in expected:
            report.findings.append(
                ErrorFinding(
                    "wrong-fluent-type",
                    group.name,
                    "%s is %s in the gold standard but defined as a %s fluent"
                    % (name, "/".join(sorted(expected)), kind),
                )
            )
            return  # one finding per group suffices


def _check_operators(
    report: ErrorReport,
    group: ActivityGroup,
    gold_rules: Sequence[Rule],
    generated_rules: Sequence[Rule],
) -> None:
    """Category 4: interval-operator counts diverge (union vs intersect)."""
    gold_ops = _operator_multiset(gold_rules)
    generated_ops = _operator_multiset(generated_rules)
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
                    group.name,
                    "uses %s in the place of %s"
                    % (
                        ", ".join(sorted(surplus)),
                        ", ".join(sorted(missing)),
                    ),
                )
            )


def _check_naming(
    report: ErrorReport,
    group: ActivityGroup,
    gold_rules: Sequence[Rule],
    generated_rules: Sequence[Rule],
    known_functors: Set[str],
    defined: Set[str],
    all_gold_constants: Set[str],
) -> None:
    """Category 1: names used that neither the vocabulary nor the gold rules know."""
    structural = {
        "happensAt", "holdsAt", "holdsFor", "initiatedAt", "terminatedAt",
        "not", "list", "=", "maxDuration", "initially",
    } | set(INTERVAL_CONSTRUCTS)
    gold_names = _referenced_functors(gold_rules)
    generated_names = _referenced_functors(generated_rules)
    novel = generated_names - gold_names - known_functors - structural - defined
    comparison_ops = {"<", ">", "=<", ">=", "=:=", "=\\="}
    arithmetic = {"plus", "minus", "times", "div", "abs", "min", "max", "angleDiff"}
    for name in sorted(novel - comparison_ops - arithmetic):
        report.findings.append(
            ErrorFinding(
                "naming-divergence",
                group.name,
                "uses the name %r, unknown to both the vocabulary and the "
                "gold definition" % name,
            )
        )
    del gold_rules  # constants are legitimate domain-wide, not per group
    for value in sorted(_constants(generated_rules) - all_gold_constants):
        if value in ("true", "false", "[]"):
            continue
        report.findings.append(
            ErrorFinding(
                "naming-divergence",
                group.name,
                "uses the constant %r instead of a gold-standard one" % value,
            )
        )


def _check_undefined(
    report: ErrorReport,
    group: ActivityGroup,
    generated_rules: Sequence[Rule],
    known_functors: Set[str],
    defined: Set[str],
) -> None:
    """Category 3: holdsAt/holdsFor conditions over undefined activities."""
    for rule in generated_rules:
        for literal in rule.body:
            term = literal.term
            if not (
                isinstance(term, Compound)
                and term.functor in ("holdsAt", "holdsFor")
                and term.arity == 2
            ):
                continue
            pair = term.args[0]
            if not (isinstance(pair, Compound) and pair.functor == "="):
                continue
            try:
                name = fluent_key(pair.args[0])[0]
            except ValueError:
                continue
            if name not in defined and name not in known_functors:
                report.findings.append(
                    ErrorFinding(
                        "undefined-activity",
                        group.name,
                        "condition references %r, which the generated event "
                        "description never defines" % name,
                    )
                )


def _check_missing_rules(
    report: ErrorReport,
    group: ActivityGroup,
    gold_rules: Sequence[Rule],
    generated_rules: Sequence[Rule],
) -> None:
    if len(generated_rules) < len(gold_rules):
        report.findings.append(
            ErrorFinding(
                "missing-rule",
                group.name,
                "%d rules generated for %d gold rules"
                % (len(generated_rules), len(gold_rules)),
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
