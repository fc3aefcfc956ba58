"""The registry of coded lint rules.

Each :class:`LintRule` documents one diagnostic code: its category name,
default severity, a short title, an explanation, and whether its
diagnostics can carry an auto-fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.diagnostics import CATEGORY_CODES, Severity

__all__ = ["LintRule", "LINT_RULES", "DOCS_URI", "rule_for"]

#: Base URI of the lint-rule documentation (the DESIGN.md catalogue); each
#: rule's :attr:`LintRule.help_uri` anchors into it by lowercased code.
DOCS_URI = "https://github.com/aartikis/RTEC/blob/master/DESIGN.md"


#: Codes the repair loop does *not* feed back to the model: informational
#: lints that describe a property of the description rather than a defect.
_NOT_REPAIRABLE = frozenset({"RTEC015"})


@dataclass(frozen=True)
class LintRule:
    """Documentation record of one lint code."""

    code: str
    category: str
    severity: Severity
    title: str
    explanation: str
    fixable: bool = False
    repair: Optional[str] = None
    """How the repair loop handles this code: ``"auto"`` (a structured fix
    is applied mechanically), ``"prompt"`` (rendered into a repair prompt
    for the model), or ``None`` (not repairable)."""

    @property
    def help_uri(self) -> str:
        """Documentation URI of this rule (SARIF ``helpUri``)."""
        return "%s#%s" % (DOCS_URI, self.code.lower())


def _rule(code: str, title: str, explanation: str, fixable: bool = False) -> LintRule:
    category = next(c for c, (cd, _s) in CATEGORY_CODES.items() if cd == code)
    severity = CATEGORY_CODES[category][1]
    if fixable:
        repair: Optional[str] = "auto"
    elif code in _NOT_REPAIRABLE:
        repair = None
    else:
        repair = "prompt"
    return LintRule(code, category, severity, title, explanation, fixable, repair)


LINT_RULES: Dict[str, LintRule] = {
    rule.code: rule
    for rule in (
        _rule(
            "RTEC001",
            "syntax error",
            "The text is not in the supported RTEC dialect and failed to parse.",
        ),
        _rule(
            "RTEC002",
            "malformed rule",
            "A rule violates Definition 2.2 or 2.4: wrong head predicate, "
            "empty body, wrong first condition, negation or comparisons in a "
            "holdsFor body, interval variables used before being bound, or a "
            "malformed declaration.",
        ),
        _rule(
            "RTEC003",
            "undefined event",
            "A happensAt condition refers to an event that is not in the "
            "input vocabulary.",
        ),
        _rule(
            "RTEC004",
            "undefined fluent",
            "A holdsAt/holdsFor condition refers to a fluent that is neither "
            "an input fluent nor defined by the event description (the "
            "paper's undefined-activity errors).",
        ),
        _rule(
            "RTEC005",
            "undefined background predicate",
            "An atemporal condition has no matching background predicate in "
            "the vocabulary.",
        ),
        _rule(
            "RTEC006",
            "cyclic fluent dependency",
            "The fluent dependency graph contains a cycle (reported with the "
            "full path); RTEC requires a hierarchy for bottom-up evaluation.",
        ),
        _rule(
            "RTEC007",
            "unbound or unevaluable operand",
            "Left-to-right binding-order dataflow: a variable reaches an "
            "arithmetic comparison, a holdsAt time-point, a negated holdsAt, "
            "or an interval builtin without having been bound by an earlier "
            "condition — this raises an EvaluationError at run time.",
        ),
        _rule(
            "RTEC008",
            "unsafe head variable",
            "A head variable is never bound by any body condition: "
            "initiations and head time-points must be ground after body "
            "evaluation (universal terminatedAt heads are exempt).",
        ),
        _rule(
            "RTEC009",
            "wrong arity",
            "A reserved predicate (happensAt, holdsFor, union_all, ...) or "
            "an arithmetic functor is used with the wrong number of "
            "arguments.",
        ),
        _rule(
            "RTEC010",
            "initiated but never terminated",
            "A single-valued simple fluent has initiatedAt rules but no "
            "terminatedAt rule and no maxDuration deadline: once initiated "
            "it holds forever by inertia.",
        ),
        _rule(
            "RTEC011",
            "terminated but never initiated",
            "A simple fluent has terminatedAt rules but no initiatedAt rule "
            "and no initially declaration: its terminations can never fire.",
        ),
        _rule(
            "RTEC012",
            "dead rule",
            "A defined fluent is consumed by no other rule and is not a "
            "declared output of the recognition task.",
        ),
        _rule(
            "RTEC013",
            "duplicate rule",
            "Two rules are identical up to consistent variable renaming.",
        ),
        _rule(
            "RTEC014",
            "contradictory rules",
            "The same conditions (up to variable renaming) both initiate and "
            "terminate the same fluent-value pair.",
        ),
        _rule(
            "RTEC015",
            "not entity-shardable",
            "The partitionability analysis found a rule that keeps the stream "
            "from being split by entity: late input recomputes the whole "
            "window and the description is served as one session "
            "(informational).",
        ),
        _rule(
            "RTEC016",
            "naming divergence",
            "An unknown name normalises to (or is within a small edit "
            "distance of) exactly one known vocabulary name; the attached "
            "fix renames it.",
            fixable=True,
        ),
        _rule(
            "RTEC018",
            "impossible fluent value",
            "A holdsAt/holdsFor condition references F=V where V is not "
            "among the values any rule or declaration of the defined "
            "fluent F can produce: the condition can never succeed (or, "
            "negated, always succeeds).",
        ),
        _rule(
            "RTEC022",
            "unreachable fluent",
            "Reachability analysis over the dependency graph finds no "
            "derivation path from any input event or input fluent to this "
            "defined fluent: at run time it can never hold.",
        ),
        _rule(
            "RTEC023",
            "unreachable output",
            "A declared output fluent of the recognition task has no "
            "derivation path from any input: the task silently produces "
            "empty detections for it.",
        ),
        _rule(
            "RTEC025",
            "delta-unsafe temporal condition",
            "The delta-safety prover could not anchor a temporal condition "
            "(happensAt/holdsAt) to the rule's firing time: under "
            "incremental window evaluation the condition can reach back "
            "before the previous query time, where events are no longer in "
            "the delta stream. Anchor the condition's time to the head time "
            "(reuse the variable or add an =:= equality); until then "
            "sessions fall back to full-window recomputation.",
        ),
        _rule(
            "RTEC026",
            "delta-unsafe head anchoring",
            "The rule's head time is not provably equal to the time of its "
            "seeding happensAt condition (or the rule does not compile to a "
            "seeded plan at all), so the delta-safety prover cannot bound "
            "which window advances may fire it.",
        ),
        _rule(
            "RTEC027",
            "leaky fluent",
            "Memory-boundedness analysis found a reachable initiated value "
            "of a simple fluent with no live termination mechanism: no "
            "reachable terminatedAt rule matches it, no maxDuration "
            "deadline covers it, and no other reachable value of the same "
            "fluent can displace it. Once initiated it holds (and is "
            "carried across windows) forever.",
        ),
        _rule(
            "RTEC028",
            "leaky interval flow",
            "Abstract interpretation over the interval operators shows a "
            "statically determined fluent derives its intervals from a "
            "leaky fluent (union_all propagates any leaky input, "
            "intersect_all only all-leaky inputs, relative_complement_all "
            "its first operand): its cached state inherits the unbounded "
            "growth.",
        ),
    )
}

# Every category of the shared table must be documented here, and vice versa.
assert set(LINT_RULES) == {code for code, _ in CATEGORY_CODES.values()}


def rule_for(code: str) -> Optional[LintRule]:
    """The registry record of a lint code, if documented."""
    return LINT_RULES.get(code)
