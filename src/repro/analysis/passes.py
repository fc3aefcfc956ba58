"""The analyser's passes.

Each pass is a function ``(AnalysisContext) -> List[Diagnostic]``:

* **structural** — delegates to ``EventDescription.validate`` (the legacy
  six categories: syntax, malformed rules, undefined names, cycles), so
  the analyser and the old validation path report the exact same
  diagnostics for those classes;
* **binding** — per-rule binding-order dataflow (RTEC007/RTEC008 and
  arithmetic arity misuse under RTEC009), see
  :mod:`repro.analysis.binding`;
* **arity** — wrong-arity uses of reserved predicates (RTEC009);
* **consistency** — never-terminated / never-initiated simple fluents,
  duplicate and contradictory rules (RTEC010–RTEC014);
* **dependency** — dead rules, when the output fluents are known
  (RTEC012);
* **partition** — partitionability diagnostics surfaced as informational
  lints (RTEC015);
* **naming** — unknown names resolvable to a unique close vocabulary name,
  with attached rename fixes (RTEC016).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis import binding
from repro.analysis.diagnostics import Diagnostic, Fix
from repro.analysis.names import closest
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import COMPARISON_OPERATORS, LIST_FUNCTOR, Rule, canonical
from repro.logic.terms import Compound, Constant, Term, is_ground, walk_subterms
from repro.rtec.builtins import EVALUABLE_FUNCTORS
from repro.rtec.description import (
    INTERVAL_CONSTRUCTS,
    EventDescription,
    Vocabulary,
    fluent_key,
    head_fvp,
)

if TYPE_CHECKING:
    from repro.analysis.semantics import SemanticFacts

__all__ = [
    "AnalysisContext",
    "STRUCTURAL_FUNCTORS",
    "KNOWN_VALUE_CONSTANTS",
    "NameFixes",
    "compute_name_fixes",
    "known_functor_names",
    "referenced_names",
    "structural_pass",
    "binding_pass",
    "arity_pass",
    "consistency_pass",
    "dependency_pass",
    "partition_pass",
    "naming_pass",
]

#: Names that belong to the rule language itself, not to any vocabulary.
STRUCTURAL_FUNCTORS: Set[str] = (
    {
        "happensAt",
        "holdsAt",
        "holdsFor",
        "initiatedAt",
        "terminatedAt",
        "initially",
        "maxDuration",
        "not",
        LIST_FUNCTOR,
        "=",
    }
    | set(INTERVAL_CONSTRUCTS)
    | set(EVALUABLE_FUNCTORS)
    | set(COMPARISON_OPERATORS)
)

#: Fluent values that are part of the RTEC/maritime conventions rather than
#: the knowledge base.
KNOWN_VALUE_CONSTANTS: Set[str] = {
    "true",
    "false",
    "nearPorts",
    "farFromPorts",
    "below",
    "normal",
    "above",
    "[]",
}

#: Reserved predicates and their arity (heads, conditions and constructs).
RESERVED_ARITIES: Dict[str, int] = {
    "happensAt": 2,
    "holdsAt": 2,
    "holdsFor": 2,
    "initiatedAt": 2,
    "terminatedAt": 2,
    "initially": 1,
    "maxDuration": 2,
    **INTERVAL_CONSTRUCTS,
}


@dataclass
class AnalysisContext:
    """Everything a pass may consult (only ``description`` is mandatory)."""

    description: EventDescription
    vocabulary: Optional[Vocabulary] = None
    kb: Optional[KnowledgeBase] = None
    #: Names of the fluents the recognition task reports (e.g. the composite
    #: activities); enables the dead-rule check.
    outputs: Optional[Sequence[str]] = None
    #: What ``semantic_pass`` inferred, for the memory-boundedness pass.
    semantics: Optional["SemanticFacts"] = field(default=None, init=False)


# -- structural ---------------------------------------------------------------


def structural_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    """The legacy validation, verbatim: one diagnostic currency."""
    return list(ctx.description.validate(ctx.vocabulary))


# -- binding ------------------------------------------------------------------


def binding_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for index, rule in enumerate(ctx.description.rules):
        for issue in binding.check_rule(rule):
            diagnostics.append(
                Diagnostic(
                    issue.category,
                    issue.message,
                    rule_index=index,
                    condition_index=issue.condition_index,
                )
            )
    return diagnostics


# -- arity --------------------------------------------------------------------


def arity_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for index, rule in enumerate(ctx.description.rules):
        terms: List[Term] = [rule.head]
        terms.extend(literal.term for literal in rule.body)
        seen: Set[Tuple[str, int]] = set()
        for top in terms:
            for sub in walk_subterms(top):
                if not isinstance(sub, Compound):
                    continue
                expected = RESERVED_ARITIES.get(sub.functor)
                if expected is None or sub.arity == expected:
                    continue
                key = (sub.functor, sub.arity)
                if key in seen:
                    continue
                seen.add(key)
                diagnostics.append(
                    Diagnostic(
                        "wrong-arity",
                        "%s expects %d argument(s), got %d in %r"
                        % (sub.functor, expected, sub.arity, sub),
                        rule_index=index,
                    )
                )
    return diagnostics


# -- consistency --------------------------------------------------------------


def _first_rule_index(description: EventDescription, rule: Rule) -> Optional[int]:
    try:
        return description.rules.index(rule)
    except ValueError:
        return None


def consistency_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    description = ctx.description
    diagnostics: List[Diagnostic] = []

    max_duration_keys = set()
    for pattern, _duration in description.max_durations:
        assert isinstance(pattern, Compound)
        try:
            max_duration_keys.add(fluent_key(pattern.args[0]))
        except ValueError:
            continue
    initially_keys = set()
    for pair in description.initial_fvps:
        assert isinstance(pair, Compound)
        try:
            initially_keys.add(fluent_key(pair.args[0]))
        except ValueError:
            continue

    for key, definition in sorted(description.simple_fluents.items()):
        if definition.initiated_rules and not definition.terminated_rules:
            values = [head_fvp(rule)[1] for rule in definition.initiated_rules]
            ground_values = {v for v in values if is_ground(v)}
            multi_valued = len(ground_values) >= 2 or any(
                not is_ground(v) for v in values
            )
            if not multi_valued and key not in max_duration_keys:
                diagnostics.append(
                    Diagnostic(
                        "never-terminated",
                        "simple fluent %s/%d is initiated but has no "
                        "terminatedAt rule, no other value, and no maxDuration "
                        "deadline: once initiated it holds forever" % key,
                        rule_index=_first_rule_index(
                            description, definition.initiated_rules[0]
                        ),
                    )
                )
        if definition.terminated_rules and not definition.initiated_rules:
            if key not in initially_keys:
                diagnostics.append(
                    Diagnostic(
                        "never-initiated",
                        "simple fluent %s/%d is terminated but never initiated "
                        "and not declared initially: its terminations can "
                        "never fire" % key,
                        rule_index=_first_rule_index(
                            description, definition.terminated_rules[0]
                        ),
                    )
                )

    defining = ("initiatedAt", "terminatedAt", "holdsFor")
    seen_canonical: Dict[tuple, int] = {}
    for index, rule in enumerate(description.rules):
        head = rule.head
        if not (isinstance(head, Compound) and head.arity == 2 and head.functor in defining):
            continue
        first = seen_canonical.get(rule.key)
        if first is None:
            seen_canonical[rule.key] = index
        else:
            diagnostics.append(
                Diagnostic(
                    "duplicate-rule",
                    "rule %d duplicates rule %d (identical up to variable "
                    "renaming)" % (index, first),
                    rule_index=index,
                )
            )

    for key, definition in sorted(description.simple_fluents.items()):
        # the FVP and the body: an initiatedAt rule against a terminatedAt one
        initiated = {
            canonical(rule.head.args[0], *rule.body)  # type: ignore[union-attr]
            for rule in definition.initiated_rules
        }
        for rule in definition.terminated_rules:
            head = rule.head
            assert isinstance(head, Compound)
            if canonical(head.args[0], *rule.body) in initiated:
                diagnostics.append(
                    Diagnostic(
                        "contradictory-rules",
                        "%s/%d: the same conditions both initiate and "
                        "terminate %r" % (key + (head.args[0],)),
                        rule_index=_first_rule_index(description, rule),
                    )
                )
    return diagnostics


# -- dependency ---------------------------------------------------------------


def dependency_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    """Dead rules: defined fluents nobody consumes. Needs ``ctx.outputs``
    (without the output declaration every top-level fluent would be dead)."""
    if ctx.outputs is None:
        return []
    description = ctx.description
    output_names = set(ctx.outputs)
    graph = description.dependencies()
    consumed: Set[Tuple[str, int]] = set()
    for deps in graph.values():
        consumed |= deps
    diagnostics: List[Diagnostic] = []
    for key in sorted(description.defined_keys):
        if key in consumed or key[0] in output_names:
            continue
        definition_rules: List[Rule] = []
        if key in description.simple_fluents:
            simple = description.simple_fluents[key]
            definition_rules = simple.initiated_rules + simple.terminated_rules
        elif key in description.static_fluents:
            definition_rules = description.static_fluents[key].rules
        rule_index = (
            _first_rule_index(description, definition_rules[0])
            if definition_rules
            else None
        )
        diagnostics.append(
            Diagnostic(
                "dead-rule",
                "fluent %s/%d is defined but consumed by no rule and is not a "
                "declared output" % key,
                rule_index=rule_index,
            )
        )
    return diagnostics


# -- partition ----------------------------------------------------------------


def partition_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    analysis = ctx.description.partitionability()
    if analysis.shardable:
        return []
    return [
        Diagnostic("non-shardable", message) for message in analysis.diagnostics
    ]


# -- naming -------------------------------------------------------------------


@dataclass
class NameFixes:
    """Resolved and unresolved unknown names of one description.

    ``unresolved`` lists ``(kind, name)`` pairs (kind ``"functor"`` or
    ``"constant"``) for unknown names with no unique close known name.
    """

    functor_renames: Dict[str, str]
    constant_renames: Dict[str, str]
    unresolved: List[Tuple[str, str]]


def referenced_names(rules: Sequence[Rule]) -> Tuple[Set[str], Set[str]]:
    """(functor names referenced in heads/bodies, string constants used)."""
    functors: Set[str] = set()
    constants: Set[str] = set()
    for rule in rules:
        terms = [rule.head]
        terms.extend(literal.term for literal in rule.body)
        for top in terms:
            for sub in walk_subterms(top):
                if isinstance(sub, Compound):
                    functors.add(sub.functor)
                elif isinstance(sub, Constant) and isinstance(sub.value, str):
                    constants.add(sub.value)
    return functors, constants


def known_functor_names(
    description: EventDescription, vocabulary: Vocabulary
) -> Set[str]:
    """Vocabulary names + fluents the description defines + the language."""
    return (
        {name for name, _arity in vocabulary.input_events}
        | {name for name, _arity in vocabulary.input_fluents}
        | {name for name, _arity in vocabulary.background}
        | {key[0] for key in description.defined_keys}
        | STRUCTURAL_FUNCTORS
    )


def known_constant_names(kb: KnowledgeBase) -> Set[str]:
    """String constants of the knowledge base facts (minus fact functors)."""
    known: Set[str] = set(KNOWN_VALUE_CONSTANTS)
    functors: Set[str] = set()
    for fact in kb.facts():
        for sub in walk_subterms(fact):
            if isinstance(sub, Constant) and isinstance(sub.value, str):
                known.add(sub.value)
            elif isinstance(sub, Compound):
                functors.add(sub.functor)
    return known - functors


def compute_name_fixes(
    description: EventDescription,
    vocabulary: Vocabulary,
    kb: Optional[KnowledgeBase] = None,
    skip_constants: Optional[Mapping[str, str]] = None,
) -> NameFixes:
    """Resolve unknown names to their unique closest known name.

    ``skip_constants`` are constant renames already decided (a reviewer's
    map): those names are not re-resolved.
    """
    referenced_functors, referenced_constants = referenced_names(description.rules)
    known_functors = known_functor_names(description, vocabulary)
    candidates = sorted(known_functors - STRUCTURAL_FUNCTORS)

    functor_renames: Dict[str, str] = {}
    constant_renames: Dict[str, str] = {}
    unresolved: List[Tuple[str, str]] = []

    for name in sorted(referenced_functors - known_functors):
        match = closest(name, candidates)
        if match is not None:
            functor_renames[name] = match
        else:
            unresolved.append(("functor", name))

    if kb is not None:
        known_constants = known_constant_names(kb)
        constant_candidates = sorted(known_constants - KNOWN_VALUE_CONSTANTS)
        for name in sorted(
            referenced_constants - known_constants - set(skip_constants or {})
        ):
            match = closest(name, constant_candidates)
            if match is not None:
                constant_renames[name] = match
            else:
                unresolved.append(("constant", name))

    return NameFixes(functor_renames, constant_renames, unresolved)


def naming_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    if ctx.vocabulary is None:
        return []
    fixes = compute_name_fixes(ctx.description, ctx.vocabulary, ctx.kb)
    diagnostics: List[Diagnostic] = []
    for old, new in sorted(fixes.functor_renames.items()):
        diagnostics.append(
            Diagnostic(
                "naming",
                "unknown name %r is a close variant of %r" % (old, new),
                fix=Fix("rename-functor", old, new),
            )
        )
    for old, new in sorted(fixes.constant_renames.items()):
        diagnostics.append(
            Diagnostic(
                "naming",
                "unknown constant %r is a close variant of %r" % (old, new),
                fix=Fix("rename-constant", old, new),
            )
        )
    return diagnostics
