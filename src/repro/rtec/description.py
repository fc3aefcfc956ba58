"""Event descriptions: classified, validated sets of RTEC rules.

An *event description* (Section 2 of the paper) is a set of rules defining
fluent-value pairs, of two kinds:

* **simple fluents** — defined by ``initiatedAt``/``terminatedAt`` rules and
  subject to the law of inertia (Definition 2.2);
* **statically determined fluents** — defined by a ``holdsFor`` rule whose
  body combines the maximal intervals of other FVPs with interval
  manipulation constructs (Definition 2.4).

This module parses and classifies rules, builds the fluent dependency graph
used for bottom-up evaluation, and validates descriptions against an input
:class:`Vocabulary`. Validation is central to the reproduction: the paper's
error taxonomy (Section 5.2 "Qualitative Error Assessment") includes
generated rules whose conditions reference *undefined* activities — those
must be detected, not executed.

Deviation from Definition 2.4 (documented in DESIGN.md): ``holdsFor`` rule
bodies may also contain atemporal background predicates (e.g.
``oneIsTug(V1, V2)``), as in the published maritime event description of
Pitsikalis et al. (2019).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.parser import LIST_FUNCTOR, Rule, parse_program
from repro.logic.pretty import program_to_str
from repro.logic.terms import Compound, Constant, Term, Variable, is_fvp
from repro.rtec.builtins import is_comparison
from repro.rtec.errors import CyclicDependencyError, ValidationIssue

__all__ = [
    "FluentKey",
    "fluent_key",
    "Vocabulary",
    "SimpleFluentDef",
    "StaticFluentDef",
    "EventDescription",
    "INTERVAL_CONSTRUCTS",
]

#: (functor, arity) identifying a fluent or event schema.
FluentKey = Tuple[str, int]

#: Interval manipulation constructs of Definition 2.4, with their arity.
INTERVAL_CONSTRUCTS: Dict[str, int] = {
    "union_all": 2,
    "intersect_all": 2,
    "relative_complement_all": 3,
}


def fluent_key(term: Term) -> FluentKey:
    """The (functor, arity) key of a fluent or event term."""
    if isinstance(term, Compound):
        return (term.functor, term.arity)
    if isinstance(term, Constant) and isinstance(term.value, str):
        return (term.value, 0)
    raise ValueError("not a fluent/event term: %r" % (term,))


@dataclass(frozen=True)
class Vocabulary:
    """The input schema of an application (prompts E and T of the paper).

    ``input_events`` and ``input_fluents`` are the items of the input
    stream; ``background`` are the atemporal predicates (``areaType/2``,
    ``thresholds/2``, ...).
    """

    input_events: FrozenSet[FluentKey] = frozenset()
    input_fluents: FrozenSet[FluentKey] = frozenset()
    background: FrozenSet[FluentKey] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_events", frozenset(self.input_events))
        object.__setattr__(self, "input_fluents", frozenset(self.input_fluents))
        object.__setattr__(self, "background", frozenset(self.background))


@dataclass
class SimpleFluentDef:
    """All initiation/termination rules of one simple fluent schema."""

    key: FluentKey
    initiated_rules: List[Rule] = field(default_factory=list)
    terminated_rules: List[Rule] = field(default_factory=list)

    @property
    def values(self) -> List[Term]:
        """The distinct head values across all rules (e.g. below/normal/above)."""
        seen: List[Term] = []
        for rule in self.initiated_rules + self.terminated_rules:
            value = head_fvp(rule)[1]
            if value not in seen:
                seen.append(value)
        return seen


@dataclass
class StaticFluentDef:
    """The holdsFor rules of one statically determined fluent schema."""

    key: FluentKey
    rules: List[Rule] = field(default_factory=list)


def head_fvp(rule: Rule) -> Tuple[Term, Term]:
    """Destructure a rule head into (fluent term, value term).

    Works for ``initiatedAt(F=V, T)``, ``terminatedAt(F=V, T)`` and
    ``holdsFor(F=V, I)`` heads.
    """
    head = rule.head
    if not isinstance(head, Compound) or head.arity != 2:
        raise ValueError("malformed rule head: %r" % (head,))
    pair = head.args[0]
    if not is_fvp(pair):
        raise ValueError("rule head does not contain an FVP: %r" % (head,))
    assert isinstance(pair, Compound)
    return pair.args[0], pair.args[1]


class EventDescription:
    """A parsed, classified RTEC event description.

    Parameters
    ----------
    rules:
        Rules in source order. Classification happens eagerly; rules whose
        heads are not ``initiatedAt/2``, ``terminatedAt/2`` or ``holdsFor/2``
        are kept (so the similarity metric can still compare them) but
        recorded as malformed.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules: List[Rule] = list(rules)
        self.simple_fluents: Dict[FluentKey, SimpleFluentDef] = {}
        self.static_fluents: Dict[FluentKey, StaticFluentDef] = {}
        #: Ground FVPs declared to hold at the start of time (``initially/1``).
        self.initial_fvps: List[Term] = []
        #: (FVP pattern, deadline) pairs from ``maxDuration/2`` declarations.
        self.max_durations: List[Tuple[Term, int]] = []
        self._malformed: List[Tuple[int, str]] = []
        self._classify()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "EventDescription":
        """Parse an event description from RTEC concrete syntax."""
        return cls(parse_program(text))

    def to_text(self) -> str:
        """Render back to concrete syntax (round-trips through the parser)."""
        return program_to_str(self.rules)

    def _classify(self) -> None:
        for index, rule in enumerate(self.rules):
            head = rule.head
            if isinstance(head, Compound) and head.functor == "initially" and head.arity == 1:
                self._classify_initially(index, rule)
                continue
            if isinstance(head, Compound) and head.functor == "maxDuration" and head.arity == 2:
                self._classify_max_duration(index, rule)
                continue
            if not isinstance(head, Compound) or head.arity != 2:
                self._malformed.append((index, "unrecognised rule head: %r" % (head,)))
                continue
            try:
                fluent, _value = head_fvp(rule)
                key = fluent_key(fluent)
            except ValueError as exc:
                self._malformed.append((index, str(exc)))
                continue
            if head.functor == "initiatedAt":
                self.simple_fluents.setdefault(key, SimpleFluentDef(key)).initiated_rules.append(rule)
            elif head.functor == "terminatedAt":
                self.simple_fluents.setdefault(key, SimpleFluentDef(key)).terminated_rules.append(rule)
            elif head.functor == "holdsFor":
                self.static_fluents.setdefault(key, StaticFluentDef(key)).rules.append(rule)
            else:
                self._malformed.append(
                    (index, "unknown head predicate %r" % head.functor)
                )

    def _classify_initially(self, index: int, rule: Rule) -> None:
        """``initially(F=V).`` — F=V holds from time-point 0 (until terminated)."""
        from repro.logic.terms import is_ground  # local to avoid cycle at import

        if not rule.is_fact:
            self._malformed.append((index, "initially/1 must be a fact"))
            return
        pair = rule.head.args[0]  # type: ignore[union-attr]
        if not is_fvp(pair) or not is_ground(pair):
            self._malformed.append(
                (index, "initially/1 expects a ground FVP: %r" % (pair,))
            )
            return
        self.initial_fvps.append(pair)

    def _classify_max_duration(self, index: int, rule: Rule) -> None:
        """``maxDuration(F=V, D).`` — periods of F=V auto-terminate after D."""
        if not rule.is_fact:
            self._malformed.append((index, "maxDuration/2 must be a fact"))
            return
        pair = rule.head.args[0]  # type: ignore[union-attr]
        duration = rule.head.args[1]  # type: ignore[union-attr]
        if not is_fvp(pair):
            self._malformed.append(
                (index, "maxDuration/2 expects an FVP first argument: %r" % (pair,))
            )
            return
        if not (
            isinstance(duration, Constant)
            and duration.is_number
            and float(duration.value) > 0
        ):
            self._malformed.append(
                (index, "maxDuration/2 expects a positive deadline: %r" % (duration,))
            )
            return
        self.max_durations.append((pair, int(duration.value)))

    def rule_fingerprint(self) -> Tuple[int, ...]:
        """Identity fingerprint of the defining rules.

        Rules are immutable (frozen dataclasses), so mutating the rule
        lists — as ``repair`` rewrites and hand edits do — changes the
        fingerprint, invalidating analyses cached for the old rules.
        """
        parts: List[int] = []
        for _key, definition in sorted(self.simple_fluents.items()):
            parts.extend(map(id, definition.initiated_rules))
            parts.extend(map(id, definition.terminated_rules))
        for _key, static_definition in sorted(self.static_fluents.items()):
            parts.extend(map(id, static_definition.rules))
        return tuple(parts)

    def partitionability(self) -> "PartitionAnalysis":
        """The entity-sharding analysis of this description.

        See :mod:`repro.rtec.partition`. Cached against
        :meth:`rule_fingerprint`: sessions consult it on every late
        advance, so a rule appended after first access must recompute it.
        """
        fingerprint = self.rule_fingerprint()
        cached = getattr(self, "_partitionability", None)
        if cached is None or cached[0] != fingerprint:
            from repro.rtec.partition import analyse_partitionability

            cached = (fingerprint, analyse_partitionability(self))
            self._partitionability = cached
        return cached[1]

    def max_duration_for(self, pair: Term) -> Optional[int]:
        """The deadline applying to a ground FVP, if any (first match wins)."""
        from repro.logic.unification import unify

        for pattern, duration in self.max_durations:
            if unify(pattern, pair) is not None:
                return duration
        return None

    # -- structure ----------------------------------------------------------

    @property
    def defined_keys(self) -> Set[FluentKey]:
        """Fluent schemas defined by this event description."""
        return set(self.simple_fluents) | set(self.static_fluents)

    def dependencies(self) -> Dict[FluentKey, Set[FluentKey]]:
        """Edges: defined fluent -> fluents referenced in its rule bodies."""
        graph: Dict[FluentKey, Set[FluentKey]] = {key: set() for key in self.defined_keys}
        for key, definition in self.simple_fluents.items():
            for rule in definition.initiated_rules + definition.terminated_rules:
                for literal in rule.body:
                    referenced = _referenced_fluent(literal.term, "holdsAt")
                    if referenced is not None:
                        graph[key].add(referenced)
        for key, definition in self.static_fluents.items():
            for rule in definition.rules:
                for literal in rule.body:
                    referenced = _referenced_fluent(literal.term, "holdsFor")
                    if referenced is not None:
                        graph[key].add(referenced)
        return graph

    def topological_order(self) -> List[FluentKey]:
        """Defined fluents, dependencies first; raises on cycles."""
        graph = self.dependencies()
        defined = self.defined_keys
        order: List[FluentKey] = []
        state: Dict[FluentKey, int] = {}  # 0=unseen implied, 1=visiting, 2=done
        path: List[FluentKey] = []

        def visit(node: FluentKey) -> None:
            status = state.get(node, 0)
            if status == 2:
                return
            if status == 1:
                cycle_start = path.index(node)
                cycle = ["%s/%d" % key for key in path[cycle_start:] + [node]]
                raise CyclicDependencyError(cycle)
            state[node] = 1
            path.append(node)
            for dep in sorted(graph.get(node, ())):
                if dep in defined:
                    visit(dep)
            path.pop()
            state[node] = 2
            order.append(node)

        for node in sorted(defined):
            visit(node)
        return order

    # -- validation -----------------------------------------------------------

    def validate(self, vocabulary: Optional[Vocabulary] = None) -> List[ValidationIssue]:
        """Check structural conformance to Definitions 2.2/2.4 and the vocabulary.

        Returns all issues found (empty list means the description is
        executable). Never raises on bad input — erroneous LLM-generated
        descriptions must be *inspectable*.
        """
        issues: List[ValidationIssue] = []
        for index, message in self._malformed:
            issues.append(ValidationIssue("malformed-rule", message, index))
        for index, rule in enumerate(self.rules):
            head = rule.head
            if not isinstance(head, Compound) or head.arity != 2:
                continue
            if head.functor in ("initiatedAt", "terminatedAt"):
                issues.extend(self._validate_simple_rule(index, rule, vocabulary))
            elif head.functor == "holdsFor":
                issues.extend(self._validate_static_rule(index, rule, vocabulary))
        for pair in self.initial_fvps:
            issues.extend(self._check_declared_fluent(pair, "initially"))
        for pattern, _duration in self.max_durations:
            issues.extend(self._check_declared_fluent(pattern, "maxDuration"))
        try:
            self.topological_order()
        except CyclicDependencyError as exc:
            issues.append(ValidationIssue("cycle", str(exc)))
        return issues

    def _check_declared_fluent(self, pair: Term, declaration: str) -> List[ValidationIssue]:
        """initially/maxDuration declarations must target defined simple fluents."""
        assert isinstance(pair, Compound)
        try:
            key = fluent_key(pair.args[0])
        except ValueError:
            return [
                ValidationIssue(
                    "malformed-rule",
                    "%s declaration with malformed fluent %r" % (declaration, pair),
                )
            ]
        if key not in self.simple_fluents:
            return [
                ValidationIssue(
                    "undefined-fluent",
                    "%s declaration targets %s/%d, which is not a defined simple "
                    "fluent" % (declaration, key[0], key[1]),
                )
            ]
        return []

    def _validate_simple_rule(
        self, index: int, rule: Rule, vocabulary: Optional[Vocabulary]
    ) -> List[ValidationIssue]:
        issues: List[ValidationIssue] = []
        if not rule.body:
            issues.append(
                ValidationIssue("malformed-rule", "simple fluent rule with empty body", index)
            )
            return issues
        first = rule.body[0]
        if first.negated or not _is_predicate(first.term, "happensAt", 2):
            issues.append(
                ValidationIssue(
                    "malformed-rule",
                    "first condition must be a positive happensAt (Definition 2.2)",
                    index,
                )
            )
        for literal in rule.body:
            term = literal.term
            if _is_predicate(term, "happensAt", 2):
                issues.extend(self._check_event(index, term, vocabulary))
            elif _is_predicate(term, "holdsAt", 2):
                issues.extend(self._check_fluent_reference(index, term, vocabulary))
            elif _is_predicate(term, "holdsFor", 2) or _is_interval_construct(term):
                issues.append(
                    ValidationIssue(
                        "malformed-rule",
                        "holdsFor/interval constructs are not allowed in simple "
                        "fluent rules (Definition 2.2): %r" % (term,),
                        index,
                    )
                )
            elif is_comparison(term):
                continue
            else:
                issues.extend(self._check_background(index, term, vocabulary))
        return issues

    def _validate_static_rule(
        self, index: int, rule: Rule, vocabulary: Optional[Vocabulary]
    ) -> List[ValidationIssue]:
        issues: List[ValidationIssue] = []
        try:
            head_fluent, _ = head_fvp(rule)
            head_key = fluent_key(head_fluent)
        except ValueError:
            return issues  # already recorded as malformed
        if not rule.body:
            issues.append(
                ValidationIssue("malformed-rule", "holdsFor rule with empty body", index)
            )
            return issues
        first = rule.body[0]
        if first.negated or not _is_predicate(first.term, "holdsFor", 2):
            issues.append(
                ValidationIssue(
                    "malformed-rule",
                    "first condition of a holdsFor rule must be a positive "
                    "holdsFor (Definition 2.4)",
                    index,
                )
            )
        else:
            referenced = _referenced_fluent(first.term, "holdsFor")
            if referenced == head_key:
                pair = first.term.args[0]  # type: ignore[union-attr]
                head_pair = rule.head.args[0]  # type: ignore[union-attr]
                if pair == head_pair:
                    issues.append(
                        ValidationIssue(
                            "malformed-rule",
                            "a holdsFor rule may not be defined in terms of its own FVP",
                            index,
                        )
                    )
        bound_interval_vars: Set[Variable] = set()
        for literal in rule.body:
            term = literal.term
            if literal.negated:
                issues.append(
                    ValidationIssue(
                        "malformed-rule",
                        "negation is not allowed in holdsFor rules (Definition 2.4)",
                        index,
                    )
                )
                continue
            if _is_predicate(term, "holdsFor", 2):
                issues.extend(self._check_fluent_reference(index, term, vocabulary))
                out = term.args[1]  # type: ignore[union-attr]
                if isinstance(out, Variable):
                    bound_interval_vars.add(out)
            elif _is_interval_construct(term):
                issues.extend(
                    self._check_interval_construct(index, term, bound_interval_vars)
                )
            elif _is_predicate(term, "happensAt", 2) or _is_predicate(term, "holdsAt", 2):
                issues.append(
                    ValidationIssue(
                        "malformed-rule",
                        "happensAt/holdsAt conditions are not allowed in holdsFor "
                        "rules (Definition 2.4): %r" % (term,),
                        index,
                    )
                )
            elif is_comparison(term):
                issues.append(
                    ValidationIssue(
                        "malformed-rule",
                        "comparisons are not allowed in holdsFor rules: %r" % (term,),
                        index,
                    )
                )
            else:
                issues.extend(self._check_background(index, term, vocabulary))
        head_interval = rule.head.args[1]  # type: ignore[union-attr]
        if isinstance(head_interval, Variable) and head_interval not in bound_interval_vars:
            issues.append(
                ValidationIssue(
                    "malformed-rule",
                    "head interval variable %r is never bound in the body"
                    % head_interval.name,
                    index,
                )
            )
        return issues

    def _check_interval_construct(
        self, index: int, term: Compound, bound_vars: Set[Variable]
    ) -> List[ValidationIssue]:
        issues: List[ValidationIssue] = []
        expected_arity = INTERVAL_CONSTRUCTS[term.functor]
        if term.arity != expected_arity:
            issues.append(
                ValidationIssue(
                    "malformed-rule",
                    "%s expects %d arguments, got %d"
                    % (term.functor, expected_arity, term.arity),
                    index,
                )
            )
            return issues
        *inputs, output = term.args
        for arg in inputs:
            for var in _interval_vars(arg):
                if var not in bound_vars:
                    issues.append(
                        ValidationIssue(
                            "malformed-rule",
                            "interval variable %r used before being bound in %r"
                            % (var.name, term),
                            index,
                        )
                    )
        if isinstance(output, Variable):
            bound_vars.add(output)
        else:
            issues.append(
                ValidationIssue(
                    "malformed-rule",
                    "output of %s must be a fresh variable" % term.functor,
                    index,
                )
            )
        return issues

    def _check_event(
        self, index: int, term: Compound, vocabulary: Optional[Vocabulary]
    ) -> List[ValidationIssue]:
        if vocabulary is None:
            return []
        event_term = term.args[0]
        try:
            key = fluent_key(event_term)
        except ValueError:
            return [
                ValidationIssue(
                    "malformed-rule", "malformed event term %r" % (event_term,), index
                )
            ]
        if key not in vocabulary.input_events:
            return [
                ValidationIssue(
                    "undefined-event",
                    "event %s/%d is not in the input vocabulary" % key,
                    index,
                )
            ]
        return []

    def _check_fluent_reference(
        self, index: int, term: Compound, vocabulary: Optional[Vocabulary]
    ) -> List[ValidationIssue]:
        pair = term.args[0]
        if not is_fvp(pair):
            return [
                ValidationIssue(
                    "malformed-rule",
                    "%s condition without an FVP argument: %r" % (term.functor, term),
                    index,
                )
            ]
        assert isinstance(pair, Compound)
        try:
            key = fluent_key(pair.args[0])
        except ValueError:
            return [
                ValidationIssue(
                    "malformed-rule", "malformed fluent term %r" % (pair.args[0],), index
                )
            ]
        known = self.defined_keys
        if vocabulary is not None:
            known = known | set(vocabulary.input_fluents)
        if key not in known:
            return [
                ValidationIssue(
                    "undefined-fluent",
                    "fluent %s/%d is neither an input fluent nor defined by this "
                    "event description" % key,
                    index,
                )
            ]
        return []

    def _check_background(
        self, index: int, term: Term, vocabulary: Optional[Vocabulary]
    ) -> List[ValidationIssue]:
        if vocabulary is None:
            return []
        try:
            key = fluent_key(term)
        except ValueError:
            return [
                ValidationIssue(
                    "malformed-rule", "unrecognised condition %r" % (term,), index
                )
            ]
        if key not in vocabulary.background:
            return [
                ValidationIssue(
                    "undefined-background",
                    "background predicate %s/%d is not declared" % key,
                    index,
                )
            ]
        return []


def _is_predicate(term: Term, functor: str, arity: int) -> bool:
    return isinstance(term, Compound) and term.functor == functor and term.arity == arity


def _is_interval_construct(term: Term) -> bool:
    return isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS


def _referenced_fluent(term: Term, wrapper: str) -> Optional[FluentKey]:
    """The fluent key referenced by a ``holdsAt``/``holdsFor`` condition, if any."""
    if not _is_predicate(term, wrapper, 2):
        return None
    pair = term.args[0]  # type: ignore[union-attr]
    if not is_fvp(pair):
        return None
    assert isinstance(pair, Compound)
    try:
        return fluent_key(pair.args[0])
    except ValueError:
        return None


def _interval_vars(term: Term) -> Iterable[Variable]:
    """Variables of a list argument of an interval construct."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, Compound) and term.functor == LIST_FUNCTOR:
        for arg in term.args:
            yield from _interval_vars(arg)
