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

from dataclasses import FrozenInstanceError, dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar,
)

from repro.logic.parser import LIST_FUNCTOR, Rule, canonical, parse_program
from repro.logic.pretty import program_to_str
from repro.logic.terms import Compound, Constant, Term, Variable, is_fvp, is_ground
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
    "canonical",
]

#: (functor, arity) identifying a fluent or event schema.
FluentKey = Tuple[str, int]

#: The conditions through which a rule reads an input item.
_READERS = ("happensAt", "holdsAt", "holdsFor")
_T = TypeVar("_T")

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


@dataclass(frozen=True)
class SimpleFluentDef:
    """All initiation/termination rules of one simple fluent schema."""

    key: FluentKey
    initiated_rules: Tuple[Rule, ...] = ()
    terminated_rules: Tuple[Rule, ...] = ()

    @property
    def values(self) -> List[Term]:
        """The distinct head values across all rules (e.g. below/normal/above)."""
        seen: List[Term] = []
        for rule in self.initiated_rules + self.terminated_rules:
            value = head_fvp(rule)[1]
            if value not in seen:
                seen.append(value)
        return seen


@dataclass(frozen=True)
class StaticFluentDef:
    """The holdsFor rules of one statically determined fluent schema."""

    key: FluentKey
    rules: Tuple[Rule, ...] = ()


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

    A description is a value: classified when built, then frozen (tuples
    of rules; assigning an attribute raises ``FrozenInstanceError``), so each
    analysis of it is computed on first use and kept. A repaired or
    corrected description is a new one.

    Parameters
    ----------
    rules:
        Rules in source order. Classification happens eagerly; rules whose
        heads are not ``initiatedAt/2``, ``terminatedAt/2`` or ``holdsFor/2``
        are kept (so the similarity metric can still compare them) but
        recorded as malformed.
    """

    rules: Tuple[Rule, ...]
    simple_fluents: Dict[FluentKey, SimpleFluentDef]
    static_fluents: Dict[FluentKey, StaticFluentDef]
    #: Ground FVPs declared to hold at the start of time (``initially/1``).
    initial_fvps: Tuple[Term, ...]
    #: (FVP pattern, deadline) pairs from ``maxDuration/2`` declarations.
    max_durations: Tuple[Tuple[Term, int], ...]

    def __init__(self, rules: Sequence[Rule]) -> None:
        rules = tuple(rules)
        simple: Dict[FluentKey, Tuple[List[Rule], List[Rule]]] = {}
        static: Dict[FluentKey, List[Rule]] = {}
        initial_fvps: List[Term] = []
        max_durations: List[Tuple[Term, int]] = []
        malformed: List[Tuple[int, str]] = []
        for index, rule in enumerate(rules):
            head = rule.head
            try:
                if _is_predicate(head, "initially", 1):
                    initial_fvps.append(_initially(rule))
                elif _is_predicate(head, "maxDuration", 2):
                    max_durations.append(_max_duration(rule))
                elif not isinstance(head, Compound) or head.arity != 2:
                    raise ValueError("unrecognised rule head: %r" % (head,))
                else:
                    key = fluent_key(head_fvp(rule)[0])
                    if head.functor == "initiatedAt":
                        simple.setdefault(key, ([], []))[0].append(rule)
                    elif head.functor == "terminatedAt":
                        simple.setdefault(key, ([], []))[1].append(rule)
                    elif head.functor == "holdsFor":
                        static.setdefault(key, []).append(rule)
                    else:
                        raise ValueError("unknown head predicate %r" % head.functor)
            except ValueError as exc:
                malformed.append((index, str(exc)))
        self.__dict__.update(
            rules=rules,
            simple_fluents={
                key: SimpleFluentDef(key, tuple(i), tuple(t)) for key, (i, t) in simple.items()
            },
            static_fluents={key: StaticFluentDef(key, tuple(one)) for key, one in static.items()},
            initial_fvps=tuple(initial_fvps),
            max_durations=tuple(max_durations),
            _malformed=tuple(malformed),
        )

    def __setattr__(self, name: str, *_value: object) -> None:
        raise FrozenInstanceError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def _memo(self, name: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, run on the first call for ``name`` and kept: a
        description cannot change, so neither can what is derived from it."""
        if name not in self.__dict__:
            object.__setattr__(self, name, compute())
        return self.__dict__[name]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "EventDescription":
        """Parse an event description from RTEC concrete syntax."""
        return cls(parse_program(text))

    def to_text(self) -> str:
        """Render back to concrete syntax (round-trips through the parser)."""
        return program_to_str(self.rules)

    def partitionability(self) -> "PartitionAnalysis":
        """The entity-sharding analysis of this description
        (:mod:`repro.rtec.partition`); sessions consult it on every late
        advance."""
        from repro.rtec.partition import analyse_partitionability

        return self._memo("_partitionability", lambda: analyse_partitionability(self))

    def max_duration_for(self, pair: Term) -> Optional[int]:
        """The deadline applying to a ground FVP, if any (first match wins)."""
        from repro.logic.unification import unify

        for pattern, duration in self.max_durations:
            if unify(pattern, pair) is not None:
                return duration
        return None

    def deadlined_fluents(self) -> FrozenSet[FluentKey]:
        """The simple fluents a ``maxDuration/2`` declaration may apply to."""
        return self._memo("_deadlined", lambda: frozenset(
            key for key in self.simple_fluents
            if any(_may_declare(pattern, key) for pattern, _d in self.max_durations)
        ))

    # -- structure ----------------------------------------------------------

    @property
    def defined_keys(self) -> Set[FluentKey]:
        """Fluent schemas defined by this event description."""
        return set(self.simple_fluents) | set(self.static_fluents)

    def dependencies(self) -> Dict[FluentKey, FrozenSet[FluentKey]]:
        """Edges: defined fluent -> fluents referenced in its rule bodies.
        Computed once (a delta advance asks once per window); the sets are
        frozen, as the result is shared."""
        return self._memo("_dependencies", self._walk_dependencies)

    def _walk_dependencies(self) -> Dict[FluentKey, FrozenSet[FluentKey]]:
        graph: Dict[FluentKey, Set[FluentKey]] = {key: set() for key in self.defined_keys}
        for key, _kind, reader, rules in self._definitions():
            for rule in rules:
                for literal in rule.body:
                    referenced = _referenced_fluent(literal.term, reader)
                    if referenced is not None:
                        graph[key].add(referenced)
        return {key: frozenset(deps) for key, deps in graph.items()}

    def _definitions(self) -> Iterator[Tuple[FluentKey, str, str, Tuple[Rule, ...]]]:
        """(fluent, kind, the condition reading a fluent, rules) of each
        simple definition, then of each static one."""
        for key, simple in self.simple_fluents.items():
            yield key, "simple", "holdsAt", simple.initiated_rules + simple.terminated_rules
        for key, static in self.static_fluents.items():
            yield key, "static", "holdsFor", static.rules

    def definition_keys(self) -> Dict[FluentKey, Optional[tuple]]:
        """Defined fluent -> its *definition key* (``None``: never shared).

        Fluents with equal keys evaluate to the same results, in the same
        order, over one window of one stream and kb. The key is the kind, the
        rules (:attr:`Rule.key`: variables numbered by first occurrence,
        constants tagged with their type), the ``maxDuration``/``initially``
        declarations that may apply and the keys of the fluents read.
        Computed once.
        """
        return self._memo("_definition_keys", self._walk_definition_keys)

    def _walk_definition_keys(self) -> Dict[FluentKey, Optional[tuple]]:
        dependencies = self.dependencies()
        definitions: Dict[FluentKey, Tuple[str, str, Tuple[Rule, ...]]] = {}
        for key, kind, reader, rules in self._definitions():
            definitions.setdefault(key, (kind, reader, rules))  # simple first
        keys: Dict[FluentKey, Optional[tuple]] = {}
        for fluent in self.topological_order():
            kind, reader, rules = definitions[fluent]
            read = sorted(dependencies[fluent])
            # a read fluent that is never shared, or a read with no fixed fluent
            unshared = any(keys.get(dep, ()) is None for dep in read) or any(
                _is_predicate(lit.term, reader, 2) and _referenced_fluent(lit.term, reader) is None
                for rule in rules for lit in rule.body
            )
            keys[fluent] = None if unshared else (
                kind,
                tuple(rule.key for rule in rules),
                tuple((canonical(p), d) for p, d in self.max_durations if _may_declare(p, fluent)),
                tuple(canonical(p) for p in self.initial_fvps if _may_declare(p, fluent)),
                tuple((dep, keys.get(dep)) for dep in read),
            )
        return keys

    def reads(self, item: Term) -> bool:
        """Whether input ``item`` (an event term or an FVP) can reach a rule:
        a ``happensAt``/``holdsAt``/``holdsFor`` condition reads its schema,
        the description defines it, or a condition reads an item with no
        fixed schema (which may be any)."""
        schemas = self._memo("_read_schemas", self._walk_read_schemas)
        key = _schema(item)
        return key is None or key in schemas or None in schemas

    def _walk_read_schemas(self) -> FrozenSet[Optional[FluentKey]]:
        schemas: Set[Optional[FluentKey]] = set(self.defined_keys)
        for rule in self.rules:
            for literal in rule.body:
                term = literal.term
                if isinstance(term, Compound) and term.functor in _READERS and term.arity == 2:
                    schemas.add(_schema(term.args[0]))
        return frozenset(schemas)

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


def _schema(item: Term) -> Optional[FluentKey]:
    """The key of an event term or of an FVP's fluent; ``None``: no fixed one."""
    if is_fvp(item):
        item = item.args[0]  # type: ignore[union-attr]
    try:
        return fluent_key(item)
    except ValueError:
        return None


def _interval_vars(term: Term) -> Iterable[Variable]:
    """Variables of a list argument of an interval construct."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, Compound) and term.functor == LIST_FUNCTOR:
        for arg in term.args:
            yield from _interval_vars(arg)


def _initially(rule: Rule) -> Term:
    """``initially(F=V).`` — F=V holds from time-point 0 (until terminated)."""
    if not rule.is_fact:
        raise ValueError("initially/1 must be a fact")
    pair = rule.head.args[0]  # type: ignore[union-attr]
    if not is_fvp(pair) or not is_ground(pair):
        raise ValueError("initially/1 expects a ground FVP: %r" % (pair,))
    return pair


def _max_duration(rule: Rule) -> Tuple[Term, int]:
    """``maxDuration(F=V, D).`` — periods of F=V auto-terminate after D."""
    if not rule.is_fact:
        raise ValueError("maxDuration/2 must be a fact")
    pair, duration = rule.head.args  # type: ignore[union-attr]
    if not is_fvp(pair):
        raise ValueError("maxDuration/2 expects an FVP first argument: %r" % (pair,))
    if not (isinstance(duration, Constant) and duration.is_number and float(duration.value) > 0):
        raise ValueError("maxDuration/2 expects a positive deadline: %r" % (duration,))
    return pair, int(duration.value)


def _may_declare(pair: Term, fluent: FluentKey) -> bool:
    """Whether a ``maxDuration/2`` or ``initially/1`` declaration of
    ``pair`` can apply to ``fluent`` (a pattern with no fixed fluent can)."""
    try:
        return fluent_key(pair.args[0]) == fluent  # type: ignore[union-attr]
    except ValueError:
        return True
