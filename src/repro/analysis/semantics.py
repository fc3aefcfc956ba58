"""Semantic abstract interpretation over parsed event descriptions.

Three cooperating analyses run over an :class:`EventDescription` (the
paper's Section 5.2 shows LLM-generated definitions fail *semantically* —
wrong thresholds, contradictory conditions, activities that can never
hold — in ways the syntactic passes RTEC001–016 cannot see):

1. **Sort inference** (RTEC017): a union-find lattice over predicate
   argument positions, seeded by the constants observed in rules,
   background facts and ``initially`` declarations. Two positions join
   when one rule uses the same variable in both. A class whose observed
   constants mix numbers and symbolic atoms is a sort clash.

2. **Value-domain analysis** (RTEC018–RTEC021): finite-set abstraction of
   the values each defined fluent can produce (ground rule-head values
   plus ``initially`` declarations), and a relation-set/interval
   abstraction of arithmetic comparisons. Each comparison operator
   denotes a subset of ``{<, =, >}``; negation complements the set; a
   conjunction of comparisons over the same operands is contradictory
   when the intersection is empty and subsumed when one set contains
   another. Variable bounds (closed interval hulls, optionally seeded
   from background facts) catch contradictions across different
   constants.

3. **Reachability/liveness** (RTEC022–RTEC024): a monotone fixpoint over
   the fluent dependency graph computing which fluent-value pairs have
   any derivation path from the input events and input fluents, plus the
   ``terminatedAt`` rules whose target value no initiation can produce.

The diagnostics carry machine-applicable ``remove-rule`` /
``drop-condition`` fixes (``repro lint --fix``, the repair loop): the person
correcting a description sees them; nothing rewrites rules at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Fix
from repro.analysis.passes import AnalysisContext
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import LIST_FUNCTOR, Literal, Rule
from repro.logic.pretty import literal_to_str, term_to_str
from repro.logic.terms import Compound, Constant, Term, Variable, is_fvp, is_ground, term_variables
from repro.logic.unification import Substitution
from repro.rtec.builtins import EVALUABLE_FUNCTORS, evaluate_arithmetic, evaluate_comparison, is_comparison
from repro.rtec.description import (
    INTERVAL_CONSTRUCTS,
    EventDescription,
    FluentKey,
    Vocabulary,
    fluent_key,
    head_fvp,
)
from repro.rtec.errors import EvaluationError

__all__ = [
    "SemanticFacts",
    "RuleFacts",
    "SortClass",
    "analyse_semantics",
    "compute_reachability",
    "comparison_facts",
    "background_bounds",
    "producible_values",
    "semantic_pass",
]

#: Functors whose body literals reference the stream/fluent store rather
#: than background knowledge.
STREAM_FUNCTORS = frozenset({"happensAt", "holdsAt", "holdsFor"})

#: Each comparison operator denotes the set of order relations it accepts.
_REL_SETS: Dict[str, FrozenSet[str]] = {
    "<": frozenset({"<"}),
    ">": frozenset({">"}),
    "=<": frozenset({"<", "="}),
    ">=": frozenset({">", "="}),
    "=:=": frozenset({"="}),
    "=\\=": frozenset({"<", ">"}),
}
_ALL_RELS: FrozenSet[str] = frozenset({"<", "=", ">"})
_FLIP = {"<": ">", ">": "<", "=": "="}

#: Upper bound on background-fact enumerations per literal when deriving
#: variable bounds; beyond it a variable is treated as unbounded.
_KB_SCAN_CAP = 4096

_INF = float("inf")
_EMPTY_SUBST = Substitution()


# ---------------------------------------------------------------------------
# Shared small helpers


def _relation_set(op: str, negated: bool) -> Optional[FrozenSet[str]]:
    rels = _REL_SETS.get(op)
    if rels is None:
        return None
    return (_ALL_RELS - rels) if negated else rels


def _flip_rels(rels: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(_FLIP[r] for r in rels)


def _orient(left: Term, right: Term, rels: FrozenSet[str]) -> Tuple[Term, Term, FrozenSet[str]]:
    """Deterministically orient a comparison so ``a op b`` and ``b op' a``
    over the same operands land on the same key."""
    if term_to_str(left) <= term_to_str(right):
        return left, right, rels
    return right, left, _flip_rels(rels)


def _numeric_value(term: Term) -> Optional[float]:
    """The numeric value of a ground arithmetic expression, else ``None``."""
    if term_variables(term):
        return None
    try:
        return float(evaluate_arithmetic(term, _EMPTY_SUBST))
    except EvaluationError:
        return None


def _rule_kind(rule: Rule) -> Optional[str]:
    head = rule.head
    if isinstance(head, Compound) and head.arity == 2 and head.functor in (
        "initiatedAt",
        "terminatedAt",
        "holdsFor",
    ):
        return head.functor
    return None


def _safe_key(term: Term) -> Optional[FluentKey]:
    try:
        return fluent_key(term)
    except ValueError:
        return None


def _describe_position(position: Tuple[str, int, int]) -> str:
    functor, arity, index = position
    if index == arity:
        return "the value of fluent %s/%d" % (functor, arity)
    return "argument %d of %s/%d" % (index + 1, functor, arity)


# ---------------------------------------------------------------------------
# Sort inference (RTEC017)


@dataclass
class SortClass:
    """One union-find equivalence class of argument positions."""

    positions: List[Tuple[str, int, int]] = field(default_factory=list)
    #: (rendered constant, rule index or None for kb/declarations, position)
    numeric_observations: List[Tuple[str, Optional[int], Tuple[str, int, int]]] = field(
        default_factory=list
    )
    symbolic_observations: List[Tuple[str, Optional[int], Tuple[str, int, int]]] = field(
        default_factory=list
    )
    #: rule indices where a variable of this class flows into a comparison
    #: or arithmetic expression.
    numeric_uses: List[int] = field(default_factory=list)

    @property
    def clash(self) -> bool:
        has_numeric = bool(self.numeric_observations) or bool(self.numeric_uses)
        return has_numeric and bool(self.symbolic_observations)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Tuple[str, int, int], Tuple[str, int, int]] = {}
        self._order: List[Tuple[str, int, int]] = []

    def find(self, key: Tuple[str, int, int]) -> Tuple[str, int, int]:
        parent = self._parent.get(key)
        if parent is None:
            self._parent[key] = key
            self._order.append(key)
            return key
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, left: Tuple[str, int, int], right: Tuple[str, int, int]) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

    def classes(self) -> Dict[Tuple[str, int, int], List[Tuple[str, int, int]]]:
        grouped: Dict[Tuple[str, int, int], List[Tuple[str, int, int]]] = {}
        for key in self._order:
            grouped.setdefault(self.find(key), []).append(key)
        return grouped


def _schema_positions(term: Term) -> Iterable[Tuple[Tuple[str, int, int], Term]]:
    """(position, argument) pairs of one event/fluent/background compound."""
    if not isinstance(term, Compound):
        return
    for index, arg in enumerate(term.args):
        yield (term.functor, term.arity, index), arg


def _fvp_positions(pair: Term) -> Iterable[Tuple[Tuple[str, int, int], Term]]:
    """Positions of a fluent-value pair: fluent arguments plus value slot."""
    if not (isinstance(pair, Compound) and is_fvp(pair)):
        return
    fluent, value = pair.args
    if isinstance(fluent, Compound):
        for position_arg in _schema_positions(fluent):
            yield position_arg
        yield (fluent.functor, fluent.arity, fluent.arity), value
    elif isinstance(fluent, Constant) and not fluent.is_number:
        yield (str(fluent.value), 0, 0), value


def _mark_numeric_vars(term: Term, marked: Set[Variable]) -> None:
    for var in term_variables(term):
        marked.add(var)


class _SortInference:
    def __init__(self) -> None:
        self.union_find = _UnionFind()
        self.observations: List[
            Tuple[Tuple[str, int, int], str, bool, Optional[int]]
        ] = []  # (position, rendered constant, is_numeric, rule index)
        self.numeric_use_positions: List[Tuple[Tuple[str, int, int], int]] = []

    def observe(
        self,
        positions: Iterable[Tuple[Tuple[str, int, int], Term]],
        rule_index: Optional[int],
        var_positions: Optional[Dict[Variable, Tuple[str, int, int]]],
    ) -> None:
        for position, arg in positions:
            self.union_find.find(position)
            if isinstance(arg, Constant):
                self.observations.append(
                    (position, term_to_str(arg), bool(arg.is_number), rule_index)
                )
            elif isinstance(arg, Variable) and var_positions is not None:
                first = var_positions.get(arg)
                if first is None:
                    var_positions[arg] = position
                else:
                    self.union_find.union(first, position)

    def add_rule(self, index: int, rule: Rule) -> None:
        var_positions: Dict[Variable, Tuple[str, int, int]] = {}
        numeric_vars: Set[Variable] = set()
        head = rule.head
        if isinstance(head, Compound) and head.arity == 2:
            if head.functor in ("initiatedAt", "terminatedAt", "holdsFor"):
                self.observe(_fvp_positions(head.args[0]), index, var_positions)
            elif head.functor in ("initially", "maxDuration"):
                self.observe(_fvp_positions(head.args[0]), index, var_positions)
        elif isinstance(head, Compound) and head.functor == "initially" and head.arity == 1:
            self.observe(_fvp_positions(head.args[0]), index, var_positions)
        for literal in rule.body:
            term = literal.term
            if not isinstance(term, Compound):
                continue
            if is_comparison(term):
                _mark_numeric_vars(term, numeric_vars)
            elif term.functor == "happensAt" and term.arity == 2:
                self.observe(_schema_positions(term.args[0]), index, var_positions)
            elif term.functor in ("holdsAt", "holdsFor") and term.arity == 2:
                self.observe(_fvp_positions(term.args[0]), index, var_positions)
            elif term.functor in INTERVAL_CONSTRUCTS:
                continue  # interval variables have their own sort
            else:
                self.observe(_schema_positions(term), index, var_positions)
        for var in numeric_vars:
            position = var_positions.get(var)
            if position is not None:
                self.numeric_use_positions.append((position, index))

    def add_knowledge_base(self, kb: KnowledgeBase) -> None:
        for fact in kb.facts():
            self.observe(_schema_positions(fact), None, None)

    def classes(self) -> List[SortClass]:
        grouped = self.union_find.classes()
        by_root: Dict[Tuple[str, int, int], SortClass] = {
            root: SortClass(positions=members) for root, members in grouped.items()
        }
        for position, rendered, numeric, rule_index in self.observations:
            cls = by_root[self.union_find.find(position)]
            target = cls.numeric_observations if numeric else cls.symbolic_observations
            target.append((rendered, rule_index, position))
        for position, rule_index in self.numeric_use_positions:
            by_root[self.union_find.find(position)].numeric_uses.append(rule_index)
        return [by_root[root] for root in grouped]


def _sort_clash_diagnostics(classes: Sequence[SortClass]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for cls in classes:
        if not cls.clash:
            continue
        numeric = cls.numeric_observations
        symbolic = cls.symbolic_observations
        minority, majority = (numeric, symbolic) if len(numeric) <= len(symbolic) else (
            symbolic,
            numeric,
        )
        anchor = next((obs for obs in minority if obs[1] is not None), None)
        if anchor is None:
            anchor = next((obs for obs in majority if obs[1] is not None), None)
        position = anchor[2] if anchor is not None else cls.positions[0]
        rule_index = anchor[1] if anchor is not None else None

        def _sample(observations: List[Tuple[str, Optional[int], Tuple[str, int, int]]]) -> str:
            seen: List[str] = []
            for rendered, _idx, _pos in observations:
                if rendered not in seen:
                    seen.append(rendered)
                if len(seen) >= 4:
                    break
            return "{%s}" % ", ".join(seen)

        numeric_part = _sample(numeric) if numeric else "(used in comparisons)"
        diagnostics.append(
            Diagnostic(
                "sort-clash",
                "%s mixes numeric and symbolic constants: numeric %s vs symbolic %s"
                % (_describe_position(position), numeric_part, _sample(symbolic)),
                rule_index=rule_index,
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Value-domain analysis of one rule body (RTEC019/020/021)


@dataclass
class RuleFacts:
    """Per-rule facts derived by the value-domain analysis."""

    rule_index: int
    #: The rule's conjunction of comparisons is provably unsatisfiable (the
    #: two condition indices witness it; they coincide when a single
    #: condition or derived bounds suffice).
    contradiction: Optional[Tuple[int, int]] = None
    #: Condition indices that always succeed and may be dropped.
    always_true: Set[int] = field(default_factory=set)
    #: Condition indices that always fail (ground comparisons).
    always_false: Set[int] = field(default_factory=set)
    #: implied condition index -> index of the condition implying it.
    subsumed: Dict[int, int] = field(default_factory=dict)
    #: Positive holdsAt/holdsFor refs to values no rule can produce.
    impossible_refs: Set[int] = field(default_factory=set)
    #: Negated refs to impossible values (always succeed; droppable).
    vacuous_refs: Set[int] = field(default_factory=set)

    @property
    def never_fires(self) -> bool:
        return (
            self.contradiction is not None
            or bool(self.always_false)
            or bool(self.impossible_refs)
        )


def _region(rels: FrozenSet[str], value: float) -> Optional[Tuple[float, bool, float, bool]]:
    """The set ``{x | x rel value}`` as (lo, lo_open, hi, hi_open), when it
    is an interval; ``None`` for punctured regions (``=\\=``)."""
    if rels == frozenset({"<"}):
        return (-_INF, True, value, True)
    if rels == frozenset({"<", "="}):
        return (-_INF, True, value, False)
    if rels == frozenset({">"}):
        return (value, True, _INF, True)
    if rels == frozenset({">", "="}):
        return (value, False, _INF, True)
    if rels == frozenset({"="}):
        return (value, False, value, False)
    return None


def _region_contains(outer: Tuple[float, bool, float, bool], inner: Tuple[float, bool, float, bool]) -> bool:
    o_lo, o_lo_open, o_hi, o_hi_open = outer
    i_lo, i_lo_open, i_hi, i_hi_open = inner
    lo_ok = o_lo < i_lo or (o_lo == i_lo and (not o_lo_open or i_lo_open))
    hi_ok = o_hi > i_hi or (o_hi == i_hi and (not o_hi_open or i_hi_open))
    return lo_ok and hi_ok


def background_bounds(rule: Rule, kb: Optional[KnowledgeBase]) -> Dict[Variable, Tuple[float, float]]:
    """Closed interval hulls for variables bound by positive background
    literals, derived from the facts matching each literal independently.

    Matching facts of a literal are a superset of its contribution to any
    joint solution, so the hull is sound (it may only be too wide).
    """
    bounds: Dict[Variable, Tuple[float, float]] = {}
    if kb is None:
        return bounds
    for literal in rule.body:
        term = literal.term
        if literal.negated or not isinstance(term, Compound):
            continue
        if term.functor in STREAM_FUNCTORS or term.functor in INTERVAL_CONSTRUCTS:
            continue
        if is_comparison(term) or term.functor in EVALUABLE_FUNCTORS:
            continue
        solutions: List[Substitution] = []
        for subst in kb.query(term):
            solutions.append(subst)
            if len(solutions) > _KB_SCAN_CAP:
                break
        if not solutions or len(solutions) > _KB_SCAN_CAP:
            continue
        for var in term_variables(term):
            values: List[float] = []
            for subst in solutions:
                resolved = subst.resolve(var)
                if isinstance(resolved, Constant) and resolved.is_number:
                    values.append(float(resolved.value))
                else:
                    values = []
                    break
            if values:
                lo, hi = min(values), max(values)
                old = bounds.get(var)
                if old is not None:
                    lo, hi = max(lo, old[0]), min(hi, old[1])
                bounds[var] = (lo, hi)
    return bounds


def comparison_facts(
    rule: Rule,
    rule_index: int,
    kb: Optional[KnowledgeBase] = None,
) -> RuleFacts:
    """Value-domain facts of one simple rule body (see :class:`RuleFacts`)."""
    facts = RuleFacts(rule_index)
    pair_entries: Dict[Tuple[Term, Term], List[Tuple[int, FrozenSet[str]]]] = {}
    var_const: List[Tuple[int, Variable, FrozenSet[str], float]] = []
    var_var: List[Tuple[int, Variable, Variable, FrozenSet[str]]] = []

    for index, literal in enumerate(rule.body):
        term = literal.term
        if not is_comparison(term):
            continue
        assert isinstance(term, Compound)
        rels = _relation_set(term.functor, literal.negated)
        if rels is None:
            continue
        left, right = term.args
        if not term_variables(term):
            try:
                truth = evaluate_comparison(term, _EMPTY_SUBST)
            except EvaluationError:
                continue
            succeeds = truth != literal.negated
            if succeeds:
                facts.always_true.add(index)
            else:
                facts.always_false.add(index)
            continue
        if left == right:
            if "=" in rels:
                facts.always_true.add(index)
            else:
                facts.always_false.add(index)
                if facts.contradiction is None:
                    facts.contradiction = (index, index)
            continue
        o_left, o_right, o_rels = _orient(left, right, rels)
        entries = pair_entries.setdefault((o_left, o_right), [])
        for prev_index, prev_rels in entries:
            if prev_index in facts.subsumed or index in facts.subsumed:
                continue
            if not (prev_rels & o_rels):
                if facts.contradiction is None:
                    facts.contradiction = (prev_index, index)
            elif prev_rels <= o_rels:
                facts.subsumed[index] = prev_index
            elif o_rels < prev_rels:
                facts.subsumed[prev_index] = index
        entries.append((index, o_rels))
        if isinstance(o_left, Variable):
            value = _numeric_value(o_right)
            if value is not None:
                var_const.append((index, o_left, o_rels, value))
                continue
        if isinstance(o_right, Variable):
            value = _numeric_value(o_left)
            if value is not None:
                var_const.append((index, o_right, _flip_rels(o_rels), value))
                continue
        if isinstance(o_left, Variable) and isinstance(o_right, Variable):
            var_var.append((index, o_left, o_right, o_rels))

    # Interval hulls per variable (closed; strict bounds widened — sound for
    # proving emptiness since the true region is a subset of the hull).
    hulls: Dict[Variable, Tuple[float, float]] = dict(background_bounds(rule, kb))
    last_contributor: Dict[Variable, int] = {}
    for index, var, rels, value in var_const:
        lo, hi = hulls.get(var, (-_INF, _INF))
        if "<" in rels and "=" in rels:
            hi = min(hi, value)
        elif rels == frozenset({"<"}):
            hi = min(hi, value)
        if ">" in rels and "=" in rels:
            lo = max(lo, value)
        elif rels == frozenset({">"}):
            lo = max(lo, value)
        if rels == frozenset({"="}):
            lo, hi = max(lo, value), min(hi, value)
        hulls[var] = (lo, hi)
        if lo > hi and facts.contradiction is None:
            facts.contradiction = (last_contributor.get(var, index), index)
        last_contributor.setdefault(var, index)

    # Variable-vs-variable comparisons against the final hulls.
    if facts.contradiction is None:
        for index, left_var, right_var, rels in var_var:
            l_lo, l_hi = hulls.get(left_var, (-_INF, _INF))
            r_lo, r_hi = hulls.get(right_var, (-_INF, _INF))
            unsat = False
            if rels == frozenset({"<"}):
                unsat = l_lo >= r_hi
            elif rels == frozenset({"<", "="}):
                unsat = l_lo > r_hi
            elif rels == frozenset({">"}):
                unsat = l_hi <= r_lo
            elif rels == frozenset({">", "="}):
                unsat = l_hi < r_lo
            elif rels == frozenset({"="}):
                unsat = l_lo > r_hi or l_hi < r_lo
            if unsat:
                facts.contradiction = (index, index)
                break

    # Interval-containment subsumption across different constants on the
    # same variable (e.g. ``X < 5`` makes ``X < 7`` redundant).
    if facts.contradiction is None:
        regions: Dict[Variable, List[Tuple[int, Tuple[float, bool, float, bool]]]] = {}
        for index, var, rels, value in var_const:
            region = _region(rels, value)
            if region is None:
                continue
            for other_index, other_region in regions.setdefault(var, []):
                if index in facts.subsumed or other_index in facts.subsumed:
                    continue
                if _region_contains(other_region, region):
                    facts.subsumed.setdefault(other_index, index)
                elif _region_contains(region, other_region):
                    facts.subsumed.setdefault(index, other_index)
            regions[var].append((index, region))
    return facts


# ---------------------------------------------------------------------------
# Producible fluent values (RTEC018 / RTEC024)


def producible_values(description: EventDescription) -> Dict[FluentKey, Optional[Set[Term]]]:
    """The values each defined fluent can take, per key; ``None`` = open
    (some rule head has a non-ground value, so the domain is unknown)."""
    producible: Dict[FluentKey, Optional[Set[Term]]] = {}

    def _add(key: FluentKey, value: Term) -> None:
        current = producible.setdefault(key, set())
        if current is None:
            return
        if is_ground(value):
            current.add(value)
        else:
            producible[key] = None

    for key, definition in description.simple_fluents.items():
        producible.setdefault(key, set())
        for rule in definition.initiated_rules:
            _add(key, head_fvp(rule)[1])
    for key, definition in description.static_fluents.items():
        producible.setdefault(key, set())
        for rule in definition.rules:
            _add(key, head_fvp(rule)[1])
    for pair in description.initial_fvps:
        key = _safe_key(pair.args[0])
        if key is not None and key in producible:
            _add(key, pair.args[1])
    return producible


def _fluent_references(rule: Rule) -> Iterable[Tuple[int, Literal, FluentKey, Term]]:
    """(condition index, literal, fluent key, value) for each holdsAt/holdsFor
    body condition whose fluent key is resolvable."""
    for index, literal in enumerate(rule.body):
        term = literal.term
        if not (
            isinstance(term, Compound)
            and term.functor in ("holdsAt", "holdsFor")
            and term.arity == 2
        ):
            continue
        pair = term.args[0]
        if not (isinstance(pair, Compound) and is_fvp(pair)):
            continue
        key = _safe_key(pair.args[0])
        if key is None:
            continue
        yield index, literal, key, pair.args[1]


def _impossible_value_facts(
    description: EventDescription,
    producible: Dict[FluentKey, Optional[Set[Term]]],
    rule_facts: Dict[int, RuleFacts],
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for index, rule in enumerate(description.rules):
        if _rule_kind(rule) is None:
            continue
        for cond_index, literal, key, value in _fluent_references(rule):
            domain = producible.get(key)
            if domain is None or key not in producible:
                continue
            if not is_ground(value) or value in domain:
                continue
            facts = rule_facts.setdefault(index, RuleFacts(index))
            if literal.negated:
                facts.vacuous_refs.add(cond_index)
                suffix = "the negated condition always succeeds"
            else:
                facts.impossible_refs.add(cond_index)
                suffix = "the condition can never succeed"
            diagnostics.append(
                Diagnostic(
                    "impossible-value",
                    "%s references value %s, but %s/%d can only produce {%s}; %s"
                    % (
                        literal_to_str(literal),
                        term_to_str(value),
                        key[0],
                        key[1],
                        ", ".join(sorted(term_to_str(v) for v in domain)),
                        suffix,
                    ),
                    rule_index=index,
                    condition_index=cond_index,
                )
            )
    return diagnostics


def _initiable_values(
    description: EventDescription, key: FluentKey
) -> Tuple[Optional[Set[Term]], bool]:
    """(closed set of initiable values or None if open, has-any-initiation)."""
    definition = description.simple_fluents.get(key)
    values: Set[Term] = set()
    has_initiation = False
    if definition is not None:
        for rule in definition.initiated_rules:
            has_initiation = True
            value = head_fvp(rule)[1]
            if is_ground(value):
                values.add(value)
            else:
                return None, True
    for pair in description.initial_fvps:
        if _safe_key(pair.args[0]) == key:
            has_initiation = True
            values.add(pair.args[1])
    return values, has_initiation


def _dead_termination_diagnostics(
    description: EventDescription, rule_ids: Dict[int, int]
) -> Tuple[List[Diagnostic], Set[int]]:
    diagnostics: List[Diagnostic] = []
    dead: Set[int] = set()
    for key, definition in description.simple_fluents.items():
        if not definition.terminated_rules:
            continue
        initiable, has_initiation = _initiable_values(description, key)
        if not has_initiation or initiable is None:
            # No initiation at all is RTEC011 territory; an open domain
            # cannot prove any termination dead.
            continue
        for rule in definition.terminated_rules:
            value = head_fvp(rule)[1]
            if not is_ground(value) or value in initiable:
                continue
            index = rule_ids.get(id(rule))
            if index is None:
                continue
            dead.add(index)
            diagnostics.append(
                Diagnostic(
                    "dead-termination",
                    "terminatedAt targets %s=%s, but initiations only produce "
                    "{%s}: the termination can never pair with an initiation"
                    % (
                        key[0],
                        term_to_str(value),
                        ", ".join(sorted(term_to_str(v) for v in initiable)),
                    ),
                    rule_index=index,
                    fix=Fix("remove-rule", term_to_str(rule.head), ""),
                )
            )
    diagnostics.sort(key=lambda d: (d.rule_index is None, d.rule_index or 0))
    return diagnostics, dead


# ---------------------------------------------------------------------------
# Reachability / liveness (RTEC022 / RTEC023)


def _event_key(term: Term) -> Optional[FluentKey]:
    return _safe_key(term)


def _ref_possible(
    key: Optional[FluentKey],
    value: Term,
    state: Dict[FluentKey, Optional[Set[Term]]],
    input_fluent_keys: Set[FluentKey],
) -> bool:
    if key is None:
        return True
    if key in input_fluent_keys:
        return True
    if key not in state:
        return False
    values = state[key]
    if values is None:
        return True
    if not is_ground(value):
        return bool(values)
    return value in values


def _simple_rule_live(
    rule: Rule,
    state: Dict[FluentKey, Optional[Set[Term]]],
    input_events: Set[FluentKey],
    input_fluent_keys: Set[FluentKey],
) -> bool:
    for literal in rule.body:
        term = literal.term
        if literal.negated or not isinstance(term, Compound):
            continue
        if term.functor == "happensAt" and term.arity == 2:
            key = _event_key(term.args[0])
            if key is not None and key not in input_events:
                return False
        elif term.functor == "holdsAt" and term.arity == 2:
            pair = term.args[0]
            if isinstance(pair, Compound) and is_fvp(pair):
                key = _safe_key(pair.args[0])
                if key is not None and not _ref_possible(
                    key, pair.args[1], state, input_fluent_keys
                ):
                    return False
    return True


def _static_rule_live(
    rule: Rule,
    state: Dict[FluentKey, Optional[Set[Term]]],
    input_fluent_keys: Set[FluentKey],
) -> bool:
    env: Dict[Variable, bool] = {}
    for literal in rule.body:
        term = literal.term
        if not isinstance(term, Compound):
            continue
        if term.functor == "holdsFor" and term.arity == 2:
            pair, interval = term.args
            live = True
            if isinstance(pair, Compound) and is_fvp(pair):
                key = _safe_key(pair.args[0])
                live = _ref_possible(key, pair.args[1], state, input_fluent_keys)
            if isinstance(interval, Variable):
                env[interval] = live
        elif term.functor in INTERVAL_CONSTRUCTS:

            def _element_liveness(list_term: Term) -> Optional[List[bool]]:
                if isinstance(list_term, Compound) and list_term.functor == LIST_FUNCTOR:
                    flags = []
                    for element in list_term.args:
                        if not isinstance(element, Variable):
                            return None
                        flags.append(env.get(element, False))
                    return flags
                return None

            out = term.args[-1]
            if not isinstance(out, Variable):
                return True  # malformed — leave to the structural pass
            if term.functor == "union_all" and term.arity == 2:
                flags = _element_liveness(term.args[0])
                env[out] = True if flags is None else any(flags)
            elif term.functor == "intersect_all" and term.arity == 2:
                flags = _element_liveness(term.args[0])
                env[out] = True if flags is None else all(flags) and bool(flags)
            elif term.functor == "relative_complement_all" and term.arity == 3:
                base = term.args[0]
                env[out] = env.get(base, True) if isinstance(base, Variable) else True
            else:
                return True
    head = rule.head
    if isinstance(head, Compound) and head.arity == 2:
        interval = head.args[1]
        if isinstance(interval, Variable):
            return env.get(interval, True)
    return True


def compute_reachability(
    description: EventDescription,
    input_events: Set[FluentKey],
    input_fluent_keys: Set[FluentKey],
    never_fires: Optional[Dict[int, bool]] = None,
) -> Dict[FluentKey, Optional[Set[Term]]]:
    """Fixpoint of the possibly-held value sets per defined fluent key.

    ``None`` means the domain is open (some live rule has a non-ground head
    value). A key mapped to the empty set is unreachable: no derivation
    path from any input event or input fluent produces it. The fixpoint is
    monotone over a finite lattice, so it terminates even on cyclic
    dependency graphs.
    """
    never = never_fires or {}
    rule_ids = {id(rule): index for index, rule in enumerate(description.rules)}
    state: Dict[FluentKey, Optional[Set[Term]]] = {}
    for key in description.simple_fluents:
        state[key] = None if key in input_fluent_keys else set()
    for key in description.static_fluents:
        state.setdefault(key, None if key in input_fluent_keys else set())
    for pair in description.initial_fvps:
        key = _safe_key(pair.args[0])
        if key in state and state[key] is not None:
            values = state[key]
            assert values is not None
            values.add(pair.args[1])

    def _contribute(key: FluentKey, value: Term) -> bool:
        values = state[key]
        if values is None:
            return False
        if not is_ground(value):
            state[key] = None
            return True
        if value not in values:
            values.add(value)
            return True
        return False

    changed = True
    while changed:
        changed = False
        for key, simple in description.simple_fluents.items():
            if state[key] is None:
                continue
            for rule in simple.initiated_rules:
                index = rule_ids.get(id(rule))
                if index is not None and never.get(index):
                    continue
                if _simple_rule_live(rule, state, input_events, input_fluent_keys):
                    if _contribute(key, head_fvp(rule)[1]):
                        changed = True
        for key, static in description.static_fluents.items():
            if state[key] is None:
                continue
            for rule in static.rules:
                index = rule_ids.get(id(rule))
                if index is not None and never.get(index):
                    continue
                if _static_rule_live(rule, state, input_fluent_keys):
                    if _contribute(key, head_fvp(rule)[1]):
                        changed = True
    return state


def _reachability_diagnostics(
    description: EventDescription,
    state: Dict[FluentKey, Optional[Set[Term]]],
    outputs: Optional[Set[str]],
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    initially_keys = {
        _safe_key(pair.args[0]) for pair in description.initial_fvps
    }
    for key, values in state.items():
        if values is None or values:
            continue
        simple = description.simple_fluents.get(key)
        if (
            simple is not None
            and simple.terminated_rules
            and not simple.initiated_rules
            and key not in initially_keys
        ):
            continue  # RTEC011 already explains this precisely
        defining: Optional[Rule] = None
        if simple is not None and simple.initiated_rules:
            defining = simple.initiated_rules[0]
        elif key in description.static_fluents:
            defining = description.static_fluents[key].rules[0]
        elif simple is not None and simple.terminated_rules:
            defining = simple.terminated_rules[0]
        rule_index = None
        if defining is not None:
            try:
                rule_index = description.rules.index(defining)
            except ValueError:
                rule_index = None
        category = "unreachable-fluent"
        detail = "defined fluent"
        if outputs and key[0] in outputs:
            category = "unreachable-output"
            detail = "declared output"
        diagnostics.append(
            Diagnostic(
                category,
                "%s %s/%d has no derivation path from any input event or "
                "input fluent: at run time it never holds"
                % (detail, key[0], key[1]),
                rule_index=rule_index,
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Entry points


@dataclass
class SemanticFacts:
    """Everything the semantic layer inferred, plus its diagnostics."""

    diagnostics: List[Diagnostic]
    producible: Dict[FluentKey, Optional[Set[Term]]]
    rule_facts: Dict[int, RuleFacts]
    sort_classes: List[SortClass]
    reachable_values: Optional[Dict[FluentKey, Optional[Set[Term]]]]
    unreachable: Set[FluentKey]
    dead_terminations: Set[int]


def analyse_semantics(
    description: EventDescription,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    outputs: Optional[Set[str]] = None,
) -> SemanticFacts:
    """Run sort inference, value-domain analysis and reachability.

    Reachability needs a vocabulary (the input-event/fluent universe) and
    is skipped without one; the other analyses are self-contained. ``kb``
    sharpens variable bounds and sort observations but is optional.
    """
    diagnostics: List[Diagnostic] = []

    # 1. Sort inference.
    inference = _SortInference()
    for index, rule in enumerate(description.rules):
        inference.add_rule(index, rule)
    if kb is not None:
        inference.add_knowledge_base(kb)
    sort_classes = inference.classes()
    diagnostics.extend(_sort_clash_diagnostics(sort_classes))

    # 2. Value-domain analysis.
    rule_facts: Dict[int, RuleFacts] = {}
    for index, rule in enumerate(description.rules):
        kind = _rule_kind(rule)
        if kind not in ("initiatedAt", "terminatedAt"):
            continue
        facts = comparison_facts(rule, index, kb)
        rule_facts[index] = facts
        for cond_index in sorted(facts.always_true | facts.always_false):
            literal = rule.body[cond_index]
            verdict = "true" if cond_index in facts.always_true else "false"
            has_vars = bool(term_variables(literal.term))
            reason = (
                "compares a term with itself" if has_vars else "contains no variables"
            )
            message = "%s %s and always evaluates %s" % (
                literal_to_str(literal),
                reason,
                verdict,
            )
            if verdict == "false":
                message += ": the rule can never fire"
            diagnostics.append(
                Diagnostic(
                    "constant-comparison",
                    message,
                    rule_index=index,
                    condition_index=cond_index,
                )
            )
        if facts.contradiction is not None:
            first, second = facts.contradiction
            if first == second:
                witness = literal_to_str(rule.body[first])
            else:
                witness = "%s together with %s" % (
                    literal_to_str(rule.body[first]),
                    literal_to_str(rule.body[second]),
                )
            diagnostics.append(
                Diagnostic(
                    "contradictory-conditions",
                    "the comparison conditions are unsatisfiable (%s): the "
                    "rule can never fire" % witness,
                    rule_index=index,
                    condition_index=second,
                    fix=Fix("remove-rule", term_to_str(rule.head), ""),
                )
            )
        else:
            for cond_index in sorted(facts.subsumed):
                implier = facts.subsumed[cond_index]
                diagnostics.append(
                    Diagnostic(
                        "subsumed-condition",
                        "%s is implied by %s and can be dropped"
                        % (
                            literal_to_str(rule.body[cond_index]),
                            literal_to_str(rule.body[implier]),
                        ),
                        rule_index=index,
                        condition_index=cond_index,
                        fix=Fix(
                            "drop-condition",
                            literal_to_str(rule.body[cond_index]),
                            "",
                        ),
                    )
                )

    # 3. Producible values / impossible references / dead terminations.
    producible = producible_values(description)
    diagnostics.extend(_impossible_value_facts(description, producible, rule_facts))
    rule_ids = {id(rule): index for index, rule in enumerate(description.rules)}
    dead_diags, dead_terminations = _dead_termination_diagnostics(description, rule_ids)
    diagnostics.extend(dead_diags)

    # 4. Reachability (needs the input universe).
    reachable_values: Optional[Dict[FluentKey, Optional[Set[Term]]]] = None
    unreachable: Set[FluentKey] = set()
    if vocabulary is not None:
        # Only simple rules die from impossible refs/contradictions: a
        # holdsFor body condition over an impossible value merely binds an
        # empty interval list, which the dataflow in _static_rule_live
        # already models.
        never: Dict[int, bool] = {}
        for index, facts in rule_facts.items():
            if _rule_kind(description.rules[index]) in ("initiatedAt", "terminatedAt"):
                never[index] = facts.never_fires
        for index in dead_terminations:
            never[index] = True
        reachable_values = compute_reachability(
            description,
            input_events=set(vocabulary.input_events),
            input_fluent_keys=set(vocabulary.input_fluents),
            never_fires=never,
        )
        unreachable = {
            key for key, values in reachable_values.items() if values is not None and not values
        }
        diagnostics.extend(
            _reachability_diagnostics(description, reachable_values, outputs)
        )

    return SemanticFacts(
        diagnostics=diagnostics,
        producible=producible,
        rule_facts=rule_facts,
        sort_classes=sort_classes,
        reachable_values=reachable_values,
        unreachable=unreachable,
        dead_terminations=dead_terminations,
    )


def semantic_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    """Analyzer pass adapter: surfaces RTEC017–RTEC024."""
    facts = analyse_semantics(
        ctx.description,
        vocabulary=ctx.vocabulary,
        kb=ctx.kb,
        outputs=ctx.outputs,
    )
    return facts.diagnostics
