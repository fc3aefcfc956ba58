"""Semantic analysis over parsed event descriptions: values and reachability.

Two cooperating analyses run over an :class:`EventDescription` (the
paper's Section 5.2 shows LLM-generated definitions fail *semantically* —
references to fluent values nothing produces, activities that can never
hold — in ways the syntactic passes RTEC001–016 cannot see):

1. **Producible values** (RTEC018): the finite set of values each defined
   fluent can produce (ground rule-head values plus ``initially``
   declarations). A ``holdsAt``/``holdsFor`` condition on any other value
   can never succeed, so a simple-fluent rule with such a positive
   condition never fires.

2. **Reachability** (RTEC022/RTEC023): a monotone fixpoint over the fluent
   dependency graph computing which fluent-value pairs have any derivation
   path from the input events and input fluents.

Certification (:mod:`repro.analysis.certify`) reuses both: the rules that
never fire and the reachable values :func:`semantic_pass` leaves in the
analysis context feed its memory-boundedness pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.passes import AnalysisContext
from repro.logic.parser import LIST_FUNCTOR, Literal, Rule
from repro.logic.pretty import literal_to_str, term_to_str
from repro.logic.terms import Compound, Term, Variable, is_fvp, is_ground
from repro.rtec.description import (
    INTERVAL_CONSTRUCTS,
    EventDescription,
    FluentKey,
    Vocabulary,
    fluent_key,
    head_fvp,
)

__all__ = [
    "SemanticFacts",
    "analyse_semantics",
    "compute_reachability",
    "producible_values",
    "semantic_pass",
]


# ---------------------------------------------------------------------------
# Shared small helpers


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


# ---------------------------------------------------------------------------
# Producible fluent values (RTEC018)


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
) -> Tuple[List[Diagnostic], Set[int]]:
    """RTEC018 diagnostics, plus the simple-fluent rules they make dead.

    Only simple rules die from a positive reference to an impossible value:
    a holdsFor body condition over one merely binds an empty interval list,
    which the dataflow in :func:`_static_rule_live` already models.
    """
    diagnostics: List[Diagnostic] = []
    dead_rules: Set[int] = set()
    for index, rule in enumerate(description.rules):
        kind = _rule_kind(rule)
        if kind is None:
            continue
        for cond_index, literal, key, value in _fluent_references(rule):
            domain = producible.get(key)
            if domain is None or key not in producible:
                continue
            if not is_ground(value) or value in domain:
                continue
            if literal.negated:
                suffix = "the negated condition always succeeds"
            else:
                suffix = "the condition can never succeed"
                if kind != "holdsFor":
                    dead_rules.add(index)
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
    return diagnostics, dead_rules


# ---------------------------------------------------------------------------
# Reachability / liveness (RTEC022 / RTEC023)


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
            key = _safe_key(term.args[0])
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
    never_fires: Collection[int] = (),
) -> Dict[FluentKey, Optional[Set[Term]]]:
    """Fixpoint of the possibly-held value sets per defined fluent key.

    ``never_fires`` holds the indices of rules known to be dead. ``None``
    means the domain is open (some live rule has a non-ground head value).
    A key mapped to the empty set is unreachable: no derivation path from
    any input event or input fluent produces it. The fixpoint is monotone
    over a finite lattice, so it terminates even on cyclic dependency
    graphs.
    """
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
                if rule_ids.get(id(rule)) in never_fires:
                    continue
                if _simple_rule_live(rule, state, input_events, input_fluent_keys):
                    if _contribute(key, head_fvp(rule)[1]):
                        changed = True
        for key, static in description.static_fluents.items():
            if state[key] is None:
                continue
            for rule in static.rules:
                if rule_ids.get(id(rule)) in never_fires:
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
    #: Simple-fluent rules with a positive holdsAt/holdsFor condition on a
    #: value no rule can produce: they never fire.
    dead_rules: Set[int]
    reachable_values: Optional[Dict[FluentKey, Optional[Set[Term]]]]
    unreachable: Set[FluentKey]


def analyse_semantics(
    description: EventDescription,
    vocabulary: Optional[Vocabulary] = None,
    outputs: Optional[Set[str]] = None,
) -> SemanticFacts:
    """Run the producible-value analysis and reachability.

    Reachability needs a vocabulary (the input-event/fluent universe) and
    is skipped without one.
    """
    producible = producible_values(description)
    diagnostics, dead_rules = _impossible_value_facts(description, producible)

    reachable_values: Optional[Dict[FluentKey, Optional[Set[Term]]]] = None
    unreachable: Set[FluentKey] = set()
    if vocabulary is not None:
        reachable_values = compute_reachability(
            description,
            input_events=set(vocabulary.input_events),
            input_fluent_keys=set(vocabulary.input_fluents),
            never_fires=dead_rules,
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
        dead_rules=dead_rules,
        reachable_values=reachable_values,
        unreachable=unreachable,
    )


def semantic_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    """Analyzer pass adapter: surfaces RTEC018, RTEC022 and RTEC023 and
    leaves the facts in ``ctx`` for the memory-boundedness pass."""
    ctx.semantics = analyse_semantics(
        ctx.description,
        vocabulary=ctx.vocabulary,
        outputs=ctx.outputs,
    )
    return ctx.semantics.diagnostics
