"""Static partitionability analysis: may a stream be split by entity?

The maritime activities of the paper are all *per-vessel* or
*per-vessel-pair*: every rule relates the entities of its head to entities
occurring in its body stream conditions. When that holds for the whole
event description, the input stream can be split by entity key and each
part recognised independently. Two places do: a session repairing late
input re-derives only the entity components it touches
(:mod:`repro.rtec.session`), and :func:`repro.serve.loadgen.build_workload`
spreads components over sessions, which the serve tier places on workers
with :func:`rendezvous_owner`.

The analysis works per rule, over the rule's *stream occurrences*: the head
FVP, every ``happensAt`` event pattern and every ``holdsAt``/``holdsFor``
FVP pattern (time-points and interval variables are excluded — they never
carry entities). It infers:

* **entity variables** — variables occurring in at least two distinct
  stream occurrences of the rule. A variable confined to a single stream
  condition (a speed value, an area identifier resolved via background
  knowledge) is data, not an entity; a variable shared between occurrences
  (the vessel linking ``entersArea`` to ``withinArea``) is the join key
  sharding must preserve.
* **entity positions** — for every event/fluent schema, the argument
  positions at which some rule places an entity variable (for fluents, the
  value slot counts as position ``arity``). The union over all rules gives
  each schema's entity signature; schemas with no entity positions are
  *global* and are replicated to every shard.

A description is shardable when every rule passes three checks:

* **C1 (coverage)** — each occurrence of a schema carries an entity
  variable at each of the schema's entity positions. A constant, a nested
  term or a variable not linked to the rest of the rule at an entity
  position means the rule's firings cannot be attributed to one entity
  tuple (e.g. a head entity that is not derived from the body).
* **C2 (connectivity)** — the rule's entity variables form a single
  connected component under co-occurrence in a stream literal. Two
  unlinked entities in one rule would require arbitrary cross-entity
  joins, which no entity-keyed partition preserves.
* **C3 (global closure)** — a rule whose head schema is global may only
  reference global schemas in its body: a fluent without entities derived
  from entity-sharded inputs would need the whole stream in every shard.

Soundness sketch: every grounding of an entity variable flows through a
stream literal (C1), all entities of one firing sit in one co-occurrence
component (C2), and the runtime partitioner unions the entities of every
input item — so all items a firing depends on live in the shard owning its
component, while global schemas are replicated (C3) and their (identical)
per-shard derivations merge idempotently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.logic.parser import Rule
from repro.logic.terms import Compound, Term, Variable, is_fvp, term_variables
from repro.rtec.description import EventDescription, FluentKey, fluent_key

__all__ = [
    "PartitionAnalysis",
    "analyse_partitionability",
    "rendezvous_owner",
]

#: Occurrence kinds.
_EVENT = "event"
_FLUENT = "fluent"


@dataclass(frozen=True)
class PartitionAnalysis:
    """The result of the partitionability analysis of one event description.

    ``event_positions`` / ``fluent_positions`` map each schema to its entity
    argument positions (for fluents, position ``arity`` is the value slot).
    Schemas absent from the maps (or mapped to an empty set) are global and
    must be replicated to every shard. ``diagnostics`` explains every
    violation when ``shardable`` is ``False``.
    """

    shardable: bool
    diagnostics: Tuple[str, ...] = ()
    event_positions: Mapping[FluentKey, FrozenSet[int]] = field(default_factory=dict)
    fluent_positions: Mapping[FluentKey, FrozenSet[int]] = field(default_factory=dict)

    def event_entities(self, term: Term) -> Tuple[Term, ...]:
        """The entity terms of a ground event term (empty for global events)."""
        try:
            key = fluent_key(term)
        except ValueError:
            return ()
        positions = self.event_positions.get(key)
        if not positions:
            return ()
        args = term.args if isinstance(term, Compound) else ()
        return tuple(args[p] for p in sorted(positions))

    def fvp_entities(self, pair: Term) -> Tuple[Term, ...]:
        """The entity terms of a ground FVP (empty for global fluents)."""
        if not is_fvp(pair):
            return ()
        assert isinstance(pair, Compound)
        fluent, value = pair.args
        try:
            key = fluent_key(fluent)
        except ValueError:
            return ()
        positions = self.fluent_positions.get(key)
        if not positions:
            return ()
        args = (fluent.args if isinstance(fluent, Compound) else ()) + (value,)
        return tuple(args[p] for p in sorted(positions))


#: One stream occurrence: (kind, schema key, entity-bearing argument slots).
_Occurrence = Tuple[str, FluentKey, Tuple[Term, ...]]


def _stream_occurrences(rule: Rule) -> Tuple[Optional[List[_Occurrence]], Optional[str]]:
    """Extract the stream occurrences of one defining rule.

    Returns ``(occurrences, None)`` or ``(None, diagnostic)`` when the rule
    is too malformed to analyse (it would also fail at evaluation time, but
    a split must know statically).
    """
    occurrences: List[_Occurrence] = []
    head = rule.head
    assert isinstance(head, Compound)
    pair = head.args[0]
    if not is_fvp(pair):
        return None, "rule head without an FVP: %r" % (head,)
    assert isinstance(pair, Compound)
    fluent, value = pair.args
    try:
        key = fluent_key(fluent)
    except ValueError:
        return None, "head fluent %r has no functor" % (fluent,)
    head_args = (fluent.args if isinstance(fluent, Compound) else ()) + (value,)
    occurrences.append((_FLUENT, key, head_args))
    for literal in rule.body:
        term = literal.term
        if not isinstance(term, Compound):
            continue
        if term.functor == "happensAt" and term.arity == 2:
            event_pattern = term.args[0]
            try:
                key = fluent_key(event_pattern)
            except ValueError:
                return None, "event pattern %r has no functor in %r" % (
                    event_pattern,
                    head,
                )
            args = event_pattern.args if isinstance(event_pattern, Compound) else ()
            occurrences.append((_EVENT, key, tuple(args)))
        elif term.functor in ("holdsAt", "holdsFor") and term.arity == 2:
            condition_pair = term.args[0]
            if not is_fvp(condition_pair):
                return None, "%s condition without an FVP: %r in %r" % (
                    term.functor,
                    term,
                    head,
                )
            assert isinstance(condition_pair, Compound)
            cond_fluent, cond_value = condition_pair.args
            try:
                key = fluent_key(cond_fluent)
            except ValueError:
                return None, "fluent pattern %r has no functor in %r" % (
                    cond_fluent,
                    head,
                )
            args = (
                cond_fluent.args if isinstance(cond_fluent, Compound) else ()
            ) + (cond_value,)
            occurrences.append((_FLUENT, key, args))
    return occurrences, None


def _defining_rules(description: EventDescription) -> List[Rule]:
    rules: List[Rule] = []
    for definition in description.simple_fluents.values():
        rules.extend(definition.initiated_rules)
        rules.extend(definition.terminated_rules)
    for static_definition in description.static_fluents.values():
        rules.extend(static_definition.rules)
    return rules


def _entity_vars_of(occurrences: Sequence[_Occurrence]) -> Set[Variable]:
    """Variables appearing in at least two distinct stream occurrences."""
    seen_in: Dict[Variable, Set[int]] = {}
    for occ_id, (_kind, _key, args) in enumerate(occurrences):
        for arg in args:
            for var in term_variables(arg):
                seen_in.setdefault(var, set()).add(occ_id)
    return {var for var, occ_ids in seen_in.items() if len(occ_ids) >= 2}


def _connected(occurrences: Sequence[_Occurrence], entity_vars: Set[Variable]) -> bool:
    """True when the entity variables form one co-occurrence component."""
    if len(entity_vars) <= 1:
        return True
    parent: Dict[Variable, Variable] = {v: v for v in entity_vars}

    def find(v: Variable) -> Variable:
        while parent[v] is not v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _kind, _key, args in occurrences:
        present = [
            var
            for arg in args
            for var in term_variables(arg)
            if var in entity_vars
        ]
        for left, right in zip(present, present[1:]):
            root_left, root_right = find(left), find(right)
            if root_left is not root_right:
                parent[root_left] = root_right
    roots = {find(v) for v in entity_vars}
    return len(roots) == 1


def analyse_partitionability(description: EventDescription) -> PartitionAnalysis:
    """Run the static analysis over all defining rules of ``description``."""
    rules = _defining_rules(description)
    analysed: List[Tuple[Rule, List[_Occurrence], Set[Variable]]] = []
    diagnostics: List[str] = []
    event_positions: Dict[FluentKey, Set[int]] = {}
    fluent_positions: Dict[FluentKey, Set[int]] = {}

    # Pass 1: entity variables per rule; entity positions per schema.
    for rule in rules:
        occurrences, problem = _stream_occurrences(rule)
        if occurrences is None:
            diagnostics.append(problem or "unanalysable rule")
            continue
        entity_vars = _entity_vars_of(occurrences)
        analysed.append((rule, occurrences, entity_vars))
        for kind, key, args in occurrences:
            positions = (
                event_positions if kind == _EVENT else fluent_positions
            ).setdefault(key, set())
            for index, arg in enumerate(args):
                if any(var in entity_vars for var in term_variables(arg)):
                    positions.add(index)

    global_events = {key for key, pos in event_positions.items() if not pos}
    global_fluents = {key for key, pos in fluent_positions.items() if not pos}

    # Pass 2: coverage (C1), connectivity (C2) and global closure (C3).
    for rule, occurrences, entity_vars in analysed:
        _head_kind, head_key, _head_args = occurrences[0]
        head_global = head_key in global_fluents
        for occ_index, (kind, key, args) in enumerate(occurrences):
            positions = (
                event_positions if kind == _EVENT else fluent_positions
            ).get(key, set())
            for position in sorted(positions):
                if position >= len(args):
                    continue
                arg = args[position]
                if not (isinstance(arg, Variable) and arg in entity_vars):
                    diagnostics.append(
                        "rule for %s/%d: %s %s/%d has %r at entity position %d "
                        "(not an entity variable of the rule — its head entities "
                        "are not derived from its body)"
                        % (head_key + (kind,) + key + (arg, position))
                    )
            if head_global and occ_index > 0:
                body_global = (
                    global_events if kind == _EVENT else global_fluents
                )
                if key not in body_global:
                    diagnostics.append(
                        "rule for global fluent %s/%d references entity-sharded "
                        "%s %s/%d" % (head_key + (kind,) + key)
                    )
        if not _connected(occurrences, entity_vars):
            diagnostics.append(
                "rule for %s/%d joins disconnected entities: %s"
                % (head_key + (", ".join(sorted(v.name for v in entity_vars)),))
            )

    return PartitionAnalysis(
        shardable=not diagnostics,
        diagnostics=tuple(diagnostics),
        event_positions={k: frozenset(v) for k, v in event_positions.items()},
        fluent_positions={k: frozenset(v) for k, v in fluent_positions.items()},
    )


def rendezvous_owner(key: str, nodes: Sequence[str]) -> str:
    """Highest-random-weight (rendezvous) owner of ``key`` among ``nodes``.

    Unlike modulo placement, removing one node only moves the keys it owned
    (onto the survivors) and leaves every other assignment untouched — the
    property the router's crash failover and rebalancing rest on.
    """
    if not nodes:
        raise ValueError("rendezvous placement needs at least one node")
    best: Optional[str] = None
    best_weight = b""
    for node in nodes:
        weight = hashlib.blake2b(
            b"%s\x00%s" % (key.encode(), node.encode()), digest_size=8
        ).digest()
        if best is None or weight > best_weight or (
            weight == best_weight and node < best
        ):
            best = node
            best_weight = weight
    assert best is not None
    return best
