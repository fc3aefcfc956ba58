"""Evaluation of statically determined fluents (Definition 2.4).

A ``holdsFor`` rule is evaluated by joining its ``holdsFor`` conditions over
the fluent store (which already contains the intervals of every lower-level
FVP, thanks to bottom-up evaluation order), interleaved with atemporal
background predicates and interval manipulation constructs. Interval-list
variables live in a separate environment from term variables, since interval
lists are not first-order terms.

Grounding. RTEC grounds fluent arguments over declared entity domains; a
``holdsFor(F=V, I)`` condition then succeeds with ``I = []`` when ``F=V``
has no intervals. We reproduce this without explicit domain declarations by
a *seed pass*: every rule is evaluated once per candidate binding obtained
by unifying each of its ``holdsFor`` conditions against the stored fluent
instances (and once with the empty binding). Under a seed binding, a ground
condition whose FVP is absent from the store yields the empty interval list
instead of failing — so, e.g., a vessel that was ``stopped`` but never at
``lowSpeed`` still gets a ``loitering`` computation in which the
``lowSpeed`` sub-list is empty.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro import telemetry
from repro.intervals import IntervalList, intersect_all, relative_complement_all, union_all
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import LIST_FUNCTOR, Literal, Rule
from repro.logic.terms import Compound, Term, Variable, is_fvp, is_ground
from repro.logic.unification import Substitution, unify
from repro.rtec.description import INTERVAL_CONSTRUCTS, StaticFluentDef
from repro.rtec.errors import EvaluationError
from repro.rtec.store import FluentStore
from repro.rtec.simple import _pattern_key  # shared helper

__all__ = ["evaluate_static_fluent"]

#: Bindings of interval-list variables.
IntervalEnv = Dict[Variable, IntervalList]


def evaluate_static_fluent(
    definition: StaticFluentDef,
    kb: KnowledgeBase,
    store: FluentStore,
    on_error=None,
) -> Dict[Term, IntervalList]:
    """Compute the maximal intervals of every ground FVP of one statically
    determined fluent, as the union over its rules and body instantiations.

    ``on_error``, when given, receives :class:`EvaluationError` messages and
    the offending rule is skipped instead of the error propagating.
    """
    with telemetry.span(
        "rtec.static", fluent="%s/%d" % definition.key
    ) as sp:
        result: Dict[Term, List[IntervalList]] = {}
        for rule in definition.rules:
            try:
                for pair, intervals in _evaluate_rule(rule, kb, store):
                    result.setdefault(pair, []).append(intervals)
            except EvaluationError as exc:
                if on_error is None:
                    raise exc.with_context(rule_head=rule.head) from exc
                on_error("skipped rule %r: %s" % (rule.head, exc))
        merged = {
            pair: union_all(interval_lists)
            for pair, interval_lists in result.items()
            if any(interval_lists)
        }
        if sp.enabled:
            sp.count("rules", len(definition.rules))
            sp.count("groundings", len(result))
            sp.count("fvps", len(merged))
        return merged


def _evaluate_rule(
    rule: Rule, kb: KnowledgeBase, store: FluentStore
) -> Iterator[Tuple[Term, IntervalList]]:
    head = rule.head
    assert isinstance(head, Compound)
    head_pair = head.args[0]
    head_interval = head.args[1]
    if not is_fvp(head_pair):
        raise EvaluationError("holdsFor head without an FVP: %r" % (head,))
    emitted: Set[Tuple[Term, IntervalList]] = set()
    seeds = _seed_substitutions(rule, store)
    telemetry.count("seeds", len(seeds))
    for seed in seeds:
        for subst, env in _satisfy_body(rule.body, seed, {}, kb, store):
            pair = subst.resolve(head_pair)
            if not is_ground(pair):
                raise EvaluationError(
                    "holdsFor head %r not ground after body evaluation" % (pair,)
                )
            intervals = _resolve_interval(head_interval, subst, env)
            if intervals and (pair, intervals) not in emitted:
                emitted.add((pair, intervals))
                yield pair, intervals


def _seed_substitutions(rule: Rule, store: FluentStore) -> List[Substitution]:
    """Candidate variable bindings for one rule (see module docstring)."""
    seeds: List[Substitution] = [Substitution()]
    seen: Set[frozenset] = {frozenset()}
    for literal in rule.body:
        term = literal.term
        if not (isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2):
            continue
        pair_pattern = term.args[0]
        if not is_fvp(pair_pattern):
            continue
        for bound, _intervals in _match_instances(pair_pattern, Substitution(), store):
            key = frozenset(bound.items())
            if key not in seen:
                seen.add(key)
                seeds.append(bound)
    return seeds


def _match_instances(
    pair_pattern: Term, subst: Substitution, store: FluentStore
) -> Iterator[Tuple[Substitution, IntervalList]]:
    """Unify a non-ground FVP pattern against stored instances.

    The fluent part is unified against each stored instance of the same
    schema; when the pattern's *value* is a constant that differs from the
    instance's value, the binding still counts and the intervals of the
    resolved FVP are looked up (possibly empty) — instances define the
    grounding domain, not the value.
    """
    assert isinstance(pair_pattern, Compound)
    fluent_pattern, value_pattern = pair_pattern.args
    key = _pattern_key(subst.resolve(fluent_pattern))
    seen: Set[Term] = set()
    for instance_pair, _ in store.instances(key):
        assert isinstance(instance_pair, Compound)
        extended = unify(fluent_pattern, instance_pair.args[0], subst)
        if extended is None:
            continue
        resolved_value = extended.resolve(value_pattern)
        if is_ground(resolved_value):
            final = extended
        else:
            final = unify(value_pattern, instance_pair.args[1], extended)
            if final is None:
                continue
        resolved_pair = final.resolve(pair_pattern)
        if not is_ground(resolved_pair) or resolved_pair in seen:
            continue
        seen.add(resolved_pair)
        yield final, store.get(resolved_pair)


def _satisfy_body(
    literals: Tuple[Literal, ...],
    subst: Substitution,
    env: IntervalEnv,
    kb: KnowledgeBase,
    store: FluentStore,
) -> Iterator[Tuple[Substitution, IntervalEnv]]:
    if not literals:
        yield subst, env
        return
    literal, rest = literals[0], literals[1:]
    for new_subst, new_env in _with_condition(
        _satisfy_one(literal, subst, env, kb, store), literal.term
    ):
        yield from _satisfy_body(rest, new_subst, new_env, kb, store)


def _with_condition(iterator, term):
    """Attach the offending condition to any EvaluationError raised while
    satisfying it (kept lazy: the iterator is consumed on demand)."""
    try:
        yield from iterator
    except EvaluationError as exc:
        raise exc.with_context(condition=term) from exc


def _satisfy_one(
    literal: Literal,
    subst: Substitution,
    env: IntervalEnv,
    kb: KnowledgeBase,
    store: FluentStore,
) -> Iterator[Tuple[Substitution, IntervalEnv]]:
    term = literal.term
    if literal.negated:
        raise EvaluationError("negation is not allowed in holdsFor bodies: %r" % (term,))
    if isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2:
        yield from _satisfy_holds_for(term, subst, env, store)
        return
    if isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS:
        yield from _satisfy_construct(term, subst, env)
        return
    # Atemporal background predicate.
    for extended in kb.query(term, subst):
        yield extended, env


def _satisfy_holds_for(
    term: Compound,
    subst: Substitution,
    env: IntervalEnv,
    store: FluentStore,
) -> Iterator[Tuple[Substitution, IntervalEnv]]:
    pair_pattern = subst.resolve(term.args[0])
    out = term.args[1]
    if not is_fvp(pair_pattern):
        raise EvaluationError("holdsFor condition without an FVP: %r" % (term,))
    if not isinstance(out, Variable):
        raise EvaluationError(
            "holdsFor condition output must be a variable: %r" % (term,)
        )
    if out in env:
        raise EvaluationError(
            "interval variable %r bound more than once" % out.name
        )
    if is_ground(pair_pattern):
        # A ground FVP always succeeds; absent FVPs have empty intervals.
        new_env = dict(env)
        new_env[out] = store.get(pair_pattern)
        yield subst, new_env
        return
    for extended, intervals in _match_instances(pair_pattern, subst, store):
        new_env = dict(env)
        new_env[out] = intervals
        yield extended, new_env


def _satisfy_construct(
    term: Compound, subst: Substitution, env: IntervalEnv
) -> Iterator[Tuple[Substitution, IntervalEnv]]:
    expected_arity = INTERVAL_CONSTRUCTS[term.functor]
    if term.arity != expected_arity:
        raise EvaluationError(
            "%s expects %d arguments, got %d" % (term.functor, expected_arity, term.arity)
        )
    out = term.args[-1]
    if not isinstance(out, Variable):
        raise EvaluationError("output of %s must be a variable" % term.functor)
    if out in env:
        raise EvaluationError("interval variable %r bound more than once" % out.name)
    if term.functor == "union_all":
        value = union_all(_resolve_interval_lists(term.args[0], subst, env))
    elif term.functor == "intersect_all":
        value = intersect_all(_resolve_interval_lists(term.args[0], subst, env))
    else:  # relative_complement_all(I', L, I)
        base = _resolve_interval(term.args[0], subst, env)
        value = relative_complement_all(
            base, _resolve_interval_lists(term.args[1], subst, env)
        )
    new_env = dict(env)
    new_env[out] = value
    yield subst, new_env


def _resolve_interval(term: Term, subst: Substitution, env: IntervalEnv) -> IntervalList:
    resolved = subst.resolve(term)
    if isinstance(resolved, Variable):
        if resolved in env:
            return env[resolved]
        raise EvaluationError("unbound interval variable %r" % resolved.name)
    raise EvaluationError("expected an interval variable, got %r" % (resolved,))


def _resolve_interval_lists(
    term: Term, subst: Substitution, env: IntervalEnv
) -> List[IntervalList]:
    resolved = subst.resolve(term)
    if isinstance(resolved, Compound) and resolved.functor == LIST_FUNCTOR:
        return [_resolve_interval(arg, subst, env) for arg in resolved.args]
    raise EvaluationError(
        "interval constructs expect a list of interval variables, got %r" % (resolved,)
    )
