"""Evaluation of statically determined fluents (Definition 2.4).

A ``holdsFor`` rule is evaluated by joining its ``holdsFor`` conditions over
the fluent store (which already contains the intervals of every lower-level
FVP, thanks to bottom-up evaluation order), interleaved with atemporal
background predicates and interval manipulation constructs. Each rule runs
as a slot program built from the matcher and builder pieces of
:mod:`repro.rtec.compile`; interval-list variables live in the same frame
as term variables, under their own keys (interval lists are not terms).

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

from typing import Callable, Dict, List, Tuple

from repro import telemetry
from repro.intervals import IntervalList, intersect_all, relative_complement_all, union_all
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import LIST_FUNCTOR, Literal, Rule
from repro.logic.terms import Compound, Term, Variable, is_fvp, term_variables
from repro.rtec.compile import AUX, FIRST_SLOT, KB, OUT, STORE, Scope, background, build
from repro.rtec.compile import failing, guard, key_reader, matcher, program_for
from repro.rtec.description import INTERVAL_CONSTRUCTS, StaticFluentDef
from repro.rtec.errors import EvaluationError
from repro.rtec.store import FluentStore

__all__ = ["evaluate_static_fluent", "StaticProgram"]


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
            found: List[Tuple[Term, IntervalList]] = []
            try:
                program_for(definition, rule, StaticProgram).run(kb, store, found)
            except EvaluationError as exc:
                if on_error is None:
                    raise exc.with_context(rule_head=rule.head) from exc
                on_error("skipped rule %r: %s" % (rule.head, exc))
            for pair, intervals in found:
                result.setdefault(pair, []).append(intervals)
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


class StaticProgram:
    """One ``holdsFor`` rule: its seed enumerators and one body per seed shape.

    A *seed shape* is the set of variables a seed binds — those of one
    ``holdsFor`` condition's FVP pattern, or none (the empty seed). Which
    slots are bound when a body condition runs depends on the shape alone,
    so each shape gets its own compiled body over the one shared frame.
    """

    def __init__(self, rule: Rule) -> None:
        head = rule.head
        assert isinstance(head, Compound)
        if not is_fvp(head.args[0]):
            raise EvaluationError("holdsFor head without an FVP: %r" % (head,))
        self.rule = rule
        slots: dict = {}
        bodies: Dict[Tuple[int, ...], Callable] = {}

        def body_for(variables) -> Tuple[Tuple[int, ...], Callable]:
            scope = Scope(slots, variables)
            shape = tuple(sorted(scope.slot(variable) for variable in variables))
            if shape not in bodies:
                makers = [_condition(literal, scope) for literal in rule.body]
                chain = _emitter(head, scope)
                for make in reversed(makers):
                    chain = make(chain)
                bodies[shape] = chain
            return shape, bodies[shape]

        self.empty_body = body_for(())[1]
        #: (enumerator of the pattern's stored instances, seed shape, its body)
        self.seeders: List[tuple] = []
        for literal in rule.body:
            term = literal.term
            if not (isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2):
                continue
            pattern = term.args[0]
            if is_fvp(pattern):
                self.seeders.append(
                    (_instances(pattern, Scope(slots)),) + body_for(term_variables(pattern))
                )
        self.size = FIRST_SLOT + len(slots)

    def run(self, kb: KnowledgeBase, store: FluentStore, out: list) -> None:
        """Append ``(ground head FVP, intervals)`` per distinct non-empty body
        solution to ``out``, over every seed (see the module docstring)."""
        frame: list = [None] * self.size
        frame[KB], frame[STORE], frame[AUX], frame[OUT] = kb, store, set(), out
        seeds: List[tuple] = [(self.empty_body, (), ())]
        seen: set = {((), ())}
        for pairs, shape, body in self.seeders:
            for _pair in pairs(frame):
                key = (shape, tuple([frame[slot] for slot in shape]))
                if key not in seen:
                    seen.add(key)
                    seeds.append((body,) + key)
        telemetry.count("seeds", len(seeds))
        for body, shape, values in seeds:
            for slot, value in zip(shape, values):
                frame[slot] = value
            body(frame)


def _fail(message: str, term: Term):
    return lambda nxt: failing(message, term)


def _assign(compute, slot: int):
    def make(nxt):
        def step(f):
            f[slot] = compute(f)
            nxt(f)
        return step

    return make


def _condition(literal: Literal, scope: Scope):
    term = literal.term
    if literal.negated:
        return _fail("negation is not allowed in holdsFor bodies: %r" % (term,), term)
    if isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2:
        return _holds_for(term, scope)
    if isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS:
        return _construct(term, scope)
    return background(literal, scope)


def _instances(pair_pattern, scope: Scope):
    """frame -> the distinct ground FVPs ``pair_pattern`` resolves to over the
    stored instances of its schema, the frame bound to each while it is
    yielded. A value that is ground once the fluent has matched is *not*
    matched: instances define the grounding domain, not the value, and the
    resolved FVP may have no intervals of its own."""
    fluent_pattern, value_pattern = pair_pattern.args
    key_of = key_reader(fluent_pattern, scope)
    match_fluent = matcher(fluent_pattern, scope)
    match_value = None if scope.binds(value_pattern) else matcher(value_pattern, scope)
    pair_of = build(pair_pattern, scope)

    def scan(f, instances):
        seen = set()
        for instance, _intervals in instances:
            fluent, value = instance.args
            if match_fluent(f, fluent) and (match_value is None or match_value(f, value)):
                pair = pair_of(f)
                if pair not in seen:
                    seen.add(pair)
                    yield pair

    return lambda f: scan(f, f[STORE].instances(key_of(f)))


def _holds_for(term, scope: Scope):
    pair_pattern, out = term.args
    not_fvp = "holdsFor condition without an FVP: %r" % (term,)
    problem = None
    if not isinstance(out, Variable):
        problem = "holdsFor condition output must be a variable: %r" % (term,)
    elif (out,) in scope.bound:
        problem = "interval variable %r bound more than once" % out.name
    checked = is_fvp(pair_pattern)
    if scope.binds(pair_pattern):
        # A ground FVP always succeeds; absent FVPs have empty intervals.
        pair_of = build(pair_pattern, scope)

        def compute(f):
            pair = pair_of(f)
            if not checked and not is_fvp(pair):
                raise EvaluationError(not_fvp)
            if problem is not None:
                raise EvaluationError(problem)
            return f[STORE].get(pair)

        scope.bound.add((out,))
        return _assign(guard(compute, term), scope.slot((out,)))
    if not checked or problem is not None:
        return _fail(problem if checked else not_fvp, term)
    pairs = guard(_instances(pair_pattern, scope), term)
    scope.bound.add((out,))
    slot = scope.slot((out,))

    def make(nxt):
        def step(f):
            store = f[STORE]
            for pair in pairs(f):
                f[slot] = store.get(pair)
                nxt(f)
        return step

    return make


def _construct(term, scope: Scope):
    functor, out = term.functor, term.args[-1]
    if term.arity != INTERVAL_CONSTRUCTS[functor]:
        return _fail(
            "%s expects %d arguments, got %d" % (functor, INTERVAL_CONSTRUCTS[functor], term.arity),
            term,
        )
    if not isinstance(out, Variable):
        return _fail("output of %s must be a variable" % functor, term)
    if (out,) in scope.bound:
        return _fail("interval variable %r bound more than once" % out.name, term)
    lists = _interval_lists(term.args[-2], scope)
    if functor == "relative_complement_all":  # relative_complement_all(I', L, I)
        base = _interval(term.args[0], scope)
    combine = {"union_all": union_all, "intersect_all": intersect_all}.get(functor)

    def compute(f):
        if combine is None:
            return relative_complement_all(base(f), lists(f))
        return combine(lists(f))

    scope.bound.add((out,))
    return _assign(guard(compute, term), scope.slot((out,)))


def _interval(term: Term, scope: Scope) -> Callable[[list], IntervalList]:
    """frame -> the interval list the interval variable ``term`` holds."""
    if isinstance(term, Variable) and term not in scope.bound:
        if (term,) in scope.bound:
            slot = scope.slots[(term,)]
            return lambda f: f[slot]
        return failing("unbound interval variable %r" % term.name)
    resolved = build(term, scope)

    def fail(f):
        raise EvaluationError("expected an interval variable, got %r" % (resolved(f),))
    return fail


def _interval_lists(term: Term, scope: Scope) -> Callable[[list], List[IntervalList]]:
    if isinstance(term, Compound) and term.functor == LIST_FUNCTOR:
        items = [_interval(arg, scope) for arg in term.args]
        return lambda f: [item(f) for item in items]
    resolved = build(term, scope)

    def fail(f):
        value = resolved(f)
        if isinstance(value, Compound) and value.functor == LIST_FUNCTOR:
            value = value.args[0]  # a list bound to a term variable holds terms
            raise EvaluationError("expected an interval variable, got %r" % (value,))
        raise EvaluationError(
            "interval constructs expect a list of interval variables, got %r" % (value,)
        )
    return fail


def _emitter(head, scope: Scope):
    head_pair, head_interval = head.args
    pair_of = build(head_pair, scope)
    grounded = scope.binds(head_pair)
    interval = _interval(head_interval, scope)

    def emit(f):
        pair = pair_of(f)
        if not grounded:
            raise EvaluationError(
                "holdsFor head %r not ground after body evaluation" % (pair,)
            )
        intervals = interval(f)
        found = (pair, intervals)
        if intervals and found not in f[AUX]:
            f[AUX].add(found)
            f[OUT].append(found)
    return emit
