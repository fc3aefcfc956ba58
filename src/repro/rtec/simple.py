"""Evaluation of simple fluents (Definition 2.2).

For every simple fluent schema the engine:

1. evaluates each ``initiatedAt``/``terminatedAt`` rule over the events of
   the current window, producing *initiation* and *termination* points per
   ground FVP;
2. adds, for multi-valued fluents, the initiations of ``F = V'`` to the
   terminations of ``F = V`` for every ``V' != V`` (RTEC value exclusivity:
   a fluent has at most one value at a time);
3. pairs initiations with terminations into maximal intervals
   (:func:`repro.intervals.make_intervals_from_points`).

Rules are evaluated through the compiled plans of :mod:`repro.rtec.compile`:
literal dispatch and functor keys are resolved once per rule, atemporal
prefixes once per window, and seed events bind the rule via a plain dict
build whenever the seed pattern allows it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import telemetry
from repro.intervals import IntervalList
from repro.intervals.pairing import pair_intervals
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import Rule
from repro.logic.terms import (
    Compound,
    Constant,
    Term,
    intern_constant,
    is_fvp,
    is_ground,
)
from repro.logic.pretty import term_to_str
from repro.logic.unification import Substitution, unify
from repro.rtec.builtins import evaluate_comparison
from repro.rtec.compile import (
    COMPARE,
    HAPPENS,
    HOLDS,
    CompiledLiteral,
    CompiledRule,
    compile_rule,
    pattern_key as _pattern_key,
    vector_filter,
)
from repro.rtec.description import SimpleFluentDef
from repro.rtec.errors import EvaluationError
from repro.rtec.store import FluentStore
from repro.rtec.stream import EventStream, float64_exact

__all__ = ["evaluate_simple_fluent", "rule_firing_points"]


def evaluate_simple_fluent(
    definition: SimpleFluentDef,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
    carried_initiations: Dict[Term, int],
    on_error=None,
    max_duration_for=None,
    carried_barriers: Optional[Dict[Term, int]] = None,
) -> Tuple[Dict[Term, IntervalList], Dict[Term, int], Dict[Term, int]]:
    """Compute the maximal intervals of every ground FVP of one simple fluent.

    Returns ``(intervals per FVP, open initiations per FVP, deadline
    barriers per FVP)``. The second mapping holds, for every FVP whose last
    period is still open at the window end, the initiation point of that
    period — the engine carries it into the next window, implementing
    inertia after older events have been forgotten (``carried_initiations``
    is exactly the previous window's mapping). The third mapping holds, for
    every FVP with a period closed by its ``maxDuration/2`` deadline, the
    close point: unlike an explicit termination, a deadline close leaves no
    event in the stream, so once its anchoring initiation is forgotten the
    next window would mistake the period's intermediate initiations for
    fresh anchors with later deadlines. Carrying the close point as a
    barrier (``carried_barriers``) makes the next window ignore initiations
    at or before it; the suppressed periods' detections are final already.
    ``on_error``, when given, receives the message of any
    :class:`EvaluationError` instead of the error propagating — the rule
    that failed is skipped (tolerant execution of imperfect generated
    rules).
    """
    with telemetry.span(
        "rtec.simple", fluent="%s/%d" % definition.key
    ) as sp:
        initiations: Dict[Term, Set[int]] = defaultdict(set)
        terminations: Dict[Term, Set[int]] = defaultdict(set)

        for rule in definition.initiated_rules:
            with telemetry.span("rtec.rule") as rsp:
                if rsp.enabled:
                    rsp.set(head=term_to_str(rule.head), kind="initiatedAt")
                try:
                    for pair, time in rule_firing_points(
                        rule, stream, kb, store, window_start, window_end, require_ground=True
                    ):
                        initiations[pair].add(time)
                except EvaluationError as exc:
                    if on_error is None:
                        raise exc.with_context(rule_head=rule.head) from exc
                    on_error("skipped rule %r: %s" % (rule.head, exc))

        for pair, start_time in carried_initiations.items():
            initiations[pair].add(start_time)

        # A termination whose head still has unbound variables (e.g. the
        # AreaType of "terminatedAt(withinArea(Vl, AreaType)=true, T) :-
        # happensAt(gap_start(Vl), T)") terminates every matching instance.
        pending: List[Tuple[Term, int]] = []
        for rule in definition.terminated_rules:
            with telemetry.span("rtec.rule") as rsp:
                if rsp.enabled:
                    rsp.set(head=term_to_str(rule.head), kind="terminatedAt")
                try:
                    for pair, time in rule_firing_points(
                        rule, stream, kb, store, window_start, window_end, require_ground=False
                    ):
                        pending.append((pair, time))
                except EvaluationError as exc:
                    if on_error is None:
                        raise exc.with_context(rule_head=rule.head) from exc
                    on_error("skipped rule %r: %s" % (rule.head, exc))
        non_ground: List[Tuple[Term, int]] = []
        for pattern, time in pending:
            if is_ground(pattern):
                terminations[pattern].add(time)
            else:
                non_ground.append((pattern, time))
        if non_ground:
            _apply_universal_terminations(non_ground, initiations, terminations)

        # Value exclusivity: initiating F=V' terminates F=V for V' != V.
        by_fluent: Dict[Term, List[Term]] = defaultdict(list)
        for pair in initiations:
            assert isinstance(pair, Compound)
            by_fluent[pair.args[0]].append(pair)
        for fluent, pairs in by_fluent.items():
            if len(pairs) < 2:
                continue
            # Aggregate once per fluent instead of the quadratic pair×pair
            # walk: a point terminates F=V iff some *other* value is
            # initiated there, i.e. its multiplicity across all values
            # exceeds its multiplicity within F=V alone.
            counts: Counter = Counter()
            for pair in pairs:
                counts.update(initiations[pair])
            for pair in pairs:
                own = initiations[pair]
                extra = {
                    t for t, c in counts.items() if c > (1 if t in own else 0)
                }
                if extra:
                    terminations[pair].update(extra)

        result: Dict[Term, IntervalList] = {}
        open_initiations: Dict[Term, int] = {}
        barriers: Dict[Term, int] = carried_barriers or {}
        next_barriers: Dict[Term, int] = {}
        groundings = set(initiations) | set(terminations)
        for pair in groundings:
            deadline = max_duration_for(pair) if max_duration_for is not None else None
            intervals, open_start, deadline_close = pair_intervals(
                initiations.get(pair, ()),
                terminations.get(pair, ()),
                open_end=window_end,
                max_duration=deadline,
                closed_until=barriers.get(pair),
            )
            if intervals:
                result[pair] = intervals
            if open_start is not None:
                open_initiations[pair] = open_start
            barrier = barriers.get(pair)
            if deadline_close is not None and (barrier is None or deadline_close > barrier):
                barrier = deadline_close
            if barrier is not None and barrier > window_start:
                next_barriers[pair] = barrier
        # A barrier of an FVP with no activity this window still guards
        # initiations a later overlapping window may retain; it expires
        # once the window start overtakes it.
        for pair, barrier in barriers.items():
            if pair not in groundings and barrier > window_start:
                next_barriers[pair] = barrier
        if sp.enabled:
            sp.count("groundings", len(groundings))
            sp.count("pairings", len(result))
            sp.count("carried", len(carried_initiations))
            sp.count(
                "initiation_points", sum(len(points) for points in initiations.values())
            )
            sp.count(
                "termination_points", sum(len(points) for points in terminations.values())
            )
            sp.count("deadline_barriers", len(next_barriers))
        return result, open_initiations, next_barriers


def _apply_universal_terminations(
    non_ground: List[Tuple[Term, int]],
    initiations: Dict[Term, Set[int]],
    terminations: Dict[Term, Set[int]],
) -> None:
    """Match non-ground termination patterns against initiated FVPs.

    Initiations are indexed by fluent functor/arity (and, when available,
    by the fluent's ground first argument), so each pattern only attempts
    unification against same-schema FVPs instead of every grounding.
    """
    by_key: Dict[Tuple[str, int], List[Term]] = defaultdict(list)
    by_first: Dict[Tuple[str, int, Term], List[Term]] = defaultdict(list)
    for pair in initiations:
        assert isinstance(pair, Compound)
        fluent = pair.args[0]
        try:
            key = _pattern_key(fluent)
        except EvaluationError:
            continue
        by_key[key].append(pair)
        if isinstance(fluent, Compound):
            by_first[key + (fluent.args[0],)].append(pair)
    for pattern, time in non_ground:
        assert isinstance(pattern, Compound)  # always an FVP (checked on compile)
        fluent_pattern = pattern.args[0]
        try:
            key = _pattern_key(fluent_pattern)
        except EvaluationError:
            candidates: List[Term] = list(initiations)
        else:
            if isinstance(fluent_pattern, Compound) and is_ground(fluent_pattern.args[0]):
                candidates = by_first.get(key + (fluent_pattern.args[0],), [])
            else:
                candidates = by_key.get(key, [])
        for pair in candidates:
            if unify(pattern, pair) is not None:
                terminations[pair].add(time)


def rule_firing_points(
    rule: Rule,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
    require_ground: bool = True,
) -> Iterator[Tuple[Term, int]]:
    """Yield ``(head FVP, time)`` for every satisfied body instance.

    Per Definition 2.2 the first condition is a positive ``happensAt``; each
    of its event occurrences seeds a substitution which the remaining
    conditions filter and extend. With ``require_ground=False`` the head FVP
    may retain unbound variables (universal terminations); initiations must
    always be ground.
    """
    plan = compile_rule(rule)

    # The atemporal prefix does not depend on the seed event: evaluate it
    # once per window and share its solutions across every seed.
    prefix: List[Substitution] = [Substitution()]
    for literal in plan.hoisted:
        prefix = [ext for s in prefix for ext in kb.query(literal.term, s)]
        if not prefix:
            return

    head_pair, head_time = plan.head_pair, plan.head_time
    for final in _body_solutions(plan, prefix, stream, kb, store, window_start, window_end):
        pair = final.resolve(head_pair)
        if require_ground and not is_ground(pair):
            raise EvaluationError(
                "head FVP %r not ground after body evaluation of %r"
                % (pair, rule.head)
            )
        time_term = final.resolve(head_time)
        if not isinstance(time_term, Constant) or not time_term.is_number:
            raise EvaluationError(
                "head time-point is not bound in %r" % (rule.head,)
            )
        yield pair, int(time_term.value)


def _body_solutions(
    plan: CompiledRule,
    prefix: List[Substitution],
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
) -> Iterator[Substitution]:
    """Every substitution satisfying seed and body, events ascending.

    A fast-seeded plan first tries the vectorised seed filter
    (:func:`_vector_candidates`); what it cannot evaluate exactly takes the
    per-event loop. ``kernel.rule_filter.columnar`` / ``.fallback`` count
    which of the two ran.
    """
    fast = plan.seed_args is not None
    single_prefix = len(prefix) == 1

    if fast:
        candidates = _vector_candidates(plan, prefix, stream, window_start, window_end)
        if candidates is not None:
            telemetry.count("kernel.rule_filter.columnar")
            # The body is comparisons only, so a candidate's seed
            # substitution is already its solution.
            for event, p in candidates:
                merged = dict(p._bindings)
                if plan.seed_args:
                    merged.update(zip(plan.seed_args, event.term.args))
                merged[plan.seed_time_var] = intern_constant(event.time)
                yield Substitution._wrap(merged)
            return
        telemetry.count("kernel.rule_filter.fallback")

    for event in stream.events_in_window(
        plan.seed_key[0], plan.seed_key[1], window_start, window_end
    ):
        time_const = intern_constant(event.time)
        seeds: List[Substitution] = []
        if fast:
            # Distinct fresh variables: ground the seed by dict build. The
            # stream index guarantees the functor/arity matches.
            if plan.seed_args:
                base = dict(zip(plan.seed_args, event.term.args))
            else:
                base = {}
            base[plan.seed_time_var] = time_const
            for p in prefix:
                bindings = p._bindings
                if bindings:
                    merged = dict(bindings)
                    merged.update(base)
                elif single_prefix:
                    merged = base
                else:
                    merged = dict(base)
                seeds.append(Substitution._wrap(merged))
        else:
            for p in prefix:
                subst = unify(plan.seed_event, event.term, p)
                if subst is None:
                    continue
                subst = unify(plan.seed_time, time_const, subst)
                if subst is not None:
                    seeds.append(subst)
        for subst in seeds:
            yield from _satisfy(
                plan.body, subst, stream, kb, store, window_start, window_end
            )


#: Marks a comparison side the vector filter cannot evaluate exactly —
#: unbound or non-numeric variables, or numbers float64 does not compare
#: exactly (:func:`repro.rtec.stream.float64_exact`).
_FALLBACK = object()

#: Elementwise comparator semantics identical to ``builtins._COMPARATORS``:
#: ``math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)`` is ``|a - b| <= 1e-9``
#: computed in float64, which is exactly what the array expression does.
_VECTOR_COMPARATORS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: abs(a - b) <= 1e-9,
    "=\\=": lambda a, b: abs(a - b) > 1e-9,
}


def _vector_candidates(plan, prefix, stream, window_start, window_end):
    """The seed events passing the body's comparisons, as a batch mask.

    Applies when the plan is vector-filterable (see
    :func:`repro.rtec.compile.vector_filter`) and every comparison side
    resolves to a float64-exact numeric column or scalar. Returns an
    iterable of ``(event, prefix substitution)`` pairs in the order the
    per-event path would produce them (events ascending, prefix solutions
    in order), an empty tuple when nothing can fire, or ``None`` to fall
    back to the per-event path, which then raises whatever error the
    comparison raises.
    """
    filters = vector_filter(plan)
    if filters is None:
        return None
    info = stream.columns(plan.seed_key[0], plan.seed_key[1])
    if info is None:
        return ()
    bucket, times, np_times, value_columns = info
    lo = bisect_right(times, window_start)
    hi = bisect_right(times, window_end)
    if lo >= hi:
        return ()
    column_of = {var: index for index, var in enumerate(plan.seed_args)}
    sliced: Dict[object, object] = {}

    def side_value(term, subst):
        if isinstance(term, Constant):
            value = term.value
        else:
            position = column_of.get(term)
            if position is not None:
                column = value_columns[position]
                if column is None:
                    return _FALLBACK
                array = sliced.get(position)
                if array is None:
                    array = column[lo:hi]
                    sliced[position] = array
                return array
            if term == plan.seed_time_var:
                if np_times is None:
                    return _FALLBACK
                array = sliced.get("time")
                if array is None:
                    array = np_times[lo:hi]
                    sliced["time"] = array
                return array
            resolved = subst.resolve(term)
            if not isinstance(resolved, Constant):
                return _FALLBACK
            value = resolved.value
        return value if float64_exact(value) else _FALLBACK

    per_prefix = []
    for p in prefix:
        mask = None
        for literal in filters:
            comparator = _VECTOR_COMPARATORS.get(literal.term.functor)
            if comparator is None:
                return None
            left = side_value(literal.term.args[0], p)
            if left is _FALLBACK:
                return None
            right = side_value(literal.term.args[1], p)
            if right is _FALLBACK:
                return None
            satisfied = comparator(left, right)
            if literal.negated:
                satisfied = (
                    (not satisfied) if isinstance(satisfied, bool) else ~satisfied
                )
            mask = satisfied if mask is None else mask & satisfied
        per_prefix.append((p, mask))

    # Candidate indices: the union of the per-prefix masks, iterated
    # event-major so yields interleave exactly like the per-event path.
    all_pass = False
    union_mask = None
    for _p, mask in per_prefix:
        if isinstance(mask, bool):
            if mask:
                all_pass = True
        else:
            union_mask = mask if union_mask is None else union_mask | mask
    if all_pass:
        indices = range(hi - lo)
    elif union_mask is not None:
        indices = union_mask.nonzero()[0]
    else:
        return ()

    def emit():
        for i in indices:
            event = bucket[lo + int(i)]
            for p, mask in per_prefix:
                if mask if isinstance(mask, bool) else mask[i]:
                    yield event, p

    return emit()


def _satisfy(
    literals: Tuple[CompiledLiteral, ...],
    subst: Substitution,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
) -> Iterator[Substitution]:
    """Depth-first evaluation of the remaining body conditions."""
    if not literals:
        yield subst
        return
    compiled, rest = literals[0], literals[1:]
    for extended in _satisfy_one(compiled, subst, stream, kb, store, window_start, window_end):
        yield from _satisfy(rest, extended, stream, kb, store, window_start, window_end)


def _condition_class(compiled: CompiledLiteral, subst: Substitution) -> str:
    """The measured cost class of one condition at evaluation time.

    Mirrors :func:`repro.analysis.costmodel.condition_class` — the
    holdsAt ground/enumerating split is decided on the actual
    substitution, which is exactly the boundness the static analysis
    approximates.
    """
    tag = compiled.tag
    literal = compiled.literal
    if tag == COMPARE:
        return "compare"
    if tag == HAPPENS:
        return "happensat.neg" if literal.negated else "happensat"
    if tag == HOLDS:
        if is_ground(subst.resolve(literal.term.args[0])):  # type: ignore[union-attr]
            return "holdsat.ground"
        return "holdsat.enum"
    return "background.neg" if literal.negated else "background"


def _satisfy_one(
    compiled: CompiledLiteral,
    subst: Substitution,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
) -> Iterator[Substitution]:
    if telemetry.is_enabled():
        # Condition-class selectivity counters feed the measured cost
        # model (repro.analysis.costmodel): attempts vs yielded
        # substitutions per class, attributed to the enclosing rtec.rule
        # span. Only ever active under an installed tracer.
        cls = _condition_class(compiled, subst)
        telemetry.count("cond.%s.eval" % cls)
        solutions = 0
        for extended in _satisfy_one_inner(
            compiled, subst, stream, kb, store, window_start, window_end
        ):
            solutions += 1
            yield extended
        if solutions:
            telemetry.count("cond.%s.sol" % cls, solutions)
        return
    yield from _satisfy_one_inner(
        compiled, subst, stream, kb, store, window_start, window_end
    )


def _satisfy_one_inner(
    compiled: CompiledLiteral,
    subst: Substitution,
    stream: EventStream,
    kb: KnowledgeBase,
    store: FluentStore,
    window_start: int,
    window_end: int,
) -> Iterator[Substitution]:
    tag = compiled.tag
    if tag == HAPPENS:
        yield from _satisfy_happens_at(compiled, subst, stream, window_start, window_end)
    elif tag == HOLDS:
        yield from _satisfy_holds_at(compiled, subst, store)
    elif tag == COMPARE:
        literal = compiled.literal
        try:
            satisfied = evaluate_comparison(literal.term, subst)
        except EvaluationError as exc:
            raise exc.with_context(condition=literal.term) from exc
        if literal.negated:
            if not satisfied:
                yield subst
        elif satisfied:
            yield subst
    else:
        # Atemporal background predicate.
        literal = compiled.literal
        if literal.negated:
            if not kb.holds(literal.term, subst):
                yield subst
        else:
            yield from kb.query(literal.term, subst)


def _satisfy_happens_at(
    compiled: CompiledLiteral,
    subst: Substitution,
    stream: EventStream,
    window_start: int,
    window_end: int,
) -> Iterator[Substitution]:
    literal = compiled.literal
    event_pattern, time_pattern = literal.term.args  # type: ignore[union-attr]
    key = compiled.key
    if key is None:
        key = _pattern_key(subst.resolve(event_pattern))
    first = None
    if isinstance(event_pattern, Compound):
        first_arg = subst.resolve(event_pattern.args[0])
        if is_ground(first_arg):
            first = first_arg
    time_term = subst.resolve(time_pattern)
    if isinstance(time_term, Constant) and time_term.is_number:
        candidates = stream.events_at(key[0], key[1], int(time_term.value), first)
    else:
        candidates = stream.events_in_window(key[0], key[1], window_start, window_end, first)
    if literal.negated:
        for event in candidates:
            if (
                unify(event_pattern, event.term, subst) is not None
                and unify(time_pattern, intern_constant(event.time), subst) is not None
            ):
                return
        yield subst
        return
    for event in candidates:
        extended = unify(event_pattern, event.term, subst)
        if extended is None:
            continue
        extended = unify(time_pattern, intern_constant(event.time), extended)
        if extended is not None:
            yield extended


def _satisfy_holds_at(
    compiled: CompiledLiteral, subst: Substitution, store: FluentStore
) -> Iterator[Substitution]:
    literal = compiled.literal
    pair_pattern = subst.resolve(literal.term.args[0])  # type: ignore[union-attr]
    time_term = subst.resolve(literal.term.args[1])  # type: ignore[union-attr]
    if not (isinstance(time_term, Constant) and time_term.is_number):
        raise EvaluationError("holdsAt time-point must be bound: %r" % (literal.term,))
    if not is_fvp(pair_pattern):
        raise EvaluationError("holdsAt requires an FVP argument: %r" % (literal.term,))
    time = int(time_term.value)
    if is_ground(pair_pattern):
        holds = store.holds_at(pair_pattern, time)
        if literal.negated:
            if not holds:
                yield subst
        elif holds:
            yield subst
        return
    if literal.negated:
        raise EvaluationError(
            "negated holdsAt requires ground arguments: %r" % (literal.term,)
        )
    assert isinstance(pair_pattern, Compound)
    key = compiled.key
    if key is None:
        key = _pattern_key(pair_pattern.args[0])
    for pair, intervals in store.instances(key):
        if not intervals.holds_at(time):
            continue
        extended = unify(pair_pattern, pair, subst)
        if extended is not None:
            yield extended
