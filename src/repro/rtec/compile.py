"""RTEC's compile stage: rules become slot programs.

RTEC does not interpret an event description at run time; it compiles it
once into a form built for window-by-window reasoning. This module is that
stage. Every variable of a rule gets an integer *slot* in a flat list, the
*frame*; every body condition is compiled once into a closure over slots —
seed binding, background lookup through the first-argument index, arithmetic
and comparison on raw numbers, ground and enumerating ``holdsAt``, positive
and negated ``happensAt``, head construction — and the closures are chained
in body order, each calling the next once per solution. No substitution is
built, resolved or unified per event.

That works because everything a condition is matched against is ground
(events, knowledge-base facts and stored FVPs all enforce it): a positive
match binds *all* variables of its pattern, a negated condition or a
comparison binds none, so which slots are bound when a condition runs is
decided at compile time (:class:`Scope`). Matching a bound slot against a
ground term is ``unify`` of the two; an error the interpreter raised on
reaching a condition with a solution is raised by that condition's closure
at the same point, with the same text.

A ``happensAt``-seeded rule compiles to a :class:`CompiledRule`; ``holdsFor``
rules are compiled by :mod:`repro.rtec.static` from the same pieces.
Programs are closures, hence unpicklable: they live in a side table keyed
by the owning fluent definition (:func:`program_for`) and die with it —
never on a rule, a definition or a description, all of which must stay
picklable and copyable.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.logic.parser import Literal, Rule
from repro.logic.terms import (
    Compound,
    Constant,
    Term,
    Variable,
    is_fvp,
    make_compound,
    term_variables,
)
from repro.logic.unification import Substitution
from repro.rtec.builtins import (
    COMPARATORS,
    EVALUABLE_FUNCTORS,
    apply_functor,
    evaluate_arithmetic,
    is_comparison,
)
from repro.rtec.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rtec.description import EventDescription

__all__ = [
    "CompiledRule",
    "Scope",
    "compile_rule",
    "pattern_key",
    "precompile_description",
    "program_for",
    "rule_shape",
]

#: Frame layout: the window's context first, the rule's variables after.
STREAM, KB, STORE, WINDOW_START, WINDOW_END, REQUIRE_GROUND, AUX, OUT, FIRST_SLOT = range(9)

Frame = list
Step = Callable[[Frame], None]
#: A compiled condition: given the next step, the step that runs it.
StepMaker = Callable[[Step], Step]

_EMPTY = Substitution()


class Scope:
    """What is known at compile time about a rule's frame: each variable's
    slot, the variables ``bound`` at the condition being compiled and, of
    those, the ``ints`` whose slot holds a bare time-point instead of a term.
    An interval-list variable ``I`` is keyed ``(I,)``: interval lists are not
    terms, and the same name may be (mis)used as both."""

    def __init__(self, slots: Optional[dict] = None, bound=(), ints=()) -> None:
        self.slots: dict = {} if slots is None else slots
        self.bound = set(bound)
        self.ints = set(ints)

    def slot(self, var) -> int:
        return self.slots.setdefault(var, FIRST_SLOT + len(self.slots))

    def fork(self) -> "Scope":
        """Same frame, independent bindings (negation, alternative seeds)."""
        return Scope(self.slots, self.bound, self.ints)

    def binds(self, term: Term) -> bool:
        """Whether every variable of ``term`` is bound: it is ground at run time."""
        return term.ground or all(v in self.bound for v in term_variables(term))


def pattern_key(term: Term) -> Tuple[str, int]:
    """(functor, arity) of an event or fluent pattern."""
    if isinstance(term, Compound):
        return term.functor, term.arity
    if isinstance(term, Constant) and isinstance(term.value, str):
        return term.value, 0
    raise EvaluationError("cannot determine functor of pattern %r" % (term,))


def _same(left, right) -> bool:
    """:func:`~repro.logic.unification.unify` of two ground terms."""
    if left is right:
        return True
    if left.__class__ is Constant:
        if right.__class__ is not Constant:
            return False
        a, b = left.value, right.value
        return a == b or (left.is_number and right.is_number and float(a) == float(b))
    return (
        left.__class__ is Compound
        and right.__class__ is Compound
        and left.functor == right.functor
        and len(left.args) == len(right.args)
        and all(map(_same, left.args, right.args))
    )


#: Entries one build site remembers before it forgets them all.
_BUILD_MEMO_LIMIT = 4096


def build(term: Term, scope: Scope) -> Callable[[Frame], Term]:
    """frame -> ``term`` with every bound variable replaced by its slot's value,
    generated as one flat function — ``C('=', (C('speed', (f[9],), True), k2),
    True)`` — not a closure per subterm: a head is built per firing, and calls
    between closures would cost more than the terms.

    A compound that is ground at run time is built once per identity of the
    slot values it reads: a memo keyed by their ``id`` hands back the same
    object, so a store keyed by FVPs hashes nothing new and compares by
    ``is``. Identities, not values: ``Constant(2) == Constant(2.0)``, but a
    firing that bound ``2.0`` must render ``2.0``. The built term holds every
    keyed object (an ``int`` slot inside its ``K``), so no id is reused while
    its entry exists. Threads sharing a program make single dict operations."""
    names: Dict[str, object] = {"C": make_compound, "K": Constant, "L": _BUILD_MEMO_LIMIT}
    lines: List[str] = []

    def source(term: Term, memoise: bool) -> str:
        if isinstance(term, Variable) and term in scope.bound:
            slot = scope.slots[term]
            return "K(f[%d])" % slot if term in scope.ints else "f[%d]" % slot
        if isinstance(term, Compound) and any(v in scope.bound for v in term_variables(term)):
            ground = scope.binds(term)
            parts = "".join(source(arg, memoise and not ground) + ", " for arg in term.args)
            made = "C(%r, (%s), %r)" % (term.functor, parts, ground)
            if not (memoise and ground):
                return made
            n = len(lines)
            names["m%d" % n] = {}
            ids = ["id(f[%d])" % scope.slots[v] for v in term_variables(term)]
            key = ids[0] if len(ids) == 1 else "(%s)" % ", ".join(ids)
            lines.append(
                "    n{0} = {1}\n    t{0} = m{0}.get(n{0})\n    if t{0} is None:\n"
                "        if len(m{0}) >= L: m{0}.clear()\n"
                "        t{0} = m{0}[n{0}] = {2}\n".format(n, key, made)
            )
            return "t%d" % n
        names["k%d" % len(names)] = term
        return "k%d" % (len(names) - 1)

    result = source(term, True)
    exec("def built(f):\n%s    return %s" % ("".join(lines), result), names)
    return names["built"]  # type: ignore[return-value]


def matcher(pattern: Term, scope: Scope) -> Callable[[Frame, Term], bool]:
    """``pattern`` against a ground term: unbound variables take their value
    (and are bound from here on), everything else compares as ``unify``."""
    if isinstance(pattern, Variable):
        slot = scope.slot(pattern)
        if pattern in scope.ints:
            return lambda f, term: _same(Constant(f[slot]), term)
        if pattern in scope.bound:
            return lambda f, term: f[slot] is term or _same(f[slot], term)
        scope.bound.add(pattern)

        def bind(f, term):
            f[slot] = term
            return True
        return bind
    if not isinstance(pattern, Compound) or pattern.ground:
        return lambda f, term: _same(pattern, term)
    functor, arity = pattern.functor, len(pattern.args)
    parts = tuple(matcher(arg, scope) for arg in pattern.args)

    def match(f, term):
        if term.__class__ is not Compound or term.functor != functor or len(term.args) != arity:
            return False
        for part, arg in zip(parts, term.args):
            if not part(f, arg):
                return False
        return True
    return match


def occurrence(event_pattern: Term, time_pattern: Term, scope: Scope):
    """``happensAt(event_pattern, time_pattern)`` against one event. A time
    variable first bound here holds the bare ``int``; one bound to an ``int``
    before needs no check, its candidates were selected at that time-point."""
    match_event = matcher(event_pattern, scope)
    if time_pattern in scope.ints:
        return lambda f, event: match_event(f, event.term)
    if isinstance(time_pattern, Variable) and time_pattern not in scope.bound:
        slot = scope.slot(time_pattern)
        scope.bound.add(time_pattern)
        scope.ints.add(time_pattern)

        def match(f, event):
            if match_event(f, event.term):
                f[slot] = event.time
                return True
            return False
        return match
    match_time = matcher(time_pattern, scope)
    return lambda f, event: match_event(f, event.term) and match_time(f, Constant(event.time))


def key_reader(pattern: Term, scope: Scope) -> Callable[[Frame], Tuple[str, int]]:
    """frame -> (functor, arity) of an event or fluent pattern; a pattern that
    is a variable is read (or found unbound) when the condition runs."""
    try:
        key = pattern_key(pattern)
        return lambda f: key
    except EvaluationError:
        resolved = build(pattern, scope)
        return lambda f: pattern_key(resolved(f))


def time_reader(term: Term, scope: Scope, message: Optional[str] = None) -> Callable[[Frame], int]:
    """frame -> the time-point ``term`` denotes. When the condition runs and it
    denotes none: :class:`EvaluationError` (``message``), or ``None`` without one."""
    missing = failing(message) if message is not None else (lambda f: None)
    if isinstance(term, Variable) and term in scope.bound:
        slot = scope.slots[term]
        if term in scope.ints:
            return lambda f: f[slot]

        def read(f):
            value = f[slot]
            if value.__class__ is Constant and value.is_number:
                return int(value.value)
            return missing(f)
        return read
    if isinstance(term, Constant) and term.is_number:
        point = int(term.value)
        return lambda f: point
    return missing


def failing(message: str, condition: Optional[Term] = None):
    def fail(f):
        raise EvaluationError(message, condition=condition)
    return fail


def guard(compute, condition: Term):
    """``compute`` with the offending condition attached to what it raises."""
    def guarded(f):
        try:
            return compute(f)
        except EvaluationError as exc:
            raise exc.with_context(condition=condition) from exc
    return guarded


def lookup(candidates, match, negated: bool = False) -> StepMaker:
    """Continue once per candidate that matches — negated: once if none does."""
    def make(nxt):
        def step(f):
            for item in candidates(f):
                if match(f, item):
                    if negated:
                        return
                    nxt(f)
            if negated:
                nxt(f)
        return step

    return make


def _truth(f, holds) -> bool:
    """The matcher of a ground condition, whose one candidate is its truth."""
    return holds


def background(literal: Literal, scope: Scope) -> StepMaker:
    """An atemporal condition, as :meth:`KnowledgeBase.query` answers it."""
    term, negated = literal.term, literal.negated
    if scope.binds(term):
        goal = build(term, scope)
        return lookup(lambda f: (goal(f) in f[KB],), _truth, negated)
    try:
        key = pattern_key(term)
    except EvaluationError:  # an unbound variable as a goal matches no fact
        return lookup(lambda f: (), None, negated)
    first = None
    if isinstance(term, Compound) and scope.binds(term.args[0]):
        first = build(term.args[0], scope)

    def candidates(f):
        return f[KB].candidates(key, first(f) if first is not None else None)

    return lookup(candidates, matcher(term, scope.fork() if negated else scope), negated)


def _number(term: Term, scope: Scope) -> Callable[[Frame], float]:
    """frame -> the number ``term`` evaluates to, on raw ``int``/``float``."""
    if isinstance(term, Variable) and term in scope.bound:
        slot = scope.slots[term]
        if term in scope.ints:
            return lambda f: f[slot]

        def read(f):
            value = f[slot]
            if value.__class__ is Constant:
                number = value.value
                if number.__class__ is float or number.__class__ is int:
                    return number
            return evaluate_arithmetic(value, _EMPTY)  # an expression, or an error
        return read
    if isinstance(term, Constant) and term.is_number:
        number = term.value
        return lambda f: number
    if not isinstance(term, Compound) or term.functor not in EVALUABLE_FUNCTORS:
        # Unbound variable, atom or unknown functor: the interpreter's error.
        return lambda f: evaluate_arithmetic(term, _EMPTY)
    fn, operands = EVALUABLE_FUNCTORS[term.functor], [_number(arg, scope) for arg in term.args]
    return lambda f: apply_functor(fn, term, [operand(f) for operand in operands])


def _comparison(literal: Literal, scope: Scope) -> StepMaker:
    term, negated = literal.term, literal.negated
    assert isinstance(term, Compound)
    compare = COMPARATORS[term.functor]
    left, right = (_number(side, scope) for side in term.args)

    def make(nxt):
        def step(f):
            try:
                holds = compare(left(f), right(f))
            except EvaluationError as exc:
                raise exc.with_context(condition=term) from exc
            if holds != negated:
                nxt(f)
        return step

    return make


def _happens_at(literal: Literal, scope: Scope) -> StepMaker:
    """A body ``happensAt``: a stream join through the entity and time indexes."""
    event_pattern, time_pattern = literal.term.args  # type: ignore[union-attr]
    key_of = key_reader(event_pattern, scope)
    first = None
    if isinstance(event_pattern, Compound) and scope.binds(event_pattern.args[0]):
        first = build(event_pattern.args[0], scope)
    # A time bound to a number selects that time-point's events; anything
    # else scans the window (and an atom then matches no occurrence time).
    exact = time_reader(time_pattern, scope)

    def candidates(f):
        functor, arity = key_of(f)
        entity = first(f) if first is not None else None
        point = exact(f)
        if point is not None:
            return f[STREAM].events_at(functor, arity, point, entity)
        return f[STREAM].events_in_window(functor, arity, f[WINDOW_START], f[WINDOW_END], entity)

    inner = scope.fork() if literal.negated else scope
    return lookup(candidates, occurrence(event_pattern, time_pattern, inner), literal.negated)


def _holds_at(literal: Literal, scope: Scope) -> Tuple[str, StepMaker]:
    """``holdsAt``: one store lookup when the FVP is ground at run time, else
    an enumeration of the schema's stored instances holding at the time."""
    term, negated = literal.term, literal.negated
    assert isinstance(term, Compound)
    pair_pattern, time_pattern = term.args
    time = time_reader(time_pattern, scope, "holdsAt time-point must be bound: %r" % (term,))
    not_fvp = "holdsAt requires an FVP argument: %r" % (term,)
    if scope.binds(pair_pattern):
        pair_of = build(pair_pattern, scope)
        checked = is_fvp(pair_pattern)

        def holds(f):
            at = time(f)
            pair = pair_of(f)
            if not checked and not is_fvp(pair):
                raise EvaluationError(not_fvp)
            return f[STORE].holds_at(pair, at)

        return "holdsat.ground", lookup(lambda f: (holds(f),), _truth, negated)
    if not is_fvp(pair_pattern):
        key_of = failing(not_fvp)
    elif negated:
        key_of = failing("negated holdsAt requires ground arguments: %r" % (term,))
    else:
        key_of = key_reader(pair_pattern.args[0], scope)  # type: ignore[union-attr]

    def candidates(f):
        at = time(f)
        instances = f[STORE].instances(key_of(f))
        return [pair for pair, intervals in instances if intervals.holds_at(at)]

    return "holdsat.enum", lookup(candidates, matcher(pair_pattern, scope))


def _kind(term: Term) -> str:
    if isinstance(term, Compound) and term.arity == 2:
        if term.functor in ("happensAt", "holdsAt"):
            return term.functor.lower()
        if is_comparison(term):
            return "compare"
    return "background"


def _condition(literal: Literal, scope: Scope) -> Tuple[str, StepMaker]:
    """(measured cost class, step maker) of one simple-rule body condition."""
    kind = _kind(literal.term)
    if kind == "holdsat":
        return _holds_at(literal, scope)
    if kind == "compare":
        return kind, _comparison(literal, scope)
    make = _happens_at(literal, scope) if kind == "happensat" else background(literal, scope)
    return kind + (".neg" if literal.negated else ""), make


def _counted(cls: str, make: StepMaker, nxt: Step, tally: int) -> Step:
    """``make(nxt)`` reporting attempts and solutions of its condition class to
    the enclosing ``rtec.rule`` span (``repro profile`` prints them); the
    running count lives in frame slot ``tally``, so threads running one program do not share it."""

    def solution(f):
        f[tally] += 1
        nxt(f)

    step = make(solution)

    def counted(f):
        telemetry.count("cond.%s.eval" % cls)
        f[tally] = 0
        step(f)
        if f[tally]:
            telemetry.count("cond.%s.sol" % cls, f[tally])
    return counted


def rule_shape(rule: Rule) -> Tuple[Term, Term, Term, Term]:
    """(head FVP, head time, seed event, seed time) of an ``initiatedAt``/
    ``terminatedAt`` rule; :class:`EvaluationError` on a malformed shape (no
    body, first condition not a positive ``happensAt``, head without an FVP)."""
    if not rule.body:
        raise EvaluationError("rule %r has an empty body" % (rule.head,))
    first = rule.body[0]
    if first.negated or _kind(first.term) != "happensat":
        raise EvaluationError(
            "first condition of %r must be a positive happensAt" % (rule.head,)
        )
    head = rule.head
    if not (isinstance(head, Compound) and head.arity == 2 and is_fvp(head.args[0])):
        raise EvaluationError("rule head without an FVP: %r" % (head,))
    pattern_key(first.term.args[0])  # a seed without a functor: its error
    # Binding-order dataflow: a body guaranteed to feed an unbound variable
    # into a builtin (or a head that can never become ground) gets the analyser's
    # diagnostic here, not a crash mid-window. Lazy import: analysis uses rtec.
    from repro.analysis.binding import check_simple_rule

    problems = check_simple_rule(rule)
    if problems:
        raise EvaluationError(problems[0].message, rule_head=rule.head)
    return head.args + first.term.args  # type: ignore[union-attr]


class CompiledRule:
    """The program of one ``happensAt``-seeded rule.

    The *hoisted atemporal prefix* — positive background conditions no stream
    condition can bind, e.g. ``thresholds(movingMin, Min)`` — runs once per
    window and yields one frame per solution, shared by all seeds; then the
    seed binder and the body chain ending in the head builder.
    """

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.head_pair, self.head_time, seed_event, seed_time = rule_shape(rule)
        self.seed_event, self.seed_time = seed_event, seed_time
        self.seed_key = pattern_key(seed_event)

        # Fast seed: ``f(V1, ..., Vn)`` (or an atom) with distinct variables and
        # a fresh time variable binds by slice assignment into adjacent slots.
        scope = Scope()
        self.seed_args: Optional[Tuple[Variable, ...]] = None
        arguments = seed_event.args if isinstance(seed_event, Compound) else ()
        if (
            isinstance(seed_time, Variable)
            and all(isinstance(a, Variable) for a in arguments)
            and len(set(arguments + (seed_time,))) == len(arguments) + 1
        ):
            self.seed_args = arguments  # type: ignore[assignment]
            for variable in arguments:
                scope.slot(variable)

        # Variables a stream condition can bind vary per seed event, so a
        # condition touching them can never be hoisted out of the seed loop.
        stream_vars = set(term_variables(rule.body[0].term)) | set(term_variables(self.head_time))
        for literal in rule.body[1:]:
            if _kind(literal.term) in ("happensat", "holdsat"):
                stream_vars.update(term_variables(literal.term))
        hoisted, body = [], []
        blocked_vars = set()  # variables of earlier non-hoisted conditions
        for literal in rule.body[1:]:
            lit_vars = set(term_variables(literal.term))
            if (
                _kind(literal.term) == "background"
                and not literal.negated
                and not lit_vars & (stream_vars | blocked_vars)
            ):
                hoisted.append(literal)
            else:
                body.append(literal)
                blocked_vars |= lit_vars

        # Once per window: one frame copy per solution of the hoisted prefix.
        self._prefix: Step = lambda f: f[AUX].append(f[:])
        for make in reversed([background(literal, scope) for literal in hoisted]):
            self._prefix = make(self._prefix)

        self.bind_seed = self._seed_binder(scope)
        self._steps = [_condition(literal, scope) for literal in body]
        self.emit = self._head_emitter(scope)
        self._tallies = FIRST_SLOT + len(scope.slots)
        self._chains: Dict[bool, Step] = {}

    def _seed_binder(self, scope: Scope) -> Callable[[Frame, object], bool]:
        if not self.seed_args:
            return occurrence(self.seed_event, self.seed_time, scope)
        low, high = FIRST_SLOT, FIRST_SLOT + len(self.seed_args)
        time_slot = scope.slot(self.seed_time)
        scope.bound.update(self.seed_args + (self.seed_time,))
        scope.ints.add(self.seed_time)

        def bind(f, event):
            f[low:high] = event.term.args
            f[time_slot] = event.time
            return True
        return bind

    def _head_emitter(self, scope: Scope) -> Step:
        head = self.rule.head
        pair_of = build(self.head_pair, scope)
        grounded = scope.binds(self.head_pair)
        time = time_reader(
            self.head_time, scope, "head time-point is not bound in %r" % (head,)
        )

        def emit(f):
            pair = pair_of(f)
            if not grounded and f[REQUIRE_GROUND]:
                raise EvaluationError(
                    "head FVP %r not ground after body evaluation of %r" % (pair, head)
                )
            f[OUT].append((pair, time(f)))
        return emit

    def chain(self, traced: bool) -> Step:
        """The body conditions chained into the head; ``traced`` wraps each in
        its condition-class counter — the same steps, not a second evaluator."""
        chain = self._chains.get(traced)
        if chain is None:
            chain = self.emit
            for index, (cls, make) in reversed(list(enumerate(self._steps))):
                chain = _counted(cls, make, chain, self._tallies + index) if traced else make(chain)
            self._chains[traced] = chain
        return chain

    def frames(self, stream, kb, store, start, end, require_ground, out) -> List[Frame]:
        """One frame per solution of the hoisted prefix, the window's context first."""
        found: List[Frame] = []
        context: Frame = [stream, kb, store, start, end, require_ground, found, out]
        self._prefix(context + [None] * (self._tallies + len(self._steps) - FIRST_SLOT))
        for frame in found:
            frame[AUX] = None  # no cycle through the list that holds it
        return found


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile one ``initiatedAt``/``terminatedAt`` rule. Raises what
    :func:`rule_shape` raises; a condition that can only fail once reached
    becomes a step that raises there."""
    return CompiledRule(rule)


#: id(fluent definition) -> {id(rule): program}; dropped with its definition.
#: A program keeps its rule alive, so no id is reused while its entry exists.
_PROGRAMS: Dict[int, Dict[int, object]] = {}


def program_for(owner: object, rule: Rule, compiler: Callable[[Rule], object]):
    """The program of ``rule``, compiled once per owning fluent definition:
    looked up by identity (no rule is hashed per window) and per rule, so one
    appended to a live definition by a repair is compiled when first met. A
    rule the compiler rejects is not cached: it raises again next window."""
    programs = _PROGRAMS.get(id(owner))
    if programs is None:
        programs = _PROGRAMS[id(owner)] = {}
        weakref.finalize(owner, _PROGRAMS.pop, id(owner), None)
    program = programs.get(id(rule))
    if program is None:
        program = programs[id(rule)] = compiler(rule)
    return program


def precompile_description(description: "EventDescription") -> int:
    """Compile every simple-fluent rule ahead of the first window; a rule the
    compiler rejects is skipped and raises when its fluent is evaluated.
    Returns the number of programs compiled."""
    compiled = 0
    for definition in description.simple_fluents.values():
        for rule in definition.initiated_rules + definition.terminated_rules:
            try:
                program_for(definition, rule, compile_rule)
            except EvaluationError:
                continue
            compiled += 1
    return compiled
