"""RTEC's compile stage: every rule becomes one generated Python function.

RTEC does not interpret an event description at run time; it compiles it
once into a form built for window-by-window reasoning. This module is that
stage. A rule is written out as Python source and compiled: each variable of
the rule is a local of the function, and each body condition is inlined as
nested ``for``/``if`` statements — the seed loop, background lookup through
the first-argument index with every argument matched in place, arithmetic
and comparison on raw numbers, ground and enumerating ``holdsAt``, positive
and negated ``happensAt``, head construction. No substitution is built,
resolved or unified per event, and no call is made from one condition to the
next.

That works because everything a condition is matched against is ground
(events, knowledge-base facts and stored FVPs all enforce it): a positive
match binds *all* variables of its pattern, a negated condition or a
comparison binds none, so which variables are bound when a condition runs is
decided at compile time (:class:`Scope`). Matching a bound variable against a
ground term is ``unify`` of the two; an error the interpreter raised on
reaching a condition with a solution is raised by that condition's
statements at the same point, with the same text.

A ``happensAt``-seeded rule compiles to a :class:`CompiledRule`; ``holdsFor``
rules are generated by :mod:`repro.rtec.static` with the same :class:`Code`
writer. A program's traced variant is the same source plus its counters as
statements. Each distinct source text is compiled once per process (a
bounded table of code objects), so descriptions that restate the same rules
share the compiler's work. Programs are functions, hence unpicklable: they
live in a side table keyed by the owning fluent definition
(:func:`program_for`) and die with it — never on a rule, a definition or a
description, all of which must stay picklable and copyable.
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
    "Code",
    "CompiledRule",
    "Scope",
    "compile_rule",
    "pattern_key",
    "precompile_description",
    "program_for",
    "rule_shape",
]

_EMPTY = Substitution()
_OPERATORS = {"<": "<", ">": ">", "=<": "<=", ">=": ">="}


class Scope:
    """What is known at compile time about a rule's variables: each one's
    slot (its local is ``v<slot>``), the variables ``bound`` at the condition
    being compiled and, of those, the ``ints`` that hold a bare time-point
    instead of a term. An interval-list variable ``I`` is keyed ``(I,)``:
    interval lists are not terms, and the same name may be (mis)used as both."""

    def __init__(self, slots: Optional[dict] = None, bound=(), ints=()) -> None:
        self.slots: dict = {} if slots is None else slots
        self.bound = set(bound)
        self.ints = set(ints)

    def slot(self, var) -> int:
        return self.slots.setdefault(var, len(self.slots))

    def fork(self) -> "Scope":
        """Same slots, independent bindings (negation, alternative seeds)."""
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
#: Distinct generated sources whose code objects are kept before all are dropped.
_CODE_LIMIT = 2048
_CODE: Dict[str, object] = {}
#: Python allows 20 nested loop/``try`` blocks and 100 indentation levels: a
#: body nested deeper than these marks continues in a function of its own.
_MAX_LOOPS, _MAX_DEPTH = 15, 60


class Code:
    """The Python source of one program, written statement by statement into
    nested blocks, and the globals it runs with: constants ``kN``, build
    memos ``mN`` and the helpers below. A variable's local is ``ref % slot``;
    ``context`` lists the parameters a continuation function takes before
    the bound variables."""

    def __init__(self, context: str, ref: str = "v%d") -> None:
        self.context, self.ref = context, ref
        self.names: Dict[str, object] = {
            "C": make_compound, "K": Constant, "CP": Compound, "E": EvaluationError,
            "L": _BUILD_MEMO_LIMIT, "same": _same, "NUM": (int, float), "EMPTY": _EMPTY,
            "arith": evaluate_arithmetic, "apply": apply_functor, "key_of": pattern_key,
            "is_fvp": is_fvp, "count": telemetry.count,
        }
        self.functions: List[List[str]] = []
        #: (function, depth, line) written after everything nested deeper
        self.pending: List[Tuple[List[str], int, str]] = []
        self.lines: List[str] = []
        self.depth = self.loops = self.memos = self.temps = 0

    def constant(self, value: object) -> str:
        name = "k%d" % len(self.names)
        self.names[name] = value
        return name

    def fresh(self, prefix: str) -> str:
        self.temps += 1
        return "%s%d" % (prefix, self.temps)

    def local(self, scope: Scope, var) -> str:
        return self.ref % scope.slot(var)

    def define(self, name: str, parameters: str) -> None:
        self.lines = ["def %s(%s):" % (name, parameters)]
        self.functions.append(self.lines)
        self.depth, self.loops = 1, 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def open(self, text: str, loop: bool = False) -> None:
        self.line(text)
        self.depth += 1
        self.loops += loop

    def later(self, text: str) -> None:
        """``text`` at the current depth, once the blocks opened after it close."""
        self.pending.append((self.lines, self.depth, text))

    def mark(self) -> tuple:
        return self.lines, self.depth, self.loops, len(self.pending)

    def close(self, mark: tuple) -> None:
        """Close every block opened since ``mark`` and write from there on."""
        self.lines, self.depth, self.loops, kept = mark
        while len(self.pending) > kept:
            lines, depth, text = self.pending.pop()
            lines.append("    " * depth + text)

    def room(self, scope: Scope) -> None:
        """Before a condition: continue in a new function when too deep."""
        if self.loops < _MAX_LOOPS and self.depth < _MAX_DEPTH:
            return
        bound = sorted(scope.slot(var) for var in scope.bound)
        parameters = ", ".join([self.context] + [self.ref % slot for slot in bound])
        name = self.fresh("c")
        self.line("%s(%s)" % (name, parameters))
        self.define(name, parameters)

    def function(self, name: str) -> Callable:
        source = "".join(line + "\n" for lines in self.functions for line in lines)
        code = _CODE.get(source)
        if code is None:
            if len(_CODE) >= _CODE_LIMIT:
                _CODE.clear()
            code = _CODE[source] = compile(source, "<rule>", "exec")
        exec(code, self.names)
        return self.names[name]  # type: ignore[return-value]


def term_source(term: Term, scope: Scope, code: Code, memoise: bool = True) -> str:
    """The expression of ``term`` with every bound variable read from its
    local — ``C('=', (C('speed', (v1,), True), k2), True)`` — not a closure
    per subterm: a head is built per firing, and calls would cost more than
    the terms.

    A compound that is ground at run time is built once per identity of the
    values it reads (the memo lines are written to ``code`` first): a memo
    keyed by their ``id`` hands back the same object, so a store keyed by
    FVPs hashes nothing new and compares by ``is``. Identities, not values:
    ``Constant(2) == Constant(2.0)``, but a firing that bound ``2.0`` must
    render ``2.0``. The built term holds every keyed object (an ``int``
    inside its ``K``), so no id is reused while its entry exists. Threads
    sharing a program make single dict operations."""
    if isinstance(term, Variable) and term in scope.bound:
        name = code.local(scope, term)
        return "K(%s)" % name if term in scope.ints else name
    if isinstance(term, Compound) and any(v in scope.bound for v in term_variables(term)):
        ground = scope.binds(term)
        parts = "".join(term_source(arg, scope, code, memoise and not ground) + ", " for arg in term.args)
        made = "C(%r, (%s), %r)" % (term.functor, parts, ground)
        if not (memoise and ground):
            return made
        memo, key, built = "m%d" % code.memos, code.fresh("i"), code.fresh("t")
        code.memos += 1
        code.names[memo] = {}
        ids = ["id(%s)" % code.local(scope, v) for v in term_variables(term)]
        code.line("%s = %s" % (key, ids[0] if len(ids) == 1 else "(%s)" % ", ".join(ids)))
        code.line("%s = %s.get(%s)" % (built, memo, key))
        code.open("if %s is None:" % built)
        code.line("if len(%s) >= L: %s.clear()" % (memo, memo))
        code.line("%s = %s[%s] = %s" % (built, memo, key, made))
        code.depth -= 1
        return built
    return code.constant(term)


def build(term: Term, scope: Scope) -> Callable[[list], Term]:
    """frame -> ``term`` with every bound variable replaced by the frame's
    value at its slot: :func:`term_source` as a function of its own."""
    code = Code("f", ref="f[%d]")
    code.define("built", "f")
    code.line("return " + term_source(term, scope, code))
    return code.function("built")  # type: ignore[return-value]


class Match:
    """What matching patterns against ground terms (Python expressions, the
    *paths*) takes, as ``unify`` takes it: the ``checks``, in order, and the
    assignments that bind variables on success. Until then a variable bound
    by an earlier pattern of the same match is read from its path."""

    def __init__(self, scope: Scope, code: Code) -> None:
        self.scope, self.code = scope, code
        self.checks: List[str] = []
        self.binds: List[str] = []
        self.paths: Dict[Variable, str] = {}

    def add(self, pattern: Term, path: str, top: bool = False) -> None:
        """Match ``pattern`` against ``path``; ``top``: an index guarantees
        that a compound ``path`` has the pattern's functor and arity."""
        scope, code = self.scope, self.code
        if isinstance(pattern, Variable):
            if pattern in self.paths:
                self._unify(self.paths[pattern], path)
            elif pattern in scope.ints:
                self.checks.append("same(K(%s), %s)" % (code.local(scope, pattern), path))
            elif pattern in scope.bound:
                self._unify(code.local(scope, pattern), path)
            else:
                scope.bound.add(pattern)
                self.paths[pattern] = path
                self.binds.append("%s = %s" % (code.local(scope, pattern), path))
            return
        if not isinstance(pattern, Compound) or pattern.ground:
            self._unify(code.constant(pattern), path)
            return
        if not top:
            self.checks.append(
                "%s.__class__ is CP and %s.functor == %r and len(%s.args) == %d"
                % (path, path, pattern.functor, path, pattern.arity)
            )
        args = pattern.args
        fresh = {a for a in args if isinstance(a, Variable) and a not in scope.bound}
        if len(fresh) == len(args):
            # ``f(V1, ..., Vn)`` of distinct unbound variables: one unpacking.
            names = [code.local(scope, a) for a in args]
            self.binds.append("%s, = %s.args" % (", ".join(names), path))
            for index, arg in enumerate(args):
                scope.bound.add(arg)
                self.paths[arg] = "%s.args[%d]" % (path, index)
            return
        for index, arg in enumerate(args):
            self.add(arg, "%s.args[%d]" % (path, index))

    def _unify(self, left: str, right: str) -> None:
        self.checks.append("(%s is %s or same(%s, %s))" % (left, right, left, right))

    def occurrence(self, event_pattern: Term, time_pattern: Term, item: str) -> None:
        """``happensAt(event_pattern, time_pattern)`` against the event
        ``item``, drawn from the pattern's functor index. A time variable
        first bound here holds the bare ``int``; one bound to an ``int``
        before needs no check, its candidates were selected at that time."""
        scope = self.scope
        self.add(event_pattern, item + ".term", top=True)
        if time_pattern in scope.ints:
            return
        if isinstance(time_pattern, Variable) and time_pattern not in scope.bound:
            scope.bound.add(time_pattern)
            scope.ints.add(time_pattern)
            self.binds.append("%s = %s.time" % (self.code.local(scope, time_pattern), item))
            return
        self.add(time_pattern, "K(%s.time)" % item)

    def enter(self) -> None:
        """The statements that follow run on a match, with its bindings."""
        if self.checks:
            self.code.open("if %s:" % " and ".join(self.checks))
        for bind in self.binds:
            self.code.line(bind)

    def loop(self, source: str, item: str, negated: bool = False, test: str = "") -> None:
        """``for item in source`` and, per matching item, the statements that
        follow — negated: those statements once, if no item matches."""
        code, depth = self.code, self.code.depth
        code.open("for %s in %s:" % (item, source), loop=True)
        if test:
            self.checks.insert(0, test)
        if not negated:
            self.enter()
            return
        if self.checks:
            code.open("if %s:" % " and ".join(self.checks))
        code.line("break")
        code.depth = depth
        code.open("else:")


def time_source(term: Term, scope: Scope, code: Code, message: str) -> str:
    """The time-point ``term`` denotes; a term that can denote none raises
    :class:`EvaluationError` (``message``) where the statements run."""
    if isinstance(term, Variable) and term in scope.bound:
        name = code.local(scope, term)
        if term in scope.ints:
            return name
        point = code.fresh("a")
        code.open("if %s.__class__ is K and %s.is_number:" % (name, name))
        code.line("%s = int(%s.value)" % (point, name))
        code.depth -= 1
        code.open("else:")
        code.line("raise E(%s)" % code.constant(message))
        code.depth -= 1
        return point
    if isinstance(term, Constant) and term.is_number:
        return code.constant(int(term.value))
    code.line("raise E(%s)" % code.constant(message))
    return "None"


def key_source(pattern: Term, scope: Scope, code: Code, condition: Optional[str] = None) -> str:
    """The (functor, arity) of an event or fluent pattern; a pattern that is a
    variable is read (or found unbound) where the statements run, its error
    located at ``condition`` when given."""
    try:
        return repr(pattern_key(pattern))
    except EvaluationError:
        key = code.fresh("y")
        read = "%s = key_of(%s)" % (key, term_source(pattern, scope, code))
        if condition is None:
            code.line(read)
        else:
            guarded(code, read, condition)
        return key


def guarded(code: Code, statement: str, condition: str) -> None:
    """``statement`` with the condition attached to what it raises."""
    depth = code.depth
    code.open("try:", loop=True)
    code.line(statement)
    code.depth, code.loops = depth, code.loops - 1
    code.open("except E as exc:")
    code.line("raise exc.with_context(condition=%s) from exc" % condition)
    code.depth = depth


def background(literal: Literal, scope: Scope, code: Code) -> None:
    """An atemporal condition, as :meth:`KnowledgeBase.query` answers it."""
    term, negated = literal.term, literal.negated
    if scope.binds(term):
        code.open("if %s %sin kb:" % (term_source(term, scope, code), "not " if negated else ""))
        return
    inner = scope.fork() if negated else scope
    match = Match(inner, code)
    try:
        key = pattern_key(term)
    except EvaluationError:  # an unbound variable as a goal matches no fact
        match.loop("()", code.fresh("x"), negated)
        return
    first = "None"
    if isinstance(term, Compound) and scope.binds(term.args[0]):
        first = term_source(term.args[0], scope, code)
    item = code.fresh("x")
    match.add(term, item, top=True)
    match.loop("kb.candidates(%r, %s)" % (key, first), item, negated)


def _number(term: Term, scope: Scope, code: Code) -> str:
    """The number ``term`` evaluates to, on raw ``int``/``float``."""
    if isinstance(term, Variable) and term in scope.bound:
        name = code.local(scope, term)
        if term in scope.ints:
            return name
        return "(%s.value if %s.__class__ is K and %s.value.__class__ in NUM else arith(%s, EMPTY))" % (
            (name,) * 4
        )
    if isinstance(term, Constant) and term.is_number:
        return code.constant(term.value)
    if not isinstance(term, Compound) or term.functor not in EVALUABLE_FUNCTORS:
        # Unbound variable, atom or unknown functor: the interpreter's error.
        return "arith(%s, EMPTY)" % code.constant(term)
    operands = ", ".join(_number(arg, scope, code) for arg in term.args)
    return "apply(%s, %s, [%s])" % (
        code.constant(EVALUABLE_FUNCTORS[term.functor]), code.constant(term), operands
    )


def _compare(literal: Literal, scope: Scope, code: Code) -> None:
    term = literal.term
    assert isinstance(term, Compound)
    left, right = (_number(side, scope, code) for side in term.args)
    operator = _OPERATORS.get(term.functor)
    if operator is None:
        test = "%s(%s, %s)" % (code.constant(COMPARATORS[term.functor]), left, right)
    else:
        test = "%s %s %s" % (left, operator, right)
    holds = code.fresh("h")
    guarded(code, "%s = %s" % (holds, test), code.constant(term))
    code.open("if %s%s:" % ("not " if literal.negated else "", holds))


def _happens_at(literal: Literal, scope: Scope, code: Code) -> None:
    """A body ``happensAt``: a stream join through the entity and time indexes."""
    event_pattern, time_pattern = literal.term.args  # type: ignore[union-attr]
    try:
        selector = "%r, %d, " % pattern_key(event_pattern)
    except EvaluationError:  # a variable: read when the condition runs
        key = code.fresh("y")
        code.line("%s = key_of(%s)" % (key, term_source(event_pattern, scope, code)))
        selector = "%s[0], %s[1], " % (key, key)
    first = "None"
    if isinstance(event_pattern, Compound) and scope.binds(event_pattern.args[0]):
        first = term_source(event_pattern.args[0], scope, code)
    # A time bound to a number selects that time-point's events; anything
    # else scans the window (and an atom then matches no occurrence time).
    source = "stream.events_in_window(%sws, we, %s)" % (selector, first)
    at = None
    if isinstance(time_pattern, Variable) and time_pattern in scope.bound:
        at = code.local(scope, time_pattern)
        if time_pattern not in scope.ints:
            value, at = at, code.fresh("a")
            code.line("%s = int(%s.value) if %s.__class__ is K and %s.is_number else None"
                      % (at, value, value, value))
            source = "(%s if %s is None else stream.events_at(%s%s, %s))" % (
                source, at, selector, at, first)
            at = None
    elif isinstance(time_pattern, Constant) and time_pattern.is_number:
        at = code.constant(int(time_pattern.value))
    if at is not None:
        source = "stream.events_at(%s%s, %s)" % (selector, at, first)
    match = Match(scope.fork() if literal.negated else scope, code)
    item = code.fresh("x")
    match.occurrence(event_pattern, time_pattern, item)
    match.loop(source, item, literal.negated)


def _holds_at(literal: Literal, scope: Scope, code: Code) -> None:
    """``holdsAt``: one store lookup when the FVP is ground at run time, else
    an enumeration of the schema's stored instances holding at the time."""
    term, negated = literal.term, literal.negated
    assert isinstance(term, Compound)
    pair_pattern, time_pattern = term.args
    at = time_source(time_pattern, scope, code, "holdsAt time-point must be bound: %r" % (term,))
    not_fvp = "holdsAt requires an FVP argument: %r" % (term,)
    if scope.binds(pair_pattern):
        pair = term_source(pair_pattern, scope, code)
        if not is_fvp(pair_pattern):
            value, pair = pair, code.fresh("p")
            code.line("%s = %s" % (pair, value))
            code.open("if not is_fvp(%s):" % pair)
            code.line("raise E(%s)" % code.constant(not_fvp))
            code.depth -= 1
        code.open("if %sstore.get(%s).holds_at(%s):" % ("not " if negated else "", pair, at))
        return
    if not is_fvp(pair_pattern):
        code.line("raise E(%s)" % code.constant(not_fvp))
        return
    if negated:
        code.line("raise E(%s)" % code.constant(
            "negated holdsAt requires ground arguments: %r" % (term,)))
        return
    key = key_source(pair_pattern.args[0], scope, code)  # type: ignore[union-attr]
    item, intervals = code.fresh("x"), code.fresh("j")
    match = Match(scope, code)
    match.add(pair_pattern, item, top=True)
    match.loop("store.instances(%s)" % key, "%s, %s" % (item, intervals),
               test="%s.holds_at(%s)" % (intervals, at))


def _kind(term: Term) -> str:
    if isinstance(term, Compound) and term.arity == 2:
        if term.functor in ("happensAt", "holdsAt"):
            return term.functor.lower()
        if is_comparison(term):
            return "compare"
    return "background"


def _condition(literal: Literal, scope: Scope, code: Code, traced: bool) -> None:
    """One simple-rule body condition; ``traced``: counting its attempts and
    solutions, under its measured cost class, to the enclosing ``rtec.rule``
    span (``repro profile`` prints them)."""
    code.room(scope)
    kind = _kind(literal.term)
    if kind == "holdsat":
        pair = literal.term.args[0]  # type: ignore[union-attr]
        cls = "holdsat.ground" if scope.binds(pair) else "holdsat.enum"
    else:
        cls = kind + (".neg" if literal.negated and kind != "compare" else "")
    tally = code.fresh("s")
    if traced:
        code.line('count("cond.%s.eval")' % cls)
        code.line("%s = 0" % tally)
        code.later('if %s: count("cond.%s.sol", %s)' % (tally, cls, tally))
    generate = {
        "holdsat": _holds_at, "compare": _compare, "happensat": _happens_at,
    }.get(kind, background)
    generate(literal, scope, code)
    if traced:
        code.line("%s += 1" % tally)


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
    """The program of one ``happensAt``-seeded rule: one generated function
    ``run(stream, kb, store, window_start, window_end, require_ground, out)``
    appending the rule's firings to ``out`` — events ascending, prefix
    solutions in order, conditions left to right.

    The *hoisted atemporal prefix* — positive background conditions no stream
    condition can bind, e.g. ``thresholds(movingMin, Min)`` — runs once per
    window and collects one tuple of bindings per solution, shared by all
    seeds; then the seed loop and, per seed and prefix solution, the body
    ending in the head's append.
    """

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.head_pair, self.head_time, self.seed_event, self.seed_time = rule_shape(rule)
        self.seed_key = pattern_key(self.seed_event)

        # Variables a stream condition can bind vary per seed event, so a
        # condition touching them can never be hoisted out of the seed loop.
        stream_vars = set(term_variables(rule.body[0].term)) | set(term_variables(self.head_time))
        for literal in rule.body[1:]:
            if _kind(literal.term) in ("happensat", "holdsat"):
                stream_vars.update(term_variables(literal.term))
        self.hoisted: List[Literal] = []
        self.body: List[Literal] = []
        blocked_vars = set()  # variables of earlier non-hoisted conditions
        for literal in rule.body[1:]:
            lit_vars = set(term_variables(literal.term))
            if (
                _kind(literal.term) == "background"
                and not literal.negated
                and not lit_vars & (stream_vars | blocked_vars)
            ):
                self.hoisted.append(literal)
            else:
                self.body.append(literal)
                blocked_vars |= lit_vars
        self._functions: Dict[bool, Callable] = {}
        self.function(False)

    def function(self, traced: bool) -> Callable:
        """The generated function; ``traced`` adds the ``cond.<class>``
        counters as statements — the same source, not a second evaluator."""
        function = self._functions.get(traced)
        if function is None:
            function = self._functions[traced] = self._generate(traced)
        return function

    def _generate(self, traced: bool) -> Callable:
        code, scope = Code("stream, kb, store, ws, we, rg, out, P"), Scope()
        code.define("run", "stream, kb, store, ws, we, rg, out")
        top = code.mark()
        code.line("P = []")
        prefix = ""
        if self.hoisted:
            # Once per window: one tuple of bindings per solution of the prefix.
            for literal in self.hoisted:
                code.room(scope)
                background(literal, scope, code)
            prefix = "".join(code.local(scope, var) + ", " for var in sorted(scope.bound, key=scope.slot))
            code.line("P.append((%s))" % prefix)
            code.close(top)
            code.line("if not P: return")
        functor, arity = self.seed_key
        code.open("for e in stream.events_in_window(%r, %d, ws, we):" % (functor, arity), loop=True)
        match = Match(scope, code)
        match.occurrence(self.seed_event, self.seed_time, "e")
        match.enter()
        if self.hoisted:
            code.open("for %s in P:" % (prefix or "_"), loop=True)
        for literal in self.body:
            _condition(literal, scope, code, traced)
        head = self.rule.head
        pair = term_source(self.head_pair, scope, code)
        if not scope.binds(self.head_pair):
            value, pair = pair, code.fresh("p")
            code.line("%s = %s" % (pair, value))
            code.open("if rg:")
            code.line("raise E(%s %% (%s, %s))" % (
                code.constant("head FVP %r not ground after body evaluation of %r"),
                pair, code.constant(head)))
            code.depth -= 1
        at = time_source(self.head_time, scope, code, "head time-point is not bound in %r" % (head,))
        code.line("out.append((%s, %s))" % (pair, at))
        code.close(top)
        return code.function("run")


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile one ``initiatedAt``/``terminatedAt`` rule. Raises what
    :func:`rule_shape` raises; a condition that can only fail once reached
    becomes a statement that raises there."""
    return CompiledRule(rule)


#: id(fluent definition) -> {id(rule): program}; dropped with its definition.
#: A program keeps its rule alive, so no id is reused while its entry exists.
_PROGRAMS: Dict[int, Dict[int, object]] = {}


def program_for(owner: object, rule: Rule, compiler: Callable[[Rule], object]):
    """The program of ``rule``, compiled once per owning fluent definition
    when its fluent is first evaluated, and looked up by identity (no rule is
    hashed per window). Definitions are frozen, so the table never goes
    stale. A rule the compiler rejects is not cached: it raises again next
    window."""
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
