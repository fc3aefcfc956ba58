"""Evaluation of statically determined fluents (Definition 2.4).

A ``holdsFor`` rule is evaluated by joining its ``holdsFor`` conditions over
the fluent store (which already contains the intervals of every lower-level
FVP, thanks to bottom-up evaluation order), interleaved with atemporal
background predicates and interval manipulation constructs. Each rule runs
as one generated function, written with the :class:`~repro.rtec.compile.Code`
writer and condition generators of :mod:`repro.rtec.compile` and compiled
once per source text; interval-list variables are locals like term
variables, under their own keys (interval lists are not terms).

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

from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.intervals import IntervalList, intersect_all, relative_complement_all, union_all
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import LIST_FUNCTOR, Literal, Rule
from repro.logic.terms import Compound, Term, Variable, is_fvp, term_variables
from repro.rtec.compile import Code, Match, Scope, background, key_source
from repro.rtec.compile import program_for, term_source
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
    """One ``holdsFor`` rule as one generated function ``run(kb, store, out)``:
    the seed enumeration, then one body per seed shape.

    A *seed shape* is the set of variables a seed binds — those of one
    ``holdsFor`` condition's FVP pattern, or none (the empty seed). Which
    variables are bound when a body condition runs depends on the shape
    alone, so each shape gets its own body, dispatched on the seed's shape.
    """

    def __init__(self, rule: Rule) -> None:
        head = rule.head
        assert isinstance(head, Compound)
        if not is_fvp(head.args[0]):
            raise EvaluationError("holdsFor head without an FVP: %r" % (head,))
        self.rule = rule
        self._functions: Dict[bool, Callable] = {}
        self.function(False)

    def run(self, kb: KnowledgeBase, store: FluentStore, out: list) -> None:
        """Append ``(ground head FVP, intervals)`` per distinct non-empty body
        solution to ``out``, over every seed (see the module docstring)."""
        self.function(telemetry.is_enabled())(kb, store, out)

    def function(self, traced: bool) -> Callable:
        """The generated function; ``traced`` adds the ``seeds`` count."""
        function = self._functions.get(traced)
        if function is None:
            function = self._functions[traced] = self._generate(traced)
        return function

    def _generate(self, traced: bool) -> Callable:
        code, slots = Code("kb, store, aux, out"), {}
        # The constructs through this module's names, looked up now: a
        # profiler that rebinds them sees every call.
        code.names.update(
            union_all=union_all,
            intersect_all=intersect_all,
            relative_complement_all=relative_complement_all,
            not_lists=_not_interval_lists,
        )
        code.define("run", "kb, store, out")
        code.line("aux = set()")
        code.line("seeds = [(0, ())]")
        code.line("seen = {(0, ())}")
        shapes: Dict[Tuple[int, ...], int] = {(): 0}
        for literal in self.rule.body:
            term = literal.term
            if not (isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2):
                continue
            pattern = term.args[0]
            if not is_fvp(pattern):
                continue
            scope = Scope(slots)
            shape = tuple(sorted(scope.slot(var) for var in term_variables(pattern)))
            sid = shapes.setdefault(shape, len(shapes))
            mark = code.mark()
            _instances(pattern, scope, code)
            seed = code.fresh("d")
            values = "".join(code.ref % slot + ", " for slot in shape)
            code.line("%s = (%d, (%s))" % (seed, sid, values))
            code.open("if %s not in seen:" % seed)
            code.line("seen.add(%s)" % seed)
            code.line("seeds.append(%s)" % seed)
            code.close(mark)
        if traced:
            code.line('count("seeds", len(seeds))')
        code.open("for sid, vals in seeds:", loop=True)
        for shape, sid in shapes.items():
            mark = code.mark()
            code.open("%s sid == %d:" % ("elif" if sid else "if", sid))
            if shape:
                code.line("%s= vals" % "".join(code.ref % slot + ", " for slot in shape))
            scope = Scope(slots, [var for var in slots if slots[var] in shape])
            for literal in self.rule.body:
                code.room(scope)
                _condition(literal, scope, code)
            _emit(self.rule.head, scope, code)
            code.close(mark)
        return code.function("run")


def _not_interval_lists(value: Term, condition: Term) -> None:
    """What an interval construct raises on a list argument ``value`` that is
    not a list of interval variables."""
    if isinstance(value, Compound) and value.functor == LIST_FUNCTOR:
        value = value.args[0]  # a list bound to a term variable holds terms
        raise EvaluationError("expected an interval variable, got %r" % (value,), condition=condition)
    raise EvaluationError(
        "interval constructs expect a list of interval variables, got %r" % (value,),
        condition=condition,
    )


def _raise(code: Code, message: str, condition: Optional[str]) -> None:
    located = "" if condition is None else ", condition=%s" % condition
    code.line("raise E(%s%s)" % (code.constant(message), located))


def _condition(literal: Literal, scope: Scope, code: Code) -> None:
    term = literal.term
    if literal.negated:
        _raise(code, "negation is not allowed in holdsFor bodies: %r" % (term,), code.constant(term))
    elif isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2:
        _holds_for(term, scope, code)
    elif isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS:
        _construct(term, scope, code)
    else:
        background(literal, scope, code)


def _instances(pair_pattern, scope: Scope, code: Code, condition: Optional[str] = None) -> str:
    """Loop over the distinct ground FVPs ``pair_pattern`` resolves to over
    the stored instances of its schema, each bound while the statements that
    follow run; returns the FVP's local. A value that is ground once the
    fluent has matched is *not* matched: instances define the grounding
    domain, not the value, and the resolved FVP may have no intervals of its
    own. A key that cannot be read raises at ``condition``, when given."""
    fluent_pattern, value_pattern = pair_pattern.args
    key = key_source(fluent_pattern, scope, code, condition)
    item, seen, pair = code.fresh("x"), code.fresh("n"), code.fresh("p")
    match = Match(scope, code)
    match.add(fluent_pattern, item + ".args[0]", top=True)
    if not scope.binds(value_pattern):
        match.add(value_pattern, item + ".args[1]")
    code.line("%s = set()" % seen)
    match.loop("store.instances(%s)" % key, item + ", _")
    code.line("%s = %s" % (pair, term_source(pair_pattern, scope, code)))
    code.open("if %s not in %s:" % (pair, seen))
    code.line("%s.add(%s)" % (seen, pair))
    return pair


def _holds_for(term, scope: Scope, code: Code) -> None:
    pair_pattern, out = term.args
    condition = code.constant(term)
    problem = None
    if not isinstance(out, Variable):
        problem = "holdsFor condition output must be a variable: %r" % (term,)
    elif (out,) in scope.bound:
        problem = "interval variable %r bound more than once" % out.name
    not_fvp = "holdsFor condition without an FVP: %r" % (term,)
    checked = is_fvp(pair_pattern)
    if scope.binds(pair_pattern):
        # A ground FVP always succeeds; absent FVPs have empty intervals.
        pair = code.fresh("p")
        code.line("%s = %s" % (pair, term_source(pair_pattern, scope, code)))
        if not checked:
            code.open("if not is_fvp(%s):" % pair)
            _raise(code, not_fvp, condition)
            code.depth -= 1
        if problem is not None:
            _raise(code, problem, condition)
    elif not checked or problem is not None:
        _raise(code, problem if checked else not_fvp, condition)
        return
    else:
        pair = _instances(pair_pattern, scope, code, condition)
    scope.bound.add((out,))
    code.line("%s = store.get(%s)" % (code.local(scope, (out,)), pair))


def _construct(term, scope: Scope, code: Code) -> None:
    functor, out = term.functor, term.args[-1]
    condition = code.constant(term)
    if term.arity != INTERVAL_CONSTRUCTS[functor]:
        message = "%s expects %d arguments, got %d" % (
            functor, INTERVAL_CONSTRUCTS[functor], term.arity)
        return _raise(code, message, condition)
    if not isinstance(out, Variable):
        return _raise(code, "output of %s must be a variable" % functor, condition)
    if (out,) in scope.bound:
        return _raise(code, "interval variable %r bound more than once" % out.name, condition)
    operands = []
    if functor == "relative_complement_all":  # relative_complement_all(I', L, I)
        operands.append(_interval(term.args[0], scope, code, condition))
    operands.append(_interval_lists(term.args[-2], scope, code, condition))
    if None in operands:
        return None
    scope.bound.add((out,))
    code.line("%s = %s(%s)" % (code.local(scope, (out,)), functor, ", ".join(operands)))
    return None


def _interval(term: Term, scope: Scope, code: Code, condition: Optional[str]) -> Optional[str]:
    """The local of the interval variable ``term``; ``None`` after a raise."""
    if isinstance(term, Variable) and term not in scope.bound:
        if (term,) in scope.bound:
            return code.local(scope, (term,))
        return _raise(code, "unbound interval variable %r" % term.name, condition)
    located = "" if condition is None else ", condition=%s" % condition
    code.line("raise E(%s %% (%s,)%s)" % (
        code.constant("expected an interval variable, got %r"),
        term_source(term, scope, code), located))
    return None


def _interval_lists(term: Term, scope: Scope, code: Code, condition: str) -> Optional[str]:
    if isinstance(term, Compound) and term.functor == LIST_FUNCTOR:
        items = []
        for arg in term.args:
            item = _interval(arg, scope, code, condition)
            if item is None:
                return None
            items.append(item)
        return "[%s]" % ", ".join(items)
    code.line("not_lists(%s, %s)" % (term_source(term, scope, code), condition))
    return None


def _emit(head, scope: Scope, code: Code) -> None:
    head_pair, head_interval = head.args
    pair = code.fresh("p")
    code.line("%s = %s" % (pair, term_source(head_pair, scope, code)))
    if not scope.binds(head_pair):
        code.line("raise E(%s %% (%s,))" % (
            code.constant("holdsFor head %r not ground after body evaluation"), pair))
        return
    intervals = _interval(head_interval, scope, code, None)
    if intervals is None:
        return
    found = code.fresh("d")
    code.open("if %s:" % intervals)
    code.line("%s = (%s, %s)" % (found, pair, intervals))
    code.open("if %s not in aux:" % found)
    code.line("aux.add(%s)" % found)
    code.line("out.append(%s)" % found)
