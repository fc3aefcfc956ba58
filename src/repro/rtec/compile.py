"""Compiled evaluator plans for ``happensAt``-seeded rules.

``initiatedAt``/``terminatedAt`` bodies are evaluated for every window over
every seed event; re-deriving the same structural facts (which literal is a
``happensAt``, the functor key of the seed pattern, whether the seed
pattern can be bound without general unification) per event dominated the
interpreter's cost. :func:`compile_rule` performs that analysis once per
rule and caches the result, keyed by the (frozen, hashable) rule itself.

The plan records three things:

* the destructured head (FVP pattern + time variable) and the seed
  condition's functor key, plus a *fast seed binding*: when the seed event
  pattern is ``f(V1, ..., Vn)`` with distinct fresh variables and a fresh
  time variable, each event grounds the rule by a plain dict build instead
  of unification;
* a tag (``HAPPENS``/``HOLDS``/``COMPARE``/``BACKGROUND``) and static
  functor key for every remaining body literal, replacing per-call
  ``isinstance`` dispatch and ``_pattern_key`` resolution;
* a *hoisted atemporal prefix*: positive background conditions whose
  variables cannot be bound by any stream literal (or by an earlier
  non-hoisted condition) — e.g. ``thresholds(movingMin, MovingMin)`` — are
  evaluated once per window and their solutions shared across all seed
  events, instead of being re-queried for every event occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from repro.logic.parser import Literal, Rule
from repro.logic.terms import (
    Compound,
    Constant,
    Term,
    Variable,
    is_fvp,
    term_variables,
)
from repro.rtec.builtins import is_comparison
from repro.rtec.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rtec.description import EventDescription

__all__ = [
    "HAPPENS",
    "HOLDS",
    "COMPARE",
    "BACKGROUND",
    "CompiledLiteral",
    "CompiledRule",
    "compile_rule",
    "precompile_description",
    "vector_filter",
]

HAPPENS, HOLDS, COMPARE, BACKGROUND = range(4)


@dataclass(frozen=True)
class CompiledLiteral:
    """One body condition with its dispatch tag precomputed."""

    literal: Literal
    tag: int
    #: (functor, arity) of the event / fluent pattern when statically known
    #: (i.e. the pattern is not itself a variable). For ``HAPPENS`` this is
    #: the event pattern's key; for ``HOLDS`` the fluent pattern's key.
    key: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class CompiledRule:
    """The evaluator plan of one ``happensAt``-seeded rule."""

    rule: Rule
    head_pair: Term
    head_time: Term
    seed_event: Term
    seed_time: Term
    seed_key: Tuple[str, int]
    #: Fast seed binding: the distinct argument variables of the seed event
    #: pattern (``()`` for a zero-arity atom), or ``None`` when the pattern
    #: needs general unification (repeated variables or embedded constants).
    seed_args: Optional[Tuple[Variable, ...]]
    #: The seed time variable when the fast path applies.
    seed_time_var: Optional[Variable]
    #: Positive atemporal conditions evaluated once per window.
    hoisted: Tuple[Literal, ...]
    #: The remaining body conditions, in order, with dispatch tags.
    body: Tuple[CompiledLiteral, ...]


def _is_happens_at(term: Term) -> bool:
    return isinstance(term, Compound) and term.functor == "happensAt" and term.arity == 2


def _is_holds_at(term: Term) -> bool:
    return isinstance(term, Compound) and term.functor == "holdsAt" and term.arity == 2


def pattern_key(term: Term) -> Tuple[str, int]:
    """(functor, arity) of an event or fluent pattern."""
    if isinstance(term, Compound):
        return term.functor, term.arity
    if isinstance(term, Constant) and isinstance(term.value, str):
        return term.value, 0
    raise EvaluationError("cannot determine functor of pattern %r" % (term,))


def _static_key(term: Term) -> Optional[Tuple[str, int]]:
    try:
        return pattern_key(term)
    except EvaluationError:
        return None


def _classify(literal: Literal) -> CompiledLiteral:
    term = literal.term
    if _is_happens_at(term):
        return CompiledLiteral(literal, HAPPENS, _static_key(term.args[0]))
    if _is_holds_at(term):
        key = None
        pair = term.args[0]
        if is_fvp(pair):
            key = _static_key(pair.args[0])
        return CompiledLiteral(literal, HOLDS, key)
    if is_comparison(term):
        return CompiledLiteral(literal, COMPARE)
    return CompiledLiteral(literal, BACKGROUND)


@lru_cache(maxsize=None)
def compile_rule(rule: Rule) -> CompiledRule:
    """Build (and cache) the evaluator plan for one rule.

    Raises :class:`EvaluationError` on the same malformed shapes the
    interpreter used to reject lazily (no body, first condition not a
    positive ``happensAt``, head without an FVP).
    """
    if not rule.body:
        raise EvaluationError("rule %r has an empty body" % (rule.head,))
    first = rule.body[0]
    if first.negated or not _is_happens_at(first.term):
        raise EvaluationError(
            "first condition of %r must be a positive happensAt" % (rule.head,)
        )
    head = rule.head
    if not (isinstance(head, Compound) and head.arity == 2 and is_fvp(head.args[0])):
        raise EvaluationError("rule head without an FVP: %r" % (head,))
    head_pair, head_time = head.args
    seed_event, seed_time = first.term.args
    seed_key = pattern_key(seed_event)

    # Binding-order dataflow: a rule whose body is guaranteed to feed an
    # unbound variable into a builtin (or whose head can never become
    # ground) would raise an EvaluationError on its first firing; reject it
    # at compile time with the analyser's diagnostic instead of crashing
    # mid-window. Imported lazily — repro.analysis depends on this package.
    from repro.analysis.binding import check_simple_rule

    problems = check_simple_rule(rule)
    if problems:
        raise EvaluationError(problems[0].message, rule_head=rule.head)

    seed_args: Optional[Tuple[Variable, ...]] = None
    seed_time_var: Optional[Variable] = None
    if isinstance(seed_time, Variable):
        if isinstance(seed_event, Constant):
            seed_args, seed_time_var = (), seed_time
        elif isinstance(seed_event, Compound) and all(
            isinstance(a, Variable) for a in seed_event.args
        ):
            distinct = set(seed_event.args)
            if len(distinct) == len(seed_event.args) and seed_time not in distinct:
                seed_args = tuple(seed_event.args)  # type: ignore[arg-type]
                seed_time_var = seed_time

    # Variables a stream condition can bind vary per seed event, so a
    # condition touching them can never be hoisted out of the seed loop.
    stream_vars = set(term_variables(first.term))
    for literal in rule.body[1:]:
        if _is_happens_at(literal.term) or _is_holds_at(literal.term):
            stream_vars.update(term_variables(literal.term))
    stream_vars.update(term_variables(head_time))

    hoisted = []
    blocked_vars = set()  # variables of earlier non-hoisted conditions
    body = []
    for literal in rule.body[1:]:
        compiled = _classify(literal)
        lit_vars = set(term_variables(literal.term))
        if (
            compiled.tag == BACKGROUND
            and not literal.negated
            and not (lit_vars & stream_vars)
            and not (lit_vars & blocked_vars)
        ):
            hoisted.append(literal)
        else:
            body.append(compiled)
            blocked_vars |= lit_vars

    return CompiledRule(
        rule=rule,
        head_pair=head_pair,
        head_time=head_time,
        seed_event=seed_event,
        seed_time=seed_time,
        seed_key=seed_key,
        seed_args=seed_args,
        seed_time_var=seed_time_var,
        hoisted=tuple(hoisted),
        body=tuple(body),
    )


def vector_filter(plan: CompiledRule) -> Optional[Tuple[Literal, ...]]:
    """The body as a batch comparison filter, or ``None`` when inapplicable.

    A plan is *vector-filterable* when its seed binds by the fast path and
    every remaining body condition is a comparison whose sides are plain
    variables or numeric constants — the shape of threshold rules such as
    ``initiatedAt(movingSpeed(V)=above, T) :- happensAt(velocity(V, S, M), T),
    thresholds(hcNearCoastMax, Max), S > Max``. Such comparisons neither
    bind variables nor touch the stream or fluent store, so the vectorised
    seed filter (:mod:`repro.rtec.simple`) can apply them as one boolean mask
    over the seed bucket's value columns instead of per-event substitution
    builds. Sides that are arithmetic compounds, unbound variables, or
    non-numeric constants disqualify the plan — evaluation then falls back
    to the per-event path so error behaviour stays identical.
    """
    if plan.seed_args is None or not plan.body:
        return None
    for compiled in plan.body:
        if compiled.tag != COMPARE:
            return None
        term = compiled.literal.term
        if not (isinstance(term, Compound) and term.arity == 2):
            return None
        for side in term.args:
            if isinstance(side, Variable):
                continue
            if isinstance(side, Constant) and side.is_number:
                continue
            return None
    return tuple(compiled.literal for compiled in plan.body)


def precompile_description(description: "EventDescription") -> int:
    """Warm the :func:`compile_rule` cache for every simple-fluent rule.

    The optimised engine calls this once at construction so that the first
    recognition window pays no compile cost. Rules the compiler rejects
    (malformed shapes that raise :class:`EvaluationError` lazily at run
    time) are skipped — their runtime behaviour is unchanged. Returns the
    number of plans compiled.
    """
    compiled = 0
    for definition in description.simple_fluents.values():
        for rule in definition.initiated_rules + definition.terminated_rules:
            try:
                compile_rule(rule)
            except EvaluationError:
                continue
            compiled += 1
    return compiled
