"""Arithmetic evaluation and comparison built-ins for rule bodies.

Rule bodies may contain infix comparisons between arithmetic expressions,
e.g. ``Speed > Max`` or ``angleDiff(CoG, Heading) > Thr`` (Section 3.2:
"Threshold values can be used to perform mathematical operations and
comparisons"). Expressions are built from numbers, bound variables and the
evaluable functors below.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Union

from repro.logic.parser import COMPARISON_OPERATORS
from repro.logic.terms import Compound, Constant, Term, Variable
from repro.logic.unification import Substitution
from repro.rtec.errors import EvaluationError

__all__ = [
    "is_comparison",
    "evaluate_comparison",
    "evaluate_arithmetic",
    "apply_functor",
    "COMPARATORS",
    "EVALUABLE_FUNCTORS",
]

Number = Union[int, float]


def _angle_diff(a: Number, b: Number) -> float:
    """Minimal absolute angular difference in degrees, in [0, 180]."""
    diff = abs(float(a) - float(b)) % 360.0
    return 360.0 - diff if diff > 180.0 else diff


EVALUABLE_FUNCTORS: Dict[str, Callable[..., Number]] = {
    "abs": lambda x: abs(x),
    "plus": lambda x, y: x + y,
    "minus": lambda x, y: x - y,
    "times": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "min": lambda x, y: min(x, y),
    "max": lambda x, y: max(x, y),
    "angleDiff": _angle_diff,
}

COMPARATORS: Dict[str, Callable[[Number, Number], bool]] = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9),
    "=\\=": lambda a, b: not math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9),
}


def is_comparison(term: Term) -> bool:
    """True for an infix comparison term such as ``'>'(Speed, Max)``."""
    return (
        isinstance(term, Compound)
        and term.functor in COMPARISON_OPERATORS
        and term.arity == 2
    )


def evaluate_arithmetic(term: Term, subst: Substitution) -> Number:
    """Evaluate an arithmetic expression to a number.

    Raises :class:`EvaluationError` when the expression contains unbound
    variables, non-numeric constants, or unknown functors — all signs of a
    malformed (e.g. LLM-generated) rule.
    """
    term = subst.resolve(term)
    if isinstance(term, Variable):
        raise EvaluationError("unbound variable %r in arithmetic expression" % term.name)
    if isinstance(term, Constant):
        if term.is_number:
            return term.value  # type: ignore[return-value]
        raise EvaluationError("non-numeric constant %r in arithmetic expression" % term.value)
    fn = EVALUABLE_FUNCTORS.get(term.functor)
    if fn is None:
        raise EvaluationError("unknown arithmetic functor %r/%d" % (term.functor, term.arity))
    return apply_functor(fn, term, [evaluate_arithmetic(arg, subst) for arg in term.args])


def apply_functor(fn: Callable[..., Number], term: Compound, args: list) -> Number:
    """``term``'s evaluable functor ``fn`` over its already evaluated arguments."""
    try:
        return fn(*args)
    except TypeError:
        raise EvaluationError(
            "wrong arity for arithmetic functor %r: %d" % (term.functor, term.arity)
        )
    except ZeroDivisionError:
        raise EvaluationError("division by zero in arithmetic expression")


def evaluate_comparison(term: Term, subst: Substitution) -> bool:
    """Evaluate a comparison condition under the current bindings."""
    if not is_comparison(term):
        raise EvaluationError("not a comparison: %r" % (term,))
    left = evaluate_arithmetic(term.args[0], subst)
    right = evaluate_arithmetic(term.args[1], subst)
    return COMPARATORS[term.functor](left, right)
