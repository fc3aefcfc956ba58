"""Pretty-printing of terms and rules back to RTEC concrete syntax.

``parse_rule(rule_to_str(r)) == r`` holds for every rule in the supported
dialect (a property checked by the test suite), which lets event
descriptions round-trip through text — the form in which simulated LLMs
emit them.
"""

from __future__ import annotations

from decimal import Decimal
from operator import itemgetter
from typing import List, Mapping, Tuple, TypeVar

from repro.logic.parser import COMPARISON_OPERATORS, LIST_FUNCTOR, Literal, Rule
from repro.logic.terms import Constant, Term, Variable

__all__ = ["term_to_str", "sorted_by_text", "literal_to_str", "rule_to_str", "program_to_str"]

_INFIX = ("=",) + COMPARISON_OPERATORS
_V = TypeVar("_V")


def term_to_str(term: Term) -> str:
    """Render a term in RTEC concrete syntax."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        if isinstance(term.value, str) and not _is_plain_atom(term.value):
            return "'%s'" % term.value
        if isinstance(term.value, float):
            return _float_to_str(term.value)
        return str(term.value)
    if term.functor == LIST_FUNCTOR:
        return "[%s]" % ", ".join(term_to_str(a) for a in term.args)
    if term.functor in _INFIX and term.arity == 2:
        return "%s%s%s" % (term_to_str(term.args[0]), term.functor, term_to_str(term.args[1]))
    return "%s(%s)" % (term.functor, ", ".join(term_to_str(a) for a in term.args))


def _float_to_str(value: float) -> str:
    """A finite float in the parser's number grammar: positional digits with a
    decimal point. ``repr``'s shortest digits are kept, so the text reads back
    as the same float; only the exponent form (``1e-05``, ``1e+16``) is
    expanded."""
    text = repr(value)
    if "e" not in text:
        return text
    text = format(Decimal(text), "f")
    return text if "." in text else text + ".0"


def sorted_by_text(mapping: Mapping[Term, _V]) -> List[Tuple[str, _V]]:
    """``(concrete syntax, value)`` pairs in syntax order, each key rendered once."""
    rendered = ((term_to_str(term), value) for term, value in mapping.items())
    return sorted(rendered, key=itemgetter(0))


def _is_plain_atom(name: str) -> bool:
    if name == "[]":
        return True
    if not name or not (name[0].islower()):
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


def literal_to_str(literal: Literal) -> str:
    text = term_to_str(literal.term)
    return "not %s" % text if literal.negated else text


def rule_to_str(rule: Rule) -> str:
    """Render a rule with one condition per line, RTEC style."""
    head = term_to_str(rule.head)
    if rule.is_fact:
        return "%s." % head
    body = ",\n    ".join(literal_to_str(lit) for lit in rule.body)
    return "%s :-\n    %s." % (head, body)


def program_to_str(rules) -> str:
    """Render a whole event description, one blank line between rules."""
    return "\n\n".join(rule_to_str(rule) for rule in rules) + "\n"
