"""Logic-programming substrate shared by the RTEC engine and the similarity metric.

This package provides the term representation (:mod:`repro.logic.terms`), a
Prolog-style parser for RTEC event descriptions (:mod:`repro.logic.parser`),
unification and substitution machinery (:mod:`repro.logic.unification`), a
static knowledge base of atemporal facts (:mod:`repro.logic.knowledge`), and
pretty-printing back to RTEC concrete syntax (:mod:`repro.logic.pretty`).
"""

from repro.logic.terms import (
    Compound,
    Constant,
    Term,
    Variable,
    fvp,
    is_fvp,
    make_atom,
    term_variables,
)
from repro.logic.parser import (
    ParseError,
    canonical,
    parse_program,
    parse_rule,
    parse_term,
)
from repro.logic.unification import Substitution, unify
from repro.logic.knowledge import KnowledgeBase
from repro.logic.pretty import term_to_str, rule_to_str

__all__ = [
    "Compound",
    "Constant",
    "Term",
    "Variable",
    "fvp",
    "is_fvp",
    "make_atom",
    "term_variables",
    "ParseError",
    "canonical",
    "parse_program",
    "parse_rule",
    "parse_term",
    "Substitution",
    "unify",
    "KnowledgeBase",
    "term_to_str",
    "rule_to_str",
]
