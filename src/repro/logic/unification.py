"""Unification and substitutions over :mod:`repro.logic.terms`.

The RTEC engine grounds rule bodies by unifying body literals against ground
facts (events, cached fluent intervals, background knowledge). Substitutions
are immutable mappings from variables to terms; :func:`unify` extends a
substitution or returns ``None`` on failure.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.logic.terms import Compound, Constant, Term, Variable

__all__ = ["Substitution", "unify", "apply_substitution", "rename_variables"]


class Substitution:
    """An immutable variable binding environment.

    Bindings are fully dereferenced on construction: a bound variable always
    maps to a term whose variables are unbound in this substitution.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Dict[Variable, Term]] = None) -> None:
        self._bindings: Dict[Variable, Term] = dict(bindings or {})

    def lookup(self, var: Variable) -> Optional[Term]:
        return self._bindings.get(var)

    def bind(self, var: Variable, term: Term) -> "Substitution":
        """Return a new substitution with ``var`` bound to ``term``."""
        new = dict(self._bindings)
        new[var] = term
        return Substitution(new)

    def resolve(self, term: Term) -> Term:
        """Apply this substitution to ``term``, recursively."""
        return apply_substitution(term, self)

    def items(self):
        return self._bindings.items()

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, var: Variable) -> bool:
        return var in self._bindings

    def __repr__(self) -> str:
        pairs = ", ".join("%r=%r" % (k, v) for k, v in sorted(
            self._bindings.items(), key=lambda kv: kv[0].name))
        return "{%s}" % pairs


def _walk(term: Term, subst: Substitution) -> Term:
    """Dereference ``term`` through variable bindings (one level of chains)."""
    while isinstance(term, Variable):
        bound = subst.lookup(term)
        if bound is None:
            return term
        term = bound
    return term


def apply_substitution(term: Term, subst: Substitution) -> Term:
    """Replace every bound variable in ``term`` by its binding, recursively."""
    if term.ground or not subst._bindings:
        return term
    term = _walk(term, subst)
    if isinstance(term, Compound):
        new_args = tuple(apply_substitution(a, subst) for a in term.args)
        if all(n is o for n, o in zip(new_args, term.args)):
            return term
        return Compound(term.functor, new_args)
    return term


def unify(left: Term, right: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or ``None`` when the terms do not
    unify. Numbers unify when numerically equal (``2`` unifies with ``2.0``),
    matching arithmetic comparison semantics elsewhere in the engine.
    """
    if subst is None:
        subst = Substitution()
    left = _walk(left, subst)
    right = _walk(right, subst)
    if left is right:
        return subst
    if isinstance(left, Variable):
        if isinstance(right, Variable) and right == left:
            return subst
        return subst.bind(left, right)
    if isinstance(right, Variable):
        return subst.bind(right, left)
    if isinstance(left, Constant) and isinstance(right, Constant):
        if left.value == right.value:
            return subst
        if left.is_number and right.is_number and float(left.value) == float(right.value):
            return subst
        return None
    if isinstance(left, Compound) and isinstance(right, Compound):
        if left.functor != right.functor or left.arity != right.arity:
            return None
        for l_arg, r_arg in zip(left.args, right.args):
            subst = unify(l_arg, r_arg, subst)
            if subst is None:
                return None
        return subst
    return None


def rename_variables(term: Term, suffix: str) -> Term:
    """Append ``suffix`` to every variable name in ``term`` (rule standardisation)."""
    if isinstance(term, Variable):
        return Variable(term.name + suffix)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(rename_variables(a, suffix) for a in term.args))
    return term
