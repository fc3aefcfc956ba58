"""Application of machine-applicable fixes to rule sets.

The naming pass attaches :class:`~repro.analysis.diagnostics.Fix` objects
(functor/constant renames) to its diagnostics; this module turns a batch of
fixes into rename maps and rewrites rules accordingly. The correction step
(:mod:`repro.generation.correction`) shares these rewriters so that lint
fixes and correction apply identically.

:func:`apply_fixes` is deterministic and idempotent: rename maps are
built over the *sorted* fix set (the result does not depend on diagnostic
order) and normalised — chains (``a -> b`` plus ``b -> c`` collapse to
``a -> c`` and ``b -> c``), cycles and identity entries are dropped — so
re-applying the same batch finds none of the old names and is a no-op.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.logic.parser import Literal, Rule
from repro.logic.terms import Compound, Constant, Term

__all__ = [
    "rewrite_term",
    "rewrite_rule",
    "rewrite_rules",
    "fix_maps",
    "apply_fixes",
]


def rewrite_term(
    term: Term, functor_map: Mapping[str, str], constant_map: Mapping[str, str]
) -> Term:
    """Rename functors and string constants throughout a term."""
    if isinstance(term, Compound):
        functor = functor_map.get(term.functor, term.functor)
        return Compound(
            functor,
            tuple(rewrite_term(arg, functor_map, constant_map) for arg in term.args),
        )
    if isinstance(term, Constant) and isinstance(term.value, str):
        renamed = constant_map.get(term.value)
        if renamed is not None:
            return Constant(renamed)
    return term


def rewrite_rule(
    rule: Rule, functor_map: Mapping[str, str], constant_map: Mapping[str, str]
) -> Rule:
    return Rule(
        rewrite_term(rule.head, functor_map, constant_map),
        tuple(
            Literal(rewrite_term(literal.term, functor_map, constant_map), literal.negated)
            for literal in rule.body
        ),
    )


def rewrite_rules(
    rules: Sequence[Rule], functor_map: Mapping[str, str], constant_map: Mapping[str, str]
) -> List[Rule]:
    return [rewrite_rule(rule, functor_map, constant_map) for rule in rules]


def normalise_rename_map(mapping: Mapping[str, str]) -> Dict[str, str]:
    """Collapse rename chains and drop cycles and identity entries.

    ``{a: b, b: c}`` becomes ``{a: c, b: c}`` (applying the result twice
    equals applying it once); a cycle such as ``{a: b, b: a}`` is dropped
    entirely — a swap is not idempotent, so no deterministic single map
    can honour it.
    """
    resolved: Dict[str, str] = {}
    for old in sorted(mapping):
        target = mapping[old]
        seen = {old}
        while target in mapping and target not in seen:
            seen.add(target)
            target = mapping[target]
        if target != old and target not in seen:
            resolved[old] = target
    return resolved


def fix_maps(diagnostics: Iterable[Diagnostic]) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Collect the rename maps of all fixable diagnostics.

    Deterministic under any diagnostic ordering: conflicting fixes for the
    same old name are resolved by sorted ``(old, new)`` order (first wins),
    and the maps are normalised with :func:`normalise_rename_map`.
    """
    functor_pairs: List[Tuple[str, str]] = []
    constant_pairs: List[Tuple[str, str]] = []
    for diagnostic in diagnostics:
        fix = diagnostic.fix
        if fix is None:
            continue
        if fix.kind == "rename-functor":
            functor_pairs.append((fix.old, fix.new))
        elif fix.kind == "rename-constant":
            constant_pairs.append((fix.old, fix.new))
    functor_map: Dict[str, str] = {}
    constant_map: Dict[str, str] = {}
    for old, new in sorted(set(functor_pairs)):
        functor_map.setdefault(old, new)
    for old, new in sorted(set(constant_pairs)):
        constant_map.setdefault(old, new)
    return normalise_rename_map(functor_map), normalise_rename_map(constant_map)


def apply_fixes(rules: Sequence[Rule], diagnostics: Iterable[Diagnostic]) -> List[Rule]:
    """Apply every rename fix of a diagnostic batch to a rule set, returning
    new rules. Deterministic under any diagnostic ordering, and idempotent:
    ``apply_fixes(apply_fixes(rules, ds), ds) == apply_fixes(rules, ds)``.
    """
    functor_map, constant_map = fix_maps(diagnostics)
    return rewrite_rules(rules, functor_map, constant_map)
