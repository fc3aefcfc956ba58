"""Error-injection transformations for simulated LLM generation.

The paper's qualitative error assessment (Section 5.2) groups the errors of
LLM-generated event descriptions into four categories:

1. minor naming divergences for events, activities and background
   knowledge (:class:`RenameFunctor`, :class:`RenameConstant`);
2. modelling an activity with the wrong fluent type, or otherwise
   re-formalising it from scratch (:class:`ReplaceRules`);
3. conditions referencing activities that are undefined in the generated
   event description (:class:`AddCondition` with an undefined fluent);
4. wrong operators between activities — most prominently confusing
   ``union_all`` with ``intersect_all`` (:class:`SwapOperator`).

Each transformation rewrites a parsed rule list; a simulated model's
profile is a per-activity composition of transformations applied to the
gold-standard rules — the simulated counterpart of a pre-trained model
reproducing a definition imperfectly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

from repro.logic.parser import Literal, Rule, parse_program, parse_term
from repro.logic.terms import Compound, Constant, Term, Variable

__all__ = [
    "Transformation",
    "RenameFunctor",
    "RenameConstant",
    "RenameVariable",
    "SwapOperator",
    "SwapArguments",
    "DropRule",
    "DropCondition",
    "AddCondition",
    "ReplaceRules",
    "apply_all",
]


def _rewrite(term: Term, fn) -> Term:
    """Bottom-up term rewriting: ``fn`` maps each node to a node."""
    if isinstance(term, Compound):
        rebuilt = Compound(term.functor, tuple(_rewrite(arg, fn) for arg in term.args))
        return fn(rebuilt)
    return fn(term)


def _rewrite_rule(rule: Rule, fn) -> Rule:
    head = _rewrite(rule.head, fn)
    body = tuple(Literal(_rewrite(lit.term, fn), lit.negated) for lit in rule.body)
    return Rule(head, body)


_RESERVED_NAMES = frozenset(
    {
        "initiatedAt",
        "terminatedAt",
        "holdsAt",
        "holdsFor",
        "happensAt",
        "union_all",
        "intersect_all",
        "relative_complement_all",
        "not",
        "true",
        "false",
        "thresholds",
    }
)


def _identifier_names(text: str) -> FrozenSet[str]:
    """Lowercase-initial identifiers of a rule text, minus the reserved ones."""
    names = set(re.findall(r"\b[a-z][A-Za-z0-9_]*\b", text))
    return frozenset(names - _RESERVED_NAMES)


def _term_names(term: Term) -> FrozenSet[str]:
    """Functors and symbolic constants appearing in a term."""
    names = set()

    def walk(node: Term) -> None:
        if isinstance(node, Compound):
            if node.functor not in _RESERVED_NAMES:
                names.add(node.functor)
            for arg in node.args:
                walk(arg)
        elif isinstance(node, Constant) and isinstance(node.value, str):
            if node.value not in _RESERVED_NAMES:
                names.add(node.value)

    walk(term)
    return frozenset(names)


class Transformation:
    """Base class; subclasses override :meth:`apply`."""

    def apply(self, rules: List[Rule]) -> List[Rule]:
        raise NotImplementedError

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        """The names this transformation's error surfaces under.

        The repair loop uses these as a *fingerprint*: a diagnostic batch
        mentioning one of these names (as a whole word) implicates the
        transformation, and the simulated model drops it on the next
        round. An empty set means the transformation is never implicated
        by name (e.g. consistent variable renamings are harmless).
        """
        return frozenset()


@dataclass(frozen=True)
class RenameFunctor(Transformation):
    """Rename a predicate/fluent/event functor throughout the rules
    (error category 1 — e.g. ``gap_start`` -> ``gapStart``)."""

    old: str
    new: str

    def apply(self, rules: List[Rule]) -> List[Rule]:
        def fn(term: Term) -> Term:
            if isinstance(term, Compound) and term.functor == self.old:
                return Compound(self.new, term.args)
            return term

        return [_rewrite_rule(rule, fn) for rule in rules]

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        return frozenset({self.new})


@dataclass(frozen=True)
class RenameConstant(Transformation):
    """Rename a constant throughout the rules (error category 1 — e.g.
    ``fishing`` -> ``trawlingArea``, the o1 error discussed in Section 5.2)."""

    old: str
    new: str

    def apply(self, rules: List[Rule]) -> List[Rule]:
        def fn(term: Term) -> Term:
            if isinstance(term, Constant) and term.value == self.old:
                return Constant(self.new)
            return term

        return [_rewrite_rule(rule, fn) for rule in rules]

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        return frozenset({self.new})


@dataclass(frozen=True)
class RenameVariable(Transformation):
    """Rename a variable throughout the rules. Harmless by construction:
    the similarity metric assigns distance 0 to consistent renamings
    (Example 4.13, rules (1) vs (6))."""

    old: str
    new: str

    def apply(self, rules: List[Rule]) -> List[Rule]:
        def fn(term: Term) -> Term:
            if isinstance(term, Variable) and term.name == self.old:
                return Variable(self.new)
            return term

        return [_rewrite_rule(rule, fn) for rule in rules]


@dataclass(frozen=True)
class SwapOperator(Transformation):
    """Replace one interval operator with another in holdsFor rules
    (error category 4 — ``union_all`` vs ``intersect_all``)."""

    old: str = "union_all"
    new: str = "intersect_all"
    rule_index: Optional[int] = None  # None: all rules

    def apply(self, rules: List[Rule]) -> List[Rule]:
        def fn(term: Term) -> Term:
            if isinstance(term, Compound) and term.functor == self.old:
                return Compound(self.new, term.args)
            return term

        out = []
        for index, rule in enumerate(rules):
            if self.rule_index is None or index == self.rule_index:
                out.append(_rewrite_rule(rule, fn))
            else:
                out.append(rule)
        return out

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        return frozenset({self.new})


@dataclass(frozen=True)
class SwapArguments(Transformation):
    """Reverse the arguments of a binary predicate (cf. rule (7) of the
    paper: ``areaType(AreaType, AreaID)``)."""

    functor: str

    def apply(self, rules: List[Rule]) -> List[Rule]:
        def fn(term: Term) -> Term:
            if isinstance(term, Compound) and term.functor == self.functor and term.arity == 2:
                return Compound(term.functor, (term.args[1], term.args[0]))
            return term

        return [_rewrite_rule(rule, fn) for rule in rules]

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        return frozenset({self.functor})


@dataclass(frozen=True)
class DropRule(Transformation):
    """Omit one rule (e.g. a forgotten gap-termination rule)."""

    index: int

    def apply(self, rules: List[Rule]) -> List[Rule]:
        if not 0 <= self.index < len(rules):
            return list(rules)
        return [rule for i, rule in enumerate(rules) if i != self.index]

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        if not 0 <= self.index < len(gold_rules):
            return frozenset()
        return _term_names(gold_rules[self.index].head)


@dataclass(frozen=True)
class DropCondition(Transformation):
    """Omit one body condition of one rule."""

    rule_index: int
    condition_index: int

    def apply(self, rules: List[Rule]) -> List[Rule]:
        out = list(rules)
        if not 0 <= self.rule_index < len(out):
            return out
        rule = out[self.rule_index]
        if not 0 <= self.condition_index < len(rule.body):
            return out
        body = tuple(
            lit for i, lit in enumerate(rule.body) if i != self.condition_index
        )
        out[self.rule_index] = Rule(rule.head, body)
        return out

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        if not 0 <= self.rule_index < len(gold_rules):
            return frozenset()
        rule = gold_rules[self.rule_index]
        if not 0 <= self.condition_index < len(rule.body):
            return frozenset()
        literal = rule.body[self.condition_index]
        names = set(_term_names(literal.term))

        def walk(node: Term) -> None:
            if isinstance(node, Compound):
                for arg in node.args:
                    walk(arg)
            elif isinstance(node, Variable):
                names.add(node.name)

        walk(literal.term)
        return frozenset(names)


@dataclass(frozen=True)
class AddCondition(Transformation):
    """Insert a condition into one rule.

    With a condition referencing an undefined activity this realises error
    category 3; with a defined but superfluous activity it realises the
    "one redundant condition" observed for trawling in Section 5.2.
    """

    rule_index: int
    condition: str  # concrete RTEC syntax, e.g. "holdsAt(underWay(Vessel)=true, T)"
    negated: bool = False
    position: Optional[int] = None  # None: append

    def apply(self, rules: List[Rule]) -> List[Rule]:
        out = list(rules)
        if not 0 <= self.rule_index < len(out):
            return out
        rule = out[self.rule_index]
        literal = Literal(parse_term(self.condition), self.negated)
        body = list(rule.body)
        if self.position is None:
            body.append(literal)
        else:
            body.insert(self.position, literal)
        out[self.rule_index] = Rule(rule.head, tuple(body))
        return out

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        return _identifier_names(self.condition)


@dataclass(frozen=True)
class TruncateRules(Transformation):
    """Keep only the first ``count`` rules — a model that sketches the
    beginning of a definition and trails off (typical of zero-shot output)."""

    count: int = 1

    def apply(self, rules: List[Rule]) -> List[Rule]:
        return list(rules[: max(0, self.count)])

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        names = set()
        for rule in gold_rules[max(0, self.count):]:
            names |= _term_names(rule.head)
        return frozenset(names)


@dataclass(frozen=True)
class CorruptSyntax(Transformation):
    """A *text-level* corruption (a genuine syntactic mistake): applied by
    the simulated model after rendering, not on the parsed rules. The
    pipeline will record a parse error for the affected activity.

    ``kind`` is one of ``"drop-final-period"`` and ``"unbalanced-paren"``.
    """

    kind: str = "drop-final-period"

    def apply(self, rules: List[Rule]) -> List[Rule]:
        return list(rules)  # the corruption happens at text level

    def corrupt(self, text: str) -> str:
        if self.kind == "drop-final-period":
            index = text.rfind(".")
            if index >= 0:
                text = text[:index] + text[index + 1 :]
            return text
        if self.kind == "unbalanced-paren":
            index = text.rfind(")")
            if index >= 0:
                text = text[:index] + text[index + 1 :]
            return text
        raise ValueError("unknown corruption kind %r" % self.kind)


@dataclass(frozen=True)
class ReplaceRules(Transformation):
    """Replace the whole definition with alternative rules (error category
    2 — wrong fluent type, or a from-scratch re-formalisation)."""

    text: str

    def apply(self, rules: List[Rule]) -> List[Rule]:
        return parse_program(self.text)

    def introduced_names(self, gold_rules: Sequence[Rule]) -> FrozenSet[str]:
        gold_names = set()
        for rule in gold_rules:
            gold_names |= _term_names(rule.head)
            for literal in rule.body:
                gold_names |= _term_names(literal.term)
        return frozenset(_identifier_names(self.text) - gold_names)


def apply_all(rules: Sequence[Rule], transformations: Sequence[Transformation]) -> List[Rule]:
    """Apply the transformations left to right (each one is deterministic)."""
    out = list(rules)
    for transformation in transformations:
        out = transformation.apply(out)
    return out
