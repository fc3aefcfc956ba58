"""Static (atemporal) knowledge base.

RTEC rule bodies may reference background knowledge such as
``areaType(AreaID, AreaType)``, ``thresholds(Name, Value)`` or
``vesselType(Vessel, Type)`` (Section 3.2 of the paper). These facts do not
change over time; the engine queries them by unification.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.logic.parser import parse_program
from repro.logic.terms import Compound, Constant, Term, is_ground
from repro.logic.unification import Substitution, unify

__all__ = ["KnowledgeBase"]


def _key_of(term: Term) -> Tuple[str, int]:
    if isinstance(term, Compound):
        return (term.functor, term.arity)
    if isinstance(term, Constant) and isinstance(term.value, str):
        return (term.value, 0)
    raise ValueError("knowledge base facts must be atoms or compounds: %r" % (term,))


class KnowledgeBase:
    """A set of ground atemporal facts indexed by (functor, arity).

    Two secondary indexes accelerate the rule-evaluation hot path: a set per
    predicate for O(1) fully-ground queries, and a first-argument index so a
    query with a bound first argument (``vesselSpeedRange(v1, Min, Max)``)
    only unifies against the facts of that entity instead of the whole
    predicate. Both rely on :class:`~repro.logic.terms.Constant` equality
    and hashing agreeing with unification (``2`` matches ``2.0``).
    """

    def __init__(self, facts: Iterable[Term] = ()) -> None:
        self._facts: Dict[Tuple[str, int], List[Term]] = defaultdict(list)
        self._fact_sets: Dict[Tuple[str, int], set] = defaultdict(set)
        self._by_first: Dict[Tuple[str, int], Dict[Term, List[Term]]] = defaultdict(dict)
        for fact in facts:
            self.add(fact)

    @classmethod
    def from_text(cls, text: str) -> "KnowledgeBase":
        """Build a knowledge base from a program of facts, e.g. ``areaType(a1, fishing).``"""
        kb = cls()
        for rule in parse_program(text):
            if not rule.is_fact:
                raise ValueError("knowledge bases may only contain facts: %r" % (rule,))
            kb.add(rule.head)
        return kb

    def add(self, fact: Term) -> None:
        if not is_ground(fact):
            raise ValueError("knowledge base facts must be ground: %r" % (fact,))
        key = _key_of(fact)
        if fact not in self._fact_sets[key]:
            self._facts[key].append(fact)
            self._fact_sets[key].add(fact)
            if isinstance(fact, Compound):
                self._by_first[key].setdefault(fact.args[0], []).append(fact)

    def predicates(self) -> Iterator[Tuple[str, int]]:
        """Yield the (functor, arity) pairs with at least one fact."""
        return iter(sorted(self._facts))

    def facts(self, functor: Optional[str] = None) -> Iterator[Term]:
        """Yield all facts, or only those with the given functor."""
        for (name, _arity), stored in sorted(self._facts.items()):
            if functor is None or name == functor:
                yield from stored

    def query(self, goal: Term, subst: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Yield one extended substitution per fact unifying with ``goal``."""
        if subst is None:
            subst = Substitution()
        goal = subst.resolve(goal)
        try:
            key = _key_of(goal)
        except ValueError:
            return
        if is_ground(goal):
            if goal in self._fact_sets.get(key, ()):
                yield subst
            return
        first = goal.args[0] if isinstance(goal, Compound) and goal.args[0].ground else None
        for fact in self.candidates(key, first):
            extended = unify(goal, fact, subst)
            if extended is not None:
                yield extended

    def candidates(self, key: Tuple[str, int], first: Optional[Term] = None) -> List[Term]:
        """The facts of one predicate a goal can match: all of them, or —
        given the goal's ground first argument — that entity's only."""
        if first is not None:
            return self._by_first.get(key, {}).get(first, ())
        return self._facts.get(key, ())

    def holds(self, goal: Term, subst: Optional[Substitution] = None) -> bool:
        """True when at least one fact unifies with ``goal``."""
        return next(self.query(goal, subst), None) is not None

    def __len__(self) -> int:
        return sum(len(v) for v in self._facts.values())

    def __contains__(self, fact: Term) -> bool:
        try:
            key = _key_of(fact)
        except ValueError:
            return False
        return fact in self._fact_sets.get(key, ())
