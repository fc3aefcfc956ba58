"""The fluent store: computed maximal intervals, indexed by ground FVP.

During a window computation the engine accumulates, for every ground
fluent-value pair (input or derived), the maximal intervals during which it
holds. Rule evaluation queries the store either by exact ground FVP
(``holdsAt`` with ground arguments) or by fluent schema with unification
(non-ground ``holdsFor`` conditions in statically determined rules).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

from repro.intervals import IntervalList
from repro.logic.terms import Compound, Term, is_fvp, is_ground
from repro.rtec.description import FluentKey, fluent_key

__all__ = ["FluentStore"]

_NOTHING = IntervalList.empty()


class FluentStore:
    """Ground FVP -> maximal intervals, with a per-schema index."""

    def __init__(self) -> None:
        self._intervals: Dict[Term, IntervalList] = {}
        self._by_key: Dict[FluentKey, List[Term]] = defaultdict(list)

    def set(self, pair: Term, intervals: IntervalList) -> None:
        """Record the intervals of a ground FVP (replacing any previous value)."""
        if not (is_fvp(pair) and is_ground(pair)):
            raise ValueError("fluent store keys must be ground FVPs: %r" % (pair,))
        assert isinstance(pair, Compound)
        if pair not in self._intervals:
            self._by_key[fluent_key(pair.args[0])].append(pair)
        self._intervals[pair] = intervals

    def get(self, pair: Term) -> IntervalList:
        """Intervals of a ground FVP; empty when nothing is known."""
        return self._intervals.get(pair, _NOTHING)

    def holds_at(self, pair: Term, time: int) -> bool:
        return self.get(pair).holds_at(time)

    def instances(self, key: FluentKey) -> Iterator[Tuple[Term, IntervalList]]:
        """All recorded ground FVPs of one fluent schema, with their intervals."""
        for pair in self._by_key.get(key, ()):
            yield pair, self._intervals[pair]

    def items(self) -> Iterator[Tuple[Term, IntervalList]]:
        return iter(self._intervals.items())

    def __contains__(self, pair: Term) -> bool:
        return pair in self._intervals

    def __len__(self) -> int:
        return len(self._intervals)
