"""Recognition results: the output of an RTEC run.

A :class:`RecognitionResult` maps every ground fluent-value pair computed
during recognition to its amalgamated maximal intervals, and offers the
query predicates of the RTEC language (``holdsFor``, ``holdsAt``).
Results serialize to plain dictionaries (:meth:`RecognitionResult.to_dict`
/ :meth:`~RecognitionResult.from_dict`) and to stable JSON, which the
serving and checkpoint layers rely on.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.intervals import IntervalList, union_all
from repro.logic.parser import parse_term
from repro.logic.pretty import sorted_by_text
from repro.logic.terms import Compound, Term, is_fvp
from repro.rtec.description import fluent_key

__all__ = ["RecognitionResult"]


class RecognitionResult:
    """Ground FVP -> maximal intervals, amalgamated over all windows."""

    def __init__(self, intervals: Optional[Dict[Term, IntervalList]] = None) -> None:
        self._intervals: Dict[Term, IntervalList] = dict(intervals or {})

    def merge(self, pair: Term, intervals: IntervalList) -> None:
        """Union new window results into the amalgamated intervals of ``pair``."""
        if not intervals:
            return
        existing = self._intervals.get(pair)
        if not existing:
            self._intervals[pair] = intervals
        elif intervals[0].start >= existing[-1].start:
            # What a session merges is clipped to (previous query time,
            # window end], so it can touch the last stored interval only:
            # the cost of a window must not grow with the stream behind it.
            self._intervals[pair] = existing.extend_tail(intervals)
        else:
            self._intervals[pair] = union_all([existing, intervals])

    # -- queries -------------------------------------------------------------

    def holds_for(self, pair: "Term | str") -> IntervalList:
        """Maximal intervals of a ground FVP; accepts concrete syntax strings."""
        return self._intervals.get(self._coerce(pair), IntervalList.empty())

    def holds_at(self, pair: "Term | str", time: int) -> bool:
        return self.holds_for(pair).holds_at(time)

    def instances(self, fluent_name: str, arity: Optional[int] = None) -> Iterator[Tuple[Term, IntervalList]]:
        """All ground FVPs of a fluent schema, e.g. every vessel's ``trawling``."""
        for pair, intervals in sorted(self._intervals.items(), key=lambda kv: repr(kv[0])):
            assert isinstance(pair, Compound)
            key = fluent_key(pair.args[0])
            if key[0] == fluent_name and (arity is None or key[1] == arity):
                yield pair, intervals

    def activity_duration(self, fluent_name: str) -> int:
        """Total recognised time-points summed over all instances of a schema."""
        return sum(iv.total_duration for _, iv in self.instances(fluent_name))

    def fvps(self) -> List[Term]:
        return sorted(self._intervals, key=repr)

    def items(self) -> Iterator[Tuple[Term, IntervalList]]:
        return iter(self._intervals.items())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, List[List[int]]]:
        """FVP concrete syntax -> ``[start, end]`` pairs, sorted by FVP.

        The mapping round-trips through :meth:`from_dict`: terms are
        rendered with the pretty-printer and parsed back, intervals keep
        their closed bounds. Keys are emitted in sorted order so two equal
        results always serialize to the same JSON text.
        """
        return {
            text: [[iv.start, iv.end] for iv in intervals]
            for text, intervals in sorted_by_text(self._intervals)
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Sequence[Sequence[int]]]
    ) -> "RecognitionResult":
        """Rebuild a result from a :meth:`to_dict` mapping."""
        intervals: Dict[Term, IntervalList] = {}
        for text, pairs in data.items():
            pair = cls._coerce(text)
            intervals[pair] = IntervalList(
                (int(start), int(end)) for start, end in pairs
            )
        return cls(intervals)

    def to_json(self) -> str:
        """Stable JSON text: equal results produce identical strings."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RecognitionResult":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecognitionResult):
            return NotImplemented
        return self._intervals == other._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __contains__(self, pair: "Term | str") -> bool:
        return self._coerce(pair) in self._intervals

    @staticmethod
    def _coerce(pair: "Term | str") -> Term:
        if isinstance(pair, str):
            pair = parse_term(pair)
        if not is_fvp(pair):
            raise ValueError("expected an FVP (F=V), got %r" % (pair,))
        return pair
