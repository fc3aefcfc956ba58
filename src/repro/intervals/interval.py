"""Closed integer intervals and sorted lists of disjoint maximal intervals.

Conventions
-----------

The timeline is the non-negative integers (seconds in the maritime data).
An :class:`Interval` ``[start, end]`` is *closed* on both sides: the fluent
holds at every time-point ``t`` with ``start <= t <= end``.

Under RTEC semantics, a simple fluent initiated at ``Ts`` and next
terminated at ``Te > Ts`` holds over the paper's ``(Ts, Te]``, i.e. at
points ``Ts+1 … Te`` — constructed here as ``Interval(Ts + 1, Te)`` by
:func:`repro.intervals.pairing.make_intervals_from_points`.

An :class:`IntervalList` is an immutable, sorted sequence of disjoint,
non-adjacent intervals (adjacent intervals ``[a, b]``, ``[b+1, c]`` are
coalesced on normalisation), so each stored interval is maximal.

Immutability is *enforced*: attribute assignment on an ``IntervalList``
raises ``AttributeError``. This is what makes it safe for the interval
operations (``union_all`` with a single non-empty input, ``intersect_all``
with a single list) to return an input object instead of a copy — see
``tests/intervals/test_operations.py`` for the ownership regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, List, Tuple, Union

__all__ = ["Interval", "IntervalList"]

_START = attrgetter("start")


@dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval ``[start, end]`` with ``start <= end``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("empty interval: [%r, %r]" % (self.start, self.end))

    def __contains__(self, point: int) -> bool:
        return self.start <= point <= self.end

    def __len__(self) -> int:
        return self.end - self.start + 1

    @property
    def duration(self) -> int:
        """Number of time-points covered."""
        return self.end - self.start + 1

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end

    def adjacent(self, other: "Interval") -> bool:
        """True when the two intervals cover contiguous points with no gap."""
        return self.end + 1 == other.start or other.end + 1 == self.start

    def __repr__(self) -> str:
        return "(%d, %d]" % (self.start - 1, self.end)


class IntervalList:
    """An immutable sorted list of disjoint maximal intervals."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Union[Interval, Tuple[int, int]]] = ()) -> None:
        items: List[Interval] = []
        for item in intervals:
            if isinstance(item, Interval):
                items.append(item)
            else:
                start, end = item
                items.append(Interval(int(start), int(end)))
        object.__setattr__(self, "_intervals", self._normalise(items))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "IntervalList is immutable; build a new list instead of assigning %r" % name
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError("IntervalList is immutable; cannot delete %r" % name)

    def __reduce__(self) -> Tuple[Any, ...]:
        # The default protocol restores slots with setattr, which raises here:
        # pickle, copy.copy and copy.deepcopy all rebuild through __init__.
        return (IntervalList, (self._intervals,))

    @staticmethod
    def _normalise(items: List[Interval]) -> Tuple[Interval, ...]:
        if not items:
            return ()
        # Start order is all the sweep needs: equal starts are absorbed by
        # the ``current.end > last.end`` branch, and a C key avoids the
        # dataclass's Python ``__lt__`` on every comparison.
        items = sorted(items, key=_START)
        merged: List[Interval] = [items[0]]
        for current in items[1:]:
            last = merged[-1]
            if current.start <= last.end + 1:  # overlapping or adjacent
                if current.end > last.end:
                    merged[-1] = Interval(last.start, current.end)
            else:
                merged.append(current)
        return tuple(merged)

    def extend_tail(self, later: "IntervalList") -> "IntervalList":
        """Union with ``later``, which starts at or after this list's last interval.

        Only that interval can touch ``later``: it alone is coalesced (with
        as many of ``later``'s head intervals as it reaches) and the tuples
        are concatenated, with no re-sort or re-normalisation of either list.
        Raises ``ValueError`` when ``later`` starts earlier than that.
        """
        mine, theirs = self._intervals, later._intervals
        if not mine or not theirs:
            return later if theirs else self
        last = mine[-1]
        if theirs[0].start < last.start:
            raise ValueError("%r starts before the last interval of %r" % (later, self))
        end, reached = last.end, 0
        while reached < len(theirs) and theirs[reached].start <= end + 1:
            end = max(end, theirs[reached].end)
            reached += 1
        if end != last.end:
            mine = mine[:-1] + (Interval(last.start, end),)
        result = object.__new__(IntervalList)
        object.__setattr__(result, "_intervals", mine + theirs[reached:])
        return result

    @classmethod
    def empty(cls) -> "IntervalList":
        return _EMPTY

    @classmethod
    def single(cls, start: int, end: int) -> "IntervalList":
        return cls([(start, end)])

    def raw(self) -> Tuple[Interval, ...]:
        """The underlying sorted tuple — lets operations iterate without copying."""
        return self._intervals

    # -- queries -----------------------------------------------------------

    def holds_at(self, point: int) -> bool:
        """Binary-search point membership."""
        intervals = self._intervals
        lo, hi = 0, len(intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            interval = intervals[mid]
            if point < interval.start:
                hi = mid - 1
            elif point > interval.end:
                lo = mid + 1
            else:
                return True
        return False

    @property
    def total_duration(self) -> int:
        """Total number of time-points covered by all intervals."""
        return sum(iv.duration for iv in self._intervals)

    @property
    def span(self) -> Tuple[int, int]:
        """(first covered point, last covered point); raises on empty lists."""
        if not self._intervals:
            raise ValueError("empty interval list has no span")
        return self._intervals[0].start, self._intervals[-1].end

    def points(self) -> Iterator[int]:
        """Yield every covered time-point in increasing order."""
        for interval in self._intervals:
            yield from range(interval.start, interval.end + 1)

    def restrict(self, start: int, end: int) -> "IntervalList":
        """Clip to the closed window ``[start, end]`` (used by the sliding window)."""
        clipped = []
        for iv in self._intervals:
            if iv.end < start or iv.start > end:
                continue
            clipped.append(Interval(max(iv.start, start), min(iv.end, end)))
        return IntervalList(clipped)

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __getitem__(self, index: int) -> Interval:
        return self._intervals[index]

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalList):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        return "IntervalList(%s)" % ", ".join(repr(iv) for iv in self._intervals)

    def as_pairs(self) -> List[Tuple[int, int]]:
        """Return the intervals as ``(start, end)`` tuples (closed bounds)."""
        return [(iv.start, iv.end) for iv in self._intervals]


_EMPTY = IntervalList()
