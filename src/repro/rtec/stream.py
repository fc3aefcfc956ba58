"""Input streams for the RTEC engine.

The engine consumes two kinds of input (Section 3.2 of the paper):

* **input events** — instantaneous, e.g. ``entersArea(v1, a3)`` at ``T``;
  modelled by :class:`Event` and stored in an :class:`EventStream`;
* **input fluents** — durative inputs whose maximal intervals arrive with
  the stream (e.g. ``proximity(v1, v2) = true``); modelled by
  :class:`InputFluents`, a mapping from ground FVP to
  :class:`~repro.intervals.IntervalList`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.intervals import IntervalList
from repro.logic.terms import Compound, Constant, Term, is_ground

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rtec.partition import PartitionAnalysis

__all__ = ["Event", "EventStream", "InputFluents", "InputShard", "partition_input"]


@dataclass(frozen=True)
class Event:
    """A ground input event occurrence: ``happensAt(term, time)``."""

    time: int
    term: Term

    def __post_init__(self) -> None:
        if not is_ground(self.term):
            raise ValueError("events must be ground: %r" % (self.term,))
        if self.time < 0:
            raise ValueError("events occur at non-negative time-points")

    @property
    def functor(self) -> str:
        if isinstance(self.term, Compound):
            return self.term.functor
        if isinstance(self.term, Constant) and isinstance(self.term.value, str):
            return self.term.value
        raise ValueError("event term has no functor: %r" % (self.term,))

    @property
    def arity(self) -> int:
        return self.term.arity if isinstance(self.term, Compound) else 0


class EventStream:
    """A time-ordered store of ground events, indexed by functor.

    Lookups used by the engine:

    * all events with a given functor inside a window (drives the first,
      positive ``happensAt`` condition of ``initiatedAt``/``terminatedAt``
      rules);
    * all events with a given functor at an exact time-point (drives the
      remaining ``happensAt`` conditions, positive or negated).
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._by_functor: Dict[Tuple[str, int], List[Event]] = defaultdict(list)
        self._times_by_functor: Dict[Tuple[str, int], List[int]] = {}
        # First-argument index: events of one functor restricted to one
        # entity (``velocity(v12, ...)``) — body conditions with a bound
        # entity argument and the stream partitioner both use it.
        self._by_entity: Dict[Tuple[str, int, Term], List[Event]] = defaultdict(list)
        self._entity_times: Dict[Tuple[str, int, Term], List[int]] = {}
        # One global sort; the per-functor buckets inherit its order (the
        # bucketing pass below is order-preserving), and iteration reuses
        # the merged list instead of re-sorting the stream on every call.
        self._sorted: List[Event] = sorted(events, key=lambda e: (e.time, repr(e.term)))
        # Global time column parallel to ``_sorted`` — count_in_window and
        # slice_window binary-search it instead of walking buckets.
        self._times: List[int] = [e.time for e in self._sorted]
        self._count = len(self._sorted)
        self._min_time: Optional[int] = self._sorted[0].time if self._sorted else None
        self._max_time: Optional[int] = self._sorted[-1].time if self._sorted else None
        # Per-functor numeric columns for the vectorised rule filter,
        # built lazily by ``columns()`` and dropped on ``append``.
        self._columns: Dict[Tuple[str, int], Tuple[object, tuple]] = {}
        for event in self._sorted:
            key = (event.functor, event.arity)
            self._by_functor[key].append(event)
            if isinstance(event.term, Compound):
                self._by_entity[key + (event.term.args[0],)].append(event)
        for key, bucket in self._by_functor.items():
            self._times_by_functor[key] = [e.time for e in bucket]
        for ekey, bucket in self._by_entity.items():
            self._entity_times[ekey] = [e.time for e in bucket]

    def append(self, event: Event) -> None:
        """Add one event, keeping every index consistent.

        Ingest paths (the serving layer, replay drivers) receive events one
        at a time; rebuilding the stream per arrival would make ingest
        quadratic. In-order arrivals — the overwhelmingly common case —
        append at the tail of every index in O(1); out-of-order arrivals
        fall back to a binary-search insert (O(n) memory move, still far
        cheaper than a rebuild). Nothing is re-sorted or re-validated.
        """
        sort_key = (event.time, repr(event.term))
        if not self._sorted or sort_key >= (
            self._sorted[-1].time,
            repr(self._sorted[-1].term),
        ):
            self._sorted.append(event)
            self._times.append(event.time)
        else:
            position = self._bisect_sorted(sort_key)
            self._sorted.insert(position, event)
            self._times.insert(position, event.time)
        self._count += 1
        self._columns.pop((event.functor, event.arity), None)
        if self._min_time is None or event.time < self._min_time:
            self._min_time = event.time
        if self._max_time is None or event.time > self._max_time:
            self._max_time = event.time
        key = (event.functor, event.arity)
        self._insert_bucket(
            self._by_functor[key], self._times_by_functor.setdefault(key, []), event
        )
        if isinstance(event.term, Compound):
            ekey = key + (event.term.args[0],)
            self._insert_bucket(
                self._by_entity[ekey], self._entity_times.setdefault(ekey, []), event
            )

    def _bisect_sorted(self, sort_key: Tuple[int, str]) -> int:
        """First position whose (time, repr) key exceeds ``sort_key``."""
        lo, hi = 0, len(self._sorted)
        while lo < hi:
            mid = (lo + hi) // 2
            candidate = self._sorted[mid]
            if (candidate.time, repr(candidate.term)) <= sort_key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @staticmethod
    def _insert_bucket(bucket: List[Event], times: List[int], event: Event) -> None:
        """Insert into one (events, times) index pair, O(1) at the tail.

        Buckets inherit the global ``(time, repr(term))`` sort from the
        constructor, so an out-of-order append must position same-time
        events by term representation too — placing by time alone would
        make an appended stream iterate its buckets in a different order
        than a freshly constructed one, breaking the invariant that a
        stream's contents, not its ingest history, determine evaluation.
        """
        if not times or event.time > times[-1]:
            bucket.append(event)
            times.append(event.time)
            return
        # Position among the same-time run by repr, mirroring the
        # constructor's sort key; the run is short in practice.
        lo = bisect_left(times, event.time)
        hi = bisect_right(times, event.time)
        position = hi
        representation = repr(event.term)
        for index in range(lo, hi):
            if repr(bucket[index].term) > representation:
                position = index
                break
        bucket.insert(position, event)
        times.insert(position, event.time)

    @property
    def min_time(self) -> Optional[int]:
        return self._min_time

    @property
    def max_time(self) -> Optional[int]:
        return self._max_time

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Event]:
        return iter(self._sorted)

    def count_in_window(self, start: int, end: int) -> int:
        """Number of events with ``start < time <= end``, across all functors.

        An inverted window (``start > end``) contains nothing and counts 0.
        """
        times = self._times
        return max(0, bisect_right(times, end) - bisect_right(times, start))

    def slice_window(self, start: int, end: Optional[int] = None) -> "EventStream":
        """A new stream holding the events with ``start < time <= end``.

        Every index is produced by binary-search slicing of this stream's
        already-sorted indexes — no re-sort, no per-event filtering, and no
        ``repr`` sort keys. With ``end=None`` the slice is unbounded above.
        The result is a fully independent ``EventStream`` (sharing the
        immutable :class:`Event` objects) equal to
        ``EventStream(e for e in self if start < e.time <= end)``.
        """
        times = self._times
        lo = bisect_right(times, start)
        hi = len(times) if end is None else bisect_right(times, end)
        clone = object.__new__(EventStream)
        clone._by_functor = defaultdict(list)
        clone._times_by_functor = {}
        clone._by_entity = defaultdict(list)
        clone._entity_times = {}
        clone._columns = {}
        if lo >= hi:
            clone._sorted = []
            clone._times = []
            clone._count = 0
            clone._min_time = None
            clone._max_time = None
            return clone
        clone._sorted = self._sorted[lo:hi]
        clone._times = times[lo:hi]
        clone._count = hi - lo
        clone._min_time = clone._sorted[0].time
        clone._max_time = clone._sorted[-1].time
        for key, bucket_times in self._times_by_functor.items():
            b_lo = bisect_right(bucket_times, start)
            b_hi = len(bucket_times) if end is None else bisect_right(bucket_times, end)
            if b_lo < b_hi:
                clone._by_functor[key] = self._by_functor[key][b_lo:b_hi]
                clone._times_by_functor[key] = bucket_times[b_lo:b_hi]
        for ekey, bucket_times in self._entity_times.items():
            b_lo = bisect_right(bucket_times, start)
            b_hi = len(bucket_times) if end is None else bisect_right(bucket_times, end)
            if b_lo < b_hi:
                clone._by_entity[ekey] = self._by_entity[ekey][b_lo:b_hi]
                clone._entity_times[ekey] = bucket_times[b_lo:b_hi]
        return clone

    def columns(
        self, functor: str, arity: int
    ) -> Optional[Tuple[List[Event], List[int], object, tuple]]:
        """Columnar view of one functor bucket for the vectorised rule filter.

        Returns ``(bucket, times, np_times, value_columns)`` or ``None``
        when the bucket is empty. ``value_columns`` has one entry per
        argument position: a float64 array of that argument's values when
        every event carries a :func:`float64_exact` numeric constant there,
        else ``None`` (the vectorised filter then falls back to the
        per-event path for sides touching that position); ``np_times`` is
        the same for the occurrence times. Built lazily per bucket and
        cached until the next ``append`` of this functor.
        """
        key = (functor, arity)
        bucket = self._by_functor.get(key)
        if not bucket:
            return None
        times = self._times_by_functor[key]
        cached = self._columns.get(key)
        if cached is None:
            cached = _build_columns(bucket, times, arity)
            self._columns[key] = cached
        np_times, value_columns = cached
        return bucket, times, np_times, value_columns

    def _bucket(
        self, functor: str, arity: int, first: Optional[Term]
    ) -> Tuple[Sequence[Event], Sequence[int]]:
        """The sorted ``(events, times)`` index for ``functor/arity``: the
        first-argument bucket when ``first`` is given, else the functor's;
        empty when no such event was seen."""
        if first is not None and arity > 0:
            key = (functor, arity, first)
            return self._by_entity.get(key, ()), self._entity_times.get(key, ())
        return (
            self._by_functor.get((functor, arity), ()),
            self._times_by_functor.get((functor, arity), ()),
        )

    def events_in_window(
        self, functor: str, arity: int, start: int, end: int, first: Optional[Term] = None
    ) -> Iterator[Event]:
        """Events named ``functor/arity`` with ``start < time <= end`` (RTEC window).

        ``first``, when given, restricts the scan to events whose first
        argument is that ground term (first-argument indexing).
        """
        bucket, times = self._bucket(functor, arity, first)
        return iter(bucket[bisect_right(times, start):bisect_right(times, end)])

    def events_at(
        self, functor: str, arity: int, time: int, first: Optional[Term] = None
    ) -> Iterator[Event]:
        """Events named ``functor/arity`` occurring exactly at ``time``."""
        bucket, times = self._bucket(functor, arity, first)
        return iter(bucket[bisect_left(times, time):bisect_right(times, time)])

    def functors(self) -> List[Tuple[str, int]]:
        return sorted(self._by_functor)


def float64_exact(value: object) -> bool:
    """Whether ``value`` compares as a float64 exactly as it does in Python.

    Integers beyond ±2**53 are not representable, and ``nan``/``inf`` make
    ``|a - b| <= eps`` disagree with ``math.isclose``; the vectorised rule
    filter leaves both to the per-event path.
    """
    if isinstance(value, int):
        return -(2**53) <= value <= 2**53
    return isinstance(value, float) and math.isfinite(value)


def _build_columns(
    bucket: List[Event], times: List[int], arity: int
) -> Tuple[object, tuple]:
    import numpy

    count = len(bucket)
    # ``times`` is sorted, so its ends bound every entry.
    np_times = None
    if float64_exact(times[0]) and float64_exact(times[-1]):
        np_times = numpy.array(times, dtype=numpy.float64)
    value_columns = []
    for position in range(arity):
        values = numpy.empty(count, dtype=numpy.float64)
        usable = True
        for index, event in enumerate(bucket):
            argument = event.term.args[position]
            if not (isinstance(argument, Constant) and float64_exact(argument.value)):
                usable = False
                break
            values[index] = argument.value
        value_columns.append(values if usable else None)
    return np_times, tuple(value_columns)


class InputFluents:
    """Ground FVP -> maximal intervals, for durative inputs such as ``proximity``."""

    def __init__(self, intervals: Optional[Dict[Term, IntervalList]] = None) -> None:
        self._intervals: Dict[Term, IntervalList] = {}
        for fvp_term, interval_list in (intervals or {}).items():
            self.set(fvp_term, interval_list)

    def set(self, fvp_term: Term, interval_list: IntervalList) -> None:
        if not is_ground(fvp_term):
            raise ValueError("input fluent FVPs must be ground: %r" % (fvp_term,))
        self._intervals[fvp_term] = interval_list

    def items(self) -> Iterator[Tuple[Term, IntervalList]]:
        return iter(self._intervals.items())

    def get(self, fvp_term: Term) -> IntervalList:
        return self._intervals.get(fvp_term, IntervalList.empty())

    def __len__(self) -> int:
        return len(self._intervals)

    def __contains__(self, fvp_term: Term) -> bool:
        return fvp_term in self._intervals


@dataclass
class InputShard:
    """One entity component's slice of the input (plus, at execution time,
    a copy of the global items every shard receives)."""

    entities: FrozenSet[Term]
    events: List[Event] = field(default_factory=list)
    fluents: Dict[Term, IntervalList] = field(default_factory=dict)


def partition_input(
    stream: EventStream,
    input_fluents: InputFluents,
    analysis: "PartitionAnalysis",
    extra_entities: Iterable[Tuple[Term, ...]] = (),
) -> Tuple[List[InputShard], List[Event], Dict[Term, IntervalList]]:
    """Split the input by entity key according to a partitionability analysis.

    Entities mentioned together by one input item (a ``proximity(V1,V2)``
    interval, a multi-entity event) must be recognised together: the
    partitioner unions them and produces one :class:`InputShard` per
    connected component, ordered deterministically. Items of global (entity
    free) schemas are returned separately — callers replicate them to
    every shard, where their derivations are identical and merge
    idempotently.

    ``extra_entities`` are additional entity tuples to co-locate (and keep
    alive as components) even when absent from this input — online sessions
    pass the entities of carried open initiations here.

    Returns ``(shards, global events, global fluents)``.
    """
    parent: Dict[Term, Term] = {}

    def find(term: Term) -> Term:
        while parent[term] is not term:
            parent[term] = parent[parent[term]]
            term = parent[term]
        return term

    def union(items: Tuple[Term, ...]) -> None:
        for term in items:
            parent.setdefault(term, term)
        for left, right in zip(items, items[1:]):
            root_left, root_right = find(left), find(right)
            if root_left is not root_right:
                parent[root_left] = root_right

    keyed_events: List[Tuple[Event, Term]] = []
    global_events: List[Event] = []
    for event in stream:
        entities = analysis.event_entities(event.term)
        if not entities:
            global_events.append(event)
            continue
        union(entities)
        keyed_events.append((event, entities[0]))

    keyed_fluents: List[Tuple[Term, IntervalList, Term]] = []
    global_fluents: Dict[Term, IntervalList] = {}
    for pair, intervals in input_fluents.items():
        entities = analysis.fvp_entities(pair)
        if not entities:
            global_fluents[pair] = intervals
            continue
        union(entities)
        keyed_fluents.append((pair, intervals, entities[0]))

    for entities in extra_entities:
        if entities:
            union(entities)

    members: Dict[Term, List[Term]] = defaultdict(list)
    for term in parent:
        members[find(term)].append(term)
    shards: List[InputShard] = []
    shard_of: Dict[Term, int] = {}
    for root in sorted(members, key=repr):
        shard_of[root] = len(shards)
        shards.append(InputShard(entities=frozenset(members[root])))
    for event, entity in keyed_events:
        shards[shard_of[find(entity)]].events.append(event)
    for pair, intervals, entity in keyed_fluents:
        shards[shard_of[find(entity)]].fluents[pair] = intervals
    return shards, global_events, global_fluents
