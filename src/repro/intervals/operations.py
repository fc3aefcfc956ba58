"""The RTEC interval manipulation constructs (Definition 2.4).

``union_all``, ``intersect_all`` and ``relative_complement_all`` operate on
lists of maximal-interval lists and always return a normalised
:class:`~repro.intervals.interval.IntervalList`.

Each construct is one pure-Python sweep over the sorted inputs, in
``O(total number of intervals × log)``.

Ownership: the constructs may return one of their *input* ``IntervalList``
objects (``union_all`` with a single non-empty input, ``intersect_all``
with a single list, ``relative_complement_all`` with nothing covered).
``IntervalList`` enforces immutability (attribute assignment raises), so
sharing is safe; callers must not rely on result identity.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.intervals.interval import Interval, IntervalList

__all__ = ["union_all", "intersect_all", "relative_complement_all", "complement_within"]


def union_all(interval_lists: Sequence[IntervalList]) -> IntervalList:
    """Maximal intervals during which *at least one* of the inputs holds.

    ``union_all([]) == IntervalList.empty()``.
    """
    non_empty = [il for il in interval_lists if il]
    if not non_empty:
        return IntervalList.empty()
    if len(non_empty) == 1:
        # Returns the input object itself: safe because IntervalList is
        # immutable and already normalised (ownership regression tests in
        # tests/intervals/test_operations.py).
        return non_empty[0]
    combined: List[Interval] = []
    for interval_list in non_empty:
        combined.extend(interval_list.raw())
    return IntervalList(combined)


def intersect_all(interval_lists: Sequence[IntervalList]) -> IntervalList:
    """Maximal intervals during which *all* of the inputs hold simultaneously.

    The intersection of zero lists is undefined in RTEC; we raise to surface
    malformed generated rules instead of silently returning everything.
    """
    lists = list(interval_lists)
    if not lists:
        raise ValueError("intersect_all requires at least one interval list")
    # A single list is returned as-is (immutable, already normalised) —
    # same ownership contract as union_all.
    result = lists[0]
    for other in lists[1:]:
        result = _intersect_two(result, other)
        if not result:
            break
    return result


def _intersect_two(left: IntervalList, right: IntervalList) -> IntervalList:
    left_items = left.raw()
    right_items = right.raw()
    if not left_items or not right_items:
        return IntervalList.empty()
    out: List[Interval] = []
    i = j = 0
    while i < len(left_items) and j < len(right_items):
        a, b = left_items[i], right_items[j]
        start = max(a.start, b.start)
        end = min(a.end, b.end)
        if start <= end:
            out.append(Interval(start, end))
        if a.end < b.end:
            i += 1
        else:
            j += 1
    return IntervalList(out)


def relative_complement_all(
    base: IntervalList, interval_lists: Sequence[IntervalList]
) -> IntervalList:
    """Maximal sub-intervals of ``base`` during which *none* of the inputs hold.

    This is RTEC's ``relative_complement_all(I', L, I)``: the part of ``I'``
    not covered by the union of the lists in ``L``.
    """
    if not base:
        return base
    covered = union_all(interval_lists)
    if not covered:
        return base
    out: List[Interval] = []
    cov = covered.raw()
    n = len(cov)
    j = 0  # persistent: both sides are sorted, so never rescan consumed cover
    for interval in base.raw():
        cursor = interval.start
        while j < n and cov[j].end < cursor:
            j += 1
        k = j
        while k < n and cov[k].start <= interval.end:
            c = cov[k]
            if c.start > cursor:
                out.append(Interval(cursor, c.start - 1))
            if c.end + 1 > cursor:
                cursor = c.end + 1
            if cursor > interval.end:
                break
            k += 1
        if cursor <= interval.end:
            out.append(Interval(cursor, interval.end))
    return IntervalList(out)


def complement_within(window: Tuple[int, int], interval_list: IntervalList) -> IntervalList:
    """Maximal intervals inside the closed window where ``interval_list`` does not hold."""
    start, end = window
    base = IntervalList.single(start, end)
    return relative_complement_all(base, [interval_list])
