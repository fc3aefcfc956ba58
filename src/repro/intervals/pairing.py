"""Pairing initiation and termination points into maximal intervals.

Section 2 of the paper: for a simple FVP, RTEC "computes the maximal
intervals of F=V by matching each initiation Ts with the first termination
Te of F=V after Ts, ignoring every intermediate initiation between Ts and
Te". An initiation with no later termination holds until the current query
time (the window end) and remains *open*: the engine carries the open
period's initiation point into the next window, which is how inertia
survives the forgetting of old events.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.intervals.interval import Interval, IntervalList

__all__ = ["make_intervals_from_points", "pair_intervals"]


def pair_intervals(
    initiations: Iterable[int],
    terminations: Iterable[int],
    open_end: Optional[int] = None,
    max_duration: Optional[int] = None,
    closed_until: Optional[int] = None,
) -> Tuple[IntervalList, Optional[int], Optional[int]]:
    """Build the maximal intervals of a simple FVP, reporting openness.

    Parameters
    ----------
    initiations:
        Time-points at which an ``initiatedAt`` rule fired.
    terminations:
        Time-points at which a ``terminatedAt`` rule fired.
    open_end:
        Query time ``qi``: an initiation with no subsequent termination
        yields an interval open until ``open_end``. When ``None``, such
        trailing initiations produce no visible interval yet.
    max_duration:
        RTEC deadline support (``maxDuration/2`` declarations): a period
        initiated at ``Ts`` is terminated at ``Ts + max_duration`` unless an
        explicit termination arrives earlier. Intermediate initiations do
        not reset the deadline; the first initiation *after* the deadline
        starts a fresh period.
    closed_until:
        Initiations at or before this point are ignored: a previous window
        already closed a period covering them, so they are intermediate
        initiations of a final period whose anchoring initiation event has
        since been forgotten. Without the barrier they would re-anchor a
        phantom period with a later ``max_duration`` deadline.

    Returns
    -------
    (intervals, open_start, deadline_close):
        The maximal intervals under the ``(Ts, Te]`` semantics; the
        initiation point of the period that is still open at the query time
        (``None`` when every period is closed); and the *latest* end of any
        period closed by its ``max_duration`` deadline (``None`` when no
        period was). A closed period's endpoint is fixed: forgetting its
        termination event later cannot re-open it. Deadline closes leave no
        termination event behind, so the caller must carry
        ``deadline_close`` as the next window's ``closed_until`` barrier;
        explicit closes need no barrier because re-pairing the retained
        events reproduces the same endpoint from any anchor.

        One barrier suffices for a window with *several* deadline-closed
        periods: periods are paired in initiation order, every later period
        anchors strictly after the previous close, so deadline closes are
        non-decreasing along the loop and the latest one covers — i.e. is
        ``>=`` — every earlier close. The max is taken explicitly below so
        the guarantee does not hinge on that ordering argument alone
        (``tests/intervals/test_pairing.py`` exercises the multi-deadline
        and crash/restore cases).
    """
    if max_duration is not None and max_duration <= 0:
        raise ValueError("max_duration must be positive")
    init_points = sorted(set(initiations))
    term_points = sorted(set(terminations))
    if open_end is not None:
        # open_end is the query time: later points are not yet known.
        init_points = [p for p in init_points if p <= open_end]
        term_points = [p for p in term_points if p <= open_end]
    if closed_until is not None:
        init_points = [p for p in init_points if p > closed_until]
    intervals: List[Interval] = []
    open_start: Optional[int] = None
    deadline_close: Optional[int] = None
    ti = 0
    i = 0
    n_terms = len(term_points)
    while i < len(init_points):
        ts = init_points[i]
        # First termination at T'' with Ts <= T'' ends the period; a
        # termination at exactly Ts cancels the initiation (no point holds).
        while ti < n_terms and term_points[ti] < ts:
            ti += 1
        te = term_points[ti] if ti < n_terms else None
        if te == ts:
            # Simultaneous initiation+termination: the FVP never holds.
            i += 1
            continue
        deadline = ts + max_duration if max_duration is not None else None
        if te is not None and (deadline is None or te <= deadline):
            end: Optional[int] = te  # closed by an explicit termination
        elif deadline is not None and (open_end is None or deadline <= open_end):
            end = deadline  # closed by the deadline within this window
            # Keep the *maximal* close: the barrier carried to the next
            # window must cover every deadline-closed period of this one.
            if deadline_close is None or deadline > deadline_close:
                deadline_close = deadline
        elif deadline is not None:
            # The deadline lies beyond the query time: visible part only,
            # and the period is still open.
            end = open_end
            open_start = ts
        else:
            # No termination and no deadline: open until the query time.
            open_start = ts
            if open_end is not None and open_end > ts:
                intervals.append(Interval(ts + 1, open_end))
            break
        if end is not None and end > ts:
            intervals.append(Interval(ts + 1, end))
        # Skip intermediate initiations inside (ts, end].
        i += 1
        if end is not None:
            while i < len(init_points) and init_points[i] <= end:
                i += 1
    # Periods are paired in order and the next starts past the last close:
    # sorted, disjoint and non-adjacent already.
    return IntervalList._maximal(tuple(intervals)), open_start, deadline_close


def make_intervals_from_points(
    initiations: Iterable[int],
    terminations: Iterable[int],
    open_end: Optional[int] = None,
    max_duration: Optional[int] = None,
) -> IntervalList:
    """The maximal intervals of a simple FVP (see :func:`pair_intervals`)."""
    intervals, _open_start, _deadline_close = pair_intervals(
        initiations, terminations, open_end=open_end, max_duration=max_duration
    )
    return intervals
