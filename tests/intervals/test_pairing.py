"""Unit and property tests for initiation/termination pairing (Section 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalList, make_intervals_from_points
from repro.intervals.pairing import pair_intervals


class TestPairing:
    def test_simple_pair(self):
        # Initiated at 3, terminated at 8: holds over (3, 8] = [4, 8].
        result = make_intervals_from_points([3], [8])
        assert result.as_pairs() == [(4, 8)]

    def test_intermediate_initiations_ignored(self):
        result = make_intervals_from_points([3, 5, 6], [8])
        assert result.as_pairs() == [(4, 8)]

    def test_earlier_terminations_ignored(self):
        result = make_intervals_from_points([5], [2, 9])
        assert result.as_pairs() == [(6, 9)]

    def test_multiple_periods(self):
        result = make_intervals_from_points([1, 10], [5, 14])
        assert result.as_pairs() == [(2, 5), (11, 14)]

    def test_simultaneous_initiation_and_termination_cancels(self):
        assert not make_intervals_from_points([4], [4])

    def test_open_interval_until_query_time(self):
        result = make_intervals_from_points([3], [], open_end=10)
        assert result.as_pairs() == [(4, 10)]

    def test_no_open_end_drops_trailing_initiation(self):
        assert not make_intervals_from_points([3], [])

    def test_open_end_at_initiation_point_yields_nothing(self):
        assert not make_intervals_from_points([3], [], open_end=3)

    def test_termination_without_initiation(self):
        assert not make_intervals_from_points([], [5])

    def test_restart_after_termination(self):
        result = make_intervals_from_points([1, 5], [3], open_end=9)
        assert result.as_pairs() == [(2, 3), (6, 9)]

    def test_duplicate_points_deduplicated(self):
        result = make_intervals_from_points([3, 3], [8, 8])
        assert result.as_pairs() == [(4, 8)]


class TestDeadlineBarriers:
    def test_deadline_close_is_reported(self):
        intervals, open_start, deadline_close = pair_intervals(
            [0, 1], [], open_end=10, max_duration=7
        )
        assert intervals.as_pairs() == [(1, 7)]
        assert open_start is None
        assert deadline_close == 7

    def test_explicit_close_reports_no_deadline(self):
        intervals, _open, deadline_close = pair_intervals(
            [0], [5], open_end=10, max_duration=7
        )
        assert intervals.as_pairs() == [(1, 5)]
        assert deadline_close is None

    def test_termination_at_the_deadline_counts_as_explicit(self):
        # The termination event exists in the stream and is forgotten
        # together with any intermediate initiations: no barrier needed.
        _ivs, _open, deadline_close = pair_intervals(
            [0], [7], open_end=10, max_duration=7
        )
        assert deadline_close is None

    def test_last_deadline_close_wins(self):
        intervals, _open, deadline_close = pair_intervals(
            [0, 10], [], open_end=30, max_duration=7
        )
        assert intervals.as_pairs() == [(1, 7), (11, 17)]
        assert deadline_close == 17

    def test_open_period_reports_earlier_deadline_close(self):
        intervals, open_start, deadline_close = pair_intervals(
            [0, 10], [], open_end=12, max_duration=7
        )
        assert intervals.as_pairs() == [(1, 7), (11, 12)]
        assert open_start == 10
        assert deadline_close == 7

    def test_closed_until_suppresses_intermediate_initiations(self):
        # The barrier stands in for a forgotten anchor at 0 whose period a
        # previous window closed at 7: the initiation at 1 must not
        # re-anchor, while the one at 9 starts a genuine new period.
        intervals, open_start, _close = pair_intervals(
            [1, 9], [], open_end=12, max_duration=7, closed_until=7
        )
        assert intervals.as_pairs() == [(10, 12)]
        assert open_start == 9

    def test_closed_until_may_suppress_everything(self):
        intervals, open_start, deadline_close = pair_intervals(
            [1, 2], [], open_end=12, max_duration=7, closed_until=7
        )
        assert not intervals
        assert open_start is None
        assert deadline_close is None

    def test_multiple_deadline_closes_report_the_maximum(self):
        # Three periods in one window: the first two closed by their
        # deadlines, the last by an explicit termination. The single
        # reported barrier must be the *maximum* deadline close so it
        # covers every deadline-closed period of the window.
        intervals, open_start, deadline_close = pair_intervals(
            [0, 10, 20], [25], open_end=40, max_duration=7
        )
        assert intervals.as_pairs() == [(1, 7), (11, 17), (21, 25)]
        assert open_start is None
        assert deadline_close == 17

    def test_single_barrier_covers_every_deadline_closed_period(self):
        # Next-window view of the scenario above after the anchors at 0
        # and 10 were forgotten: intermediate initiations of *both*
        # deadline-closed periods survive, and the one carried barrier
        # must suppress them all — none may re-anchor a phantom period.
        intervals, open_start, deadline_close = pair_intervals(
            [1, 2, 11, 12], [], open_end=40, max_duration=7, closed_until=17
        )
        assert not intervals
        assert open_start is None
        assert deadline_close is None


class TestPairingProperties:
    @given(
        initiations=st.lists(st.integers(0, 50), max_size=10),
        terminations=st.lists(st.integers(0, 50), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_semantics(self, initiations, terminations):
        """holdsAt(F=V, T) iff some initiation Ts < T has no termination in
        [Ts, T) — checked point by point against the interval output."""
        result = make_intervals_from_points(initiations, terminations, open_end=60)
        init_set = sorted(set(initiations))
        term_set = sorted(set(terminations))
        for t in range(0, 61):
            holds = any(
                ts < t and not any(ts <= te < t for te in term_set)
                for ts in init_set
            )
            assert result.holds_at(t) == holds, "mismatch at t=%d" % t

    @given(
        initiations=st.lists(st.integers(0, 50), max_size=10),
        terminations=st.lists(st.integers(0, 50), max_size=10),
        open_end=st.one_of(st.none(), st.integers(0, 60)),
        max_duration=st.one_of(st.none(), st.integers(1, 12)),
        closed_until=st.one_of(st.none(), st.integers(0, 30)),
    )
    @settings(max_examples=200, deadline=None)
    def test_periods_are_built_maximal(
        self, initiations, terminations, open_end, max_duration, closed_until
    ):
        """Pairing skips normalisation: re-normalising changes nothing."""
        intervals, _open, _close = pair_intervals(
            initiations, terminations, open_end, max_duration, closed_until
        )
        assert intervals.raw() == IntervalList(intervals.raw()).raw()

    @given(
        initiations=st.lists(st.integers(0, 50), max_size=8),
        terminations=st.lists(st.integers(0, 50), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_nothing_holds_beyond_open_end(self, initiations, terminations):
        result = make_intervals_from_points(initiations, terminations, open_end=30)
        assert all(not result.holds_at(t) for t in range(31, 60))
