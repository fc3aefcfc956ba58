"""Unit tests for intervals and maximal-interval lists."""

import copy
import pickle

import pytest

from repro.intervals import Interval, IntervalList

#: pickle, copy and deepcopy all restore slots with setattr by default, which
#: an immutable list refuses: each used to raise AttributeError.
ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestInterval:
    def test_membership(self):
        interval = Interval(3, 7)
        assert 3 in interval and 7 in interval
        assert 2 not in interval and 8 not in interval

    def test_duration(self):
        assert Interval(3, 7).duration == 5
        assert Interval(4, 4).duration == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_overlaps(self):
        assert Interval(1, 5).overlaps(Interval(5, 9))
        assert not Interval(1, 4).overlaps(Interval(5, 9))

    def test_adjacent(self):
        assert Interval(1, 4).adjacent(Interval(5, 9))
        assert Interval(5, 9).adjacent(Interval(1, 4))
        assert not Interval(1, 4).adjacent(Interval(6, 9))

    def test_repr_shows_rtec_convention(self):
        # [3, 7] closed corresponds to RTEC's (2, 7].
        assert repr(Interval(3, 7)) == "(2, 7]"


class TestIntervalList:
    def test_normalises_overlaps(self):
        ilist = IntervalList([(1, 5), (4, 9)])
        assert ilist.as_pairs() == [(1, 9)]

    def test_normalises_adjacency(self):
        ilist = IntervalList([(1, 4), (5, 9)])
        assert ilist.as_pairs() == [(1, 9)]

    def test_keeps_gaps(self):
        ilist = IntervalList([(1, 3), (6, 9)])
        assert ilist.as_pairs() == [(1, 3), (6, 9)]

    def test_sorts_input(self):
        ilist = IntervalList([(10, 12), (1, 3)])
        assert ilist.as_pairs() == [(1, 3), (10, 12)]

    def test_accepts_interval_objects(self):
        assert IntervalList([Interval(1, 2)]).as_pairs() == [(1, 2)]

    def test_holds_at(self):
        ilist = IntervalList([(1, 3), (6, 9)])
        assert ilist.holds_at(2)
        assert ilist.holds_at(6)
        assert not ilist.holds_at(4)
        assert not ilist.holds_at(0)
        assert not ilist.holds_at(10)

    def test_total_duration(self):
        assert IntervalList([(1, 3), (6, 9)]).total_duration == 7

    def test_span(self):
        assert IntervalList([(1, 3), (6, 9)]).span == (1, 9)
        with pytest.raises(ValueError):
            IntervalList().span

    def test_points(self):
        assert list(IntervalList([(1, 2), (5, 5)]).points()) == [1, 2, 5]

    def test_restrict_clips(self):
        ilist = IntervalList([(1, 5), (8, 12)])
        assert ilist.restrict(3, 9).as_pairs() == [(3, 5), (8, 9)]

    def test_restrict_drops_outside(self):
        assert IntervalList([(1, 2)]).restrict(5, 9).as_pairs() == []

    def test_equality_and_hash(self):
        left = IntervalList([(1, 4), (5, 9)])
        right = IntervalList([(1, 9)])
        assert left == right
        assert hash(left) == hash(right)

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    @pytest.mark.parametrize("pairs", [[], [(1, 5)], [(1, 5), (9, 12), (20, 21), (40, 90)]])
    def test_round_trips_to_an_equal_list(self, how, pairs):
        original = IntervalList(pairs)
        clone = ROUND_TRIPS[how](original)
        assert clone == original and hash(clone) == hash(original)
        assert clone.as_pairs() == pairs
        with pytest.raises(AttributeError):
            clone._intervals = ()

    def test_bool_and_len(self):
        assert not IntervalList()
        assert len(IntervalList([(1, 2), (9, 10)])) == 2

    def test_empty_singleton_helpers(self):
        assert not IntervalList.empty()
        assert IntervalList.single(2, 4).as_pairs() == [(2, 4)]
