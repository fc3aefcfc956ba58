"""Unit and property tests for the RTEC interval constructs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import (
    IntervalList,
    intersect_all,
    relative_complement_all,
    union_all,
)
from repro.intervals.operations import complement_within


def _points(interval_lists):
    covered = set()
    for ilist in interval_lists:
        covered |= set(ilist.points())
    return covered


class TestUnionAll:
    def test_empty_input(self):
        assert union_all([]) == IntervalList.empty()

    def test_merges_overlaps(self):
        result = union_all([IntervalList([(1, 5)]), IntervalList([(3, 9)])])
        assert result.as_pairs() == [(1, 9)]

    def test_disjoint_preserved(self):
        result = union_all([IntervalList([(1, 2)]), IntervalList([(5, 6)])])
        assert result.as_pairs() == [(1, 2), (5, 6)]

    def test_union_with_empty_list(self):
        result = union_all([IntervalList([(1, 2)]), IntervalList.empty()])
        assert result.as_pairs() == [(1, 2)]


class TestIntersectAll:
    def test_requires_input(self):
        with pytest.raises(ValueError):
            intersect_all([])

    def test_pairwise(self):
        result = intersect_all([IntervalList([(1, 6)]), IntervalList([(4, 9)])])
        assert result.as_pairs() == [(4, 6)]

    def test_three_way(self):
        result = intersect_all(
            [IntervalList([(1, 10)]), IntervalList([(3, 8)]), IntervalList([(5, 12)])]
        )
        assert result.as_pairs() == [(5, 8)]

    def test_disjoint_yields_empty(self):
        result = intersect_all([IntervalList([(1, 2)]), IntervalList([(5, 6)])])
        assert not result

    def test_with_empty_operand(self):
        result = intersect_all([IntervalList([(1, 9)]), IntervalList.empty()])
        assert not result

    def test_multi_fragment(self):
        left = IntervalList([(1, 3), (6, 9)])
        right = IntervalList([(2, 7)])
        assert intersect_all([left, right]).as_pairs() == [(2, 3), (6, 7)]


class TestRelativeComplementAll:
    def test_no_cover_returns_base(self):
        base = IntervalList([(1, 9)])
        assert relative_complement_all(base, []) == base
        assert relative_complement_all(base, [IntervalList.empty()]) == base

    def test_removes_middle(self):
        base = IntervalList([(1, 9)])
        result = relative_complement_all(base, [IntervalList([(4, 6)])])
        assert result.as_pairs() == [(1, 3), (7, 9)]

    def test_removes_edges(self):
        base = IntervalList([(1, 9)])
        result = relative_complement_all(base, [IntervalList([(1, 2)]), IntervalList([(8, 9)])])
        assert result.as_pairs() == [(3, 7)]

    def test_full_cover_yields_empty(self):
        base = IntervalList([(2, 5)])
        assert not relative_complement_all(base, [IntervalList([(1, 9)])])

    def test_complement_within_window(self):
        result = complement_within((0, 10), IntervalList([(2, 4), (8, 8)]))
        assert result.as_pairs() == [(0, 1), (5, 7), (9, 10)]


# -- properties over random interval lists -------------------------------

_interval_lists = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 30)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=5,
).map(IntervalList)


class TestProperties:
    @given(lists=st.lists(_interval_lists, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_union_is_pointwise_or(self, lists):
        expected = set()
        for ilist in lists:
            expected |= set(ilist.points())
        assert set(union_all(lists).points()) == expected

    @given(lists=st.lists(_interval_lists, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_intersection_is_pointwise_and(self, lists):
        expected = set(lists[0].points())
        for ilist in lists[1:]:
            expected &= set(ilist.points())
        assert set(intersect_all(lists).points()) == expected

    @given(base=_interval_lists, lists=st.lists(_interval_lists, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_relative_complement_is_pointwise_difference(self, base, lists):
        expected = set(base.points())
        for ilist in lists:
            expected -= set(ilist.points())
        assert set(relative_complement_all(base, lists).points()) == expected

    @given(lists=st.lists(_interval_lists, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_union_absorbs_intersection(self, lists):
        union = union_all(lists)
        intersection = intersect_all(lists)
        assert union_all([union, intersection]) == union

    @given(lists=st.lists(_interval_lists, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_intersection_is_built_maximal(self, lists):
        """The sweep's pieces skip normalisation: re-normalising changes nothing."""
        result = intersect_all(lists)
        assert result.raw() == IntervalList(result.raw()).raw()

    @given(ilist=_interval_lists, start=st.integers(-5, 95), length=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_restrict_clips_pointwise_and_stays_maximal(self, ilist, start, length):
        end = start + length
        clipped = ilist.restrict(start, end)
        assert set(clipped.points()) == {p for p in ilist.points() if start <= p <= end}
        assert clipped.raw() == IntervalList(clipped.raw()).raw()
        if all(start <= p <= end for p in ilist.points()):
            assert clipped is ilist

    @given(left=_interval_lists, right=_interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_commutativity(self, left, right):
        assert union_all([left, right]) == union_all([right, left])
        assert intersect_all([left, right]) == intersect_all([right, left])


class TestResultOwnership:
    """The constructs may return one of their *input* objects.

    ``union_all`` with exactly one non-empty operand and ``intersect_all``
    with a singleton list skip the sweep and hand back the input — safe only
    because :class:`IntervalList` enforces immutability. These are the
    regression tests the fast paths in ``operations.py`` point at.
    """

    def test_union_single_non_empty_returns_the_input(self):
        only = IntervalList([(1, 5), (9, 12)])
        result = union_all([IntervalList.empty(), only, IntervalList.empty()])
        assert result is only

    def test_intersect_singleton_returns_the_input(self):
        only = IntervalList([(1, 5)])
        assert intersect_all([only]) is only

    def test_shared_results_cannot_be_mutated(self):
        only = IntervalList([(1, 5)])
        shared = union_all([only])
        with pytest.raises(AttributeError):
            shared._intervals = ()
        with pytest.raises(AttributeError):
            del shared._intervals
        with pytest.raises(AttributeError):
            intersect_all([only]).anything = 1

    def test_as_pairs_never_aliases_internal_state(self):
        only = IntervalList([(1, 5)])
        pairs = union_all([only]).as_pairs()
        pairs.append((99, 100))
        assert only.as_pairs() == [(1, 5)]
