"""Unit tests for recognition results."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import IntervalList, union_all
from repro.logic.parser import parse_term
from repro.rtec import RecognitionResult
from tests.intervals.test_interval import ROUND_TRIPS


@pytest.fixture
def result():
    recognition = RecognitionResult()
    recognition.merge(parse_term("trawling(v1)=true"), IntervalList([(10, 20)]))
    recognition.merge(parse_term("trawling(v2)=true"), IntervalList([(5, 8)]))
    recognition.merge(parse_term("stopped(v1)=nearPorts"), IntervalList([(1, 4)]))
    return recognition


class TestQueries:
    def test_holds_for_accepts_strings(self, result):
        assert result.holds_for("trawling(v1)=true").as_pairs() == [(10, 20)]

    def test_holds_for_accepts_terms(self, result):
        assert result.holds_for(parse_term("trawling(v2)=true")).as_pairs() == [(5, 8)]

    def test_missing_fvp_is_empty(self, result):
        assert not result.holds_for("trawling(v9)=true")

    def test_holds_at(self, result):
        assert result.holds_at("trawling(v1)=true", 15)
        assert not result.holds_at("trawling(v1)=true", 25)

    def test_rejects_non_fvp(self, result):
        with pytest.raises(ValueError):
            result.holds_for("trawling(v1)")

    def test_instances_by_schema(self, result):
        instances = dict(result.instances("trawling"))
        assert len(instances) == 2

    def test_instances_with_arity_filter(self, result):
        assert not list(result.instances("trawling", arity=2))

    def test_activity_duration_sums_instances(self, result):
        assert result.activity_duration("trawling") == 11 + 4

    def test_contains(self, result):
        assert "trawling(v1)=true" in result
        assert "trawling(v9)=true" not in result


class TestMerge:
    def test_merge_unions_intervals(self):
        recognition = RecognitionResult()
        pair = parse_term("f(v1)=true")
        recognition.merge(pair, IntervalList([(1, 5)]))
        recognition.merge(pair, IntervalList([(4, 9)]))
        assert recognition.holds_for(pair).as_pairs() == [(1, 9)]

    def test_merge_empty_is_noop(self):
        recognition = RecognitionResult()
        recognition.merge(parse_term("f(v1)=true"), IntervalList())
        assert len(recognition) == 0


@st.composite
def _normalised_lists(draw, origin=0):
    """A random normalised list from gaps (>= 2, so never adjacent) and lengths."""
    cursor, pairs = origin, []
    for gap, length in draw(st.lists(st.tuples(st.integers(2, 6), st.integers(0, 6)), max_size=6)):
        pairs.append((cursor + gap, cursor + gap + length))
        cursor += gap + length
    return IntervalList(pairs)


@st.composite
def _stored_and_incoming(draw):
    """``b`` placed relative to ``a``'s last interval: disjoint-later, adjacent,
    overlapping, swallowing several of ``b``'s head intervals (``a``'s last
    one is long, ``b`` starts inside it), starting before it, either empty."""
    stored = draw(_normalised_lists())
    if stored and draw(st.booleans()):
        last = stored[-1]
        stored = IntervalList(stored.as_pairs()[:-1] + [(last.start, last.end + draw(st.integers(0, 40)))])
    anchor = stored[-1].start if stored else 0
    incoming = draw(_normalised_lists(origin=anchor + draw(st.integers(-12, 45))))
    return stored, incoming


class TestTailAppendMerge:
    @settings(max_examples=300, deadline=None)
    @given(_stored_and_incoming())
    def test_merge_equals_the_general_union(self, lists):
        stored, incoming = lists
        pair = parse_term("f(v1)=true")
        recognition = RecognitionResult({pair: stored} if stored else None)
        recognition.merge(pair, incoming)
        merged = recognition.holds_for(pair)
        # Through the constructor: sorts and normalises, no tail path.
        expected = IntervalList(stored.as_pairs() + incoming.as_pairs())
        assert merged == expected == union_all([stored, incoming])
        assert hash(merged) == hash(expected)
        assert merged.raw() == expected.raw()
        with pytest.raises(AttributeError):
            merged._intervals = ()

    def test_every_shape_takes_the_intended_path(self, monkeypatch):
        import repro.rtec.result as module

        general = []
        monkeypatch.setattr(
            module, "union_all", lambda lists: general.append(lists) or union_all(lists)
        )
        pair = parse_term("f(v1)=true")
        recognition = RecognitionResult()
        # Later, adjacent, overlapping, swallowing two head intervals, contained.
        for incoming in (
            [(1, 5)], [(9, 12)], [(13, 14)], [(10, 50)],
            [(10, 12), (20, 22), (49, 55), (60, 61)], [(60, 60)],
        ):
            recognition.merge(pair, IntervalList(incoming))
        assert not general
        assert recognition.holds_for(pair).as_pairs() == [(1, 5), (9, 55), (60, 61)]
        recognition.merge(pair, IntervalList([(7, 7)]))  # starts before the last stored one
        assert len(general) == 1
        assert recognition.holds_for(pair).as_pairs() == [(1, 5), (7, 7), (9, 55), (60, 61)]

    def test_extend_tail_refuses_a_list_that_is_not_a_tail(self):
        with pytest.raises(ValueError, match="starts before"):
            IntervalList([(1, 2), (10, 20)]).extend_tail(IntervalList([(5, 6)]))


class TestSerialization:
    def test_to_dict_renders_terms_and_pairs(self, result):
        data = result.to_dict()
        assert data["trawling(v1)=true"] == [[10, 20]]
        assert data["stopped(v1)=nearPorts"] == [[1, 4]]

    def test_to_dict_is_sorted(self, result):
        assert list(result.to_dict()) == sorted(result.to_dict())

    def test_round_trip_preserves_everything(self, result):
        restored = RecognitionResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.to_dict() == result.to_dict()

    def test_json_round_trip(self, result):
        restored = RecognitionResult.from_json(result.to_json())
        assert restored == result

    def test_json_is_stable(self, result):
        # Byte-identical across round trips: the serving equivalence tests
        # compare detections with string equality on this form.
        text = result.to_json()
        assert RecognitionResult.from_json(text).to_json() == text

    def test_empty_round_trip(self):
        empty = RecognitionResult()
        assert RecognitionResult.from_json(empty.to_json()) == empty

    def test_equality_ignores_insertion_order(self):
        one = RecognitionResult()
        one.merge(parse_term("a(x)=true"), IntervalList([(1, 2)]))
        one.merge(parse_term("b(x)=true"), IntervalList([(3, 4)]))
        other = RecognitionResult()
        other.merge(parse_term("b(x)=true"), IntervalList([(3, 4)]))
        other.merge(parse_term("a(x)=true"), IntervalList([(1, 2)]))
        assert one == other
        assert one.to_json() == other.to_json()

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_pickle_and_copy_round_trips(self, result, how):
        clone = ROUND_TRIPS[how](result)
        assert clone == result and clone.to_json() == result.to_json()

    def test_inequality(self, result):
        other = RecognitionResult.from_dict(result.to_dict())
        other.merge(parse_term("trawling(v1)=true"), IntervalList([(30, 40)]))
        assert other != result
