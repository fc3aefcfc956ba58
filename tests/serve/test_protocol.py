"""Unit tests for the JSON-lines wire protocol."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.parser import parse_term
from repro.logic.terms import Compound
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
    parse_event_term,
    require_fvp,
    require_intervals,
    require_session,
    require_time,
)
from repro.serve.protocol import _parse_flat


class TestFraming:
    def test_decode_valid_line(self):
        message = decode_line(b'{"type": "status"}\n')
        assert message == {"type": "status"}

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"not json\n")
        assert excinfo.value.code == "bad-json"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_decode_rejects_missing_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b'{"session": "s"}\n')
        assert excinfo.value.code == "bad-request"

    def test_encode_is_one_stable_line(self):
        line = encode(ok_response(b=2, a=1))
        assert line.endswith(b"\n")
        assert line == b'{"a":1,"b":2,"ok":true}\n'
        assert json.loads(line) == {"ok": True, "a": 1, "b": 2}

    def test_error_response_shape(self):
        response = error_response("backpressure", "full", retry_after=0.05)
        assert response["ok"] is False
        assert response["error"] == "backpressure"
        assert response["retry_after"] == 0.05


class TestEventTermParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "alarm",
            "stop_start(van1)",
            "entersArea(v1, a3)",
            "speed(v2, 35)",
            "velocity(v1, 12.5, 100, 3)",
            "change_in_heading(v7)",
        ],
    )
    def test_fast_path_agrees_with_full_parser(self, text):
        assert parse_event_term(text) == parse_term(text)

    def test_fvp_terms_fall_back_to_full_parser(self):
        assert parse_event_term("proximity(v1, v2)=true") == parse_term(
            "proximity(v1, v2)=true"
        )

    def test_nested_terms_fall_back_to_full_parser(self):
        assert parse_event_term("f(g(a), 3)") == parse_term("f(g(a), 3)")

    def test_cache_returns_same_object(self):
        assert parse_event_term("entersArea(v1, a3)") is parse_event_term(
            "entersArea(v1, a3)"
        )

    def test_rejects_variables(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_event_term("entersArea(V, a3)")
        assert excinfo.value.code == "bad-term"

    def test_rejects_unparsable(self):
        with pytest.raises(ProtocolError):
            parse_event_term("9not a term((")

    def test_negative_number_argument(self):
        assert parse_event_term("delta(v1, -3)") == parse_term("delta(v1, -3)")


#: Numerals and near-numerals Python's ``int``/``float`` read and the parser
#: does not, characters ``str.islower``/``str.strip`` accept and it does not,
#: and what it does read; the property mixes them with arbitrary text.
_TRICKY = [
    "-inf", "+inf", "inf", "-nan", "nan", "-Infinity", "1_000", "+5", ".5", "5.", "1e3",
    "1E-5", "0x1f", "\u0661\u0662", "\u00b2", "\u2170", "\u24d0", "ab\u2170", "\u00e9t\u00e9",
    "-0", "-0.0", "007", "1.2.3", "- 5", "3 4", "v1", "_x", "X", "a b", "",
]
#: Mostly the parser's own layout, now and then a character only ``str.strip`` drops.
_LAYOUTS = st.sampled_from(
    ["", "", "", "", "", "", " ", " ", "\t", "\n", "\x0b", "\xa0", "\u2003"]
)
_arguments = st.builds(
    lambda before, core, after: before + core + after,
    _LAYOUTS,
    st.one_of(
        st.sampled_from(_TRICKY),
        st.integers().map(str),
        st.floats().map(repr),
        st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{1,4})?", fullmatch=True),
        # Python's numeral grammar, which ``int``/``float`` read: signs,
        # underscores, bare dots and exponents.
        st.from_regex(r"[-+]?[0-9_]{0,3}\.?[0-9_]{0,3}([eE][-+]?[0-9]{1,3})?", fullmatch=True),
        st.from_regex(r"[a-z][A-Za-z0-9_]{0,4}", fullmatch=True),
        st.text(max_size=4),
    ),
    _LAYOUTS,
)
_compounds = st.builds(
    lambda before, functor, args: before + functor + "(" + ",".join(args) + ")",
    _LAYOUTS,
    st.sampled_from(["velocity", "f", "fX_1", "F", "\u2170", "f ", "g(a)"]),
    st.lists(_arguments, min_size=1, max_size=3),
)
_event_texts = st.one_of(_compounds, _compounds, _arguments, st.text(max_size=12))


def _typed(term):
    """``repr`` with the type of every constant: ``1`` and ``1.0`` differ."""
    if isinstance(term, Compound):
        return term.functor, tuple(_typed(arg) for arg in term.args)
    return type(term).__name__, type(getattr(term, "value", None)).__name__, repr(term)


class TestFastPathReadsWhatTheParserReads:
    @settings(max_examples=1000, deadline=None)
    @given(_event_texts)
    @example("velocity(v1, -inf, 90, 90)")
    @example("velocity(v1, 1_000, +5, .5)")
    @example("speed(v1, +5)")
    @example("speed(v1, -Infinity)")
    @example("f(5., 1e3, \u0661\u0662)")
    @example("f(\u2170)")
    @example("f(a\x0b)")
    @example("f(" + "9" * 400 + ".0)")
    def test_the_fast_path_is_none_or_the_parsers_term(self, text):
        fast = _parse_flat(text)
        if fast is not None:
            full = parse_term(text)  # a fast read of text the parser rejects fails here
            assert repr(fast) == repr(full)
            assert _typed(fast) == _typed(full)

    @pytest.mark.parametrize("text", ["speed(v1, -inf)", "speed(v1, 1e3)", "speed(v1, +5)"])
    def test_a_numeral_outside_the_grammar_is_a_bad_term(self, text):
        with pytest.raises(ProtocolError) as excinfo:
            parse_event_term(text)
        assert excinfo.value.code == "bad-term"


class TestFieldValidation:
    def test_require_session(self):
        assert require_session({"session": "s0"}) == "s0"

    @pytest.mark.parametrize("value", [None, "", 7, ["s"]])
    def test_require_session_rejects(self, value):
        with pytest.raises(ProtocolError):
            require_session({"session": value})

    def test_require_time(self):
        assert require_time(0) == 0
        assert require_time(1420) == 1420

    @pytest.mark.parametrize("value", [None, -1, 1.5, "7", True])
    def test_require_time_rejects(self, value):
        with pytest.raises(ProtocolError):
            require_time(value)

    def test_require_intervals(self):
        assert require_intervals([[1, 5], [7, 9]]) == [(1, 5), (7, 9)]
        assert require_intervals([]) == []
        assert require_intervals([[4, 4]]) == [(4, 4)]  # one time-point

    @pytest.mark.parametrize("value", [None, [[1]], [[1, 2, 3]], [["a", 2]], "x", [[9, 3]]])
    def test_require_intervals_rejects(self, value):
        with pytest.raises(ProtocolError):
            require_intervals(value)

    def test_require_fvp_parses_a_polled_pair_once(self, monkeypatch):
        from repro.serve import protocol

        calls = []
        monkeypatch.setattr(
            protocol, "parse_term", lambda text: calls.append(text) or parse_term(text)
        )
        text = "polled(v1)=true"
        protocol._TERM_CACHE.pop(text, None)
        first = require_fvp(text)
        assert first == parse_term(text) and require_fvp(text) is first
        assert calls == [text]
        # What event terms cached is served too, and still has to be a pair.
        parse_event_term("cachedEvent(v1)")
        with pytest.raises(ProtocolError) as refusal:
            require_fvp("cachedEvent(v1)")
        assert refusal.value.code == "bad-request" and calls == [text]

    @pytest.mark.parametrize("value", ["notanfvp(", "foo(bar)", "f(X)=", 7, None])
    def test_malformed_fvp_is_the_callers_error_every_time(self, value):
        for _attempt in range(2):
            with pytest.raises(ProtocolError) as refusal:
                require_fvp(value)
            assert refusal.value.code == "bad-request"

    def test_non_ground_fvp_is_accepted_and_not_cached_as_an_event_term(self):
        pair = require_fvp("f(Anyone)=true")
        assert pair == parse_term("f(Anyone)=true") and require_fvp("f(Anyone)=true") == pair
        with pytest.raises(ProtocolError) as refusal:
            parse_event_term("f(Anyone)=true")
        assert refusal.value.code == "bad-term"
