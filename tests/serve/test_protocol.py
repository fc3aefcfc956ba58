"""Unit tests for the JSON-lines wire protocol."""

import json

import pytest

from repro.logic.parser import parse_term
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
