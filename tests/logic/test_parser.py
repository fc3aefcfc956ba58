"""Unit tests for the RTEC dialect parser."""

import json
import sys

import pytest

from repro.logic.parser import (
    MAX_NESTING,
    ParseError,
    parse_program,
    parse_rule,
    parse_term,
    tokenize,
)
from repro.logic.terms import Compound, Constant, Variable


class TestTokenizer:
    def test_simple_tokens(self):
        kinds = [t.kind for t in tokenize("foo(X, 1).")]
        assert kinds == ["atom", "punct", "var", "punct", "number", "punct", "punct", "end"]

    def test_comments_dropped(self):
        tokens = tokenize("% a comment\nfoo.")
        assert tokens[0].text == "foo"

    def test_quoted_atom(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind == "atom"
        assert tokens[0].text == "hello world"

    def test_unterminated_quote(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_line_column_tracking(self):
        tokens = tokenize("a.\nbb.")
        assert tokens[2].line == 2
        assert tokens[2].column == 1

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("foo @ bar")

    def test_float_then_period(self):
        tokens = tokenize("f(0.5).")
        numbers = [t for t in tokens if t.kind == "number"]
        assert numbers[0].text == "0.5"

    def test_column_counts_from_the_last_newline(self):
        tokens = tokenize("a(\t'x\ny', Z).\n  % note\n\tb.")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("(", 1, 2), ("x\ny", 1, 4), (",", 2, 3), ("Z", 2, 5),
            (")", 2, 6), (".", 2, 7), ("b", 4, 2), (".", 4, 3), ("", 4, 4),
        ]


class TestMalformedNumbers:
    """A number token is ASCII ``-?[0-9]+(.[0-9]+)?``; anything else is a
    :class:`ParseError` with a position, never a bare ``ValueError``."""

    def test_a_second_dot_is_a_parse_error_naming_the_run(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("f(1.2.3).")
        assert type(excinfo.value) is ParseError
        assert "'1.2.3'" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, 3)

    def test_the_run_is_not_split_into_a_number_and_a_fact(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("initiatedAt(f(V)=true, T) :-\n  happensAt(e(V, S), T),\n    S > 1.2.3.")
        assert "'1.2.3'" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (3, 9)

    def test_a_non_ascii_digit_is_an_unexpected_character(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("f(\u00b2).")
        assert "unexpected character" in str(excinfo.value)
        with pytest.raises(ParseError):
            parse_program("f(1\u0663).")

    def test_numbers_that_fit_still_parse(self):
        assert parse_term("f(-3, 1.25, 7)") == Compound(
            "f", (Constant(-3), Constant(1.25), Constant(7))
        )
        assert [r.head for r in parse_program("f(3).g(1.5).")] == [
            parse_term("f(3)"), parse_term("g(1.5)")
        ]

    def test_a_reply_with_a_malformed_number_is_recorded_not_raised(self):
        from repro.llm.pipeline import GenerationPipeline
        from repro.maritime.gold import ACTIVITY_GROUPS

        group = ACTIVITY_GROUPS[0]
        for reply in ("f(1.2.3).", "f(\u00b2)."):
            activity = GenerationPipeline._parse_reply(group, reply)
            assert activity.rules == [] and activity.parse_error

    def test_lint_reports_a_syntax_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "rules.prolog"
        path.write_text("1.2.3\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RTEC001" in out and "'1.2.3'" in out


def _nested(depth: int, core: str = "a") -> str:
    return "f(" * depth + core + ")" * depth


class TestNestingLimit:
    def test_a_term_nested_beyond_the_limit_is_a_parse_error(self):
        def lists(depth):
            return "[" * depth + "a" + "]" * depth

        assert parse_term(_nested(MAX_NESTING)) and parse_term(lists(MAX_NESTING))
        for text in (_nested(MAX_NESTING + 1), _nested(330), _nested(1000), lists(MAX_NESTING + 1)):
            with pytest.raises(ParseError, match="nested deeper than %d" % MAX_NESTING):
                parse_term(text)
        with pytest.raises(ParseError, match="line 2"):
            parse_program("g(a).\n" + _nested(1000) + ".")

    def test_a_term_at_the_limit_survives_every_walk_with_half_the_stack_used(self):
        from repro.logic.pretty import term_to_str
        from repro.logic.terms import term_variables, walk_subterms
        from repro.rtec.compile import _same

        # Each level of parentheses nests two compounds: f(...) and '='(a, ...).
        text = "f(a=" * MAX_NESTING + "b" + ")" * MAX_NESTING

        def walks():
            term = parse_term(text)
            rendered = term_to_str(term)
            again = parse_term(rendered)  # a checkpointed buffer is re-parsed
            assert again == term and repr(again) == repr(term) and _same(term, again)
            assert len(list(walk_subterms(term))) == 3 * MAX_NESTING + 1
            assert term_variables(term) == []
            return json.dumps([20, rendered])

        def beneath(frames):
            return walks() if frames == 0 else beneath(frames - 1)

        assert beneath(sys.getrecursionlimit() // 2)

    def test_lint_reports_a_nested_term_as_a_syntax_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "rules.prolog"
        path.write_text("initiatedAt(g(V)=true, T) :- happensAt(%s, T).\n" % _nested(1000, "V"))
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RTEC001" in out and "nested deeper than %d" % MAX_NESTING in out


class TestTerms:
    def test_atom(self):
        assert parse_term("fishing") == Constant("fishing")

    def test_variable(self):
        assert parse_term("Vessel") == Variable("Vessel")

    def test_underscore_variable(self):
        assert parse_term("_x") == Variable("_x")

    def test_integer_and_float(self):
        assert parse_term("23") == Constant(23)
        assert parse_term("0.75") == Constant(0.75)

    def test_negative_number_in_args(self):
        term = parse_term("f(-2, 3)")
        assert term.args[0] == Constant(-2)

    def test_compound(self):
        term = parse_term("entersArea(Vl, a1)")
        assert term == Compound("entersArea", (Variable("Vl"), Constant("a1")))

    def test_nested_compound(self):
        term = parse_term("happensAt(entersArea(Vl, A), T)")
        assert term.functor == "happensAt"
        assert term.args[0].functor == "entersArea"

    def test_fvp_infix_equals(self):
        term = parse_term("withinArea(Vl, fishing)=true")
        assert term.functor == "="
        assert term.args[1] == Constant("true")

    def test_comparison_operators(self):
        for op in ("<", ">", "=<", ">=", "=:=", "=\\="):
            term = parse_term("Speed %s Max" % op)
            assert term.functor == op

    def test_list(self):
        term = parse_term("[I1, I2, I3]")
        assert term.functor == "list"
        assert term.arity == 3

    def test_empty_list(self):
        assert parse_term("[]") == Constant("[]")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("foo bar")


class TestRules:
    def test_fact(self):
        rule = parse_rule("areaType(a1, fishing).")
        assert rule.is_fact
        assert rule.head.functor == "areaType"

    def test_rule_with_body(self):
        rule = parse_rule(
            "initiatedAt(withinArea(Vl, AT)=true, T) :- "
            "happensAt(entersArea(Vl, A), T), areaType(A, AT)."
        )
        assert not rule.is_fact
        assert len(rule.body) == 2
        assert not rule.body[0].negated

    def test_negated_literal(self):
        rule = parse_rule("initiatedAt(f(V)=true, T) :- happensAt(e(V), T), not holdsAt(g(V)=true, T).")
        assert rule.body[1].negated

    def test_negation_with_parentheses(self):
        rule = parse_rule("initiatedAt(f(V)=true, T) :- happensAt(e(V), T), not(holdsAt(g(V)=true, T)).")
        assert rule.body[1].negated
        assert rule.body[1].term.functor == "holdsAt"

    def test_prolog_negation_symbol(self):
        rule = parse_rule("initiatedAt(f(V)=true, T) :- happensAt(e(V), T), \\+ holdsAt(g(V)=true, T).")
        assert rule.body[1].negated

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("f(a) :- g(b)")

    def test_program_with_multiple_rules(self):
        rules = parse_program(
            """
            % two facts and a rule
            areaType(a1, fishing).
            areaType(a2, anchorage).
            initiatedAt(f(V)=true, T) :- happensAt(e(V), T).
            """
        )
        assert len(rules) == 3
        assert rules[0].is_fact
        assert not rules[2].is_fact

    def test_holds_for_rule(self):
        rule = parse_rule(
            "holdsFor(underWay(V)=true, I) :- holdsFor(movingSpeed(V)=below, I1), "
            "union_all([I1], I)."
        )
        assert rule.head.functor == "holdsFor"
        assert rule.body[1].term.functor == "union_all"

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("f(a).\ng(:-).")
        assert "line 2" in str(excinfo.value)
