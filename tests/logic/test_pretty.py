"""Pretty-printer tests, including the parse/print round-trip property."""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.parser import parse_program, parse_rule, parse_term
from repro.logic.pretty import program_to_str, rule_to_str, term_to_str
from repro.logic.terms import Compound, Constant, Term, Variable
from repro.maritime.gold import gold_rules_text


class TestTermToStr:
    def test_atom(self):
        assert term_to_str(Constant("fishing")) == "fishing"

    def test_number(self):
        assert term_to_str(Constant(0.5)) == "0.5"

    def test_quoted_atom(self):
        assert term_to_str(Constant("hello world")) == "'hello world'"

    def test_infix_fvp(self):
        term = parse_term("withinArea(Vl, fishing)=true")
        assert term_to_str(term) == "withinArea(Vl, fishing)=true"

    def test_comparison(self):
        assert term_to_str(parse_term("Speed >= Min")) == "Speed>=Min"

    def test_list(self):
        assert term_to_str(parse_term("[I1, I2]")) == "[I1, I2]"

    def test_empty_list(self):
        assert term_to_str(Constant("[]")) == "[]"


class TestRoundTrip:
    def test_gold_event_description_round_trips(self):
        text = gold_rules_text()
        rules = parse_program(text)
        assert parse_program(program_to_str(rules)) == rules

    def test_negated_literal_round_trips(self):
        rule = parse_rule(
            "initiatedAt(f(V)=true, T) :- happensAt(e(V), T), "
            "not holdsAt(g(V)=true, T)."
        )
        assert parse_rule(rule_to_str(rule)) == rule


# -- property-based round-trip over generated terms ------------------------

_atoms = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_vars = st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=4)


def _terms(max_depth: int = 3) -> st.SearchStrategy:
    base = st.one_of(
        _atoms.map(Constant),
        _vars.map(Variable),
        st.integers(min_value=0, max_value=10_000).map(Constant),
    )
    return st.recursive(
        base,
        lambda children: st.builds(
            lambda functor, args: Compound(functor, tuple(args)),
            _atoms,
            st.lists(children, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )


class TestRoundTripProperty:
    @given(term=_terms())
    @settings(max_examples=200, deadline=None)
    def test_term_round_trip(self, term: Term):
        assert parse_term(term_to_str(term)) == term

    @given(value=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()))
    @settings(max_examples=500, deadline=None)
    @example(value=1e-05)
    @example(value=1e16)
    @example(value=-5e-324)
    def test_number_round_trip(self, value):
        """Every finite float reads back as the same float, never an int, and
        not only where ``str`` happens to write it positionally."""
        for term in (Constant(value), Compound("velocity", (Constant("v1"), Constant(value)))):
            assert repr(parse_term(term_to_str(term))) == repr(term)

    def test_positional_floats_keep_their_text(self):
        for value in (0.5, -0.0, 123.0, 0.0001, 1.5e15, 9999999999999998.0):
            assert term_to_str(Constant(value)) == str(value)
