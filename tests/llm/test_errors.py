"""Unit tests for the error-injection transformations."""

import pytest

from repro.llm.errors import (
    AddCondition,
    CorruptSyntax,
    DropCondition,
    DropRule,
    RenameConstant,
    RenameFunctor,
    RenameVariable,
    ReplaceRules,
    SwapArguments,
    SwapOperator,
    apply_all,
)
from repro.logic.parser import ParseError, parse_program
from repro.logic.pretty import program_to_str


RULES = parse_program(
    """
    initiatedAt(withinArea(Vl, AreaType)=true, T) :-
        happensAt(entersArea(Vl, Area), T),
        areaType(Area, AreaType).

    terminatedAt(withinArea(Vl, AreaType)=true, T) :-
        happensAt(gap_start(Vl), T).

    holdsFor(underWay(Vl)=true, I) :-
        holdsFor(movingSpeed(Vl)=below, I1),
        holdsFor(movingSpeed(Vl)=normal, I2),
        union_all([I1, I2], I).
    """
)


def _text(rules):
    return program_to_str(rules)


class TestRenames:
    def test_rename_functor(self):
        out = RenameFunctor("entersArea", "inArea").apply(RULES)
        assert "inArea(Vl, Area)" in _text(out)
        assert "entersArea" not in _text(out)

    def test_rename_constant(self):
        out = RenameConstant("true", "yes").apply(RULES)
        assert "=yes" in _text(out)

    def test_rename_variable(self):
        out = RenameVariable("Vl", "Vessel").apply(RULES)
        assert "withinArea(Vessel, AreaType)" in _text(out)
        assert "Vl" not in _text(out)

    def test_rename_preserves_rule_count(self):
        out = RenameFunctor("entersArea", "inArea").apply(RULES)
        assert len(out) == len(RULES)


class TestOperators:
    def test_swap_operator_everywhere(self):
        out = SwapOperator("union_all", "intersect_all").apply(RULES)
        assert "intersect_all([I1, I2], I)" in _text(out)

    def test_swap_operator_single_rule_only(self):
        rules = RULES + parse_program(
            "holdsFor(x(V)=true, I) :- holdsFor(y(V)=true, I1), union_all([I1], I)."
        )
        out = SwapOperator("union_all", "intersect_all", rule_index=2).apply(rules)
        assert "intersect_all([I1, I2], I)" in _text(out)
        assert "union_all([I1], I)" in _text(out)

    def test_swap_arguments(self):
        out = SwapArguments("areaType").apply(RULES)
        assert "areaType(AreaType, Area)" in _text(out)


class TestStructuralEdits:
    def test_drop_rule(self):
        out = DropRule(1).apply(RULES)
        assert len(out) == 2
        assert "gap_start" not in _text(out)

    def test_drop_rule_out_of_range_is_noop(self):
        assert DropRule(99).apply(RULES) == list(RULES)

    def test_drop_condition(self):
        out = DropCondition(0, 1).apply(RULES)
        assert "areaType" not in _text(out)
        assert len(out[0].body) == 1

    def test_add_condition_appends(self):
        out = AddCondition(0, "holdsAt(underWay(Vl)=true, T)").apply(RULES)
        assert out[0].body[-1].term.functor == "holdsAt"

    def test_add_condition_at_position(self):
        out = AddCondition(0, "vesselType(Vl, fishing)", position=1).apply(RULES)
        assert out[0].body[1].term.functor == "vesselType"

    def test_add_negated_condition(self):
        out = AddCondition(0, "holdsAt(g(Vl)=true, T)", negated=True).apply(RULES)
        assert out[0].body[-1].negated

    def test_replace_rules(self):
        out = ReplaceRules("initiatedAt(f(V)=true, T) :- happensAt(e(V), T).").apply(RULES)
        assert len(out) == 1
        assert out[0].head.functor == "initiatedAt"


class TestCorruptSyntax:
    def test_rule_level_is_noop(self):
        assert CorruptSyntax().apply(RULES) == list(RULES)

    def test_drop_final_period_breaks_parsing(self):
        corrupted = CorruptSyntax("drop-final-period").corrupt(_text(RULES))
        with pytest.raises(ParseError):
            parse_program(corrupted)

    def test_unbalanced_paren_breaks_parsing(self):
        corrupted = CorruptSyntax("unbalanced-paren").corrupt(_text(RULES))
        with pytest.raises(ParseError):
            parse_program(corrupted)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorruptSyntax("scramble").corrupt("f(a).")


class TestApplyAll:
    def test_left_to_right_composition(self):
        out = apply_all(RULES, [RenameFunctor("entersArea", "inArea"), DropRule(2)])
        assert len(out) == 2
        assert "inArea" in _text(out)

    def test_original_rules_untouched(self):
        before = _text(RULES)
        apply_all(RULES, [DropRule(0), RenameFunctor("gap_start", "gs")])
        assert _text(RULES) == before
