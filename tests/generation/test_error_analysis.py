"""Tests for the automated qualitative error assessment (Section 5.2)."""


from repro.generation import generate
from repro.generation.error_analysis import (
    CATEGORIES,
    ErrorFinding,
    analyse_errors,
    format_report,
)
from repro.llm import BEST_SCHEME
from repro.llm.prompts import ZERO_SHOT
from repro.maritime import MARITIME
from repro.maritime.gold import MARITIME_VOCABULARY


def _report(model, scheme=None):
    outcome = generate(MARITIME, model, scheme or BEST_SCHEME[model])
    return analyse_errors(outcome.generated, MARITIME_VOCABULARY)


class TestCategoryDetection:
    def test_o1_has_only_the_constant_divergence(self):
        # Section 5.2: o1's only notable issue is the 'trawlingArea' name.
        report = _report("o1")
        naming = report.of_category("naming-divergence")
        assert len(naming) == 1
        assert "trawlingArea" in naming[0].detail
        assert not report.of_category("wrong-fluent-type")
        assert not report.of_category("undefined-activity")
        assert not report.of_category("wrong-operator")

    def test_gpt4o_wrong_fluent_type_for_moving_speed(self):
        # "GPT-4o uses a statically determined fluent to specify
        # 'movingSpeed', which is defined with a simple fluent in the
        # hand-crafted rules."
        report = _report("gpt-4o")
        findings = report.of_category("wrong-fluent-type")
        assert any("movingSpeed" in f.detail for f in findings)

    def test_gpt4o_loitering_operator_confusion(self):
        # "GPT4o generated a definition of 'loitering' ... it uses
        # 'intersect_all' in the place of 'union_all'."
        report = _report("gpt-4o")
        findings = report.of_category("wrong-operator")
        loitering = [f for f in findings if f.activity == "loitering"]
        assert loitering
        assert "intersect_all in the place of union_all" in loitering[0].detail

    def test_llama3_loitering_operator_confusion(self):
        # The paper: GPT-4o and Llama-3 "define loitering in terms of their
        # conjunction, confusing union_all with intersect_all".
        findings = _report("llama-3").of_category("wrong-operator")
        loitering = [f for f in findings if f.activity == "loitering"]
        assert loitering
        assert "intersect_all in the place of union_all" in loitering[0].detail

    def test_gpt4_undefined_activity(self):
        # GPT-4's trawling references the undefined 'fishingOperation'.
        report = _report("gpt-4")
        findings = report.of_category("undefined-activity")
        assert any("fishingOperation" in f.detail for f in findings)

    def test_gemma_wrong_types_dominate(self):
        # Gemma-2 renders several statically determined activities as
        # simple fluents (trawling being the paper's headline example).
        report = _report("gemma-2")
        findings = report.of_category("wrong-fluent-type")
        activities = {f.activity for f in findings}
        assert "trawling" in activities
        assert len(findings) >= 3

    def test_zero_shot_produces_syntax_errors(self):
        report = _report("o1", ZERO_SHOT)
        assert report.of_category("syntax-error")

    def test_missing_rules_detected(self):
        # Llama-3 drops a 'stopped' gap-termination rule.
        report = _report("llama-3")
        findings = report.of_category("missing-rule")
        assert any(f.activity == "stopped" for f in findings)


class TestErrorVolume:
    def test_better_models_have_fewer_findings(self):
        counts = {
            model: len(_report(model))
            for model in ("o1", "gpt-4o", "gemma-2")
        }
        assert counts["o1"] < counts["gpt-4o"] < counts["gemma-2"]

    def test_by_category_covers_all_categories(self):
        report = _report("mistral")
        assert set(report.by_category()) == set(CATEGORIES)


class TestFormatting:
    def test_format_report(self):
        report = _report("gpt-4o")
        text = format_report(report)
        assert "gpt-4o" in text
        assert "wrong-operator" in text
        assert str(report.findings[0]) in text

    def test_finding_str(self):
        finding = ErrorFinding("wrong-operator", "loitering", "swap")
        assert str(finding) == "[wrong-operator] loitering: swap"
