"""Every simulated-LLM profile lints without crashing, and the lint report
is consistent with the qualitative error assessment of Section 5.2."""

import pytest

from repro.analysis import analyse
from repro.generation import analyse_errors, generate
from repro.llm import BEST_SCHEME, MODEL_NAMES
from repro.maritime import MARITIME, MARITIME_VOCABULARY


@pytest.mark.parametrize("model", MODEL_NAMES)
class TestProfiles:
    def test_lints_without_crashing(self, model):
        outcome = generate(MARITIME, model, BEST_SCHEME[model], seed=0)
        report = analyse(
            outcome.generated.to_event_description(),
            MARITIME_VOCABULARY,
            text=outcome.generated.to_text(),
        )
        # Smoke-check the renderers too.
        assert report.summary()
        assert report.format_text()
        assert report.to_json()

    def test_undefined_activities_surface_as_rtec004(self, model):
        outcome = generate(MARITIME, model, BEST_SCHEME[model], seed=0)
        errors = analyse_errors(outcome.generated, MARITIME_VOCABULARY)
        report = analyse(
            outcome.generated.to_event_description(), MARITIME_VOCABULARY
        )
        if errors.by_category()["undefined-activity"]:
            assert any(d.code == "RTEC004" for d in report.diagnostics)


def test_flawless_profile_is_error_clean():
    outcome = generate(MARITIME, "o1", BEST_SCHEME["o1"], seed=0)
    report = analyse(
        outcome.generated.to_event_description(), MARITIME_VOCABULARY
    )
    assert report.errors == []
