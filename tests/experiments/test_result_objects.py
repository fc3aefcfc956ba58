"""Unit tests for the experiment result objects (shapes and helpers)."""

import pytest

from repro.experiments.fig2a import scheme_mark
from repro.experiments.robustness import RobustnessResult, format_table
from repro.llm.prompts import CHAIN_OF_THOUGHT, FEW_SHOT
from repro.maritime.gold import COMPOSITE_ACTIVITIES


class TestSchemeMark:
    def test_markers_match_the_paper(self):
        assert scheme_mark(FEW_SHOT) == "□"
        assert scheme_mark(CHAIN_OF_THOUGHT) == "△"
        assert scheme_mark(FEW_SHOT, corrected=True) == "■"
        assert scheme_mark(CHAIN_OF_THOUGHT, corrected=True) == "▲"


def _samples(values):
    return {
        "o1": {activity: list(values) for activity in COMPOSITE_ACTIVITIES},
    }


class TestRobustnessResult:
    def test_mean_and_std(self):
        result = RobustnessResult(seeds=[0, 1], samples=_samples([1.0, 0.5]))
        assert result.mean("o1", "trawling") == pytest.approx(0.75)
        assert result.std("o1", "trawling") == pytest.approx(0.25)

    def test_zero_variance(self):
        result = RobustnessResult(seeds=[0, 1, 2], samples=_samples([0.8, 0.8, 0.8]))
        assert result.std("o1", "loitering") == pytest.approx(0.0, abs=1e-12)

    def test_average_f1(self):
        result = RobustnessResult(seeds=[0], samples=_samples([0.6]))
        assert result.average_f1("o1") == pytest.approx(0.6)

    def test_format_table(self):
        result = RobustnessResult(seeds=[0, 1], samples=_samples([1.0, 0.0]))
        table = format_table(result)
        assert "o1" in table
        assert "0.50±0.50" in table


class TestRepairExperiment:
    def test_maritime_single_combo(self, small_dataset):
        from repro.experiments.repair import format_table, run_repair_experiment
        from repro.maritime import MARITIME

        result = run_repair_experiment(
            MARITIME, small_dataset.kb, models=("gemma-2",), schemes=("few-shot",)
        )
        entry = result.entry("gemma-2", "few-shot")
        assert entry.result.status in ("clean", "converged", "fixpoint")
        assert entry.improvement >= -1e-9
        assert entry.trajectory[0] == entry.result.initial_similarity
        assert entry.trajectory[-1] == entry.result.final_similarity
        table = format_table(result)
        assert "gemma-2" in table and "trajectory" in table
        data = result.to_dict()
        assert data["entries"][0]["model"] == "gemma-2"
        with pytest.raises(KeyError):
            result.entry("gpt-4", "few-shot")

    def test_fleet_single_combo(self):
        from repro.experiments.repair import run_repair_experiment
        from repro.fleet import FLEET

        result = run_repair_experiment(
            FLEET, FLEET.dataset().kb, models=("gpt-4",), schemes=("few-shot",)
        )
        entry = result.entry("gpt-4", "few-shot")
        assert len(entry.result.iterations) <= 5
        assert entry.improvement >= -1e-9
