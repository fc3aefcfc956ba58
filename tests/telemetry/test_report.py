"""Unit tests for trace rendering and aggregation."""

import json

import pytest

from repro import telemetry
from repro.telemetry import Tracer


@pytest.fixture(autouse=True)
def _clean_global_state():
    telemetry.disable()
    yield
    telemetry.disable()


def _sample_tracer():
    tracer = Tracer()
    with tracer.span("window", window_start=0, window_end=10) as w:
        w.count("events", 4)
        with tracer.span("simple", fluent="f/1") as s:
            s.count("groundings", 2)
        with tracer.span("simple", fluent="g/1") as s:
            s.count("groundings", 3)
        with tracer.span("static", fluent="h/1"):
            pass
    tracer.count("loose", 7)
    return tracer


class TestStructuredViews:
    def test_to_dict_nests_children(self):
        data = _sample_tracer().report().to_dict()
        assert len(data["spans"]) == 1
        root = data["spans"][0]
        assert root["name"] == "window"
        assert root["attrs"] == {"window_start": 0, "window_end": 10}
        assert root["counters"] == {"events": 4}
        assert [c["name"] for c in root["children"]] == ["simple", "simple", "static"]
        assert data["counters"] == {"loose": 7}

    def test_to_json_round_trips(self):
        report = _sample_tracer().report()
        assert json.loads(report.to_json()) == json.loads(
            json.dumps(report.to_dict(), sort_keys=True)
        )

    def test_non_jsonable_attrs_become_repr(self):
        tracer = Tracer()
        with tracer.span("w", obj=object()):
            pass
        text = tracer.report().to_json()
        assert "object object" in text


class TestAggregation:
    def test_aggregate_sums_per_name(self):
        stats = _sample_tracer().report().aggregate()
        assert stats["simple"].calls == 2
        assert stats["simple"].counters == {"groundings": 5}
        assert stats["window"].calls == 1
        assert stats["static"].calls == 1
        assert stats["simple"].seconds >= 0


class TestRendering:
    def test_render_shows_tree_and_counters(self):
        text = _sample_tracer().report().render()
        lines = text.splitlines()
        assert lines[0].startswith("window")
        assert any(line.startswith("  simple") for line in lines)
        assert "groundings=5" not in text  # per-span, not aggregated
        assert "groundings=2" in text and "groundings=3" in text
        assert "loose=7" in text

    def test_render_max_depth(self):
        text = _sample_tracer().report().render(max_depth=0)
        assert "simple" not in text

    def test_render_max_children_elides(self):
        text = _sample_tracer().report().render(max_children=1)
        assert "2 more span(s)" in text

    def test_render_summary_table(self):
        text = _sample_tracer().report().render_summary()
        assert "stage" in text.splitlines()[0]
        assert any(line.startswith("simple") for line in text.splitlines())

    def test_empty_report(self):
        assert Tracer().report().render() == ""
        assert Tracer().report().render_summary() == "(no spans recorded)"
