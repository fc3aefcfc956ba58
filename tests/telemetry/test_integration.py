"""Telemetry wiring through the recognition stack, metric, and pipeline."""

import pytest

from repro import telemetry
from repro.intervals import IntervalList
from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, EventStream, RTECEngine
from repro.rtec.session import RTECSession
from repro.similarity import event_description_distance

RULES = """
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).

holdsFor(g(V)=true, I) :-
    holdsFor(f(V)=true, I1),
    union_all([I1], I).
"""


@pytest.fixture(autouse=True)
def _clean_global_state():
    telemetry.disable()
    yield
    telemetry.disable()


def _engine():
    return RTECEngine(EventDescription.from_text(RULES), strict=False)


def _events():
    return [
        Event(5, parse_term("start(v1)")),
        Event(15, parse_term("stop(v1)")),
        Event(25, parse_term("start(v1)")),
    ]


class TestEngineSpans:
    def test_batch_run_produces_window_span_tree(self):
        with telemetry.enabled() as tracer:
            _engine().recognise(EventStream(_events()), window=10)
        stats = tracer.report().aggregate()
        assert stats["rtec.window"].calls == 3  # (4,14], (14,24], (15,25]
        assert stats["rtec.simple"].calls == 3
        assert stats["rtec.static"].calls == 3
        # Evaluator spans nest inside their window span.
        for window_span in tracer.roots:
            assert window_span.name == "rtec.window"
            assert {child.name for child in window_span.children} == {
                "rtec.simple",
                "rtec.static",
            }
        first = tracer.roots[0]
        assert first.attrs["window_start"] == 4
        assert first.attrs["events"] == 1  # only start(v1)@5 in (4, 14]

    def test_simple_span_counts_groundings_and_pairings(self):
        with telemetry.enabled() as tracer:
            _engine().recognise(EventStream(_events()), window=100)
        simple = [
            span
            for root in tracer.roots
            for span in root.children
            if span.name == "rtec.simple"
        ]
        assert simple[0].attrs["fluent"] == "f/1"
        assert simple[0].counters["groundings"] == 1
        assert simple[0].counters["initiation_points"] == 2
        assert simple[0].counters["termination_points"] == 1

    def test_disabled_run_records_nothing(self):
        result = _engine().recognise(EventStream(_events()), window=10)
        assert result.holds_for("f(v1)=true")
        assert telemetry.active() is None


class TestSessionSpans:
    def test_advance_span_reports_forgetting(self):
        session = RTECSession(_engine(), window=10)
        session.submit(_events())
        session.submit_fluent(parse_term("p(v1, v2)=true"), IntervalList([(2, 8)]))
        with telemetry.enabled() as tracer:
            session.advance(10)
            session.advance(20)
        advances = [root for root in tracer.roots if root.name == "rtec.advance"]
        assert len(advances) == 2
        assert advances[0].attrs["query_time"] == 10
        assert advances[0].counters["forgotten_events"] == 0  # horizon 0: all kept
        assert advances[0].counters["fluent_pairs"] == 1
        assert advances[1].counters["forgotten_events"] == 1  # t=5 beyond horizon 10
        assert advances[1].counters["fluent_pairs"] == 0  # p fully forgotten
        assert [child.name for child in advances[0].children] == ["rtec.window"]


class TestSimilarityCounters:
    def _description_span(self, left, right):
        with telemetry.enabled() as tracer:
            event_description_distance(left, right)
        spans = [root for root in tracer.roots if root.name == "similarity.description"]
        assert len(spans) == 1
        return spans[0]

    def test_renamed_equal_rules_are_peeled_before_the_assignment(self):
        span = self._description_span(RULES, RULES)
        assert span.attrs["rules"] == 3
        assert span.counters["peeled"] == 3
        assert span.counters["rule_pairs"] == 0
        assert "kuhn_munkres.calls" not in span.counters
        assert "rule_distance.calls" not in span.counters

    def test_description_distance_counts_assignment_work(self):
        # One symbol changed in every rule: nothing peels, all 3 x 3 pairs run.
        changed = RULES.replace("start(V)", "begin(V)").replace("stop(V)", "end(V)")
        changed = changed.replace("g(V)=true", "g(V)=false")
        span = self._description_span(RULES, changed)
        assert span.attrs["rules"] == 3
        assert span.counters["peeled"] == 0
        assert span.counters["rule_pairs"] == 9
        assert span.counters["kuhn_munkres.calls"] >= 1
        assert span.counters["rule_distance.calls"] == 9

    def test_fig2a_and_fig2b_compute_only_the_rule_pairs_that_do_not_peel(self, small_dataset):
        """Fig. 2a + 2b at seed 0 compare 450 descriptions; 976 of their rules
        equal a gold rule up to renaming. A change that computes those pairs
        again (6 328 rule distances, 6 778 assignments) fails here."""
        from repro.experiments import fig2a, fig2b

        with telemetry.enabled() as tracer:
            fig2b.run_fig2b(small_dataset.kb, fig2a=fig2a.run_fig2a(seed=0))
        stages = tracer.report().aggregate()
        totals = {}
        for stage in stages.values():
            for name, value in stage.counters.items():
                totals[name] = totals.get(name, 0) + value
        assert stages["similarity.description"].calls == 450
        assert totals["peeled"] == 976
        assert totals["rule_distance.calls"] == 861
        assert totals["kuhn_munkres.calls"] == 1081


class TestPipelineCounters:
    def test_generation_counts_prompt_rounds(self):
        from repro.llm import BEST_SCHEME
        from repro.llm.pipeline import GenerationPipeline
        from repro.llm.simulated import SimulatedLLM

        client = SimulatedLLM("o1", seed=0)
        with telemetry.enabled() as tracer:
            GenerationPipeline(client, BEST_SCHEME["o1"]).run()
        spans = [root for root in tracer.roots if root.name == "llm.pipeline"]
        assert len(spans) == 1
        counters = spans[0].counters
        assert counters["prompt_rounds"] == (
            counters["teaching_rounds"] + counters["activity_rounds"]
        )
        assert counters["teaching_rounds"] == 4  # prompts R, F, E, T
        assert counters["activity_rounds"] == 15  # one per prompted activity group
