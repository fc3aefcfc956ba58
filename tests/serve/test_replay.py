"""Integration tests: a live TCP service, killed mid-stream and restored."""

import asyncio

import pytest

from repro.fleet import build_fleet_dataset, fleet_gold_event_description
from repro.rtec import RTECEngine
from repro.serve import SessionConfig, build_workload, run_ingest, run_replay


@pytest.fixture(scope="module")
def fleet_target():
    dataset = build_fleet_dataset()
    description = fleet_gold_event_description()

    def make_engine():
        return RTECEngine(description, dataset.kb, dataset.vocabulary)

    return dataset, description, make_engine


class TestFleetService:
    def test_uninterrupted_service_matches_reference(self, fleet_target):
        dataset, description, make_engine = fleet_target
        workload = build_workload(dataset.stream, dataset.input_fluents, description)
        outcome = asyncio.run(run_replay(
            make_engine,
            workload,
            SessionConfig(window=600, step=300),
            verify=True,
        ))
        assert outcome.verified, outcome.verify_detail
        assert outcome.final_report.events_accepted == len(workload.events)

    def test_kill_and_restore_yields_identical_intervals(self, fleet_target, tmp_path):
        dataset, description, make_engine = fleet_target
        workload = build_workload(
            dataset.stream, dataset.input_fluents, description, sessions=2, repeat=4
        )
        outcome = asyncio.run(run_replay(
            make_engine,
            workload,
            SessionConfig(window=600, step=300, checkpoint_every=1),
            checkpoint_dir=str(tmp_path),
            kill_at=0.5,
            verify=True,
        ))
        assert outcome.killed_at_event == len(workload.events) // 2
        assert outcome.verified, outcome.verify_detail
        # The crash actually cost something: a checkpoint was restored and
        # part of the stream was re-sent on the second pass.
        assert outcome.resumed_pass is not None

    def test_firehose_backpressure_bounds_the_queue(self, fleet_target):
        dataset, description, make_engine = fleet_target
        workload = build_workload(
            dataset.stream, dataset.input_fluents, description, repeat=10
        )
        high_water = 64
        outcome = asyncio.run(run_replay(
            make_engine,
            workload,
            SessionConfig(window=600, step=300, high_water=high_water),
            mode="firehose",
        ))
        report = outcome.final_report
        # Every event eventually lands, and the queue never grew past the
        # high-water mark: overload turned into rejections, not into memory.
        assert report.events_accepted == len(workload.events)
        assert report.queue_peak <= high_water
        assert report.rejections > 0
        assert report.retries > 0

    @pytest.mark.parametrize("kill_at", [1.5, -0.5, float("nan")])
    def test_a_kill_point_is_a_fraction_of_the_stream(self, fleet_target, kill_at, tmp_path):
        # Refused, not clamped to the nearest end (nan used to reach int()).
        dataset, description, make_engine = fleet_target
        workload = build_workload(dataset.stream, dataset.input_fluents, description)
        with pytest.raises(ValueError, match="kill_at"):
            asyncio.run(run_replay(
                make_engine,
                workload,
                SessionConfig(window=600, checkpoint_every=1),
                checkpoint_dir=str(tmp_path),
                kill_at=kill_at,
            ))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_a_batch_must_hold_an_event(self, fleet_target, batch_size):
        # An empty batch is acknowledged like any other and the pump never
        # moved past it: refused before anything is sent (no client needed).
        dataset, description, _make_engine = fleet_target
        workload = build_workload(dataset.stream, dataset.input_fluents, description)
        with pytest.raises(ValueError, match="batch_size"):
            asyncio.run(run_ingest(None, workload, batch_size=batch_size))


class TestMaritimeService:
    def test_kill_and_restore_on_gold_slice(self, small_dataset, gold_description, tmp_path):
        def make_engine():
            return RTECEngine(
                gold_description, small_dataset.kb, small_dataset.vocabulary
            )

        workload = build_workload(
            small_dataset.stream,
            small_dataset.input_fluents,
            gold_description,
            limit=800,
        )
        outcome = asyncio.run(run_replay(
            make_engine,
            workload,
            SessionConfig(window=600, step=600, checkpoint_every=1),
            checkpoint_dir=str(tmp_path),
            kill_at=0.6,
            verify=True,
        ))
        assert outcome.verified, outcome.verify_detail
        assert len(outcome.merged) > 0
