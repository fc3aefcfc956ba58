"""Property test: crash-at-any-point + restore is invisible in the output.

For *any* checkpoint cadence and *any* kill point, killing the service
mid-stream and restoring from the latest checkpoints must yield detections
byte-identical (stable JSON) to the uninterrupted run. This is the
guarantee the whole checkpoint/restore design rests on; hypothesis probes
the cadence/kill-point space instead of pinning one happy path.
"""

import asyncio
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import build_fleet_dataset, fleet_gold_event_description
from repro.rtec import RTECEngine
from repro.serve import SessionConfig, build_workload, run_replay

_WINDOW = 600
_STEP = 300


@pytest.fixture(scope="module")
def fleet_service():
    dataset = build_fleet_dataset()
    description = fleet_gold_event_description()

    def make_engine():
        return RTECEngine(description, dataset.kb, dataset.vocabulary)

    workload = build_workload(dataset.stream, dataset.input_fluents, description)
    baseline = asyncio.run(run_replay(
        make_engine, workload, SessionConfig(window=_WINDOW, step=_STEP)
    ))
    return workload, make_engine, baseline.merged.to_json()


def test_incremental_and_full_serving_agree(fleet_service):
    """The served baseline (incremental by default) is byte-equal to a
    service forced to recompute the full window on every advance."""
    workload, make_engine, expected = fleet_service
    outcome = asyncio.run(run_replay(
        make_engine,
        workload,
        SessionConfig(window=_WINDOW, step=_STEP, incremental=False),
    ))
    assert outcome.merged.to_json() == expected


def test_crash_and_restore_with_incremental_sessions(fleet_service):
    """Kill-and-restore drill with the delta path on: the restored
    sessions repair their caches from the checkpoint and still match."""
    workload, make_engine, expected = fleet_service
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-serve-delta-")
    try:
        outcome = asyncio.run(run_replay(
            make_engine,
            workload,
            SessionConfig(
                window=_WINDOW, step=_STEP, checkpoint_every=2, incremental=True
            ),
            checkpoint_dir=checkpoint_dir,
            kill_at=0.6,
            verify=True,
        ))
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    assert outcome.merged.to_json() == expected
    assert outcome.verified, outcome.verify_detail


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    kill_at=st.floats(min_value=0.05, max_value=0.95),
    checkpoint_every=st.integers(min_value=1, max_value=4),
)
def test_checkpoint_every_k_windows_is_equivalent(fleet_service, kill_at, checkpoint_every):
    workload, make_engine, expected = fleet_service
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-serve-prop-")
    try:
        outcome = asyncio.run(run_replay(
            make_engine,
            workload,
            SessionConfig(window=_WINDOW, step=_STEP, checkpoint_every=checkpoint_every),
            checkpoint_dir=checkpoint_dir,
            kill_at=kill_at,
        ))
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    assert outcome.merged.to_json() == expected
