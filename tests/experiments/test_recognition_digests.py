"""The recognition contract, pinned: SHA-256 of ``RecognitionResult.to_json()``.

Byte-identical results on both golds are what every refactor of the engine,
the session or the serve tier has to keep (ROADMAP aim 2). The values were
taken at ``5b63f0b``, before ``recognise(jobs=)`` was deleted; a change that
means to alter recognition updates them and says why.
"""

import hashlib

import pytest

from repro.fleet import build_fleet_dataset, fleet_gold_event_description
from repro.maritime import build_dataset, gold_event_description
from repro.rtec import RTECEngine
from repro.serve import drive_reference_session

MARITIME_BATCH = "8052f0467daf2217fc4e932c3e88d6fa5c684c6cfcfc4aa1b8967e34baad917b"
MARITIME_SESSION = "81eb55144894bb4da3468d8fad634b289b05febb1b1e549baa2a8ead1a7e4b1a"
FLEET = "341ed7fb5baeba3f310a0618f36f097e12aed401592cefa5d2fdc62ccfa92e76"


@pytest.fixture(scope="module", params=["maritime", "fleet"])
def gold(request):
    if request.param == "maritime":
        dataset = build_dataset(seed=0, scale=0.25, traffic=4)
        description = gold_event_description()
        expected = (MARITIME_BATCH, MARITIME_SESSION)
    else:
        dataset = build_fleet_dataset()
        description = fleet_gold_event_description()
        expected = (FLEET, FLEET)
    return dataset, lambda: RTECEngine(description, dataset.kb, dataset.vocabulary), expected


def _digest(result):
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def test_batch_windows_of_600(gold):
    dataset, engine, (batch, _session) = gold
    result = engine().recognise(dataset.stream, dataset.input_fluents, window=600)
    assert _digest(result) == batch


@pytest.mark.parametrize("incremental", [True, False])
def test_session_windows_of_600_every_300(gold, incremental):
    dataset, engine, (_batch, session) = gold
    result = drive_reference_session(
        engine(), list(dataset.stream), dataset.input_fluents, 600, 300,
        incremental=incremental,
    )
    assert _digest(result) == session
