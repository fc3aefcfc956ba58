"""The Fig. 2 contract, pinned: the pass the ``fig2_pipeline`` benchmark runs.

Seed 0, scale 0.25: the SHA-256 of the three printed tables (the digest
``bench/expected/fig2_pipeline.json`` holds) and of every Fig. 2c
``RecognitionResult.to_json()``. The values were taken at ``6db936c``,
before Fig. 2c recognised its four descriptions in one lockstep walk; a
change that means to alter them updates them and says why.
"""

import hashlib

import pytest

from repro.experiments import fig2a, fig2b, fig2c
from repro.maritime import build_dataset

TABLES = "72ebb45dee364673af17aed68aef0268212d08d23d1545dfccdbead206cb76ab"
GOLD = "5a034d5720ac44418793b18a58a4c350e11d31973ee9a8436da2cb29ae31be8e"
CANDIDATES = {
    # o1's corrected description recognises exactly what the gold does
    "o1": GOLD,
    "llama-3": "ef8965ae4519164613b9a221f02761901968419f0ba9476ef5cc82b251f269d2",
    "gpt-4o": "975652353c9eebecc34b8c93fc89d6c5e7b4d98f2b57da5c5c08bb65c03d7687",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def figures():
    dataset = build_dataset(seed=0, scale=0.25)
    result_a = fig2a.run_fig2a(seed=0)
    result_b = fig2b.run_fig2b(dataset.kb, fig2a=result_a)
    result_c = fig2c.run_fig2c(fig2b=result_b, dataset=dataset)
    return result_a, result_b, result_c


def test_the_three_tables(figures):
    result_a, result_b, result_c = figures
    tables = [
        fig2a.format_table(result_a), fig2b.format_table(result_b), fig2c.format_table(result_c)
    ]
    assert _sha256("\n".join(tables)) == TABLES


def test_every_fig2c_recognition(figures):
    result_c = figures[2]
    assert _sha256(result_c.gold_result.to_json()) == GOLD
    assert {
        model: _sha256(result.to_json()) for model, result in result_c.candidate_results.items()
    } == CANDIDATES
