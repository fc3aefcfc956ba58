"""The generation contract, pinned: what every simulated model is told and
what it answers, in both gold domains.

For each domain and prompting scheme, the SHA-256 of the prompts the model
receives (R, F/F*, E, T, then one G prompt per activity); they do not depend
on the model. For each domain, model and scheme, the SHA-256 of the raw
reply to every G prompt. And the ``to_json()`` of both repair experiments.
A change that means to alter them updates them and says why. The values
were taken at ``4fe7c00``, before each domain became one record.
"""

import hashlib

import pytest

from repro.domain import GOLD_NAMES, gold_domain
from repro.generation import generate
from repro.llm import GenerationPipeline, SimulatedLLM
from repro.llm.profiles import MODEL_NAMES
from repro.llm.prompts import ALL_PROMPT_SCHEMES

PROMPTS = {
    ("maritime", "few-shot"): "ad19d0286aba36e0",
    ("maritime", "chain-of-thought"): "fbe6c3c857e998d3",
    ("maritime", "zero-shot"): "41e59a637fc389ce",
    ("fleet", "few-shot"): "d42392eaba7264e1",
    ("fleet", "chain-of-thought"): "533ca097ab62990f",
    ("fleet", "zero-shot"): "84ae8dc189a0c19a",
}

REPLIES = {
    ("maritime", "gpt-4", "few-shot"): "106a8153e82d1991",
    ("maritime", "gpt-4", "chain-of-thought"): "3a22fc87c284523d",
    ("maritime", "gpt-4", "zero-shot"): "cbefd9d1a7f8d332",
    ("maritime", "gpt-4o", "few-shot"): "fcb9bbb0c91a1929",
    ("maritime", "gpt-4o", "chain-of-thought"): "d7ce9070b1f18e57",
    ("maritime", "gpt-4o", "zero-shot"): "bf847d3bcf12388f",
    ("maritime", "o1", "few-shot"): "846829bbfe83bcc8",
    ("maritime", "o1", "chain-of-thought"): "bc9c11a35aa05fee",
    ("maritime", "o1", "zero-shot"): "5c62e624c258b628",
    ("maritime", "llama-3", "few-shot"): "756a8e95a02bbe41",
    ("maritime", "llama-3", "chain-of-thought"): "a888cfdacaa5b938",
    ("maritime", "llama-3", "zero-shot"): "08f11adcb53efe50",
    ("maritime", "mistral", "few-shot"): "effe289915bc30f8",
    ("maritime", "mistral", "chain-of-thought"): "ba33d32fd4924413",
    ("maritime", "mistral", "zero-shot"): "9afb1bea7f9a6e88",
    ("maritime", "gemma-2", "few-shot"): "496a7a29b0b9f930",
    ("maritime", "gemma-2", "chain-of-thought"): "30ba0f25dc7e6837",
    ("maritime", "gemma-2", "zero-shot"): "cf4460daf3e2636d",
    # the fleet profiles come in two strengths; o1 few-shot and every
    # zero-shot reply are the undegraded gold
    ("fleet", "gpt-4", "few-shot"): "2e7ea19b88f04bb0",
    ("fleet", "gpt-4", "chain-of-thought"): "3885ff26b35758e3",
    ("fleet", "gpt-4", "zero-shot"): "92954693e0f65ec1",
    ("fleet", "gpt-4o", "few-shot"): "3885ff26b35758e3",
    ("fleet", "gpt-4o", "chain-of-thought"): "2e7ea19b88f04bb0",
    ("fleet", "gpt-4o", "zero-shot"): "92954693e0f65ec1",
    ("fleet", "o1", "few-shot"): "92954693e0f65ec1",
    ("fleet", "o1", "chain-of-thought"): "2e7ea19b88f04bb0",
    ("fleet", "o1", "zero-shot"): "92954693e0f65ec1",
    ("fleet", "llama-3", "few-shot"): "2e7ea19b88f04bb0",
    ("fleet", "llama-3", "chain-of-thought"): "3885ff26b35758e3",
    ("fleet", "llama-3", "zero-shot"): "92954693e0f65ec1",
    ("fleet", "mistral", "few-shot"): "3885ff26b35758e3",
    ("fleet", "mistral", "chain-of-thought"): "3885ff26b35758e3",
    ("fleet", "mistral", "zero-shot"): "92954693e0f65ec1",
    ("fleet", "gemma-2", "few-shot"): "3885ff26b35758e3",
    ("fleet", "gemma-2", "chain-of-thought"): "3885ff26b35758e3",
    ("fleet", "gemma-2", "zero-shot"): "92954693e0f65ec1",
}

REPAIR = {"maritime": "edb2ecbf8486884b", "fleet": "00af6a3d46e3e211"}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Recording:
    """Passes a conversation through to a client and keeps each prompt."""

    def __init__(self, client):
        self.client = client
        self.prompts = []

    @property
    def model_name(self):
        return self.client.model_name

    def complete(self, conversation):
        self.prompts.append(conversation[-1].content)
        return self.client.complete(conversation)


def _replies(generated):
    return "\n%%\n".join(activity.raw_text for activity in generated.activities)


def _run(name, model, scheme):
    domain = gold_domain(name)
    recording = _Recording(SimulatedLLM(model, domain))
    generated = GenerationPipeline(recording, scheme, domain).run()
    return _sha256("\n%%\n".join(recording.prompts)), _sha256(_replies(generated))


@pytest.fixture(scope="module")
def runs():
    return {
        (name, model, scheme): _run(name, model, scheme)
        for name in GOLD_NAMES
        for model in MODEL_NAMES
        for scheme in ALL_PROMPT_SCHEMES
    }


def test_every_model_is_told_the_same(runs):
    prompts = {}
    for (domain, _model, scheme), (prompt, _reply) in runs.items():
        prompts.setdefault((domain, scheme), set()).add(prompt)
    assert {key: digests.pop() for key, digests in prompts.items()} == PROMPTS


def test_every_reply(runs):
    assert {key: reply for key, (_prompt, reply) in runs.items()} == REPLIES


def test_both_repair_experiments(repair_runs):
    (maritime, fleet), _states = repair_runs
    assert {
        "maritime": _sha256(maritime.to_json()), "fleet": _sha256(fleet.to_json())
    } == REPAIR


@pytest.mark.parametrize("name", GOLD_NAMES)
def test_replies_do_not_depend_on_the_seed(name):
    """The simulated models draw nothing at random: every seed generates the
    same text (``seed`` stays a parameter of the harnesses that pass one)."""
    domain = gold_domain(name)
    for model in MODEL_NAMES:
        for scheme in ALL_PROMPT_SCHEMES:
            texts = {
                _replies(generate(domain, model, scheme, seed=seed).generated)
                for seed in (0, 1, 4)
            }
            assert len(texts) == 1, (model, scheme)
