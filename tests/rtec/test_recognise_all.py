"""Lockstep recognition: ``recognise_all`` over several engines and one stream.

Sharing an evaluation between engines must be exact (every engine's result
and runtime warnings are those of its own ``recognise``) and must actually
happen (a fluent defined as another engine defines it is evaluated once).
"""

from collections import Counter

import pytest

import repro.rtec.engine as engine_module
from repro.generation import correct_outcome, generate
from repro.llm import MODEL_NAMES, PROMPT_SCHEMES
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import Literal, Rule, parse_term
from repro.logic.terms import Compound, Variable
from repro.maritime import MARITIME, build_dataset, gold_event_description
from repro.rtec import Event, EventDescription, EventStream, EvaluationError, RTECEngine
from repro.rtec.engine import recognise_all

WINDOWS = [(None, None), (600, 300)]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(seed=0, scale=0.05)


@pytest.fixture(scope="module")
def corpus(dataset):
    """Every raw and corrected description of the simulated models."""
    texts = []
    for model in MODEL_NAMES:
        for scheme in PROMPT_SCHEMES:
            outcome = generate(MARITIME, model, scheme, seed=0)
            corrected, _report = correct_outcome(outcome, dataset.vocabulary, dataset.kb)
            texts += [outcome.generated.to_text(), corrected.generated.to_text()]
    return texts


@pytest.fixture
def evaluations(monkeypatch):
    """Fluent name -> how many times the engine evaluated it."""
    counts: Counter = Counter()
    for name in ("evaluate_simple_fluent", "evaluate_static_fluent"):
        original = getattr(engine_module, name)

        def counted(definition, *args, _original=original, **kwargs):
            counts[definition.key[0]] += 1
            return _original(definition, *args, **kwargs)

        monkeypatch.setattr(engine_module, name, counted)
    return counts


def _gold_engine(dataset, description=None):
    return RTECEngine(description or gold_event_description(), dataset.kb, dataset.vocabulary)


@pytest.mark.parametrize("window,step", WINDOWS)
def test_every_engine_gets_what_its_own_run_gives(dataset, corpus, window, step):
    def engines():
        return [_gold_engine(dataset)] + [
            RTECEngine(EventDescription.from_text(text), dataset.kb, dataset.vocabulary,
                       strict=False, skip_errors=True)
            for text in corpus
        ]

    together = engines()
    results = recognise_all(together, dataset.stream, dataset.input_fluents, window, step)
    assert any(engine.runtime_warnings for engine in together)
    for engine, result, alone in zip(together, results, engines()):
        own = alone.recognise(dataset.stream, dataset.input_fluents, window, step)
        assert result.to_json() == own.to_json()
        assert engine.runtime_warnings == alone.runtime_warnings


def _renamed(rules):
    def rename(term):
        if isinstance(term, Variable):
            return Variable("Renamed" + term.name)
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(map(rename, term.args)))
        return term

    return [
        Rule(rename(rule.head), tuple(Literal(rename(lit.term), lit.negated) for lit in rule.body))
        for rule in rules
    ]


@pytest.mark.parametrize("window,step", WINDOWS)
def test_an_alpha_renamed_gold_adds_no_evaluation(dataset, evaluations, window, step):
    alone = _gold_engine(dataset).recognise(dataset.stream, dataset.input_fluents, window, step)
    once = Counter(evaluations)
    renamed = EventDescription(_renamed(gold_event_description().rules))
    assert renamed.rules != gold_event_description().rules
    evaluations.clear()
    results = recognise_all(
        [_gold_engine(dataset), _gold_engine(dataset, renamed)],
        dataset.stream, dataset.input_fluents, window, step,
    )
    assert evaluations == once
    assert [result.to_json() for result in results] == [alone.to_json()] * 2


BASE = """
initiatedAt(f(V)=true, T) :- happensAt(start(V, S), T), S > 2.
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).
"""

STREAM = EventStream([
    Event(0, parse_term("start(v1, 3)")),
    Event(12, parse_term("start(v2, 5)")),
    Event(30, parse_term("stop(v2)")),
    Event(40, parse_term("stop(v1)")),
    Event(55, parse_term("start(v2, 4)")),
])


def _exact_and_counted(texts, evaluations, window=None, step=None):
    """Run the descriptions in lockstep, over one kb, check each against its
    own run and return how often each fluent was evaluated in the lockstep run."""
    kb = KnowledgeBase()
    engines = [RTECEngine(EventDescription.from_text(text), kb) for text in texts]
    evaluations.clear()
    results = recognise_all(engines, STREAM, window=window, step=step)
    counts = Counter(evaluations)
    for text, result in zip(texts, results):
        alone = RTECEngine(EventDescription.from_text(text))
        own = alone.recognise(STREAM, window=window, step=step)
        assert result.to_json() == own.to_json()
    return counts


@pytest.mark.parametrize("window,step", [(None, None), (20, 10)])
def test_equal_definitions_over_one_kb_share(evaluations, window, step):
    windows = 1 if window is None else 6
    counts = _exact_and_counted([BASE, BASE], evaluations, window, step)
    assert counts == {"f": windows, "g": windows}


LEVEL = "initiatedAt(level(V)=%s, T) :- happensAt(start(V, _), T)."


@pytest.mark.parametrize("window,step", [(None, None), (20, 10)])
@pytest.mark.parametrize("mine,other,unshared", [
    # equal terms that render differently are not one constant
    (BASE + LEVEL % "2", BASE + LEVEL % "2.0", {"level"}),
    # g is defined as in BASE, but the f it reads is not
    (BASE, BASE.replace("happensAt(stop(V), T)", "happensAt(start(V, 5), T)"), {"f", "g"}),
    (BASE, BASE + "maxDuration(f(V)=true, 10).", {"f", "g"}),
    # the stream starts at 0: both first windows start at -1 either way
    (BASE, BASE + "initially(f(v9)=true).", {"f", "g"}),
], ids=["2-vs-2.0", "reads-a-different-fluent", "maxDuration", "initially"])
def test_differences_that_prevent_sharing(evaluations, mine, other, unshared, window, step):
    together = _exact_and_counted([mine, other], evaluations, window, step)
    alone = _exact_and_counted([mine], evaluations, window, step)
    alone_other = _exact_and_counted([other], evaluations, window, step)
    assert set(together) == set(alone) | set(alone_other)
    for fluent, count in together.items():
        shared = fluent not in unshared
        assert count == (alone[fluent] if shared else alone[fluent] + alone_other[fluent]), fluent


def test_a_tolerant_engine_that_failed_shares_nothing_with_a_strict_one():
    stream = EventStream([Event(5, parse_term("start(v1, fast)"))])
    kb = KnowledgeBase()
    tolerant = RTECEngine(EventDescription.from_text(BASE), kb, strict=False, skip_errors=True)
    strict = RTECEngine(EventDescription.from_text(BASE), kb)
    with pytest.raises(EvaluationError):
        recognise_all([tolerant, strict], stream)
    assert tolerant.runtime_warnings


def test_a_read_with_no_fixed_fluent_is_never_keyed():
    description = EventDescription.from_text(BASE + """
        holdsFor(h(V)=true, I) :- watched(F), holdsFor(F, I1), union_all([I1], I).
        holdsFor(k(V)=true, I) :- holdsFor(h(V)=true, I1), union_all([I1], I).
    """)
    keys = description.definition_keys()
    assert keys[("h", 1)] is None and keys[("k", 1)] is None
    assert keys[("f", 1)] is not None and keys[("g", 1)] is not None
