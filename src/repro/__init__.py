"""Reproduction of "Generating Activity Definitions with Large Language Models" (EDBT 2025).

The library has six layers, bottom-up:

* :mod:`repro.logic` — terms, parser, unification, knowledge base for the
  RTEC rule language;
* :mod:`repro.intervals` — maximal-interval algebra (``union_all``,
  ``intersect_all``, ``relative_complement_all``);
* :mod:`repro.rtec` — the RTEC composite event recognition engine
  (simple and statically determined fluents, windowing, caching);
* :mod:`repro.similarity` — the paper's event-description similarity
  metric (Definitions 4.1-4.14, Kuhn–Munkres matching);
* :mod:`repro.maritime` — the maritime substrate: geography, synthetic
  AIS data, critical-event detection, the gold-standard event description;
  :mod:`repro.fleet` the second gold domain, and :mod:`repro.domain` the
  one record per domain that everything above the substrates takes;
* :mod:`repro.llm` and :mod:`repro.generation` — the prompting pipeline,
  simulated LLMs, correction, and CER-accuracy evaluation;
* :mod:`repro.experiments` — harnesses regenerating Figures 2a, 2b, 2c.

Orthogonal to the layers, :mod:`repro.telemetry` provides an opt-in
span/counter tracer wired through the recognition stack (see the
"Profiling & telemetry" section of the README and ``python -m repro
profile``).

Quickstart::

    from repro.rtec import EventDescription, RTECEngine, Event, EventStream
    from repro.maritime import build_dataset, gold_event_description

    dataset = build_dataset(seed=0, scale=0.25)
    engine = RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)
    result = engine.recognise(dataset.stream, dataset.input_fluents)
    for pair, intervals in result.instances("trawling"):
        print(pair, intervals)
"""

from repro.rtec import (
    Event,
    EventDescription,
    EventStream,
    InputFluents,
    RecognitionResult,
    RTECEngine,
    Vocabulary,
)
from repro.similarity import (
    event_description_distance,
    event_description_similarity,
    rule_distance,
    rule_similarity,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Event",
    "EventDescription",
    "EventStream",
    "InputFluents",
    "RecognitionResult",
    "RTECEngine",
    "Vocabulary",
    "event_description_distance",
    "event_description_similarity",
    "rule_distance",
    "rule_similarity",
]
