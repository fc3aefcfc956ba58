#!/usr/bin/env python3
"""Transfer to a second domain: vehicle fleet management.

The paper's further-work section states the approach carries over to
vehicle fleet management, with prompt R reused as-is and prompts F, E, T
customised. This example (i) runs the fleet gold-standard event description
— which exercises RTEC's ``maxDuration`` deadline mechanism for unsafe
manoeuvres — over a scripted telematics stream, and (ii) generates the same
definitions through the LLM pipeline instantiated for the fleet domain,
reporting their similarity and CER agreement with the gold standard.

Run:  python examples/fleet_management.py [--model o1]
"""

import argparse

from repro.fleet import FLEET, FLEET_COMPOSITE_ACTIVITIES
from repro.generation import generate
from repro.generation.evaluation import score_activity
from repro.llm import BEST_SCHEME, MODEL_NAMES
from repro.rtec import RTECEngine
from repro.similarity import event_description_similarity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="gemma-2", choices=MODEL_NAMES)
    args = parser.parse_args()

    dataset = FLEET.dataset()
    gold = FLEET.gold()
    engine = RTECEngine(gold, dataset.kb, dataset.vocabulary)
    gold_result = engine.recognise(dataset.stream, dataset.input_fluents)

    print("=== gold-standard fleet recognition ===")
    for activity in FLEET_COMPOSITE_ACTIVITIES:
        for pair, intervals in gold_result.instances(activity):
            print("  holdsFor(%s, %s)" % (pair, intervals.as_pairs()))

    print("\n=== LLM generation for the fleet domain (%s) ===" % args.model)
    outcome = generate(FLEET, args.model, BEST_SCHEME[args.model])
    description = outcome.generated.to_event_description()
    similarity = event_description_similarity(description, gold)
    print("similarity to gold: %.3f" % similarity)
    issues = description.validate(FLEET.vocabulary)
    for issue in issues:
        print("  %s" % issue)
    if not issues:
        print("  no validation issues")

    candidate_engine = RTECEngine(
        description, dataset.kb, dataset.vocabulary, strict=False, skip_errors=True
    )
    candidate_result = candidate_engine.recognise(dataset.stream, dataset.input_fluents)
    print("\n%-20s %6s" % ("activity", "f1"))
    for activity in FLEET_COMPOSITE_ACTIVITIES:
        score = score_activity(gold_result, candidate_result, activity)
        print("%-20s %6.2f" % (activity, score.f1))


if __name__ == "__main__":
    main()
