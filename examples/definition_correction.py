#!/usr/bin/env python3
"""From generated definition to running recognition: the full loop.

Generates an event description with a simulated LLM, corrects its minor
syntactic errors (the Figure 2b step), runs both it and the gold standard
through RTEC over the synthetic AIS stream, and reports per-activity F1
(the Figure 2c measurement) — demonstrating the paper's headline claim that
LLM-generated definitions, after minimal correction, "achieve high
predictive accuracy".

Run:  python examples/definition_correction.py [--model o1] [--scale 0.3]
"""

import argparse

from repro.generation import (
    correct_event_description,
    generate,
    run_recognition,
    score_activities,
)
from repro.llm import BEST_SCHEME, MODEL_NAMES
from repro.maritime import (
    COMPOSITE_ACTIVITIES,
    MARITIME,
    MARITIME_VOCABULARY,
    build_dataset,
    gold_event_description,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="o1", choices=MODEL_NAMES)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    args = parser.parse_args()

    outcome = generate(MARITIME, args.model, BEST_SCHEME[args.model])
    print(
        "generated %d rules with %s (%s); average similarity %.3f"
        % (
            len(outcome.generated.all_rules()),
            args.model,
            outcome.scheme,
            outcome.average_similarity,
        )
    )

    dataset = build_dataset(seed=args.seed, scale=args.scale)
    corrected, report = correct_event_description(
        outcome.generated,
        MARITIME_VOCABULARY,
        dataset.kb,
        manual_constant_renames=MARITIME.manual_renames.get(args.model, {}),
    )
    print("\ncorrection report:")
    for old, new in report.functor_renames.items():
        print("  functor  %s -> %s" % (old, new))
    for old, new in report.constant_renames.items():
        print("  constant %s -> %s" % (old, new))
    for item in report.unresolved:
        print("  unresolved: %s" % item)
    if not report.total_changes and not report.unresolved:
        print("  nothing to fix")

    print("\nrunning RTEC with the gold and the corrected descriptions...")
    gold_result = run_recognition(gold_event_description(), dataset, strict=True)
    candidate_result = run_recognition(corrected.to_event_description(), dataset)

    scores = score_activities(gold_result, candidate_result)
    print("\n%-20s %10s %10s %10s" % ("activity", "precision", "recall", "f1"))
    for activity in COMPOSITE_ACTIVITIES:
        score = scores[activity]
        print(
            "%-20s %10.2f %10.2f %10.2f"
            % (activity, score.precision, score.recall, score.f1)
        )
    average = sum(scores[a].f1 for a in COMPOSITE_ACTIVITIES) / len(COMPOSITE_ACTIVITIES)
    print("%-20s %32.2f" % ("average", average))


if __name__ == "__main__":
    main()
