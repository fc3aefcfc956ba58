#!/usr/bin/env python3
"""Generate maritime activity definitions with (simulated) LLMs.

Drives the paper's prompting pipeline (prompts R, F/F*, E, T, G) against
each simulated model under both prompting schemes, measures the similarity
of the generated event descriptions against the hand-crafted gold standard,
and prints the Figure 2a table. Also shows one generated definition in full,
with its validation issues — the raw material of the paper's qualitative
error assessment.

Run:  python examples/llm_generation.py [--model o1]
"""

import argparse

from repro.experiments import run_fig2a
from repro.experiments.fig2a import format_table
from repro.generation import generate
from repro.llm import BEST_SCHEME, MODEL_NAMES
from repro.maritime import MARITIME, MARITIME_VOCABULARY


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="gpt-4o", choices=MODEL_NAMES)
    args = parser.parse_args()

    print("=== Figure 2a: similarity of LLM-generated definitions ===\n")
    fig2a = run_fig2a()
    print(format_table(fig2a))
    print("\ntop-3 (input to Figures 2b/2c):", ", ".join(fig2a.top_models(3)))

    print("\n=== One generated definition in detail: %s ===\n" % args.model)
    outcome = generate(MARITIME, args.model, BEST_SCHEME[args.model])
    activity = outcome.generated.activity("loitering")
    print("-- natural-language description fed to prompt G --")
    print(activity.group.description)
    print("\n-- rules generated by %s (%s) --" % (args.model, outcome.scheme))
    print(activity.raw_text.strip())
    print("-- gold-standard rules --")
    print(activity.group.rules_text.strip())

    issues = outcome.generated.to_event_description().validate(MARITIME_VOCABULARY)
    print("\n-- validation issues of the full generated event description --")
    if issues:
        for issue in issues:
            print("  %s" % issue)
    else:
        print("  none")
    print(
        "\naverage similarity of %s%s: %.3f"
        % (args.model, outcome.scheme, outcome.average_similarity)
    )


if __name__ == "__main__":
    main()
