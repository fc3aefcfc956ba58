"""Command-line interface.

Subcommands mirror the paper's workflow::

    python -m repro fig2a                  # Figure 2a table
    python -m repro fig2b                  # Figure 2b table (after correction)
    python -m repro fig2c                  # Figure 2c table (F1 vs gold)
    python -m repro recognise              # run the gold ED over the fleet
    python -m repro generate --model o1    # print one generated event description
    python -m repro lint FILE              # lint an RTEC event description
    python -m repro lint --gold maritime   # lint a built-in gold description
    python -m repro lint --explain RTEC016 # document one diagnostic code
    python -m repro repair --model gemma-2 # iterative diagnostic repair loop
    python -m repro profile --window 600   # telemetry span tree of a recognition run
    python -m repro serve --tcp 7700       # long-lived recognition service
    python -m repro replay --gold fleet    # pump a dataset through a live service
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.experiments import run_fig2a, run_fig2b, run_fig2c
from repro.experiments.fig2a import format_table as fig2a_table
from repro.experiments.fig2b import format_table as fig2b_table
from repro.experiments.fig2c import format_table as fig2c_table
from repro.generation import generate
from repro.llm import BEST_SCHEME, MODEL_NAMES, PROMPT_SCHEMES
from repro.logic.parser import ParseError
from repro.maritime import (
    COMPOSITE_ACTIVITIES,
    MARITIME_VOCABULARY,
    build_dataset,
    gold_event_description,
)
from repro.rtec import EventDescription, RTECEngine

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int, what: str) -> Callable[[str], int]:
    """``argparse`` type of sizes, cadences and counts: a value below
    ``minimum`` is a usage error here, not a loop that makes no progress
    (or a ``ValueError``) further down."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError("expected %s, got %r" % (what, text))
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0 <= value <= 1:  # false for nan as well
        raise argparse.ArgumentTypeError("expected a fraction in [0, 1], got %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Generating Activity Definitions with LLMs' (EDBT 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2a = sub.add_parser("fig2a", help="similarity of LLM-generated definitions")
    fig2a.add_argument("--seed", type=int, default=0)
    fig2a.add_argument("--chart", action="store_true", help="render bar groups")

    fig2b = sub.add_parser("fig2b", help="similarities after syntactic correction")
    fig2b.add_argument("--seed", type=int, default=0)
    fig2b.add_argument("--scale", type=float, default=0.25)

    fig2c = sub.add_parser("fig2c", help="predictive accuracy (F1 vs gold detections)")
    fig2c.add_argument("--seed", type=int, default=0)
    fig2c.add_argument("--scale", type=float, default=0.25)
    fig2c.add_argument("--window", type=_positive_int, default=None)

    recognise = sub.add_parser("recognise", help="run the gold ED over the synthetic fleet")
    recognise.add_argument("--seed", type=int, default=0)
    recognise.add_argument("--scale", type=float, default=0.25)
    recognise.add_argument("--traffic", type=int, default=4)
    recognise.add_argument("--window", type=_positive_int, default=None)

    gen = sub.add_parser("generate", help="print one generated event description")
    gen.add_argument("--model", choices=MODEL_NAMES, default="o1")
    gen.add_argument("--scheme", choices=PROMPT_SCHEMES, default=None,
                     help="default: the model's best scheme")
    gen.add_argument("--seed", type=int, default=0)

    repair = sub.add_parser(
        "repair",
        help="iterative diagnostic repair of generated event descriptions",
        description="Close the static-analysis feedback cycle: generate with "
        "a simulated model, apply single-shot correction, then iterate "
        "analyse -> auto-fix -> repair-prompt until clean, fixpoint, "
        "oscillation, or budget. Prints a per-iteration report (diagnostics "
        "remaining, similarity delta, fixed/regressed codes).",
    )
    repair.add_argument(
        "--gold", choices=("maritime", "fleet"), default="maritime",
        help="domain to repair against (default: maritime)",
    )
    repair.add_argument("--model", choices=MODEL_NAMES, default=None,
                        help="default: all models")
    repair.add_argument("--scheme", choices=PROMPT_SCHEMES, default=None,
                        help="default: both pipeline schemes")
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument("--scale", type=float, default=0.1,
                        help="maritime dataset scale (knowledge-base constants)")
    repair.add_argument("--budget", type=int, default=5,
                        help="maximum repair iterations (default: 5)")
    repair.add_argument("--json", action="store_true",
                        help="emit the full per-iteration report as JSON")

    errors = sub.add_parser(
        "errors", help="qualitative error assessment of a generated description"
    )
    errors.add_argument("--model", choices=MODEL_NAMES, default=None,
                        help="default: all models")
    errors.add_argument("--seed", type=int, default=0)

    diff = sub.add_parser(
        "diff", help="correction worklist: generated vs gold rule matching"
    )
    diff.add_argument("--model", choices=MODEL_NAMES, default="o1")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--show-exact", action="store_true")

    profile = sub.add_parser(
        "profile",
        help="run a recognition workload with telemetry enabled and print the span tree",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--scale", type=float, default=0.1)
    profile.add_argument("--traffic", type=int, default=2)
    profile.add_argument("--window", type=_positive_int, default=600)
    profile.add_argument("--step", type=_positive_int, default=None)
    profile.add_argument(
        "--session",
        action="store_true",
        help="replay the stream through an online RTECSession instead of batch recognition",
    )
    profile.add_argument("--json", action="store_true", help="emit the trace as JSON")
    profile.add_argument(
        "--min-ms", type=float, default=0.0, help="hide spans faster than this"
    )
    profile.add_argument(
        "--max-children",
        type=int,
        default=10,
        help="show at most this many (slowest) children per span",
    )

    lint = sub.add_parser(
        "lint",
        help="lint an RTEC event description (multi-pass static analysis)",
        description="Run the repro.analysis linter: structural validation, "
        "binding-order dataflow, arity, consistency, dependency and "
        "partitionability checks, with RTEC0xx diagnostic codes.",
    )
    lint.add_argument("path", nargs="?", help="file with RTEC rules")
    lint.add_argument(
        "--gold",
        choices=("maritime", "fleet"),
        help="lint a built-in gold event description instead of a file",
    )
    lint.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print the registry entry of one diagnostic code (e.g. "
        "RTEC016) and exit; no PATH needed",
    )
    lint.add_argument(
        "--no-vocabulary",
        action="store_true",
        help="skip maritime vocabulary checks (structural validation only)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="exit non-zero when a diagnostic at or above this severity is "
        "reported (default: error)",
    )
    lint.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated diagnostic codes to report (e.g. "
        "RTEC017,RTEC021); other diagnostics are hidden and do not "
        "affect --fail-on",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="apply machine-applicable fixes (renames, dropped subsumed "
        "conditions, removed dead rules); rewrites PATH in place unless "
        "--diff is also given",
    )
    lint.add_argument(
        "--diff",
        action="store_true",
        help="with --fix: print a unified diff of the fixes without "
        "writing anything (required for --gold targets)",
    )

    certify = sub.add_parser(
        "certify",
        help="certify an event description: delta safety, memory "
        "boundedness, static cost",
        description="Run the repro.analysis.certify whole-description "
        "certification: the delta-safety prover (RTEC025/026), the "
        "memory-boundedness analysis (RTEC027/028) and the static cost "
        "model (RTEC029), emitting a signed AnalysisCertificate bound to "
        "the description hash.",
    )
    certify.add_argument("path", nargs="?", help="file with RTEC rules")
    certify.add_argument(
        "--gold",
        choices=("maritime", "fleet"),
        help="certify a built-in gold event description instead of a file",
    )
    certify.add_argument(
        "--no-vocabulary",
        action="store_true",
        help="skip maritime vocabulary checks (weakens the reachability "
        "facts the memory-boundedness analysis uses)",
    )
    certify.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format: human-readable text, the signed certificate "
        "JSON, or SARIF 2.1.0 of the certification diagnostics "
        "(default: text)",
    )
    certify.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="exit non-zero when a certification diagnostic at or above "
        "this severity is reported (default: error)",
    )
    certify.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the signed certificate JSON to FILE",
    )

    serve = sub.add_parser(
        "serve",
        help="run the streaming recognition service (JSON lines over TCP or stdio)",
        description="Host one or more online recognition sessions behind the "
        "repro.serve JSON-lines protocol: 'event'/'events' ingest with "
        "backpressure, 'query' for detections, 'checkpoint' for durable "
        "snapshots, 'status' for counters, 'shutdown' to stop.",
    )
    _add_dataset_arguments(serve)
    _add_serving_arguments(serve)
    serve.add_argument(
        "--tcp",
        metavar="[HOST:]PORT",
        default=None,
        help="listen on this TCP endpoint (default host 127.0.0.1)",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one connection on stdin/stdout (default when --tcp is absent)",
    )
    serve.add_argument(
        "--sessions", type=_positive_int, default=1,
        help="host this many sessions (named s0..sN-1; one engine each)",
    )
    serve.add_argument(
        "--restore",
        action="store_true",
        help="resume each session from its latest checkpoint in --checkpoint-dir",
    )

    replay = sub.add_parser(
        "replay",
        help="pump a dataset through a live service (load generator + crash drill)",
        description="Boot the recognition service on a loopback socket (in "
        "this process, or with --workers N a router in front of N worker "
        "processes), split the dataset across sessions, pump it through the "
        "JSON-lines protocol, and report sustained ingest. With --kill-at "
        "the deployment is crashed mid-stream (the whole service, or the "
        "fleet's busiest worker by SIGKILL) and its sessions are restored "
        "from their checkpoints; with --verify the final detections are "
        "compared byte-for-byte against an uninterrupted single-process run "
        "and directly driven RTECSessions.",
    )
    _add_dataset_arguments(replay)
    _add_serving_arguments(replay)
    replay.add_argument(
        "--sessions", type=_positive_int, default=1,
        help="split the stream across this many sessions by entity component",
    )
    replay.add_argument(
        "--repeat", type=_positive_int, default=1,
        help="tile the stream this many times along the timeline",
    )
    replay.add_argument(
        "--limit", type=_positive_int, default=None, help="truncate to this many events"
    )
    replay.add_argument(
        "--mode", choices=("batched", "firehose"), default="batched",
        help="batched: acked stop-and-wait batches; firehose: unacked event lines",
    )
    replay.add_argument("--batch-size", type=_positive_int, default=512)
    replay.add_argument(
        "--kill-at", type=_fraction, default=None, metavar="FRACTION",
        help="crash the deployment after this fraction of events, then restore",
    )
    replay.add_argument(
        "--verify", action="store_true",
        help="compare detections against an uninterrupted run and a direct session",
    )
    replay.add_argument("--json", action="store_true", help="emit the report as JSON")
    replay.add_argument(
        "--emit", action="store_true",
        help="print the workload as protocol lines (pipe into 'repro serve --stdio')",
    )
    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gold", choices=("maritime", "fleet"), default="maritime",
        help="which gold event description / dataset to serve (default: maritime)",
    )
    parser.add_argument("--seed", type=int, default=0, help="maritime dataset seed")
    parser.add_argument("--scale", type=float, default=0.25, help="maritime dataset scale")
    parser.add_argument("--traffic", type=int, default=4, help="maritime vessels per berth")


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="distribute sessions across N shared-nothing worker processes "
        "behind a router (default 1: single in-process service)",
    )
    parser.add_argument("--window", type=_positive_int, default=600, help="window extent (omega)")
    parser.add_argument(
        "--step", type=_positive_int, default=None,
        help="query-time cadence (default: the window, i.e. tumbling)",
    )
    parser.add_argument(
        "--high-water", type=_positive_int, default=8192,
        help="ingest-queue high-water mark (events beyond it are rejected)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for durable session checkpoints",
    )
    parser.add_argument(
        "--checkpoint-every", type=_non_negative_int, default=0, metavar="WINDOWS",
        help="write a checkpoint every this many windows (0: only on demand)",
    )
    parser.add_argument(
        "--checkpoint-keep", type=_positive_int, default=None, metavar="N",
        help="keep at most N checkpoint files per session",
    )
    parser.add_argument(
        "--no-incremental", dest="incremental", action="store_false", default=True,
        help="recompute the full window on every advance instead of the "
        "incremental (delta) evaluation (the verification oracle)",
    )
    parser.add_argument(
        "--certify", choices=("off", "warn", "require"), default="warn",
        help="certificate-gated session admission: 'warn' records "
        "admission warnings for uncertifiable/leaky descriptions in the "
        "session status, 'require' rejects them (default: warn)",
    )


def _cmd_fig2a(args: argparse.Namespace) -> int:
    result = run_fig2a(seed=args.seed)
    print(fig2a_table(result))
    print("top-3:", ", ".join(result.top_models(3)))
    if args.chart:
        from repro.experiments.fig2a import scheme_mark
        from repro.experiments.render import grouped_bar_chart
        from repro.maritime.gold import ACTIVITY_SHORT_LABELS, COMPOSITE_ACTIVITIES

        series = {
            "%s%s" % (model, scheme_mark(outcome.scheme)): [
                outcome.activity_similarities[a] for a in COMPOSITE_ACTIVITIES
            ]
            + [outcome.average_similarity]
            for model, outcome in result.outcomes.items()
        }
        labels = [ACTIVITY_SHORT_LABELS[a] for a in COMPOSITE_ACTIVITIES] + ["all"]
        print()
        print(grouped_bar_chart(series, labels))
    return 0


def _cmd_fig2b(args: argparse.Namespace) -> int:
    dataset = build_dataset(seed=args.seed, scale=args.scale)
    print(fig2b_table(run_fig2b(dataset.kb, seed=args.seed)))
    return 0


def _cmd_fig2c(args: argparse.Namespace) -> int:
    result = run_fig2c(seed=args.seed, scale=args.scale, window=args.window)
    print(fig2c_table(result))
    return 0


def _cmd_recognise(args: argparse.Namespace) -> int:
    dataset = build_dataset(seed=args.seed, scale=args.scale, traffic=args.traffic)
    engine = RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)
    result = engine.recognise(dataset.stream, dataset.input_fluents, window=args.window)
    print("%-20s %9s %12s" % ("activity", "instances", "duration (s)"))
    for activity in COMPOSITE_ACTIVITIES:
        instances = list(result.instances(activity))
        print(
            "%-20s %9d %12d"
            % (activity, len(instances), result.activity_duration(activity))
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    scheme = args.scheme or BEST_SCHEME[args.model]
    outcome = generate(args.model, scheme, seed=args.seed)
    print("%% model=%s scheme=%s average-similarity=%.3f" % (
        args.model, scheme, outcome.average_similarity))
    print(outcome.generated.to_text())
    for name, error in outcome.generated.parse_errors.items():
        print("%% parse error in %s: %s" % (name, error))
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.experiments.repair import (
        format_table,
        run_fleet_repair_experiment,
        run_repair_experiment,
    )

    models = [args.model] if args.model else list(MODEL_NAMES)
    schemes = [args.scheme] if args.scheme else list(PROMPT_SCHEMES)
    if args.gold == "fleet":
        result = run_fleet_repair_experiment(
            models, schemes, seed=args.seed, budget=args.budget
        )
    else:
        dataset = build_dataset(seed=args.seed, scale=args.scale)
        result = run_repair_experiment(
            dataset.kb, models, schemes, seed=args.seed, budget=args.budget
        )
    if args.json:
        print(result.to_json())
        return 0 if result.all_at_least_baseline else 1
    print(format_table(result))
    for entry in result.entries:
        for iteration in entry.result.iterations:
            parts = [
                "%%%% %s/%s iteration %d: %d -> %d diagnostics, similarity %.3f"
                % (
                    entry.model,
                    entry.scheme,
                    iteration.index,
                    len(iteration.codes_before),
                    len(iteration.codes_after),
                    iteration.similarity,
                )
            ]
            if iteration.fixed_codes:
                parts.append("fixed %s" % ",".join(sorted(set(iteration.fixed_codes))))
            if iteration.regressed_codes:
                parts.append(
                    "regressed %s" % ",".join(sorted(set(iteration.regressed_codes)))
                )
            if iteration.prompted_activities:
                parts.append("prompted %s" % ",".join(iteration.prompted_activities))
            if iteration.conflicts:
                parts.append("conflicts %d" % len(iteration.conflicts))
            print("; ".join(parts))
        if entry.result.oscillation:
            print(
                "%%%% %s/%s oscillation: %s"
                % (entry.model, entry.scheme, entry.result.oscillation)
            )
    return 0 if result.all_at_least_baseline else 1


def _cmd_errors(args: argparse.Namespace) -> int:
    from repro.generation import analyse_errors, format_report

    models = [args.model] if args.model else list(MODEL_NAMES)
    for model in models:
        outcome = generate(model, BEST_SCHEME[model], seed=args.seed)
        report = analyse_errors(outcome.generated, MARITIME_VOCABULARY)
        print(format_report(report))
        print()
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.maritime.gold import gold_event_description
    from repro.similarity import format_matching, match_descriptions

    outcome = generate(args.model, BEST_SCHEME[args.model], seed=args.seed)
    report = match_descriptions(
        outcome.generated.to_event_description(), gold_event_description()
    )
    print("%% correction worklist for %s%s" % (args.model, ""))
    print(format_matching(report, show_exact=args.show_exact))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.rtec.session import RTECSession

    dataset = build_dataset(seed=args.seed, scale=args.scale, traffic=args.traffic)
    engine = RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)
    with telemetry.enabled() as tracer:
        if args.session:
            session = RTECSession(engine, window=args.window)
            for pair, intervals in dataset.input_fluents.items():
                session.submit_fluent(pair, intervals)
            events = list(dataset.stream)
            step = args.step if args.step is not None else args.window
            end = dataset.stream.max_time or 0
            query_time = min((dataset.stream.min_time or 0) - 1 + step, end)
            cursor = 0
            while True:
                while cursor < len(events) and events[cursor].time <= query_time:
                    session.submit([events[cursor]])
                    cursor += 1
                session.advance(query_time)
                if query_time >= end:
                    break
                query_time = min(query_time + step, end)
        else:
            engine.recognise(
                dataset.stream,
                dataset.input_fluents,
                window=args.window,
                step=args.step,
            )
    report = tracer.report()
    if args.json:
        print(report.to_json())
        return 0
    print(
        "%% workload: %s over %d events (seed=%d scale=%g traffic=%d window=%d)"
        % (
            "online session" if args.session else "batch recognise",
            len(dataset.stream),
            args.seed,
            args.scale,
            args.traffic,
            args.window,
        )
    )
    print()
    print(report.render(min_seconds=args.min_ms / 1e3, max_children=args.max_children))
    print()
    print(report.render_summary())
    return 0


def _gold_lint_target(which: str):
    """(description, vocabulary, outputs, source) of a built-in gold ED.

    ``outputs`` covers every activity-group fluent (the paper reports all
    activity levels, not just the composite ones), so the dead-rule check
    applies only to fluents outside the task's activity list.
    """
    if which == "maritime":
        from repro.maritime import ACTIVITY_GROUPS

        description = gold_event_description()
        vocabulary = MARITIME_VOCABULARY
        groups = ACTIVITY_GROUPS
    else:
        from repro.fleet import (
            FLEET_ACTIVITY_GROUPS,
            FLEET_VOCABULARY,
            fleet_gold_event_description,
        )

        description = fleet_gold_event_description()
        vocabulary = FLEET_VOCABULARY
        groups = FLEET_ACTIVITY_GROUPS
    outputs = {name for group in groups for name, _arity in group.fluents}
    return description, vocabulary, outputs, "<gold:%s>" % which


_PAPER_CATEGORY_LABELS = {
    1: "naming divergence",
    2: "wrong fluent type / malformed definition",
    3: "undefined activity",
    4: "wrong interval operator",
}


def _cmd_lint_explain(code: str) -> int:
    """Print the registry entry of one diagnostic code."""
    from repro.analysis import rule_for

    rule = rule_for(code.strip().upper())
    if rule is None:
        print("error: unknown diagnostic code %r" % code, file=sys.stderr)
        return 2
    print("%s: %s" % (rule.code, rule.title))
    print("  category:       %s" % rule.category)
    print("  severity:       %s" % rule.severity)
    if rule.paper_category is not None:
        print(
            "  paper category: %d (%s)"
            % (rule.paper_category, _PAPER_CATEGORY_LABELS[rule.paper_category])
        )
    print("  auto-fix:       %s" % ("yes" if rule.fixable else "no"))
    print("  repair:         %s" % (rule.repair or "not repairable"))
    print("  docs:           %s" % rule.help_uri)
    print()
    print("  %s" % rule.explanation)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import LintReport, Severity, analyse, analyse_text, to_sarif

    if args.explain is not None:
        return _cmd_lint_explain(args.explain)
    if (args.path is None) == (args.gold is None):
        print("error: give exactly one of PATH or --gold", file=sys.stderr)
        return 2
    if args.diff and not args.fix:
        print("error: --diff requires --fix", file=sys.stderr)
        return 2
    if args.fix and args.gold is not None and not args.diff:
        print(
            "error: cannot rewrite a built-in gold description; use --fix --diff",
            file=sys.stderr,
        )
        return 2
    description = None
    if args.gold is not None:
        description, vocabulary, outputs, source = _gold_lint_target(args.gold)
        if args.no_vocabulary:
            vocabulary = None
        text = description.to_text()
        report = analyse(
            description,
            vocabulary,
            outputs=outputs,
            text=text,
            source=source,
        )
    else:
        source = args.path
        try:
            with open(args.path) as handle:
                text = handle.read()
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        vocabulary = None if args.no_vocabulary else MARITIME_VOCABULARY
        report = analyse_text(text, vocabulary, source=args.path)
        try:
            description = EventDescription.from_text(text)
        except ParseError:
            description = None
    if args.select:
        wanted = {code.strip().upper() for code in args.select.split(",") if code.strip()}
        report = LintReport(
            [d for d in report.diagnostics if d.code in wanted],
            report.source,
            report.rule_lines,
        )
    if args.fix:
        return _lint_fix(args, report, description, source)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(json.dumps(to_sarif(report, source_text=text), indent=2))
    else:
        print(report.format_text())
    if args.fail_on == "never":
        return 0
    threshold = {
        "error": Severity.ERROR,
        "warning": Severity.WARNING,
        "info": Severity.INFO,
    }[args.fail_on]
    return 1 if report.at_or_above(threshold) else 0


def _cmd_certify(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import Severity, certify_description, certify_text, to_sarif

    if (args.path is None) == (args.gold is None):
        print("error: give exactly one of PATH or --gold", file=sys.stderr)
        return 2
    if args.gold is not None:
        from repro.logic.parser import clause_lines

        description, vocabulary, outputs, source = _gold_lint_target(args.gold)
        if args.no_vocabulary:
            vocabulary = None
        text = description.to_text()
        certificate = certify_description(
            description, vocabulary, outputs=sorted(outputs)
        )
        rule_lines = clause_lines(text)
    else:
        source = args.path
        try:
            with open(args.path) as handle:
                text = handle.read()
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        vocabulary = None if args.no_vocabulary else MARITIME_VOCABULARY
        certificate, rule_lines = certify_text(text, vocabulary)
    report = certificate.report(source=source, rule_lines=rule_lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(certificate.to_json())
            handle.write("\n")
    if args.format == "json":
        print(certificate.to_json())
    elif args.format == "sarif":
        print(json.dumps(to_sarif(report, source_text=text), indent=2))
    else:
        print(report.format_text())
        print()
        print("certificate: %s" % certificate.summary())
        print("description hash: %s" % certificate.description_hash)
        print("signature:        %s" % certificate.signature)
        if certificate.leaky_fluents:
            print("leaky fluents:    %s" % ", ".join(certificate.leaky_fluents))
    if args.fail_on == "never":
        return 0
    threshold = {
        "error": Severity.ERROR,
        "warning": Severity.WARNING,
        "info": Severity.INFO,
    }[args.fail_on]
    return 1 if report.at_or_above(threshold) else 0


def _lint_fix(args: argparse.Namespace, report, description, source: str) -> int:
    """Apply (or, with ``--diff``, preview) the report's attached fixes.

    The diff compares the *normalised* rendering of the original rules
    against the fixed rules, so formatting differences in the source file
    do not drown out the actual fixes.
    """
    import difflib

    from repro.analysis.fixers import apply_fixes
    from repro.logic.pretty import program_to_str

    if description is None:
        print("error: cannot fix a file that does not parse", file=sys.stderr)
        return 2
    fixable = [d for d in report.diagnostics if d.fix is not None]
    fixed = apply_fixes(description.rules, fixable)
    before = program_to_str(description.rules)
    after = program_to_str(fixed)
    if before == after:
        print("no applicable fixes")
        return 0
    if args.diff:
        sys.stdout.writelines(
            difflib.unified_diff(
                before.splitlines(keepends=True),
                after.splitlines(keepends=True),
                fromfile=source,
                tofile="%s (fixed)" % source,
            )
        )
        return 0
    with open(args.path, "w") as handle:
        handle.write(after)
    print(
        "applied %d fix(es) to %s (%d -> %d rules)"
        % (len(fixable), args.path, len(description.rules), len(fixed))
    )
    return 0


def _serving_dataset(args: argparse.Namespace):
    """(dataset stream, input fluents, engine factory) for ``--gold``."""
    if args.gold == "fleet":
        from repro.fleet import build_fleet_dataset, fleet_gold_event_description

        dataset = build_fleet_dataset()
        description = fleet_gold_event_description()
    else:
        dataset = build_dataset(seed=args.seed, scale=args.scale, traffic=args.traffic)
        description = gold_event_description()

    def make_engine() -> RTECEngine:
        return RTECEngine(description, dataset.kb, dataset.vocabulary)

    return dataset.stream, dataset.input_fluents, description, make_engine


def _session_names(count: int, prefix: str = "s") -> List[str]:
    if count <= 1:
        return [prefix]
    return ["%s%d" % (prefix, index) for index in range(count)]


def _serving_config(args: argparse.Namespace):
    from repro.serve import SessionConfig

    return SessionConfig(
        window=args.window,
        step=args.step,
        high_water=args.high_water,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.checkpoint_keep,
        incremental=args.incremental,
        certify=args.certify,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import RecognitionServer, SessionManager

    if args.workers > 1:
        return _cmd_serve_cluster(args)
    _stream, _fluents, _description, make_engine = _serving_dataset(args)
    config = _serving_config(args)
    sessions = getattr(args, "sessions", 1)
    manager = SessionManager(checkpoint_dir=args.checkpoint_dir)
    for name in _session_names(sessions):
        manager.add_session(name, make_engine(), config, restore=args.restore)
    server = RecognitionServer(manager)
    if args.tcp is not None:
        host, _, port_text = args.tcp.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            print("error: --tcp expects [HOST:]PORT, got %r" % args.tcp, file=sys.stderr)
            return 2
        serve = server.serve_tcp(host, port)
    else:
        serve = server.serve_stdio()

    async def _run() -> None:
        server.install_signal_handlers()
        await serve

    asyncio.run(_run())
    return 0


def _gold_engine_spec(args: argparse.Namespace):
    from repro.serve.cluster import gold_engine_spec

    if args.gold == "maritime":
        return gold_engine_spec(
            "maritime", seed=args.seed, scale=args.scale, traffic=args.traffic
        )
    return gold_engine_spec(args.gold)


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.cluster import ClusterRouter

    if args.tcp is None:
        print("error: --workers > 1 requires --tcp (stdio cannot be routed)",
              file=sys.stderr)
        return 2
    host, _, port_text = args.tcp.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print("error: --tcp expects [HOST:]PORT, got %r" % args.tcp, file=sys.stderr)
        return 2
    router = ClusterRouter(
        _gold_engine_spec(args),
        _serving_config(args),
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
    )

    async def _run() -> None:
        bound = await router.start(host, port)
        router.install_signal_handlers()
        try:
            await router.assign_sessions(
                _session_names(args.sessions), restore=args.restore
            )
            print(
                "serving RTEC recognition on %s:%d (%d workers)"
                % (host, bound, len(router.workers)),
                file=sys.stderr,
            )
            await router.shutdown_requested.wait()
        finally:
            await router.stop()

    asyncio.run(_run())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import tempfile

    from repro.serve import build_workload, run_replay

    stream, input_fluents, description, make_engine = _serving_dataset(args)
    workload = build_workload(
        stream,
        input_fluents,
        description,
        sessions=args.sessions,
        repeat=args.repeat,
        limit=args.limit,
    )
    if args.emit:
        for name, fvp, pairs in workload.fluents:
            print(json.dumps(
                {"type": "fluent", "session": name, "fvp": fvp, "intervals": pairs},
                separators=(",", ":"),
            ))
        for name, time, term in workload.events:
            print(json.dumps(
                {"type": "event", "session": name, "time": time, "term": term},
                separators=(",", ":"),
            ))
        for name in workload.sessions:
            print(json.dumps(
                {"type": "query", "session": name, "at": workload.end_time},
                separators=(",", ":"),
            ))
        print(json.dumps({"type": "shutdown"}, separators=(",", ":")))
        return 0
    config = _serving_config(args)
    checkpoint_dir = args.checkpoint_dir
    if args.kill_at is not None and checkpoint_dir is None:
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-serve-ckpt-")
    if args.kill_at is not None and config.checkpoint_every <= 0:
        config.checkpoint_every = 1

    outcome = asyncio.run(run_replay(
        # Worker processes are spawned: a fleet takes the portable recipe,
        # one process the engine over the dataset already built above.
        _gold_engine_spec(args) if args.workers > 1 else make_engine,
        workload,
        config,
        workers=args.workers,
        checkpoint_dir=checkpoint_dir,
        kill_at=args.kill_at,
        verify=args.verify,
        batch_size=args.batch_size,
        mode=args.mode,
    ))
    report = outcome.final_report
    summary = {
        "gold": args.gold,
        "sessions": len(workload.sessions),
        "events": len(workload.events),
        "window": config.window,
        "step": config.resolved_step(),
        "mode": args.mode,
        "workers": args.workers,
        "events_sent": report.events_sent,
        "events_accepted": report.events_accepted,
        "rejections": report.rejections,
        "retries": report.retries,
        "ingest_seconds": round(report.ingest_seconds, 6),
        "ingest_rate": round(report.ingest_rate, 1),
        "drain_seconds": round(report.drain_seconds, 6),
        "queue_peak": report.queue_peak,
        "detected_fvps": len(outcome.merged),
        "killed_at_event": outcome.killed_at_event,
        "killed_worker": outcome.killed_worker,
        "restored_sessions": outcome.restored_sessions,
        "placement": outcome.placement,
        "verified": outcome.verified,
        "verify_detail": outcome.verify_detail,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key in (
            "gold", "sessions", "events", "window", "step", "mode", "workers",
            "events_sent", "events_accepted", "rejections", "retries",
            "ingest_seconds", "ingest_rate", "drain_seconds", "queue_peak",
            "detected_fvps", "killed_at_event", "killed_worker",
            "restored_sessions", "placement",
        ) + (("verified", "verify_detail") if args.verify else ()):
            print("%-22s %s" % (key, summary[key]))
    if args.verify and not outcome.verified:
        return 1
    return 0


_COMMANDS = {
    "fig2a": _cmd_fig2a,
    "fig2b": _cmd_fig2b,
    "fig2c": _cmd_fig2c,
    "recognise": _cmd_recognise,
    "generate": _cmd_generate,
    "repair": _cmd_repair,
    "errors": _cmd_errors,
    "diff": _cmd_diff,
    "profile": _cmd_profile,
    "lint": _cmd_lint,
    "certify": _cmd_certify,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
