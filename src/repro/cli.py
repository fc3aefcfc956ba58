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
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.domain import GOLD_NAMES, gold_domain, gold_engine, gold_parts
from repro.experiments import run_fig2a, run_fig2b, run_fig2c
from repro.experiments.fig2a import format_table as fig2a_table
from repro.experiments.fig2b import format_table as fig2b_table
from repro.experiments.fig2c import format_table as fig2c_table
from repro.generation import generate
from repro.llm import BEST_SCHEME, MODEL_NAMES, PROMPT_SCHEMES
from repro.logic.parser import ParseError
from repro.maritime import (
    COMPOSITE_ACTIVITIES,
    MARITIME,
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


def _positive_float(text: str) -> float:
    """``argparse`` type of dataset scales: nan, inf, zero and negatives are
    usage errors, not a traceback or a silently clamped dataset."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value < math.inf:  # false for nan as well
        raise argparse.ArgumentTypeError("expected a finite positive number, got %r" % text)
    return value


def _endpoint(text: str) -> Tuple[str, int]:
    """``argparse`` type of ``--tcp [HOST:]PORT`` (default host 127.0.0.1)."""
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            "expected [HOST:]PORT with a port in 0-65535, got %r" % text
        )
    return host or "127.0.0.1", port


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
    fig2b.add_argument("--scale", type=_positive_float, default=0.25)

    fig2c = sub.add_parser("fig2c", help="predictive accuracy (F1 vs gold detections)")
    fig2c.add_argument("--seed", type=int, default=0)
    fig2c.add_argument("--scale", type=_positive_float, default=0.25)
    fig2c.add_argument("--window", type=_positive_int, default=None)

    recognise = sub.add_parser("recognise", help="run the gold ED over the synthetic fleet")
    recognise.add_argument("--seed", type=int, default=0)
    recognise.add_argument("--scale", type=_positive_float, default=0.25)
    recognise.add_argument("--traffic", type=_non_negative_int, default=4)
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
        "--gold", choices=GOLD_NAMES, default="maritime",
        help="domain to repair against (default: maritime)",
    )
    repair.add_argument("--model", choices=MODEL_NAMES, default=None,
                        help="default: all models")
    repair.add_argument("--scheme", choices=PROMPT_SCHEMES, default=None,
                        help="default: both pipeline schemes")
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument("--scale", type=_positive_float, default=0.1,
                        help="maritime dataset scale (knowledge-base constants)")
    repair.add_argument("--budget", type=_non_negative_int, default=5,
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
    profile.add_argument("--scale", type=_positive_float, default=0.1)
    profile.add_argument("--traffic", type=_non_negative_int, default=2)
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
        "binding-order dataflow, arity, consistency, dependency, "
        "partitionability, naming and semantic checks, then (on a "
        "description without errors) the delta-safety (RTEC025/026) and "
        "memory-boundedness (RTEC027/028) certification passes, with "
        "RTEC0xx diagnostic codes.",
    )
    lint.add_argument("path", nargs="?", help="file with RTEC rules")
    lint.add_argument(
        "--gold",
        choices=GOLD_NAMES,
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
        "RTEC016,RTEC018); other diagnostics are hidden and do not "
        "affect --fail-on; an unknown code is an error (exit 2)",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="apply machine-applicable fixes (the naming renames of "
        "RTEC016); rewrites PATH in place unless --diff is also given",
    )
    lint.add_argument(
        "--diff",
        action="store_true",
        help="with --fix: print a unified diff of the fixes without "
        "writing anything (required for --gold targets)",
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
        type=_endpoint,
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
        "--gold", choices=GOLD_NAMES, default="maritime",
        help="which gold event description / dataset to serve (default: maritime)",
    )
    parser.add_argument("--seed", type=int, default=0, help="maritime dataset seed")
    parser.add_argument(
        "--scale", type=_positive_float, default=0.25, help="maritime dataset scale"
    )
    parser.add_argument(
        "--traffic", type=_non_negative_int, default=4, help="maritime vessels per berth"
    )


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
        help="directory for session checkpoints (the newest two per session)",
    )
    parser.add_argument(
        "--checkpoint-every", type=_non_negative_int, default=0, metavar="WINDOWS",
        help="write a checkpoint every this many windows (0: only on demand)",
    )
    parser.add_argument(
        "--no-incremental", dest="incremental", action="store_false", default=True,
        help="recompute the full window on every advance instead of the "
        "incremental (delta) evaluation (the verification oracle)",
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
    outcome = generate(MARITIME, args.model, scheme, seed=args.seed)
    print("%% model=%s scheme=%s average-similarity=%.3f" % (
        args.model, scheme, outcome.average_similarity))
    print(outcome.generated.to_text())
    for name, error in outcome.generated.parse_errors.items():
        print("%% parse error in %s: %s" % (name, error))
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.experiments.repair import format_table, run_repair_experiment

    models = [args.model] if args.model else list(MODEL_NAMES)
    schemes = [args.scheme] if args.scheme else list(PROMPT_SCHEMES)
    domain = gold_domain(args.gold)
    # The knowledge base of the library's dataset defaults, not serve's.
    kb = domain.dataset(seed=args.seed, scale=args.scale).kb
    result = run_repair_experiment(
        domain, kb, models, schemes, seed=args.seed, budget=args.budget
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
        outcome = generate(MARITIME, model, BEST_SCHEME[model], seed=args.seed)
        report = analyse_errors(outcome.generated, MARITIME_VOCABULARY)
        print(format_report(report))
        print()
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.maritime.gold import gold_event_description
    from repro.similarity import format_matching, match_descriptions

    outcome = generate(MARITIME, args.model, BEST_SCHEME[args.model], seed=args.seed)
    report = match_descriptions(
        outcome.generated.to_event_description(), gold_event_description()
    )
    print("%% correction worklist for %s%s" % (args.model, ""))
    print(format_matching(report, show_exact=args.show_exact))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.serve.replay import drive_reference_session

    dataset = build_dataset(seed=args.seed, scale=args.scale, traffic=args.traffic)
    engine = RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)
    with telemetry.enabled() as tracer:
        if args.session:
            # The served schedule: the session's own step grid.
            drive_reference_session(
                engine,
                list(dataset.stream),
                dataset.input_fluents,
                args.window,
                args.step,
                incremental=True,
            )
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


def _unknown_code(code: str) -> int:
    print("error: unknown diagnostic code %r" % code, file=sys.stderr)
    return 2


def _cmd_lint_explain(code: str) -> int:
    """Print the registry entry of one diagnostic code."""
    from repro.analysis import rule_for

    rule = rule_for(code.strip().upper())
    if rule is None:
        return _unknown_code(code)
    print("%s: %s" % (rule.code, rule.title))
    print("  category:       %s" % rule.category)
    print("  severity:       %s" % rule.severity)
    print("  auto-fix:       %s" % ("yes" if rule.fixable else "no"))
    print("  repair:         %s" % (rule.repair or "not repairable"))
    print("  docs:           %s" % rule.help_uri)
    print()
    print("  %s" % rule.explanation)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import LintReport, Severity, analyse, analyse_text, rule_for, to_sarif

    if args.explain is not None:
        return _cmd_lint_explain(args.explain)
    wanted = None
    if args.select:
        wanted = {code.strip().upper() for code in args.select.split(",") if code.strip()}
        for code in sorted(wanted):
            if rule_for(code) is None:
                return _unknown_code(code)
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
        domain = gold_domain(args.gold)
        description = domain.gold()
        source = "<gold:%s>" % args.gold
        text = description.to_text()
        # Every activity-group fluent is an output, so the dead-rule check
        # applies only to fluents outside the task's activity list.
        report = analyse(
            description,
            None if args.no_vocabulary else domain.vocabulary,
            outputs=domain.outputs,
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
    if wanted is not None:
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
    print("applied %d fix(es) to %s" % (len(fixable), args.path))
    return 0


def _gold_dataset(args: argparse.Namespace) -> Dict[str, Any]:
    """The dataset builder's arguments: ``--seed/--scale/--traffic``."""
    return dict(seed=args.seed, scale=args.scale, traffic=args.traffic)


def _gold_engine_spec(args: argparse.Namespace):
    """The engine recipe of ``--gold`` for spawned worker processes."""
    from repro.serve.cluster import gold_engine_spec

    return gold_engine_spec(args.gold, **_gold_dataset(args))


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
        incremental=args.incremental,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    names = _session_names(args.sessions)
    if args.workers > 1:
        from repro.serve.cluster import ClusterRouter

        if args.tcp is None:
            print("error: --workers > 1 requires --tcp (stdio cannot be routed)",
                  file=sys.stderr)
            return 2
        server: Any = ClusterRouter(
            _gold_engine_spec(args),
            _serving_config(args),
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            sessions=names,
            restore=args.restore,
        )
    else:
        from repro.serve import RecognitionServer, SessionManager

        config = _serving_config(args)
        manager = SessionManager(checkpoint_dir=args.checkpoint_dir)
        for name in names:
            engine = gold_engine(args.gold, **_gold_dataset(args))
            manager.add_session(name, engine, config, restore=args.restore)
        server = RecognitionServer(manager)

    async def _run() -> None:
        server.install_signal_handlers()
        if args.tcp is not None:
            await server.serve_tcp(*args.tcp)
        else:
            await server.serve_stdio()

    asyncio.run(_run())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import json
    import tempfile

    from repro.serve import build_workload, run_replay

    dataset, description = gold_parts(args.gold, **_gold_dataset(args))
    workload = build_workload(
        dataset.stream,
        dataset.input_fluents,
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
    if args.kill_at is not None and config.checkpoint_every <= 0:
        config.checkpoint_every = 1
    # A kill drill's own checkpoint directory is removed on every way out.
    directory = (
        tempfile.TemporaryDirectory(prefix="repro-serve-ckpt-")
        if args.kill_at is not None and args.checkpoint_dir is None
        else contextlib.nullcontext(args.checkpoint_dir)
    )

    try:
        with directory as checkpoint_dir:
            outcome = asyncio.run(run_replay(
                # Spawned workers take the portable recipe; one process builds
                # its engines over the parts read above.
                _gold_engine_spec(args) if args.workers > 1
                else lambda: gold_engine(args.gold, **_gold_dataset(args)),
                workload,
                config,
                workers=args.workers,
                checkpoint_dir=checkpoint_dir,
                kill_at=args.kill_at,
                verify=args.verify,
                batch_size=args.batch_size,
                mode=args.mode,
            ))
    except RuntimeError as exc:  # the service refused the workload
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report = outcome.final_report
    summary = {
        "gold": args.gold,
        "sessions": len(workload.sessions),
        "events": len(workload.events),
        "window": config.window,
        "step": config.step or config.window,
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
    "serve": _cmd_serve,
    "replay": _cmd_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
