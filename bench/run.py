#!/usr/bin/env python3
"""The repo's one benchmark: end to end and per layer, with a correctness gate.

Two ways in:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one run. The last line of standard output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) named in ``BENCHMARK.json``.

``python3 bench/run.py [--sets K] [--quick] [--out FILE]``
    Every workload: ``K`` untraced sets, then one traced run each. Prints
    every metric by name and unit, the per-layer table and the latency
    budget, and writes one schema-versioned result file.

Also ``--compare A.json B.json`` and ``--regen-expected``. See
``bench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import report  # noqa: E402
import serving  # noqa: E402
import workloads  # noqa: E402
from serving import Deadline, RunFailed, ServerProcess  # noqa: E402

SCHEMA_VERSION = 1
WORK_DIR = ROOT / ".bench_work"
EXPECTED_DIR = BENCH_DIR / "expected"
#: Hard limit of one workload run; a run that reaches it fails, it never hangs.
HARD_TIMEOUT_S = 170.0
#: Server starts per untraced run; ``setup_s`` is their second smallest.
SETUP_REPEATS = 5
QUICK_SECONDS = 3.0
NOISY_LOAD_PER_CPU = 0.5
NOISY_STEAL_SHARE = 0.01


def _percentile(sorted_values: Sequence[float], share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * share))]


def _load_expected(expected_dir: Path, workload: str) -> Dict[str, Any]:
    path = expected_dir / ("%s.json" % workload)
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "seed": 0, "sizes": {}}
    return json.loads(path.read_text())


def _start_server(
    serve_input: workloads.ServeInput, run_dir: Path, trace_dir: Optional[Path],
    label: str, oracle: bool = False,
) -> ServerProcess:
    args = list(serve_input.oracle_args if oracle else serve_input.server_args)
    if serve_input.checkpoints and not oracle:
        checkpoint_dir = run_dir / ("checkpoints-%s" % label)
        checkpoint_dir.mkdir()
        args += ["--checkpoint-dir", str(checkpoint_dir)]
    server = ServerProcess(args, run_dir, trace_dir, label)
    server.start()
    return server


def _oracle_digests(
    serve_input: workloads.ServeInput, stops: Sequence[int], run_dir: Path, deadline: Deadline
) -> List[str]:
    """Output digests after each of ``stops`` steps, in the shipped
    full-recomputation mode (``repro serve --no-incremental``), untimed."""
    oracle = _start_server(serve_input, run_dir, None, "oracle", oracle=True)
    try:
        connection, _setup = oracle.connect(serve_input.sessions, deadline)
        serving.deliver_fluents(connection, serve_input.fluent_lines)
        digests, done = [], 0
        for stop in stops:
            serving.drive_steps(connection, serve_input.sessions, serve_input.steps[done:stop])
            done = stop
            digests.append(workloads.output_sha256(
                serving.full_query(connection, serve_input, serve_input.steps[stop - 1].boundary)
            ))
        oracle.shutdown(connection, deadline)
        return digests
    finally:
        oracle.kill()


#: CPU time is sampled this many times per period (a tick is 10 ms, a block
#: about a second).
CPU_BLOCKS_PER_PERIOD = 4
#: The timed phase stops adding periods once its two fastest agree this well.
REPEATS_AGREE_WITHIN = 0.03


def _undisturbed(values: Sequence[float]) -> float:
    """The second smallest of three or more repeated measurements.

    Repeats of one period replay the same bytes, so they differ only by what
    disturbed the box (always upwards). The smallest alone would reward one
    lucky repeat; the second smallest still ignores every disturbance that
    spared two repeats, where a mean or a median would keep it.
    """
    ordered = sorted(values)
    return ordered[1] if len(ordered) >= 3 else ordered[0]


def _quiet(items: Sequence[Any], steal_shares: Sequence[float], needed: int) -> List[Any]:
    """The items measured while the hypervisor withheld next to no CPU time,
    or all of them when fewer than ``needed`` were."""
    kept = [item for item, share in zip(items, steal_shares) if share <= NOISY_STEAL_SHARE]
    return kept if len(kept) >= needed else list(items)


def _settled(walls: Sequence[float], steal_shares: Sequence[float], least: int) -> bool:
    """Whether enough repeats are in: ``least`` quiet ones, the two fastest agreeing."""
    quiet = sorted(wall for wall, share in zip(walls, steal_shares)
                   if share <= NOISY_STEAL_SHARE)
    if len(quiet) < least:
        return False
    return len(quiet) < 2 or quiet[1] <= quiet[0] * (1.0 + REPEATS_AGREE_WITHIN)


class TimedPhase:
    """What the timed phase of a serve run measured, repeat by repeat."""

    def __init__(self) -> None:
        self.merged = serving.StepTimings()
        self.latencies: List[List[float]] = []
        self.cpu_blocks: List[List[float]] = []
        self.steal_shares: List[float] = []

    def typical_period(self, by_repeat: Sequence[Sequence[float]], stationary: bool) -> List[float]:
        """Position by position over one period, one value for all its repeats:
        :func:`_undisturbed` of the quiet ones where repeats cost the same,
        else the median of the quiet ones."""
        needed = 2 if stationary else (len(by_repeat) + 1) // 2
        pick = _undisturbed if stationary else statistics.median
        return [pick(values) for values in zip(*_quiet(by_repeat, self.steal_shares, needed))]


def _drive_timed(
    connection: serving.Connection, server: ServerProcess, serve_input: workloads.ServeInput,
) -> TimedPhase:
    """At least ``repeats`` periods; where periods cost the same, more (up to
    ``max_repeats``) until enough quiet ones agree."""
    pids = [process["pid"] for process in server.tree()]
    period, warmup = serve_input.period_steps, serve_input.warmup_steps
    block = -(-period // CPU_BLOCKS_PER_PERIOD)
    phase = TimedPhase()
    cpus = os.cpu_count() or 1
    for repeat in range(serve_input.max_repeats):
        start = warmup + repeat * period
        latencies: List[float] = []
        cpu_blocks: List[float] = []
        stolen = serving.steal_seconds()
        for offset in range(0, period, block):
            steps = serve_input.steps[start + offset:start + min(offset + block, period)]
            before = serving.cpu_seconds(pids)
            timings = serving.drive_steps(connection, serve_input.sessions, steps)
            cpu_blocks.append(serving.cpu_seconds(pids) - before)
            latencies += timings.latencies_s
            phase.merged.extend(timings)
        phase.latencies.append(latencies)
        phase.cpu_blocks.append(cpu_blocks)
        phase.steal_shares.append((serving.steal_seconds() - stolen) / (sum(latencies) * cpus))
        if _settled([sum(row) for row in phase.latencies], phase.steal_shares,
                    serve_input.repeats):
            break
    return phase


def run_serve(
    workload: str, seed: int, seconds: float, traced: bool, verify: str,
    expected_dir: Path, setups: int, deadline: Deadline,
) -> Dict[str, Any]:
    """One run of a serve workload; see ``bench/README.md`` for the protocol."""
    serve_input = workloads.build_serve_input(workload, seed, seconds)
    input_digest = serve_input.input_sha256
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="%s-" % workload, dir=str(WORK_DIR)))
    trace_dir = run_dir / "trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()
    servers: List[ServerProcess] = []
    sessions = serve_input.sessions
    warmup = serve_input.warmup_steps
    try:
        setup_times = []
        for attempt in range(setups):
            last = attempt == setups - 1
            server = _start_server(serve_input, run_dir, trace_dir if last else None,
                                   "server-%d" % attempt)
            servers.append(server)
            connection, setup_s = server.connect(sessions, deadline)
            setup_times.append(setup_s)
            if not last:
                server.shutdown(connection, deadline)
        serving.deliver_fluents(connection, serve_input.fluent_lines)
        checked = serve_input.oracle_steps
        serving.drive_steps(connection, sessions, serve_input.steps[:checked])
        prefix_digest = workloads.output_sha256(
            serving.full_query(connection, serve_input, serve_input.steps[checked - 1].boundary)
        )
        serving.drive_steps(connection, sessions, serve_input.steps[checked:warmup])
        timed_from = time.perf_counter_ns()
        phase = _drive_timed(connection, server, serve_input)
        timed_to = time.perf_counter_ns()
        timed = phase.merged
        steps_run = warmup + len(phase.latencies) * serve_input.period_steps
        output_digest = workloads.output_sha256(
            serving.full_query(connection, serve_input, serve_input.steps[steps_run - 1].boundary)
        )
        status = connection.request({"type": "status"})
        tree = server.tree()
        bytes_per_file = (
            serving.checkpoint_bytes_per_file(run_dir / ("checkpoints-server-%d" % (setups - 1)))
            if serve_input.checkpoints else 0.0
        )
        server.shutdown(connection, deadline)
        traces = None
        if trace_dir is not None:
            owed = [process["pid"] for process in tree if not process["helper"]]
            traces = layers.load_traces(trace_dir, owed)

        checks, verified_by = [], []
        known = _load_expected(expected_dir, workload)["sizes"].get(str(steps_run))
        if seed == 0 and known is not None:
            verified_by.append("committed-digest")
            if known["input_sha256"] != input_digest:
                checks.append("input digest differs from bench/expected: the simulator or "
                              "the generator moved; the outputs were not compared")
            elif known["output_sha256"] != output_digest:
                checks.append("output digest %s differs from the oracle's %s"
                              % (output_digest[:12], known["output_sha256"][:12]))
        if verify == "oracle" or not verified_by:
            verified_by.append("oracle-prefix")
            oracle_digest, = _oracle_digests(serve_input, [checked], run_dir, deadline)
            if oracle_digest != prefix_digest:
                checks.append("output after %d steps (%s) differs from full recomputation (%s)"
                              % (checked, prefix_digest[:12], oracle_digest[:12]))
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(run_dir, ignore_errors=True)

    session_status = [status["sessions"][name] for name in sessions]
    counters = {
        key: sum(int(item.get(key, 0)) for item in session_status)
        for key in ("windows", "rejected", "invalid", "dropped", "checkpoints", "ingested")
    }
    counters["queue_peak"] = max(int(item.get("queue_peak", 0)) for item in session_status)
    if counters["windows"] != steps_run * len(sessions):
        checks.append("status reports %d windows, the run made %d steps x %d sessions"
                      % (counters["windows"], steps_run, len(sessions)))
    lines_sent = (len(serve_input.fluent_lines)
                  + sum(step.lines for step in serve_input.steps[:steps_run])
                  + 2 * len(sessions) + 2)
    failed = (timed.error_replies + counters["rejected"] + counters["invalid"]
              + counters["dropped"])

    latencies = sorted(timed.latencies_s)
    period_latencies = phase.typical_period(phase.latencies, serve_input.stationary)
    period_cpu = phase.typical_period(phase.cpu_blocks, serve_input.stationary)
    period_events = serve_input.sizes["period_events"]
    worker_pids = {int(worker["pid"]) for worker in status.get("workers", {}).values()
                   if worker.get("pid")}
    worker_cpu = [p["cpu_s"] for p in tree if p["pid"] in worker_pids]
    router_cpu = sum(p["cpu_s"] for p in tree if p["main"]) if worker_pids else 0.0
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "sizes": dict(serve_input.sizes, sessions=len(sessions), setups=setups,
                      steps=steps_run, repeats=len(phase.latencies)),
        "repeat_wall_s": [sum(row) for row in phase.latencies],
        "repeat_steal_share": phase.steal_shares,
        "input_sha256": input_digest,
        "output_sha256": output_digest,
        "verified_by": verified_by,
        "problems": checks,
        "correct": not checks,
        "attempted": lines_sent,
        "failed": failed,
        "samples": {"advance": len(latencies), "setup": len(setup_times)},
        "end_to_end": {
            "events_per_s": period_events / sum(period_latencies),
            "advance_p50_ms": statistics.median(period_latencies) * 1e3,
            "cpu_ms_per_event": sum(period_cpu) / period_events * 1e3,
            "peak_rss_mb": sum(p["peak_rss_kb"] for p in tree) / 1024.0,
            "setup_s": _undisturbed(setup_times),
        },
        "outside": {
            "loadgen.events_per_s_raw": timed.events / timed.wall_s,
            "loadgen.advance_p95_ms": _percentile(latencies, 0.95) * 1e3,
            "loadgen.advance_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "loadgen.ack_p50_ms": statistics.median(timed.ack_s) * 1e3 if timed.ack_s else 0.0,
            "loadgen.steps": steps_run,
            "loadgen.lines_sent": lines_sent,
            "loadgen.failed_share": failed / lines_sent,
            "loadgen.steal_share": statistics.mean(phase.steal_shares),
            "server.cpu_s": sum(p["cpu_s"] for p in tree),
            "sessions.windows": counters["windows"],
            "sessions.queue_peak": counters["queue_peak"],
            "sessions.rejected": counters["rejected"],
            "sessions.invalid": counters["invalid"],
            "sessions.dropped": counters["dropped"],
            "sessions.checkpoints": counters["checkpoints"],
            "checkpoint.bytes_per_file": bytes_per_file,
            "router.cpu_s": router_cpu,
            "worker.cpu_s": sum(worker_cpu),
            "worker.cpu_skew": (max(worker_cpu) / statistics.mean(worker_cpu)
                                if worker_cpu and sum(worker_cpu) > 0 else 0.0),
        },
        "advance_mean_ms": statistics.mean(period_latencies) * 1e3,
    }
    if traces is not None:
        router_pid = next((p["pid"] for p in tree if p["main"]), None) if worker_pids else None
        reduced = layers.reduce_traces(traces, router_pid, (timed_from, timed_to))
        result["_reduced"] = reduced
        result["_traced_cpu_s"] = sum(trace["cpu_s"] for trace in traces)
        result["_timed_share"] = (steps_run - warmup) / steps_run
        result["_timed_steps"] = steps_run - warmup
    return result


_TABLE_NUMBER = re.compile(r"(?<![\w.])-?\d+\.\d+(?![\w.])")


def _tables_well_formed(tables: str) -> bool:
    """Three non-empty tables whose scores all lie in [0, 1] (or are deltas)."""
    numbers = [float(text) for text in _TABLE_NUMBER.findall(tables)]
    return len(numbers) >= 30 and all(-1.0 <= number <= 1.0 for number in numbers)


def run_pipeline(
    seed: int, seconds: float, traced: bool, expected_dir: Path, deadline: Deadline
) -> Dict[str, Any]:
    """``fig2_pipeline``: the paper's experiment, a fresh process per pass."""
    workload = workloads.PIPELINE_WORKLOAD
    passes = workloads.timed_periods(workload, seconds)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="%s-" % workload, dir=str(WORK_DIR)))
    trace_dir = run_dir / "trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()
    walls, setups, cpus, peaks, digests, pids, steal_shares = [], [], [], [], [], [], []
    cpu_count = os.cpu_count() or 1
    events, failed_passes, tables = 0, 0, ""
    child: Optional[subprocess.Popen] = None
    began = time.monotonic()
    try:
        for _ in range(workloads.most_repeats(passes)):
            if failed_passes or _settled(walls, steal_shares, passes):
                break
            stolen = serving.steal_seconds()
            spawned = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "pipeline_pass.py"), "--seed", str(seed),
                 "--scale", str(workloads.PIPELINE_SCALE)],
                cwd=str(run_dir), env=serving.system_environment(trace_dir),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, start_new_session=True,
            )
            try:
                output, _ = child.communicate(timeout=deadline.remaining())
            except subprocess.TimeoutExpired:
                raise RunFailed("pipeline pass exceeded the hard workload timeout")
            if child.returncode != 0:
                failed_passes += 1
                continue
            tables, _, marks_line = output.decode().rstrip("\n").rpartition("\n")
            marks = json.loads(marks_line)
            walls.append(marks["tables_printed"] - spawned)
            steal_shares.append((serving.steal_seconds() - stolen)
                                / ((time.monotonic() - spawned) * cpu_count))
            setups.append(marks["entered_fig2a"] - spawned)
            cpus.append(marks["cpu_s"])
            peaks.append(marks["peak_rss_kb"] / 1024.0)
            digests.append(hashlib.sha256(tables.encode()).hexdigest())
            events = marks["events"]
            pids.append(child.pid)
        total_wall = time.monotonic() - began
        traces = layers.load_traces(trace_dir, pids) if trace_dir is not None else None
    finally:
        if child is not None and child.poll() is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if not walls:
        raise RunFailed("every pipeline pass exited non-zero")

    checks, verified_by = [], ["passes-agree", "tables-well-formed"]
    if len(set(digests)) != 1:
        checks.append("passes of one seed printed different tables")
    if not _tables_well_formed(tables):
        checks.append("the printed tables are not three tables of scores in [0, 1]")
    known = _load_expected(expected_dir, workload)["sizes"].get("pass")
    if seed == 0 and known is not None:
        verified_by.append("committed-digest")
        if known["output_sha256"] != digests[0]:
            checks.append("tables digest %s differs from bench/expected's %s"
                          % (digests[0][:12], known["output_sha256"][:12]))
    pass_s = _undisturbed(_quiet(walls, steal_shares, 2))
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "sizes": {"min_passes": passes, "passes": len(walls) + failed_passes, "events": events,
                  "scale": workloads.PIPELINE_SCALE},
        "repeat_wall_s": walls,
        "repeat_steal_share": steal_shares,
        "input_sha256": "",
        "output_sha256": digests[0],
        "verified_by": verified_by,
        "problems": checks,
        "correct": not checks,
        "attempted": len(walls) + failed_passes,
        "failed": failed_passes,
        "samples": {"advance": len(walls), "setup": len(setups)},
        "end_to_end": {
            "events_per_s": events / pass_s,
            "advance_p50_ms": pass_s * 1e3,
            "cpu_ms_per_event": _undisturbed(_quiet(cpus, steal_shares, 2)) / events * 1e3,
            "peak_rss_mb": statistics.median(peaks),
            "setup_s": _undisturbed(setups),
        },
        "outside": dict.fromkeys(layers.OUTSIDE_METRICS, 0.0),
        "advance_mean_ms": statistics.mean(walls) * 1e3,
        "pipeline_s": pass_s,
        "total_wall_s": total_wall,
    }
    result["outside"].update({
        "loadgen.events_per_s_raw": len(walls) * events / sum(walls),
        "loadgen.advance_p95_ms": max(walls) * 1e3,
        "loadgen.advance_p99_ms": max(walls) * 1e3,
        "loadgen.steps": len(walls) + failed_passes,
        "loadgen.failed_share": failed_passes / (len(walls) + failed_passes),
        "loadgen.steal_share": statistics.mean(steal_shares),
        "server.cpu_s": sum(cpus),
    })
    if traces is not None:
        result["_reduced"] = layers.reduce_traces(traces, None)
        result["_traced_cpu_s"] = sum(trace["cpu_s"] for trace in traces)
    return result


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool = False, verify: str = "auto",
    expected_dir: Path = EXPECTED_DIR, setups: int = SETUP_REPEATS, own_load: bool = False,
    deadline: Optional[Deadline] = None,
) -> Dict[str, Any]:
    """One run. ``own_load`` says the load average at its start is this
    process's previous run winding down, which is no reason to flag the row."""
    load = os.getloadavg()[0]
    deadline = deadline or Deadline(HARD_TIMEOUT_S)
    if workload == workloads.PIPELINE_WORKLOAD:
        result = run_pipeline(seed, seconds, traced, expected_dir, deadline)
    elif workload in workloads.SERVE_WORKLOADS:
        result = run_serve(workload, seed, seconds, traced, verify, expected_dir,
                           1 if traced else setups, deadline)
    else:
        raise SystemExit("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(workloads.WORKLOADS)))
    result["load_1m_at_start"] = load
    # Either makes the row's timings suspect: the box was busy before the run
    # began, or the hypervisor withheld CPU time while it was measured.
    result["noisy"] = (
        (not own_load and load > NOISY_LOAD_PER_CPU * (os.cpu_count() or 1))
        or result["outside"]["loadgen.steal_share"] > NOISY_STEAL_SHARE)
    return result


def run_traced(
    workload: str, seed: int, seconds: float, baseline: Optional[Dict[str, Any]] = None,
    verify: str = "auto", expected_dir: Path = EXPECTED_DIR,
) -> Dict[str, Any]:
    """The traced run and its per-layer metrics.

    End-to-end metrics never come from here. ``baseline`` is an untraced run
    of the same size and seed (made now if absent): the two together give
    ``trace_overhead_share``.
    """
    deadline = Deadline(HARD_TIMEOUT_S)  # one limit for both runs of a --trace 1 call
    traced = run_workload(workload, seed, seconds, traced=True, verify=verify,
                          expected_dir=expected_dir, own_load=baseline is not None,
                          deadline=deadline)
    if baseline is None:
        baseline = run_workload(workload, seed, seconds, verify=verify, deadline=deadline,
                                expected_dir=expected_dir, setups=1, own_load=True)
        # One result line speaks for both runs.
        traced["correct"] = traced["correct"] and baseline["correct"]
        traced["problems"] = baseline["problems"] + traced["problems"]
        traced["attempted"] += baseline["attempted"]
        traced["failed"] += baseline["failed"]
    reduced = traced.pop("_reduced")
    per_layer = dict(traced["outside"])
    per_layer.update(layers.span_metrics(reduced, traced.pop("_traced_cpu_s")))
    if workload == workloads.PIPELINE_WORKLOAD:
        per_layer["trace_overhead_share"] = traced["pipeline_s"] / baseline["pipeline_s"] - 1.0
    else:
        per_layer["trace_overhead_share"] = (
            1.0 - traced["end_to_end"]["events_per_s"] / baseline["end_to_end"]["events_per_s"]
        )
    traced["per_layer"] = per_layer
    traced["layer_table"] = layers.layer_table(reduced)
    if "_timed_share" in traced:
        traced["latency_budget"] = layers.latency_budget(
            reduced, traced.pop("_timed_steps"), traced.pop("_timed_share"),
            traced["advance_mean_ms"],
        )
    del traced["end_to_end"]
    return traced


def _contract_line(result: Dict[str, Any], schema: Sequence[Dict[str, str]], values: Dict[str, float]) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in schema
        },
    })


def _single_run(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """The driver's entry: one workload, one run, one JSON line."""
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    if args.trace:
        result = run_traced(args.workload, args.seed, seconds, verify=args.verify,
                            expected_dir=args.expected_dir)
        schema, values = benchmark["per_layer"], result["per_layer"]
        report.print_layer_view(result)
    else:
        result = run_workload(args.workload, args.seed, seconds, verify=args.verify,
                              expected_dir=args.expected_dir)
        schema, values = benchmark["end_to_end"], result["end_to_end"]
        report.print_end_to_end(result, benchmark)
    for problem in result["problems"]:
        print("INCORRECT %s: %s" % (args.workload, problem), file=sys.stderr)
    if not result["correct"]:
        return 1
    print(_contract_line(result, schema, values))
    return 0


def _all_workloads(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """The human's entry: every workload, a result file, tables."""
    seconds = QUICK_SECONDS if args.quick else (
        args.seconds if args.seconds is not None else float(benchmark["run_seconds"]))
    setups = 2 if args.quick else SETUP_REPEATS
    document: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "machine": report.machine_facts(ROOT),
        "seed": args.seed,
        "seconds": seconds,
        "sets": [],
        "traced": {},
    }
    problems: List[str] = []
    for index in range(args.sets):
        rows = {}
        for workload in workloads.WORKLOADS:
            print("== set %d/%d  %s" % (index + 1, args.sets, workload), flush=True)
            row = run_workload(workload, args.seed, seconds, verify=args.verify,
                               expected_dir=args.expected_dir, setups=setups,
                               own_load=bool(index or rows))
            report.print_end_to_end(row, benchmark)
            problems += ["%s: %s" % (workload, problem) for problem in row["problems"]]
            rows[workload] = row
        document["sets"].append(rows)
    if args.trace:
        for workload in workloads.WORKLOADS:
            print("== traced  %s" % workload, flush=True)
            row = run_traced(workload, args.seed, seconds, baseline=document["sets"][0][workload],
                             verify=args.verify, expected_dir=args.expected_dir)
            report.print_layer_view(row)
            problems += ["%s (traced): %s" % (workload, problem) for problem in row["problems"]]
            document["traced"][workload] = row
    document["summary"] = report.summarise(document, benchmark)
    report.print_summary(document, benchmark)
    schema_problems = report.validate_against_schema(document, benchmark)
    problems += schema_problems
    out = Path(args.out) if args.out else WORK_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print("result file: %s" % out)
    for problem in problems:
        print("PROBLEM %s" % problem, file=sys.stderr)
    return 1 if problems else 0


def _regen_expected(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """Rebuild ``bench/expected`` at seed 0 through the full-recomputation oracle.

    The serve digests come from ``repro serve --no-incremental`` driven with
    the same bytes, never from the run being timed. ``fig2_pipeline`` has no
    second implementation to ask: its tables are pinned as printed.
    """
    deadline = Deadline(3600.0)
    WORK_DIR.mkdir(exist_ok=True)
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in workloads.SERVE_WORKLOADS:
        sizes = {}
        for seconds in (QUICK_SECONDS, float(benchmark["run_seconds"])):
            serve_input = workloads.build_serve_input(workload, 0, seconds)
            # A run may stop after any number of periods from the least to the most.
            stops = [serve_input.warmup_steps + repeats * serve_input.period_steps
                     for repeats in range(serve_input.repeats, serve_input.max_repeats + 1)]
            run_dir = Path(tempfile.mkdtemp(prefix="regen-", dir=str(WORK_DIR)))
            try:
                digests = _oracle_digests(serve_input, stops, run_dir, deadline)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            for stop, digest in zip(stops, digests):
                sizes[str(stop)] = {
                    "seconds": seconds,
                    "input_sha256": serve_input.input_sha256,
                    "output_sha256": digest,
                }
                print("%s %d steps: %s" % (workload, stop, digest[:12]), flush=True)
        (EXPECTED_DIR / ("%s.json" % workload)).write_text(json.dumps(
            {"schema": SCHEMA_VERSION, "seed": 0, "oracle": "repro serve --no-incremental",
             "sizes": sizes}, indent=1, sort_keys=True) + "\n")
    row = run_pipeline(0, QUICK_SECONDS, False, WORK_DIR / "no-expected", deadline)
    (EXPECTED_DIR / ("%s.json" % workloads.PIPELINE_WORKLOAD)).write_text(json.dumps(
        {"schema": SCHEMA_VERSION, "seed": 0, "oracle": "pinned output (no second implementation)",
         "sizes": {"pass": {"output_sha256": row["output_sha256"]}}},
        indent=1, sort_keys=True) + "\n")
    print("%s: %s" % (workloads.PIPELINE_WORKLOAD, row["output_sha256"][:12]))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                        help="run this one workload and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced run, per-layer metrics (default: 0 with --workload, "
                        "1 without)")
    parser.add_argument("--verify", choices=("auto", "oracle"), default="auto",
                        help="oracle: always replay the warm-up prefix through "
                        "'repro serve --no-incremental' as well")
    parser.add_argument("--sets", type=int, default=1, help="untraced sets of every workload")
    parser.add_argument("--quick", action="store_true",
                        help="every workload at its smallest size, digests checked")
    parser.add_argument("--out", default=None, help="result file (default .bench_work/result.json)")
    parser.add_argument("--expected-dir", type=Path, default=EXPECTED_DIR, help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files; exit 1 on any 'worse'")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rebuild bench/expected through the oracle (seed 0)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Cleanup lives in finally blocks: make SIGTERM unwind them like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        if args.compare:
            return report.compare(Path(args.compare[0]), Path(args.compare[1]), benchmark)
        if args.regen_expected:
            return _regen_expected(args, benchmark)
        if args.workload is not None:
            args.trace = args.trace or 0
            return _single_run(args, benchmark)
        args.trace = 1 if args.trace is None else args.trace
        return _all_workloads(args, benchmark)
    except (RunFailed, layers.TraceError) as exc:
        print("FAILED: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
