"""Seeded inputs of the benchmark's workloads, as ready-to-send wire bytes.

The load generator is the benchmark's own code. From ``src/`` it imports
only the dataset builders and the term printer, so a refactor of
``repro.serve.loadgen`` or ``repro.serve.replay`` cannot move the yardstick.
The same ``--seed`` always yields the same bytes (their SHA-256 is checked
against ``bench/expected/`` at seed 0).

Every serve input is *periodic*: a warm-up, then ``repeats`` copies of one
period of ``period_steps`` steps with identical content. The box this runs on
is disturbed in bursts of seconds, so a step's time is taken as the median
over the copies that replayed it (see ``run.py``); that needs the copies to
be equal work.

Sizes are fixed work, not fixed time: ``--seconds`` is converted to a number
of periods (or pipeline passes) through ``REFERENCE_REPEATS`` below. A faster
program therefore finishes sooner, it is not given more
work — the digests, the peak RSS and the per-layer counts of two commits
describe the same input.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

SERVE_WORKLOADS = ("maritime_serve", "maritime_disorder", "fleet_cluster")
PIPELINE_WORKLOAD = "fig2_pipeline"
WORKLOADS = SERVE_WORKLOADS + (PIPELINE_WORKLOAD,)

#: Timed periods (pipeline passes) of a run at ``REFERENCE_SECONDS``, each
#: sized so that the timed phase takes about that long on the 2-core reference
#: box at the commit that added the benchmark; other ``--seconds`` scale them
#: linearly.
REFERENCE_SECONDS = 15.0
REFERENCE_REPEATS = {
    "maritime_serve": 5,      # a period takes about 3 s
    "maritime_disorder": 4,   # about 5 s
    "fleet_cluster": 19,      # about 0.8 s
    "fig2_pipeline": 3,       # a pass takes about 6 s
}

#: The prefix the full-recomputation oracle replays when a seed has no
#: committed digest (the oracle is 4-5x slower than the program it checks).
#: The untimed warm-up is longer: one whole period on the maritime workloads,
#: whose first period is cheaper than the rest (no state carried in yet).
ORACLE_STEPS = {
    "maritime_serve": 24,
    "maritime_disorder": 24,
    "fleet_cluster": 120,
}

#: A fluent-value pair no rule derives: the per-step query forces the window
#: advance, and its reply does not grow with the run.
PROBE_FVP = "benchProbe(none)=true"

MARITIME_SCALE = 1.0
MARITIME_TRAFFIC = 4
#: Both maritime workloads replay the first two hours of the simulated day,
#: its busiest part (44 events per step; the whole day averages 26). A short
#: period buys more repeats per run, which is what the timing rests on.
MARITIME_PERIOD_STEPS = 120
#: Share of a period's steps that receive one event of the previous step late.
#: A quarter keeps the median step on the delta path and the tail on the
#: full-recompute fallback; a fixed count (not a per-event coin) keeps the
#: share of slow steps, which sets the throughput, equal for every seed.
DISORDER_STEP_SHARE = 0.25
#: The idle gaps before the days of one period: always these values, in a
#: seeded order. A fixed sum keeps the period at the same number of steps for
#: every seed; the cost of this workload is per step, not per event.
FLEET_GAPS = range(0, 300, 15)
FLEET_CHECKPOINT_EVERY = 5
PIPELINE_SCALE = 0.25


#: A run of at least three periods may add up to this many more until enough
#: of them were measured on a quiet box and agree (see ``run.py``): the box
#: has phases of a minute in which the hypervisor withholds CPU time.
EXTRA_REPEATS = 3


def timed_periods(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / REFERENCE_SECONDS * REFERENCE_REPEATS[workload])))


def most_repeats(repeats: int) -> int:
    return repeats + EXTRA_REPEATS if repeats >= 3 else repeats


def _line(message: Dict[str, object]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


@dataclass
class Step:
    """Everything written for one step-grid boundary, and what is due back."""

    boundary: int
    payload: bytes
    events: int
    lines: int
    #: Acknowledgements due before the per-session query replies.
    acks: int


@dataclass
class ServeInput:
    workload: str
    seed: int
    window: int
    step: int
    sessions: List[str]
    #: Arguments after ``python -m repro serve`` (port and scratch paths are
    #: added by the driver); ``oracle_args`` starts the same knowledge base
    #: in the shipped full-recomputation mode, single process.
    server_args: List[str]
    oracle_args: List[str]
    checkpoints: bool
    fluent_lines: List[bytes]
    #: ``warmup_steps`` untimed steps, then ``max_repeats`` x ``period_steps``
    #: of which at least ``repeats`` are run. The first ``oracle_steps`` of
    #: the warm-up are what the oracle replays.
    steps: List[Step]
    oracle_steps: int
    warmup_steps: int
    period_steps: int
    repeats: int
    max_repeats: int
    #: Whether a period costs the same each time it is replayed. It does not
    #: on ``fleet_cluster``, whose steps get dearer as the sessions' amalgamated
    #: results grow: there the repeats are fixed and their median is taken.
    stationary: bool
    sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def input_sha256(self) -> str:
        digest = hashlib.sha256()
        for line in self.fluent_lines:
            digest.update(line)
        for step in self.steps:
            digest.update(step.payload)
        return digest.hexdigest()

    def full_query_lines(self, boundary: int) -> bytes:
        return b"".join(
            _line({"type": "query", "session": name, "at": boundary})
            for name in self.sessions
        )


def _sizes(steps: Sequence[Step], warmup: int, period: int, repeats: int) -> Dict[str, int]:
    return {
        "warmup_steps": warmup, "period_steps": period, "min_repeats": repeats,
        "period_events": sum(step.events for step in steps[warmup:warmup + period]),
    }


def _maritime(workload: str, seed: int, seconds: float) -> ServeInput:
    from repro.logic.pretty import term_to_str
    from repro.maritime import build_dataset

    window, step = 600, 60
    period = warmup = MARITIME_PERIOD_STEPS
    repeats = timed_periods(workload, seconds)
    total = warmup + most_repeats(repeats) * period
    span = period * step
    dataset = build_dataset(seed=seed, scale=MARITIME_SCALE, traffic=MARITIME_TRAFFIC)

    # One period: the events of each of its steps (b - step, b], in time order.
    batches: List[List[Tuple[int, str]]] = [[] for _ in range(period)]
    for event in dataset.stream:
        if event.time <= span:
            index = max(1, -(-event.time // step)) - 1
            batches[index].append((event.time, term_to_str(event.term)))
    held_back = 0
    if workload == "maritime_disorder":
        rng = random.Random(seed)
        receivers = rng.sample(range(1, period), int(period * DISORDER_STEP_SHARE))
        for index in sorted(receivers):
            donors = batches[index - 1]
            if len(donors) > 1:
                # Late, but inside the window: one event of the previous step
                # arrives at the head of this step's batch.
                batches[index].insert(0, donors.pop(rng.randrange(len(donors))))
                held_back += 1

    copies = -(-total // period)
    fluents = []
    for pair, intervals in dataset.input_fluents.items():
        clipped = [(iv.start, min(iv.end, span - 1)) for iv in intervals if iv.start < span - 1]
        if clipped:
            fluents.append(_line({
                "type": "fluent", "session": "s", "fvp": term_to_str(pair), "ack": True,
                "intervals": [[start + copy * span, end + copy * span]
                              for copy in range(copies) for start, end in clipped],
            }))
    steps = []
    for index in range(total):
        copy, phase = divmod(index, period)
        boundary = (index + 1) * step
        batch = [[time + copy * span, term] for time, term in batches[phase]]
        payload = b""
        if batch:
            payload += _line({"type": "events", "session": "s", "batch": batch, "ack": True})
        payload += _line({"type": "query", "session": "s", "at": boundary, "fvp": PROBE_FVP})
        steps.append(Step(boundary, payload, len(batch), 2 if batch else 1, 1 if batch else 0))
    dataset_args = ["--gold", "maritime", "--seed", str(seed), "--scale", str(MARITIME_SCALE),
                    "--traffic", str(MARITIME_TRAFFIC), "--window", str(window),
                    "--step", str(step), "--high-water", "65536"]
    sizes = _sizes(steps, warmup, period, repeats)
    sizes["held_back_per_period"] = held_back
    return ServeInput(
        workload=workload, seed=seed, window=window, step=step, sessions=["s"],
        server_args=dataset_args, oracle_args=dataset_args + ["--no-incremental"],
        checkpoints=False, fluent_lines=fluents, steps=steps,
        oracle_steps=ORACLE_STEPS[workload], warmup_steps=warmup, period_steps=period,
        repeats=repeats, max_repeats=most_repeats(repeats), stationary=True, sizes=sizes,
    )


def _fleet_cluster(seed: int, seconds: float) -> ServeInput:
    from repro.fleet import build_fleet_dataset
    from repro.logic.pretty import term_to_str

    window, step = 600, 300
    workload = "fleet_cluster"
    warmup = ORACLE_STEPS[workload]
    repeats = timed_periods(workload, seconds)
    dataset = build_fleet_dataset()
    day = [(event.time, term_to_str(event.term.args[0]), term_to_str(event.term))
           for event in dataset.stream]
    vehicles = sorted({vehicle for _time, vehicle, _term in day})
    session_of = {vehicle: "s%d" % index for index, vehicle in enumerate(vehicles)}
    sessions = [session_of[vehicle] for vehicle in vehicles]

    # One period: the scripted day once per gap, each copy after its idle gap,
    # so its alignment against the step grid differs from day to day and from
    # seed to seed; padded to whole steps.
    gaps = list(FLEET_GAPS)
    random.Random(seed).shuffle(gaps)
    day_span = (dataset.stream.max_time or 0) + 10
    cycle: List[Tuple[int, str, str]] = []
    offset = 0
    for gap in gaps:
        cycle.extend((time + offset, session_of[vehicle], term) for time, vehicle, term in day)
        offset += day_span + gap
    # Whole steps, and a whole number of checkpoint cadences: a step that
    # carries a checkpoint write must do so in every repeat of the period.
    period = -(-offset // (step * FLEET_CHECKPOINT_EVERY)) * FLEET_CHECKPOINT_EVERY
    span = period * step
    total = warmup + repeats * period

    per_phase: List[Dict[str, List[Tuple[int, str]]]] = [{} for _ in range(period)]
    for time, session, term in cycle:
        index = max(1, -(-time // step)) - 1
        per_phase[index].setdefault(session, []).append((time, term))
    steps = []
    for index in range(total):
        copy, phase = divmod(index, period)
        boundary = (index + 1) * step
        payload, events = b"", 0
        for session in sessions:
            # Unacked single-event lines, then the query that forces the
            # advance; every session's lines are written before any reply
            # is read.
            for time, term in per_phase[phase].get(session, ()):
                payload += _line({"type": "event", "session": session,
                                  "time": time + copy * span, "term": term})
                events += 1
            payload += _line({"type": "query", "session": session, "at": boundary,
                              "fvp": PROBE_FVP})
        steps.append(Step(boundary, payload, events, events + len(sessions), 0))
    common = ["--gold", "fleet", "--seed", str(seed), "--sessions", str(len(sessions)),
              "--window", str(window), "--step", str(step), "--high-water", "65536"]
    return ServeInput(
        workload=workload, seed=seed, window=window, step=step, sessions=sessions,
        server_args=common + ["--workers", "2",
                              "--checkpoint-every", str(FLEET_CHECKPOINT_EVERY)],
        oracle_args=common + ["--no-incremental"],
        checkpoints=True, fluent_lines=[], steps=steps, oracle_steps=warmup,
        warmup_steps=warmup, period_steps=period, repeats=repeats, max_repeats=repeats,
        stationary=False, sizes=_sizes(steps, warmup, period, repeats),
    )


def build_serve_input(workload: str, seed: int, seconds: float) -> ServeInput:
    if workload in ("maritime_serve", "maritime_disorder"):
        return _maritime(workload, seed, seconds)
    if workload == "fleet_cluster":
        return _fleet_cluster(seed, seconds)
    raise ValueError("not a serve workload: %r" % workload)


def output_sha256(fvps_per_session: Sequence[Dict[str, object]]) -> str:
    """Digest of the sessions' final detections, in session order."""
    text = json.dumps(list(fvps_per_session), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
