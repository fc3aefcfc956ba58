"""Entity-sharded parallel recognition.

:func:`recognise_sharded` splits the input stream by entity key (per the
static analysis of :mod:`repro.rtec.partition`), runs one full windowed
recognition per entity component over :mod:`concurrent.futures` — a process
pool by default, with a threaded fallback — and merges the per-shard
:class:`~repro.rtec.result.RecognitionResult`\\ s. The merged result is
identical to sequential execution: every shard runs the *global* window
schedule (the (start, end) bounds and the initially/1 first-window
extension are computed once, from the whole input, and passed down), each
shard receives exactly the input items of its entities plus a copy of the
global (entity-free) items, and per-shard derivations of global fluents
are identical so their union is idempotent.

Beyond wall-clock parallelism, sharding is an algorithmic win on its own:
instance scans (the static-fluent seed pass, non-ground ``holdsAt``
conditions, pair joins such as ``proximity(V1, V2)``) touch only one
entity component's instances, turning quadratic cross-entity work into
linear per-shard work. This is why each shard runs as its own recognition
call instead of batching components into per-worker bucket streams.

Descriptions the analysis rejects run sequentially with a warning —
never in parallel with wrong results.
"""

from __future__ import annotations

import copy
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.rtec.engine import RTECEngine
from repro.rtec.result import RecognitionResult
from repro.rtec.stream import EventStream, InputFluents, partition_input

__all__ = ["recognise_sharded"]

#: Everything one worker needs to recognise one shard, picklable.
_ShardPayload = Tuple[Any, ...]


def _run_shard(payload: _ShardPayload) -> Tuple[RecognitionResult, List[str]]:
    """Worker entry point: recognise one entity shard end to end."""
    (
        description,
        kb,
        vocabulary,
        skip_errors,
        events,
        fluent_items,
        initial_fvps,
        window,
        step,
        bounds,
        extend_first_window,
    ) = payload
    # The shard only owns its entities' initially/1 declarations; share the
    # rest of the description structurally (it is read-only during a run).
    shard_description = copy.copy(description)
    shard_description.initial_fvps = list(initial_fvps)
    engine = RTECEngine(
        shard_description, kb, vocabulary, strict=False, skip_errors=skip_errors
    )
    result = engine.recognise(
        EventStream(events),
        InputFluents(dict(fluent_items)),
        window=window,
        step=step,
        bounds=bounds,
        extend_first_window=extend_first_window,
    )
    return result, engine.runtime_warnings


def _map_shards(
    payloads: List[_ShardPayload], jobs: int, executor: str
) -> List[Tuple[RecognitionResult, List[str]]]:
    if executor == "inline" or jobs <= 1 or len(payloads) <= 1:
        return [_run_shard(payload) for payload in payloads]
    workers = min(jobs, len(payloads))
    if executor == "process":
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_run_shard, payloads))
        except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
            warnings.warn(
                "process pool unavailable (%s); falling back to threads" % (exc,),
                RuntimeWarning,
                stacklevel=3,
            )
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_shard, payloads))


def recognise_sharded(
    engine: RTECEngine,
    stream: EventStream,
    input_fluents: Optional[InputFluents] = None,
    window: Optional[int] = None,
    step: Optional[int] = None,
    jobs: int = 2,
    executor: str = "process",
) -> RecognitionResult:
    """Recognise ``stream`` by fanning entity shards over ``jobs`` workers.

    Behaviourally equivalent to ``engine.recognise(stream, ...)``; falls
    back to sequential execution (with a warning recorded in
    ``engine.runtime_warnings``) when the description is not shardable.
    ``executor`` is ``"process"`` (default), ``"thread"`` or ``"inline"``
    (sequential over shards, useful for tests and profiling).
    """
    if input_fluents is None:
        input_fluents = InputFluents()
    analysis = engine.description.partitionability()
    if not analysis.shardable:
        message = (
            "event description is not entity-shardable; falling back to "
            "sequential recognition: " + "; ".join(analysis.diagnostics)
        )
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        engine.runtime_warnings.append(message)
        return engine.recognise(stream, input_fluents, window=window, step=step)
    if len(stream) == 0 and len(input_fluents) == 0:
        return engine.recognise(stream, input_fluents, window=window, step=step)

    bounds = engine._bounds(stream, input_fluents)
    extend_first_window = bool(engine.description.initial_fvps)
    shards, global_events, global_fluents, global_initials = partition_input(
        stream, input_fluents, analysis, engine.description.initial_fvps
    )
    if not shards:
        # Only global items: a single worker covers everything.
        from repro.rtec.stream import InputShard

        shards = [InputShard(entities=frozenset())]
    if len(shards) == 1 and not global_events and not global_fluents:
        # One component owns the whole stream; sharding cannot help.
        return engine.recognise(stream, input_fluents, window=window, step=step)

    payloads: List[_ShardPayload] = []
    for shard in shards:
        shard_fluents = dict(shard.fluents)
        shard_fluents.update(global_fluents)
        payloads.append(
            (
                engine.description,
                engine.kb,
                engine.vocabulary,
                engine.skip_errors,
                shard.events + global_events,
                list(shard_fluents.items()),
                shard.initial_fvps + global_initials,
                window,
                step,
                bounds,
                extend_first_window,
            )
        )

    with telemetry.span(
        "rtec.sharded", shards=len(payloads), jobs=jobs, executor=executor
    ) as sp:
        outcomes = _map_shards(payloads, jobs, executor)
        merged = RecognitionResult()
        for result, shard_warnings in outcomes:
            for pair, intervals in result.items():
                merged.merge(pair, intervals)
            engine.runtime_warnings.extend(shard_warnings)
        if sp.enabled:
            sp.count("merged_fvps", len(merged))
    return merged
