"""Online (run-time) recognition sessions.

RTEC is a *run-time* reasoner: events arrive continuously and recognition
is performed at successive query times over a sliding window, with older
events forgotten. :class:`RTECSession` exposes that operational mode
incrementally — submit events as they arrive, advance the query time, and
read the amalgamated detections at any moment — whereas
:meth:`~repro.rtec.engine.RTECEngine.recognise` replays a whole stream in
one call.

A session and a batch run over the same stream with the same query times
produce identical results (a property checked by the test suite).

Session state is exposed through :meth:`RTECSession.snapshot` /
:meth:`RTECSession.restore` (cheap copies of the windowed buffers, used by
the checkpoint layer). The ``_``-prefixed attributes are private: reading
or writing them directly is deprecated — their layout can change between
releases, whereas :class:`SessionSnapshot` is a stable surface.
"""

from __future__ import annotations

import copy
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro import telemetry
from repro.intervals import IntervalList, union_all
from repro.logic.terms import Term
from repro.rtec.engine import RTECEngine
from repro.rtec.parallel import shard_pool, split_fvp_state
from repro.rtec.result import RecognitionResult
from repro.rtec.stream import Event, EventStream, InputFluents, partition_input

__all__ = ["RTECSession", "SessionSnapshot"]


@dataclass
class SessionSnapshot:
    """A self-contained copy of an :class:`RTECSession`'s windowed state.

    Everything a restarted session needs to continue exactly where the
    original left off: the retained event buffer, the retained input-fluent
    intervals, the open initiations carried between windows, the
    amalgamated result, and the query-time cursor. Produced by
    :meth:`RTECSession.snapshot` and consumed by
    :meth:`RTECSession.restore` / :meth:`RTECSession.from_snapshot`; the
    checkpoint layer (:mod:`repro.serve.checkpoint`) serializes it to JSON.
    """

    window: int
    buffer: List[Event] = field(default_factory=list)
    fluent_intervals: Dict[Term, IntervalList] = field(default_factory=dict)
    pending: Dict[Term, int] = field(default_factory=dict)
    #: Deadline barriers: close points of periods ended by ``maxDuration/2``
    #: whose anchoring initiation may already be forgotten (see
    #: :meth:`repro.rtec.engine.RTECEngine._process_window`).
    barriers: Dict[Term, int] = field(default_factory=dict)
    result: RecognitionResult = field(default_factory=RecognitionResult)
    last_query: Optional[int] = None
    first_advance: bool = True
    #: Derivation cache for incremental (delta) advances: every derived
    #: FVP's maximal intervals within the retained window, as of the last
    #: advance. ``None`` means no cache is available (fresh session, or a
    #: snapshot restored from a pre-delta checkpoint): the next advance
    #: recomputes the full window and rebuilds it.
    derived_cache: Optional[Dict[Term, IntervalList]] = None
    #: Whether input arrived at or before the last query time since the
    #: last advance (late input pending). The cache does not cover it, and
    #: which entities it named is not persisted: a session restored from
    #: such a snapshot drops the cache and recomputes one whole window.
    stale: bool = False


class _Unit(NamedTuple):
    """One independently evaluated part of a window advance: everything, or
    the entity components grouped into it (see ``RTECSession._evaluate``)."""

    #: Re-derive the whole window (else: repair ``cache`` from the delta).
    full: bool
    events: EventStream
    fluents: InputFluents
    pending: Dict[Term, int]
    barriers: Dict[Term, int]
    cache: Dict[Term, IntervalList]
    #: The unit's ``initially/1`` declarations (``None``: the description's).
    initial_fvps: Optional[List[Term]]


class RTECSession:
    """Incremental recognition over a sliding window.

    Parameters
    ----------
    engine:
        The configured reasoner (event description, knowledge base).
    window:
        RTEC's omega: at each query time ``q``, events in ``(q - omega, q]``
        are considered and everything older is forgotten — events received
        with a timestamp at or before ``q - omega`` are dropped
        (:meth:`submit` returns how many it accepted).
    jobs:
        When > 1, each :meth:`advance` partitions the buffered window by
        entity key (see :mod:`repro.rtec.partition`) and evaluates the
        shards over a thread pool, carrying open initiations per shard.
        Results are identical to sequential advances; descriptions that are
        not shardable fall back to sequential evaluation with a warning.
    incremental:
        When true (the default), an advance consumes only the *delta* —
        the events newer than the previous query time — and repairs the
        cached per-FVP derivations instead of re-deriving the whole
        overlapping window (see
        :meth:`~repro.rtec.engine.RTECEngine._process_window_delta`).
        Results are byte-equal to full recomputation (property-checked).
        Input that arrives at or before the previous query time but inside
        the window is *repaired*: the next advance re-derives the entity
        components it names over the whole window and keeps every other
        component on the delta path. The whole window is recomputed only
        where that is the sole sound path, and each such advance is counted
        by reason in :attr:`recomputes`: ``first`` advance, ``restored``
        without a derivation cache, ``delta_unsafe`` rules
        (:meth:`~repro.rtec.engine.RTECEngine.delta_diagnostics`), a late
        item naming no entity (``late_global``) and a late item under a
        description that is not entity-shardable (``unshardable``). With
        ``incremental=False`` every advance recomputes the full window —
        retained as the oracle the incremental path is verified against.
    """

    def __init__(
        self,
        engine: RTECEngine,
        window: int,
        jobs: Optional[int] = None,
        incremental: bool = True,
    ) -> None:
        if window <= 0:
            raise ValueError("window size must be positive")
        self.engine = engine
        self.window = window
        self.jobs = jobs
        self.incremental = incremental
        #: Retained events, kept as a sorted, indexed stream so window and
        #: delta evaluation slice it instead of filtering object lists.
        self._buffer: EventStream = EventStream()
        #: Input-fluent intervals still reachable by a future window; merged
        #: on submission and clipped at each advance so storage is bounded
        #: by omega, like the event buffer.
        self._fluent_intervals: Dict[Term, IntervalList] = {}
        self._pending: Dict[Term, int] = {}
        self._barriers: Dict[Term, int] = {}
        self._result = RecognitionResult()
        self._last_query: Optional[int] = None
        self._first_advance = True
        self._shard_warning_issued = False
        #: See :class:`SessionSnapshot.derived_cache`.
        self._derived_cache: Optional[Dict[Term, IntervalList]] = None
        #: Entity tuples of the input that arrived at or before the last
        #: query time since the last advance (``()``: it names no entity).
        self._late: List[Tuple[Term, ...]] = []
        #: Advances by mode (``delta``, ``repaired``, ``full``) and
        #: whole-window recomputations by reason (see ``incremental``).
        self.advances: Counter = Counter()
        self.recomputes: Counter = Counter()

    # -- input ----------------------------------------------------------------

    def submit(self, events: Iterable[Event]) -> int:
        """Buffer newly arrived events; returns how many were accepted.

        Events older than the current window lower bound are already
        forgotten and are dropped.
        """
        accepted = 0
        lower = None if self._last_query is None else self._last_query - self.window
        for event in events:
            if lower is not None and event.time <= lower:
                continue
            if self._last_query is not None and event.time <= self._last_query:
                # A late arrival inside the retained window: the previous
                # advance's derivations no longer cover it, so the next
                # advance re-derives its entity component over the window.
                analysis = self.engine.description.partitionability()
                self._late.append(analysis.event_entities(event.term))
            self._buffer.append(event)
            accepted += 1
        return accepted

    def submit_fluent(self, pair: Term, intervals: IntervalList) -> None:
        """Deliver (additional) maximal intervals of an input fluent.

        Like :meth:`submit`, portions at or before the current window lower
        bound are already forgotten and are dropped on arrival.
        """
        if self._last_query is not None:
            intervals = self._clip_forgotten(intervals, self._last_query - self.window)
            if not intervals:
                return
            if intervals.span[0] <= self._last_query:
                # The delivery covers time-points at or before the previous
                # query time (interval lists are closed): rules with holdsAt
                # conditions over this fluent could have fired differently
                # there, so the next advance re-derives the delivery's
                # entity component over the window.
                analysis = self.engine.description.partitionability()
                self._late.append(analysis.fvp_entities(pair))
        existing = self._fluent_intervals.get(pair)
        if existing:
            intervals = union_all([existing, intervals])
        self._fluent_intervals[pair] = intervals

    @staticmethod
    def _clip_forgotten(intervals: IntervalList, horizon: int) -> IntervalList:
        """Drop the time-points at or before ``horizon`` (the forgetting
        boundary): no future window — query times are non-decreasing — can
        reach them."""
        if not intervals:
            return intervals
        last = intervals.span[1]
        if last <= horizon:
            return IntervalList.empty()
        if intervals.span[0] > horizon:
            return intervals
        return intervals.restrict(horizon + 1, last)

    # -- reasoning --------------------------------------------------------------

    def advance(self, query_time: int) -> RecognitionResult:
        """Run recognition at ``query_time`` and return the amalgamated result.

        Query times must be non-decreasing; advancing again at the *same*
        query time is an idempotent no-op returning the cached result (the
        window has already been evaluated — re-running it could only redo
        work, and a zero-length delta carries no information). Events at or
        before ``query_time - window`` are forgotten afterwards, bounding
        the buffer (Section 2: reasoning cost depends on omega, not on the
        stream size).
        """
        if self._last_query is not None:
            if query_time < self._last_query:
                raise ValueError(
                    "query times must be non-decreasing (%d < %d)"
                    % (query_time, self._last_query)
                )
            if query_time == self._last_query:
                return self._result
        with telemetry.span("rtec.advance", query_time=query_time) as sp:
            horizon = query_time - self.window
            window_start = horizon
            if self._first_advance and self.engine.description.initial_fvps:
                # initially/1 declarations are evaluated from the time origin;
                # the extension must happen before the buffer is filtered, or
                # events in the extended part of the first window are lost.
                window_start = min(window_start, -1)
            input_fluents = InputFluents()
            for pair, intervals in self._fluent_intervals.items():
                input_fluents.set(pair, intervals)
            buffered_before = len(self._buffer)
            mode, reason = self._plan()
            window_events, dirty_components, dirty_events = self._evaluate(
                mode, input_fluents, window_start, query_time
            )
            self.advances["repaired" if mode == "repair" else mode] += 1
            if reason is not None:
                self.recomputes[reason] += 1
            self._late = []
            self._first_advance = False
            self._last_query = query_time
            # Forget: drop events, input-fluent points and cached derivation
            # points that no future window can reach, bounding session
            # memory by omega.
            self._buffer = self._buffer.slice_window(horizon)
            kept: Dict[Term, IntervalList] = {}
            for pair, intervals in self._fluent_intervals.items():
                clipped = self._clip_forgotten(intervals, horizon)
                if clipped:
                    kept[pair] = clipped
            self._fluent_intervals = kept
            if self._derived_cache is not None:
                trimmed: Dict[Term, IntervalList] = {}
                for pair, intervals in self._derived_cache.items():
                    clipped = self._clip_forgotten(intervals, horizon)
                    if clipped:
                        trimmed[pair] = clipped
                self._derived_cache = trimmed
            if sp.enabled:
                sp.set(mode=mode)
                if reason is not None:
                    sp.set(reason=reason)
                sp.count("delta_misses" if mode == "full" else "delta_hits", 1)
                sp.count("events", window_events)
                sp.count("dirty_components", dirty_components)
                sp.count("dirty_events", dirty_events)
                sp.count("buffered", len(self._buffer))
                sp.count("forgotten_events", buffered_before - len(self._buffer))
                sp.count("fluent_pairs", len(kept))
                sp.count(
                    "fluent_intervals", sum(len(ivs) for ivs in kept.values())
                )
                if self._derived_cache is not None:
                    sp.count("cached_fvps", len(self._derived_cache))
            return self._result

    def _plan(self) -> Tuple[str, Optional[str]]:
        """How the next advance evaluates its window: ``(mode, reason)``.

        ``delta`` repairs the cached derivations from the events newer than
        the previous query time. ``repair`` does the same for every entity
        component except the ones a late arrival named, which are re-derived
        over the whole window. ``full`` re-derives the whole window for
        everything, for the ``reason`` given — ``None`` under
        ``incremental=False``, where it is the configured mode, not a
        fallback.
        """
        if not self.incremental:
            return "full", None
        if self._last_query is None:
            return "full", "first"
        if self.engine.delta_diagnostics():
            return "full", "delta_unsafe"
        if self._derived_cache is None:
            return "full", "restored"
        if not self._late:
            return "delta", None
        if not self.engine.description.partitionability().shardable:
            return "full", "unshardable"
        if () in self._late:
            # The late item names no entity (global schema): every
            # component may depend on it.
            return "full", "late_global"
        return "repair", None

    def _shardable_analysis(self):
        """The partitionability analysis, or ``None`` (with a one-shot
        warning) when the description cannot be entity-sharded."""
        analysis = self.engine.description.partitionability()
        if not analysis.shardable:
            if not self._shard_warning_issued:
                message = (
                    "event description is not entity-shardable; the session "
                    "advances sequentially: " + "; ".join(analysis.diagnostics)
                )
                warnings.warn(message, RuntimeWarning, stacklevel=5)
                self.engine.runtime_warnings.append(message)
                self._shard_warning_issued = True
            return None
        return analysis

    def _evaluate(
        self,
        mode: str,
        input_fluents: InputFluents,
        window_start: int,
        query_time: int,
    ) -> Tuple[int, int, int]:
        """Evaluate the window ``(window_start, query_time]`` in ``mode``.

        The window is evaluated as one or more independent *units*, each
        either full (:meth:`RTECEngine._process_window` over the unit's
        whole window: the oracle routine, always sound, and the one that
        (re)builds the unit's derivation cache) or delta
        (:meth:`RTECEngine._process_window_delta` over the unit's events
        newer than the previous query time). By default one unit holds
        everything; a ``repair`` advance and ``jobs`` > 1 split the window
        by entity component (:meth:`_component_units`), and ``jobs`` > 1
        runs the units on the shard pool.

        Components share no entity, and global (entity-free) items are
        replicated to every unit, where their derivations coincide and
        merge idempotently; so the units' merged results and carried state
        equal those of one whole-window call (property-checked).

        Returns ``(events evaluated, dirty components, dirty events)``.
        """
        engine, merge_from, first = self.engine, self._last_query, self._first_advance
        lower = max(window_start, merge_from) if mode == "delta" else window_start
        stream = self._buffer.slice_window(lower, query_time)
        # Full evaluation seeds the derivation cache the delta path repairs.
        caching = mode != "full" or (
            self.incremental and not engine.delta_diagnostics()
        )
        fan_out = self.jobs is not None and self.jobs != 1
        units: List[_Unit] = []
        dirty = 0
        if fan_out or mode == "repair":
            analysis = self._shardable_analysis()
            if analysis is not None:
                units, dirty = self._component_units(
                    analysis, mode, fan_out, stream, input_fluents
                )
        if not units:
            units = [
                _Unit(
                    mode == "full",
                    stream,
                    input_fluents,
                    self._pending,
                    self._barriers,
                    self._derived_cache or {},
                    None,
                )
            ]

        def run(unit: _Unit, result: RecognitionResult):
            unit_engine = engine
            if first and unit.initial_fvps is not None and engine.description.initial_fvps:
                # The unit owns only its entities' initially/1 declarations.
                description = copy.copy(engine.description)
                description.initial_fvps = unit.initial_fvps
                unit_engine = RTECEngine(
                    description,
                    engine.kb,
                    engine.vocabulary,
                    strict=False,
                    skip_errors=engine.skip_errors,
                )
            if unit.full:
                capture: Optional[Dict[Term, IntervalList]] = {} if caching else None
                opened, closed = unit_engine._process_window(
                    unit.events,
                    unit.fluents,
                    window_start,
                    query_time,
                    result,
                    pending=unit.pending,
                    barriers=unit.barriers,
                    include_initially=first,
                    merge_from=merge_from,
                    capture=capture,
                )
            else:
                opened, closed, capture = engine._process_window_delta(
                    unit.events,
                    unit.fluents,
                    window_start,
                    query_time,
                    result,
                    unit.pending,
                    unit.barriers,
                    unit.cache,
                    merge_from,
                )
            unit_warnings = unit_engine.runtime_warnings if unit_engine is not engine else []
            return result, opened, closed, capture, unit_warnings

        if fan_out and len(units) > 1:
            pool = shard_pool(min(self.jobs or 1, len(units)))
            outcomes = list(pool.map(lambda unit: run(unit, RecognitionResult()), units))
        else:
            outcomes = [run(unit, self._result) for unit in units]
        self._pending, self._barriers = {}, {}
        derived: Dict[Term, IntervalList] = {}
        for result, opened, closed, capture, unit_warnings in outcomes:
            if result is not self._result:
                for pair, intervals in result.items():
                    self._result.merge(pair, intervals)
            self._pending.update(opened)
            self._barriers.update(closed)
            # Global FVPs are derived identically by every unit, so the
            # overlapping updates are idempotent.
            derived.update(capture or {})
            engine.runtime_warnings.extend(unit_warnings)
        # Input-fluent entries are rebuilt from the session's own storage on
        # every advance; caching them would only shadow fresher deliveries.
        self._derived_cache = (
            {pair: ivs for pair, ivs in derived.items() if pair not in input_fluents}
            if caching
            else None
        )
        dirty_events = sum(len(u.events) for u in units if u.full) if dirty else 0
        return sum(len(u.events) for u in units), dirty, dirty_events

    def _component_units(
        self,
        analysis,
        mode: str,
        fan_out: bool,
        stream: EventStream,
        input_fluents: InputFluents,
    ) -> Tuple[List[_Unit], int]:
        """Split one advance's input and carried state by entity component.

        ``stream`` (everything the advance reads: the delta events of a
        ``delta`` advance, otherwise the whole window — late items included,
        so a late pair item joins the components it names), the retained
        input fluents and every piece of carried state (open initiations,
        deadline barriers, the derivation cache) are partitioned by entity
        closure. In a ``repair`` advance the components a late arrival named
        are *dirty*: they are evaluated in full, the others on the delta
        path. With ``fan_out`` every component is a unit; otherwise the
        dirty components form one unit and the clean ones another — a call
        per component would pay the evaluators' per-fluent fixed cost once
        per component.

        Returns ``(units, dirty components)``; no units when the input names
        no entity at all.
        """
        merge_from = self._last_query
        cache = (self._derived_cache or {}) if mode != "full" else {}
        # Entities of carried state keep their component alive even when they
        # produced no input this window; split_fvp_state would otherwise drop
        # their open intervals.
        carried = [
            analysis.fvp_entities(pair)
            for pair in (*self._pending, *self._barriers, *cache)
        ]
        shards, global_events, global_fluents, global_initials = partition_input(
            stream,
            input_fluents,
            analysis,
            self.engine.description.initial_fvps if self._first_advance else [],
            extra_entities=[entities for entities in carried if entities],
        )
        entity_shard = {
            entity: index
            for index, shard in enumerate(shards)
            for entity in shard.entities
        }
        dirty: Set[int] = set()
        if mode == "repair":
            # An item's entities share a component, so the first names it; a
            # late event already outside the window names none.
            dirty = {
                entity_shard[entities[0]]
                for entities in self._late
                if entities[0] in entity_shard
            }
        if fan_out:
            groups = [[index] for index in range(len(shards))]
        else:
            clean = [index for index in range(len(shards)) if index not in dirty]
            groups = [group for group in (sorted(dirty), clean) if group]
        unit_of = {index: unit for unit, group in enumerate(groups) for index in group}
        entity_unit = {entity: unit_of[index] for entity, index in entity_shard.items()}
        pendings, barriers, caches = (
            split_fvp_state(carried_state, analysis, entity_unit, len(groups))
            for carried_state in (self._pending, self._barriers, cache)
        )
        units = []
        for unit, group in enumerate(groups):
            full = mode == "full" or group[0] in dirty
            events = [e for index in group for e in shards[index].events]
            events += global_events
            if not full:
                events = [e for e in events if e.time > merge_from]
            fluents = dict(global_fluents)
            for index in group:
                fluents.update(shards[index].fluents)
            units.append(
                _Unit(
                    full,
                    EventStream(events),
                    InputFluents(fluents),
                    {**pendings[0][unit], **pendings[1]},
                    {**barriers[0][unit], **barriers[1]},
                    {**caches[0][unit], **caches[1]},
                    [p for index in group for p in shards[index].initial_fvps]
                    + global_initials,
                )
            )
        return units, len(dirty)

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> SessionSnapshot:
        """A cheap, self-contained copy of the session's windowed state.

        Events, terms and interval lists are immutable, so the snapshot
        shares them and only copies the containers: taking one is O(events
        in the window + FVPs), never O(stream) — the amalgamated result's
        lists grow with the stream, but they are shared, not copied; it is
        serializing them that costs. The snapshot is independent of
        the live session — later ``submit``/``advance`` calls do not mutate
        it — which makes it safe to serialize asynchronously.
        """
        return SessionSnapshot(
            window=self.window,
            buffer=list(self._buffer),
            fluent_intervals=dict(self._fluent_intervals),
            pending=dict(self._pending),
            barriers=dict(self._barriers),
            result=RecognitionResult(dict(self._result.items())),
            last_query=self._last_query,
            first_advance=self._first_advance,
            derived_cache=(
                dict(self._derived_cache)
                if self._derived_cache is not None
                else None
            ),
            stale=bool(self._late),
        )

    def restore(self, snapshot: SessionSnapshot) -> None:
        """Reset this session to a previously captured snapshot.

        After restoring, re-submitting the events that arrived after the
        snapshot and advancing over the same query times yields intervals
        identical to an uninterrupted run (property-checked by the test
        suite). The snapshot's window must match the session's.
        """
        if snapshot.window != self.window:
            raise ValueError(
                "snapshot window %d does not match session window %d"
                % (snapshot.window, self.window)
            )
        self._buffer = EventStream(snapshot.buffer)
        self._fluent_intervals = dict(snapshot.fluent_intervals)
        self._pending = dict(snapshot.pending)
        self._barriers = dict(snapshot.barriers)
        self._result = RecognitionResult(dict(snapshot.result.items()))
        self._last_query = snapshot.last_query
        self._first_advance = snapshot.first_advance
        self._late = []
        self._derived_cache = (
            dict(snapshot.derived_cache)
            if snapshot.derived_cache is not None and not snapshot.stale
            else None
        )

    @classmethod
    def from_snapshot(
        cls,
        engine: RTECEngine,
        snapshot: SessionSnapshot,
        jobs: Optional[int] = None,
        incremental: bool = True,
    ) -> "RTECSession":
        """A fresh session continuing from ``snapshot`` (restart path)."""
        session = cls(engine, snapshot.window, jobs=jobs, incremental=incremental)
        session.restore(snapshot)
        return session

    # -- queries ----------------------------------------------------------------

    @property
    def result(self) -> RecognitionResult:
        """The detections amalgamated so far."""
        return self._result

    @property
    def buffered_events(self) -> int:
        """Number of events currently retained (bounded by the window)."""
        return len(self._buffer)

    @property
    def stored_fluent_intervals(self) -> int:
        """Total input-fluent intervals retained (bounded by the window)."""
        return sum(len(intervals) for intervals in self._fluent_intervals.values())

    def fluent_storage(self) -> Dict[Term, IntervalList]:
        """A copy of the retained input-fluent intervals, for inspection."""
        return dict(self._fluent_intervals)

    @property
    def last_query_time(self) -> Optional[int]:
        return self._last_query

    def holds_for(self, pair: "Term | str") -> IntervalList:
        return self._result.holds_for(pair)

    def holds_at(self, pair: "Term | str", time: int) -> bool:
        return self._result.holds_at(pair, time)
