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

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple, TypeVar

from repro import telemetry
from repro.intervals import IntervalList, union_all
from repro.logic.terms import Compound, Term
from repro.rtec.description import fluent_key
from repro.rtec.engine import RTECEngine
from repro.rtec.result import RecognitionResult
from repro.rtec.stream import Event, EventStream, InputFluents, partition_input

__all__ = ["RTECSession", "SessionSnapshot"]

_V = TypeVar("_V")


@dataclass
class SessionSnapshot:
    """A self-contained copy of an :class:`RTECSession`'s windowed state.

    Everything a restarted session needs to continue exactly where the
    original left off: the retained event buffer, the retained input-fluent
    intervals, the open initiations carried between windows, the
    amalgamated result, the last query time and the next step-grid point.
    Produced by :meth:`RTECSession.snapshot` and consumed by
    :meth:`RTECSession.restore` of a session built with the same window and
    step; the checkpoint layer (:mod:`repro.serve.checkpoint`) serializes it
    to JSON.
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
    #: The first step-grid point not yet advanced to (:meth:`RTECSession.due`);
    #: ``None`` until an input fixes the grid.
    next_query: Optional[int] = None
    #: Derivation cache for incremental (delta) advances: every derived
    #: FVP's maximal intervals within the retained window, as of the last
    #: advance. ``None`` means no cache is available (a fresh session, the
    #: ``incremental=False`` oracle, delta-unsafe rules): the next advance
    #: recomputes the full window and, where it may, rebuilds it.
    derived_cache: Optional[Dict[Term, IntervalList]] = None
    #: Whether input arrived at or before the last query time since the
    #: last advance (late input pending). The cache does not cover it, and
    #: which entities it named is not persisted: a session restored from
    #: such a snapshot drops the cache and recomputes one whole window.
    stale: bool = False


class _Unit(NamedTuple):
    """One independently evaluated part of a window advance: everything, or
    a group of entity components (see ``RTECSession._evaluate``)."""

    events: EventStream
    fluents: InputFluents
    pending: Dict[Term, int]
    barriers: Dict[Term, int]
    #: The derivations to repair from ``events`` (the delta); ``None``:
    #: ``events`` is the whole window and everything is re-derived.
    cache: Optional[Dict[Term, IntervalList]]


def _split_fvp_state(
    mapping: Mapping[Term, _V],
    analysis: Any,
    entity_unit: Mapping[Term, int],
    unit_count: int,
) -> Tuple[List[Dict[Term, _V]], Dict[Term, _V]]:
    """Distribute FVP-keyed carried state over the units of a repair advance.

    A session carries several per-FVP mappings between windows (open
    initiations, deadline barriers, the derivation cache); each must be
    split the way the input is: entries whose FVP names an entity go to that
    entity's unit, entity-free entries are *global* and are replicated to
    every unit by the caller — every unit derives the identical value for
    them, so merging is idempotent.

    Returns ``(per_unit, global_items)``. Entries whose entity is not in
    ``entity_unit`` are dropped — the caller keeps every entity of state
    that still matters alive by passing it to
    :func:`repro.rtec.stream.partition_input` as ``extra_entities``.
    """
    per_unit: List[Dict[Term, _V]] = [dict() for _ in range(unit_count)]
    global_items: Dict[Term, _V] = {}
    for pair, value in mapping.items():
        entities = analysis.fvp_entities(pair)
        if entities:
            index = entity_unit.get(entities[0])
            if index is not None:
                per_unit[index][pair] = value
        else:
            global_items[pair] = value
    return per_unit, global_items


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
    step:
        The cadence of :meth:`due`'s query times (default: ``window``).
    incremental:
        When true (the default), an advance consumes only the *delta* —
        the events newer than the previous query time — and repairs the
        cached per-FVP derivations instead of re-deriving the whole
        overlapping window (the ``cache`` argument of
        :meth:`~repro.rtec.engine.RTECEngine._process_window`).
        Results are byte-equal to full recomputation (property-checked).
        Input that arrives at or before the previous query time but inside
        the window is *repaired*: the next advance re-derives the entity
        components it names over the whole window and keeps every other
        component on the delta path; late input that no rule reads
        (:meth:`~repro.rtec.description.EventDescription.reads`) is only
        buffered. The whole window is recomputed only where that is the
        sole sound path, and each such advance is counted by reason in
        :attr:`recomputes`: ``first`` advance, ``restored`` without a
        derivation cache, ``delta_unsafe`` rules
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
        step: Optional[int] = None,
        incremental: bool = True,
    ) -> None:
        if window <= 0:
            raise ValueError("window size must be positive")
        step = window if step is None else step
        if step <= 0:
            raise ValueError("step must be positive")
        self.engine = engine
        self.window = window
        self.step = step
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
        self._next_query: Optional[int] = None
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
        description = self.engine.description
        for event in events:
            if lower is not None and event.time <= lower:
                continue
            late = self._last_query is not None and event.time <= self._last_query
            if late and description.reads(event.term):
                # A late arrival inside the retained window that a rule reads:
                # the previous advance's derivations no longer cover it, so the
                # next advance re-derives its entity component over the window.
                analysis = description.partitionability()
                self._late.append(analysis.event_entities(event.term))
            self._buffer.append(event)
            accepted += 1
        return accepted

    def submit_fluent(self, pair: Term, intervals: IntervalList) -> None:
        """Deliver (additional) maximal intervals of an input fluent.

        Like :meth:`submit`, portions at or before the current window lower
        bound are already forgotten and are dropped on arrival. The first
        input fixes the step grid (:meth:`due`), a delivery by its first point.
        """
        if self._next_query is None and intervals:
            self._next_query = self._grid_after(intervals.span[0])
        if self._last_query is not None:
            intervals = self._clip_forgotten(intervals, self._last_query - self.window)
            if not intervals:
                return
            if intervals.span[0] <= self._last_query and self.engine.description.reads(pair):
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

    def _grid_after(self, time: int) -> int:
        """The first step-grid point strictly after ``time``."""
        return (time // self.step + 1) * self.step

    def due(self, time: int) -> Optional[int]:
        """The first step-grid point before ``time`` not yet advanced to, or
        ``None``: ``while (q := session.due(t)) is not None: session.advance(q)``
        walks RTEC's query times Q_i = Q_{i-1} + step up to ``t``. Points are
        multiples of ``step``; the first input (``time`` itself, if none came
        before) fixes the first point after it. Snapshots carry the grid."""
        if self._next_query is None:
            self._next_query = self._grid_after(time)
        return self._next_query if self._next_query < time else None

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
            if self._last_query is None and self.engine.description.initial_fvps:
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
            self._last_query = query_time
            if self._next_query is None or self._next_query <= query_time:
                self._next_query = self._grid_after(query_time)
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

    def _evaluate(
        self,
        mode: str,
        input_fluents: InputFluents,
        window_start: int,
        query_time: int,
    ) -> Tuple[int, int, int]:
        """Evaluate the window ``(window_start, query_time]`` in ``mode``.

        One routine does it, :meth:`RTECEngine._process_window`: with no
        cache it re-derives the whole window (always sound, and what
        (re)builds the derivation cache), with the cache it repairs it from
        the events newer than the previous query time. ``full`` and
        ``delta`` advances are one such call over everything; a ``repair``
        advance makes two, for the entity components a late arrival named
        and for the others (:meth:`_component_units`).

        Components share no entity, and global (entity-free) items are
        replicated to both units, where their derivations coincide and
        merge idempotently; so the units' merged results and carried state
        equal those of one whole-window call (property-checked).

        Returns ``(events evaluated, dirty components, dirty events)``.
        """
        engine, merge_from = self.engine, self._last_query
        lower = max(window_start, merge_from) if mode == "delta" else window_start
        stream = self._buffer.slice_window(lower, query_time)
        # Full evaluation seeds the derivation cache the delta path repairs.
        caching = mode != "full" or (
            self.incremental and not engine.delta_diagnostics()
        )
        dirty = 0
        if mode == "repair":
            units, dirty = self._component_units(stream, input_fluents)
        else:
            cache = self._derived_cache if mode == "delta" else None
            units = [_Unit(stream, input_fluents, self._pending, self._barriers, cache)]
        self._pending, self._barriers = {}, {}
        self._derived_cache = {} if caching else None
        defined = engine.description.defined_keys
        for unit in units:
            opened, closed, store = engine._process_window(
                unit.events,
                unit.fluents,
                window_start,
                query_time,
                self._result,
                pending=unit.pending,
                barriers=unit.barriers,
                include_initially=self._last_query is None,
                merge_from=merge_from,
                cache=unit.cache,
            )
            self._pending.update(opened)
            self._barriers.update(closed)
            if self._derived_cache is None:
                continue
            # Global FVPs are derived identically by both units, so the
            # overlapping updates are idempotent. Deliveries of a fluent the
            # description does not define are rebuilt from the session's own
            # storage on every advance; caching them would only shadow
            # fresher deliveries.
            for pair, intervals in store.items():
                assert isinstance(pair, Compound)
                if pair not in input_fluents or fluent_key(pair.args[0]) in defined:
                    self._derived_cache[pair] = intervals
        dirty_events = sum(len(u.events) for u in units if u.cache is None) if dirty else 0
        return sum(len(u.events) for u in units), dirty, dirty_events

    def _component_units(
        self, stream: EventStream, input_fluents: InputFluents
    ) -> Tuple[List[_Unit], int]:
        """Split a ``repair`` advance by entity component into two units.

        ``stream`` (the whole window — late items included, so a late pair
        item joins the components it names), the retained input fluents and
        every piece of carried state (open initiations, deadline barriers,
        the derivation cache) are partitioned by entity closure. The
        components a late arrival named are *dirty*: they form one unit,
        re-derived over the whole window; the others form a second, repaired
        from the events newer than the previous query time. Two calls, not
        one per component: each call pays the evaluators' per-fluent fixed
        cost.

        Returns ``(units, dirty components)``.
        """
        analysis = self.engine.description.partitionability()
        merge_from = self._last_query
        cache = self._derived_cache
        assert merge_from is not None and cache is not None
        # Entities of carried state keep their component alive even when they
        # produced no input this window; _split_fvp_state would otherwise drop
        # their open intervals.
        carried = [
            analysis.fvp_entities(pair)
            for pair in (*self._pending, *self._barriers, *cache)
        ]
        shards, global_events, global_fluents = partition_input(
            stream,
            input_fluents,
            analysis,
            extra_entities=[entities for entities in carried if entities],
        )
        entity_shard = {
            entity: index
            for index, shard in enumerate(shards)
            for entity in shard.entities
        }
        # An item's entities share a component, so the first names it; a
        # late event already outside the window names none.
        dirty: Set[int] = {
            entity_shard[entities[0]]
            for entities in self._late
            if entities[0] in entity_shard
        }
        # Unit 0 is the dirty one, unit 1 the clean one.
        entity_unit = {
            entity: int(index not in dirty) for entity, index in entity_shard.items()
        }
        pendings, barriers, caches = (
            _split_fvp_state(carried_state, analysis, entity_unit, 2)
            for carried_state in (self._pending, self._barriers, cache)
        )
        units = []
        for unit, full in enumerate((True, False)):
            group = [shard for index, shard in enumerate(shards) if (index in dirty) == full]
            if not group and (full or dirty):
                # No component of its own: the other unit evaluates the
                # global items too.
                continue
            events = [e for shard in group for e in shard.events] + global_events
            if not full:
                events = [e for e in events if e.time > merge_from]
            fluents = dict(global_fluents)
            for shard in group:
                fluents.update(shard.fluents)
            units.append(
                _Unit(
                    EventStream(events),
                    InputFluents(fluents),
                    {**pendings[0][unit], **pendings[1]},
                    {**barriers[0][unit], **barriers[1]},
                    None if full else {**caches[0][unit], **caches[1]},
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
            next_query=self._next_query,
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
        self._next_query = snapshot.next_query
        self._late = []
        self._derived_cache = (
            dict(snapshot.derived_cache)
            if snapshot.derived_cache is not None and not snapshot.stale
            else None
        )

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

    @property
    def next_query(self) -> Optional[int]:
        """The first step-grid point not yet advanced to (see :meth:`due`)."""
        return self._next_query

    def holds_for(self, pair: "Term | str") -> IntervalList:
        return self._result.holds_for(pair)

    def holds_at(self, pair: "Term | str", time: int) -> bool:
        return self._result.holds_at(pair, time)
