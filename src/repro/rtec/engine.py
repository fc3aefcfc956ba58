"""The RTEC recognition engine: windowed, hierarchical, cached reasoning.

The engine executes a validated event description over an input stream. At
each query time ``q`` it considers the events in the sliding window
``(q - omega, q]``, evaluates the fluent hierarchy bottom-up (simple fluents
via initiation/termination pairing, statically determined fluents via
interval manipulation), caches each FVP's maximal intervals in a per-window
fluent store so that higher-level fluents reuse them, and amalgamates the
window results into a :class:`~repro.rtec.result.RecognitionResult`.

Events before ``q - omega`` are forgotten (Section 2: "the cost of
reasoning depends on omega, instead of the size of the complete stream");
inertia across window boundaries is preserved by carrying, for every simple
FVP holding at the window start according to the previous windows, a
synthetic initiation at the window-start time-point.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.intervals import IntervalList, union_all
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Compound, Term
from repro.rtec.description import EventDescription, FluentKey, Vocabulary, fluent_key
from repro.rtec.errors import InvalidEventDescriptionError
from repro.rtec.result import RecognitionResult
from repro.rtec.simple import evaluate_simple_fluent
from repro.rtec.static import evaluate_static_fluent
from repro.rtec.store import FluentStore
from repro.rtec.stream import EventStream, InputFluents

__all__ = ["RTECEngine", "recognise_all"]


def _by_fluent(carried: Mapping[Term, int]) -> Dict[FluentKey, Dict[Term, int]]:
    """FVP-keyed carried state bucketed by fluent schema, in one pass (each
    simple fluent is handed its own entries instead of scanning all of it)."""
    buckets: Dict[FluentKey, Dict[Term, int]] = {}
    for pair, value in carried.items():
        assert isinstance(pair, Compound)
        buckets.setdefault(fluent_key(pair.args[0]), {})[pair] = value
    return buckets


class RTECEngine:
    """Run-time reasoner for one event description.

    Parameters
    ----------
    description:
        The event description to execute.
    kb:
        Atemporal background knowledge (``areaType/2``, ``thresholds/2``, ...).
    vocabulary:
        The input schema; when given, the description is validated against
        it on construction and :class:`InvalidEventDescriptionError` is
        raised if any issue is found (set ``strict=False`` to skip).
    """

    def __init__(
        self,
        description: EventDescription,
        kb: Optional[KnowledgeBase] = None,
        vocabulary: Optional[Vocabulary] = None,
        strict: bool = True,
        skip_errors: bool = False,
    ) -> None:
        self.description = description
        self.kb = kb if kb is not None else KnowledgeBase()
        self.vocabulary = vocabulary
        self.skip_errors = skip_errors
        #: Messages of rules skipped at run time (only in skip_errors mode).
        self.runtime_warnings: List[str] = []
        #: Why delta evaluation is unsafe and the analysis certificate (None:
        #: not yet computed); the description cannot change, so neither can they.
        self._delta_diagnostics: Optional[List[str]] = None
        self._certificate = None
        if strict:
            # Full static analysis on load: faults that used to surface as
            # EvaluationErrors mid-window are rejected here with a precise
            # diagnostic, and the certificate is read off the same report.
            # Imported lazily — repro.analysis depends on
            # repro.rtec.description.
            from repro.analysis.analyzer import analyse
            from repro.analysis.certify import AnalysisCertificate

            report = analyse(description, vocabulary)
            if report.has_errors:
                raise InvalidEventDescriptionError(report.errors)
            self._certificate = AnalysisCertificate.from_report(report)
        self._order = description.topological_order()

    def delta_diagnostics(self) -> List[str]:
        """Why incremental (delta) window evaluation is unsafe; empty = safe.

        Delta evaluation re-runs the simple-fluent rules over only the
        events newer than the previous query time and repairs the cached
        derivations. That is sound exactly when every rule's firing points
        after the previous query time depend only on input newer than it.
        The check is the certification layer's delta-safety prover
        (:func:`repro.analysis.certify.prove_rule_delta_safety`), which
        works on time-variable equality classes: a condition anchored
        through a positive ``=:=`` chain to the head time is as safe as one
        reusing the head time variable verbatim. Statically determined fluents need
        no per-rule check: their interval constructs (union, intersection,
        relative complement) are pointwise in time, so recomputing them
        over the repaired store is always faithful.

        The prover runs on the first call only; sessions consult the result
        on every advance to choose between the delta path and full
        recomputation.
        """
        if self._delta_diagnostics is None:
            from repro.analysis.certify import prove_rule_delta_safety

            diagnostics: List[str] = []
            for key, definition in self.description.simple_fluents.items():
                for rule in definition.initiated_rules + definition.terminated_rules:
                    safe, problems = prove_rule_delta_safety(rule)
                    if not safe:
                        diagnostics.extend(
                            "%s/%d: %s" % (key[0], key[1], problem.message)
                            for problem in problems
                        )
            self._delta_diagnostics = diagnostics
        return self._delta_diagnostics

    def certificate(self):
        """The description's :class:`repro.analysis.certify.AnalysisCertificate`.

        A strict engine has it from the analysis it was loaded with; any
        other engine analyses its description on the first call.
        """
        if self._certificate is None:
            from repro.analysis.certify import certify_description

            self._certificate = certify_description(self.description, self.vocabulary, kb=self.kb)
        return self._certificate

    @staticmethod
    def _bounds(
        stream: EventStream, input_fluents: InputFluents
    ) -> "tuple[int, int]":
        """The (start, end) time span the recognition run covers."""
        start = stream.min_time if stream.min_time is not None else 0
        end = stream.max_time if stream.max_time is not None else start
        for _pair, intervals in input_fluents.items():
            if intervals:
                first, last = intervals.span
                start, end = min(start, first), max(end, last)
        return start, end

    def recognise(
        self,
        stream: EventStream,
        input_fluents: Optional[InputFluents] = None,
        window: Optional[int] = None,
        step: Optional[int] = None,
    ) -> RecognitionResult:
        """Detect all composite activities over ``stream``.

        ``window`` is RTEC's omega; ``None`` means a single window covering
        the whole stream. ``step`` is the query-time slide (defaults to
        ``window``); a step larger than the window loses events, faithfully
        to RTEC's forgetting mechanism.
        """
        return recognise_all([self], stream, input_fluents, window, step)[0]

    def _sharing(self, shared: Dict[tuple, object], window_start: int, window_end: int):
        """The two fluent evaluators, answering from ``shared`` what it holds
        and storing there what they compute without a runtime warning."""
        keys = self.description.definition_keys()

        def reuse(evaluate):
            def evaluate_once(definition, *args, **kwargs):
                key = keys[definition.key]
                if key is None:
                    return evaluate(definition, *args, **kwargs)
                key = (window_start, window_end, id(self.kb), key)
                found = shared.get(key)
                if found is None:
                    warnings = len(self.runtime_warnings)
                    found = evaluate(definition, *args, **kwargs)
                    if len(self.runtime_warnings) == warnings:
                        shared[key] = found
                return found
            return evaluate_once

        return reuse(evaluate_simple_fluent), reuse(evaluate_static_fluent)

    def _process_window(
        self,
        stream: EventStream,
        input_fluents: InputFluents,
        window_start: int,
        window_end: int,
        result: RecognitionResult,
        pending: Dict[Term, int],
        barriers: Optional[Dict[Term, int]] = None,
        include_initially: bool = False,
        merge_from: Optional[int] = None,
        cache: Optional[Dict[Term, IntervalList]] = None,
        shared: Optional[Dict[tuple, object]] = None,
        settled: Optional[FluentStore] = None,
    ) -> Tuple[Dict[Term, int], Dict[Term, int], FluentStore]:
        """Evaluate one window; returns the state to carry forward.

        ``pending`` maps ground simple FVPs whose period was open at the
        previous query time to that period's initiation point. Carrying the
        *original* initiation keeps ``maxDuration/2`` deadlines anchored
        across window boundaries; closed periods are never carried, so a
        forgotten termination cannot re-open them.

        ``barriers`` maps ground simple FVPs to the close point of their
        last period closed by a ``maxDuration/2`` deadline. A deadline
        close, unlike an explicit termination, leaves no event behind:
        once the anchoring initiation is forgotten, an overlapping window
        would mistake the closed period's intermediate initiations for
        fresh anchors with later deadlines. Initiations at or before the
        barrier are ignored instead; the suppressed detections are final.
        Barriers are filtered against the window start whatever ``stream``
        holds, so a close stays in force equally long in both modes.

        ``merge_from`` is the previous query time: the detections at points
        up to and including it are final, so this window only contributes
        points in ``(merge_from, window_end]`` to the amalgamated result.

        ``cache`` selects what is remembered. ``None``: nothing — ``stream``
        holds (at least) the whole window and every fluent is derived from
        it (batch recognition, and every session advance that has no sound
        cache). A dict: the fluent store the previous advance returned
        (every derived FVP's maximal intervals, all at or before
        ``merge_from``), and ``stream`` holds only the events strictly after
        ``merge_from``. Old points are then *remembered*, not recomputed: each simple
        fluent's rules run over the new events alone — sound because
        sessions only remember when every rule is time-anchored
        (:meth:`delta_diagnostics`) — and their firing points, paired with
        the carried open initiations and barriers, *repair* the cached
        intervals; a statically determined fluent is recomputed only when a
        fluent it depends on changed this advance, the others keep their
        cached intervals, which are final. Full recomputation is this
        routine with nothing to remember, so what it adds to ``result`` is
        byte-equal either way (property-checked by the test suite).

        A delivered input fluent and a derivation of the same FVP both
        count: the FVP holds on the union of the two, for simple and
        statically determined fluents alike (DESIGN §5).

        ``shared`` maps ``(window start, window end, kb identity, definition
        key)`` to what that evaluation returned for an engine
        :func:`recognise_all` ran earlier in this window; a fluent found
        there is not evaluated again, and entries are never mutated.
        ``None`` (sessions, one engine): no key is computed.

        ``settled`` is the store the previous window returned, when ``stream``
        holds the whole window and the window starts before ``merge_from``
        (overlapping batch windows, or the last one, clamped to the stream
        end). Its points in the overlap are final and were derived from
        events this window has forgotten, so they seed the store as cached
        intervals do: a period closed inside the overlap whose initiation is
        forgotten is neither carried nor re-derived, and without it a
        condition over it (``not holdsAt``) would read it as not holding.

        Returns ``(open initiations, deadline barriers, fluent store)`` for
        the next window; the store holds every FVP's intervals before the
        ``merge_from`` clipping.
        """
        with telemetry.span(
            "rtec.window",
            mode="full" if cache is None else "delta",
            window_start=window_start,
            window_end=window_end,
            pending=len(pending),
        ) as sp:
            if sp.enabled:
                sp.set(
                    events=stream.count_in_window(window_start, window_end),
                    input_fluents=len(input_fluents),
                )
            store = FluentStore()
            delivered: Dict[Term, IntervalList] = {}
            for pair, intervals in input_fluents.items():
                clipped = intervals.restrict(window_start + 1, window_end)
                if clipped:
                    delivered[pair] = clipped
            #: What each FVP is known to hold on before any rule runs: its
            #: delivered intervals and, when remembering, its cached ones.
            known = delivered
            #: Fluents whose intervals differ from the cached ones (tracked
            #: only when something is cached; otherwise everything is derived).
            changed: Set[FluentKey] = set()
            dependencies: Dict[FluentKey, FrozenSet[FluentKey]] = {}
            if cache is not None:
                assert merge_from is not None
                dependencies = self.description.dependencies()
                for pair, intervals in delivered.items():
                    if intervals.span[1] > merge_from:
                        assert isinstance(pair, Compound)
                        changed.add(fluent_key(pair.args[0]))
            remembered = cache if cache is not None else settled
            if remembered is not None:
                known = dict(delivered)
                for pair, intervals in remembered.items():
                    clipped = intervals.restrict(window_start + 1, window_end)
                    if clipped:
                        prior = delivered.get(pair)
                        known[pair] = union_all([prior, clipped]) if prior else clipped
            for pair, intervals in known.items():
                store.set(pair, intervals)
            on_error = self.runtime_warnings.append if self.skip_errors else None
            max_duration_for = (
                self.description.max_duration_for if self.description.max_durations else None
            )
            carried = pending
            if include_initially:
                # An initially-declared FVP holds from time-point 0: an
                # initiation at -1 under (Ts, Te] semantics.
                carried = {**dict.fromkeys(self.description.initial_fvps, -1), **pending}
            carried_by_key = _by_fluent(carried)
            barriers_by_key = _by_fluent(barriers or {})
            next_pending: Dict[Term, int] = {}
            next_barriers: Dict[Term, int] = {}
            skipped_static = 0
            evaluate_simple, evaluate_static = evaluate_simple_fluent, evaluate_static_fluent
            if shared is not None:
                evaluate_simple, evaluate_static = self._sharing(shared, window_start, window_end)
            for key in self._order:
                if key in self.description.simple_fluents:
                    computed, opened, closed = evaluate_simple(
                        self.description.simple_fluents[key],
                        stream,
                        self.kb,
                        store,
                        window_start,
                        window_end,
                        carried_by_key.get(key, {}),
                        on_error=on_error,
                        max_duration_for=max_duration_for,
                        carried_barriers=barriers_by_key.get(key),
                    )
                    next_pending.update(opened)
                    next_barriers.update(closed)
                    dirty = bool(opened)
                    for pair, intervals in computed.items():
                        # A carried initiation may reach back before this window;
                        # points before it were already reported by earlier windows.
                        # Clip so that every fluent in this window's store covers the
                        # same range — statically determined fluents would otherwise
                        # combine intervals of inconsistent temporal scopes.
                        intervals = intervals.restrict(window_start + 1, window_end)
                        if not intervals:
                            continue
                        prior = known.get(pair)
                        if prior:
                            intervals = union_all([prior, intervals])
                            dirty = dirty or intervals != prior
                        else:
                            dirty = True
                        store.set(pair, intervals)
                    if dirty and cache is not None:
                        changed.add(key)
                else:
                    if cache is not None:
                        if not (dependencies.get(key, set()) & changed):
                            # No dependency changed: the cached intervals (already
                            # in the store) are final and contribute nothing new.
                            skipped_static += 1
                            continue
                        changed.add(key)
                    computed = evaluate_static(
                        self.description.static_fluents[key],
                        self.kb,
                        store,
                        on_error=on_error,
                    )
                    for pair, intervals in computed.items():
                        prior = delivered.get(pair)
                        store.set(pair, union_all([prior, intervals]) if prior else intervals)
            for pair, intervals in store.items():
                if merge_from is not None:
                    intervals = intervals.restrict(merge_from + 1, window_end)
                result.merge(pair, intervals)
            if sp.enabled:
                sp.count("stored_fvps", len(store))
                sp.count("carried_open", len(next_pending))
                sp.count("carried_barriers", len(next_barriers))
                if cache is not None:
                    sp.count("delta_events", len(stream))
                    sp.count("cached_fvps", len(cache))
                    sp.count("changed_keys", len(changed))
                    sp.count("skipped_static", skipped_static)
            return next_pending, next_barriers, store


def recognise_all(
    engines: Sequence[RTECEngine],
    stream: EventStream,
    input_fluents: Optional[InputFluents] = None,
    window: Optional[int] = None,
    step: Optional[int] = None,
) -> List[RecognitionResult]:
    """:meth:`RTECEngine.recognise` of each engine over one stream, in one
    walk of the window grid; each result is byte-equal to the engine's own run.

    The engines run in lockstep, in the given order. Within a window a
    fluent whose definition key (:meth:`EventDescription.definition_keys`)
    and kb equal those of a fluent an earlier engine evaluated without a
    runtime warning reuses that result, as RTEC reuses an FVP's cached
    intervals: Fig. 2c runs the gold and generated descriptions that restate
    most of it. With one engine nothing is keyed or shared.
    """
    results = [RecognitionResult() for _ in engines]
    if input_fluents is None:
        input_fluents = InputFluents()
    if len(stream) == 0 and len(input_fluents) == 0:
        return results
    start, end = RTECEngine._bounds(stream, input_fluents)
    if window is None:  # one window covering the whole stream
        window = step = end - start + 1
    elif window <= 0:
        raise ValueError("window size must be positive")
    step = window if step is None else step
    if step <= 0:
        raise ValueError("step must be positive")
    #: Per engine, the open initiations carried between windows (inertia
    #: survives forgetting), the maxDuration deadline barriers (a deadline
    #: close leaves no event to stop re-anchoring on later initiations) and,
    #: when the next window overlaps this one, this window's fluent store.
    carried: List[Tuple[Dict[Term, int], Dict[Term, int], Optional[FluentStore]]] = [
        ({}, {}, None) for _ in engines
    ]
    query_time = min(start - 1 + step, end)
    previous_query: Optional[int] = None
    first = True
    while True:
        shared: Optional[Dict[tuple, object]] = {} if len(engines) > 1 else None
        overlapped = query_time < end and min(query_time + step, end) - window < query_time
        for index, engine in enumerate(engines):
            pending, barriers, settled = carried[index]
            window_start = query_time - window
            if first and engine.description.initial_fvps:
                # initially/1 declarations are evaluated from the time
                # origin: the first window is extended to cover it.
                window_start = min(window_start, -1)
            pending, barriers, store = engine._process_window(
                stream, input_fluents, window_start, query_time, results[index],
                pending, barriers,
                # initially/1 declarations: injected once, then carried as pending.
                include_initially=first,
                # Results at or before the previous query time are final.
                merge_from=previous_query,
                shared=shared,
                settled=settled,
            )
            carried[index] = (pending, barriers, store if overlapped else None)
        first = False
        previous_query = query_time
        if query_time >= end:
            break
        # Clamp the final query time to the stream end so trailing open
        # intervals do not overshoot the data.
        query_time = min(query_time + step, end)
    return results
