"""Certification: two static properties the runtime can trust.

The serving tiers depend on two properties of a whole description:

* **delta safety** — whether every simple-fluent rule's firing points after
  a window boundary depend only on input newer than the boundary, the
  soundness condition of incremental (delta) window evaluation
  (:meth:`repro.rtec.engine.RTECEngine._process_window` with a cache);
* **memory boundedness** — whether every fluent's carried state (open
  initiations, cached maximal intervals) stays bounded across windows, the
  condition for hosting a session indefinitely without eviction pressure.

They are the analyser's last two passes, :func:`delta_pass` (RTEC025/026)
and :func:`memory_pass` (RTEC027/028). :func:`repro.analysis.analyzer.analyse`
runs them only when every earlier pass reported no error: the proofs assume
rules that compile and names that resolve. :func:`certify_description`
reads the verdicts off that one report into an :class:`AnalysisCertificate`.
Consumers: :meth:`repro.rtec.engine.RTECEngine.certificate` (a strict engine
builds its certificate from the report it is loaded with) and
``repro.serve`` session admission. ``RTECEngine.delta_diagnostics`` runs
the prover alone, on every engine, to choose the delta path.

Delta-safety prover
-------------------
:func:`prove_rule_delta_safety` works on *time-variable equality
classes*: a union-find over the rule's variables, seeded by every positive
``=:=`` comparison between two variables. A rule is certified delta-safe
when its head time is a variable in the same class as the seed occurrence
time and every other temporal condition's time term sits in that class.
This is sound because the delta stream contains *all* buffered events
strictly after the previous query time ``b``: a firing at head time
``T > b`` only consults events at times provably equal to ``T`` (hence
``> b``, hence in the delta) and fluent values from the repaired store,
which is exact over the whole window. Conversely a temporal condition at a
time *not* provably equal to the head time can pair an old seed event with
new input (or vice versa), which the delta pass never re-examines — so
such rules are reported (RTEC025/RTEC026) and sessions fall back to
full-window recomputation.

Memory-boundedness analysis
---------------------------
For every *reachable* initiated value ``v`` of a simple fluent, a
termination mechanism must exist: a live ``terminatedAt`` rule whose head
value covers ``v``, a matching ``maxDuration`` deadline, or another
reachable initiated value (RTEC value exclusivity: initiating ``F=V'``
terminates ``F=V``). Unlike the syntactic RTEC010 check this is
reachability- and liveness-aware: a termination rule that can never fire
(a positive reference to a value nothing produces) does not count, and an
alternative value only counts when it is actually derivable from the
inputs. Fluents failing the check are *leaky* (RTEC027); leakiness then
propagates through the interval algebra of statically determined fluents
by abstract interpretation (RTEC028): ``union_all`` is leaky when any
input is, ``intersect_all`` only when all inputs are,
``relative_complement_all`` follows its first operand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.passes import AnalysisContext
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import LIST_FUNCTOR, Rule
from repro.logic.pretty import term_to_str
from repro.logic.terms import Compound, Term, Variable, is_ground
from repro.logic.unification import unify
from repro.rtec.description import (
    INTERVAL_CONSTRUCTS,
    EventDescription,
    FluentKey,
    Vocabulary,
    fluent_key,
    head_fvp,
)
from repro.rtec.errors import EvaluationError

__all__ = [
    "AnalysisCertificate",
    "certify_description",
    "delta_pass",
    "memory_pass",
    "prove_rule_delta_safety",
]

#: Marker for an initiated value the analysis cannot enumerate (a rule head
#: with a variable value: the domain is open).
_OPEN_VALUE = "*"


# ---------------------------------------------------------------------------
# Delta-safety prover
# ---------------------------------------------------------------------------


class _TimeClasses:
    """Union-find over a rule's variables, seeded by positive ``=:=``."""

    def __init__(self, rule: Rule) -> None:
        self._parent: Dict[Variable, Variable] = {}
        for literal in rule.body:
            term = literal.term
            if (
                not literal.negated
                and isinstance(term, Compound)
                and term.functor == "=:="
                and term.arity == 2
            ):
                left, right = term.args
                if isinstance(left, Variable) and isinstance(right, Variable):
                    self._union(left, right)

    def _find(self, variable: Variable) -> Variable:
        parent = self._parent
        root = variable
        while parent.get(root, root) is not root:
            root = parent[root]
        while parent.get(variable, variable) is not variable:
            parent[variable], variable = root, parent[variable]
        return root

    def _union(self, left: Variable, right: Variable) -> None:
        root_left, root_right = self._find(left), self._find(right)
        if root_left is not root_right:
            self._parent[root_left] = root_right

    def same(self, left: Term, right: Term) -> bool:
        if not isinstance(left, Variable) or not isinstance(right, Variable):
            return False
        return left == right or self._find(left) == self._find(right)


@dataclass(frozen=True)
class _DeltaProblem:
    """One reason a rule is not delta-safe."""

    #: ``"delta-unsafe-head"`` (RTEC026) or ``"delta-unsafe-condition"`` (RTEC025).
    category: str
    message: str
    condition_index: Optional[int] = None


def prove_rule_delta_safety(rule: Rule) -> Tuple[bool, List[_DeltaProblem]]:
    """Certify one ``initiatedAt``/``terminatedAt`` rule as delta-safe.

    Returns ``(safe, problems)``; ``problems`` is empty exactly when the
    rule is safe. See the module docstring for the soundness argument:
    besides conditions that reuse the head time variable verbatim, the
    prover accepts times provably equal to it through positive ``=:=``
    chains.
    """
    from repro.rtec.compile import rule_shape

    try:
        _head_pair, head_time, _seed_event, seed_time = rule_shape(rule)
    except EvaluationError as exc:
        return False, [
            _DeltaProblem(
                "delta-unsafe-head",
                "rule %s does not compile (%s): its window advances cannot "
                "be classified, forcing full recomputation"
                % (term_to_str(rule.head), exc),
            )
        ]
    problems: List[_DeltaProblem] = []
    classes = _TimeClasses(rule)
    if not isinstance(head_time, Variable):
        problems.append(
            _DeltaProblem(
                "delta-unsafe-head",
                "head time %s of rule %s is not a variable: the rule pins "
                "its firings to a fixed time-point, which incremental "
                "evaluation cannot bound" % (term_to_str(head_time), term_to_str(rule.head)),
            )
        )
        return False, problems
    if not classes.same(seed_time, head_time):
        problems.append(
            _DeltaProblem(
                "delta-unsafe-head",
                "seed occurrence time %s of rule %s is not provably equal "
                "to the head time %s; add %s =:= %s (or reuse the head time "
                "variable) so delta evaluation can re-seed the rule from "
                "new events only"
                % (
                    term_to_str(seed_time),
                    term_to_str(rule.head),
                    head_time.name,
                    term_to_str(seed_time),
                    head_time.name,
                ),
                condition_index=0,
            )
        )
    for index, literal in enumerate(rule.body):
        if index == 0:
            continue
        term = literal.term
        if not (
            isinstance(term, Compound)
            and term.functor in ("happensAt", "holdsAt")
            and term.arity == 2
        ):
            continue
        time_term = term.args[1]
        if classes.same(time_term, head_time):
            continue
        if isinstance(time_term, Variable):
            suggestion = (
                "anchor it at the head time (reuse %s, or add %s =:= %s)"
                % (head_time.name, time_term.name, head_time.name)
            )
        else:
            suggestion = "replace the fixed time %s with the head time %s" % (
                term_to_str(time_term),
                head_time.name,
            )
        problems.append(
            _DeltaProblem(
                "delta-unsafe-condition",
                "condition %s of rule %s is not anchored at the head time "
                "%s: under incremental evaluation it can reach back before "
                "the previous query time, where events have left the delta "
                "stream; %s"
                % (
                    term_to_str(term),
                    term_to_str(rule.head),
                    head_time.name,
                    suggestion,
                ),
                condition_index=index,
            )
        )
    return not problems, problems


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------

_DELTA_CATEGORIES = frozenset({"delta-unsafe-condition", "delta-unsafe-head"})
_LEAK_CATEGORIES = frozenset({"leaky-fluent", "leaky-interval-flow"})

#: Both leak messages name the leaking value as ``fluent <name/arity>=<value>``
#: followed by their verb (see :func:`_memory_analysis`, :func:`_propagate_leaks`).
_LEAKED_VALUE = re.compile(
    r"(?:simple|statically determined) fluent (.+?) (?:has no live|derives its)"
)


@dataclass(frozen=True)
class AnalysisCertificate:
    """What certification proved about one event description.

    ``diagnostics`` carries only the certification codes (RTEC025–RTEC028);
    the rest of the same report decides ``certified`` and is what
    ``repro lint`` prints besides them.
    """

    #: The analysis found no error-severity diagnostic, so both
    #: certification passes ran.
    certified: bool
    #: Every simple-fluent rule is provably safe for delta evaluation.
    delta_safe: bool
    #: Every reachable initiated value has a termination mechanism and no
    #: static fluent inherits unbounded intervals.
    memory_bounded: bool
    #: ``"name/arity=value"`` descriptors of the leaky fluent values.
    leaky_fluents: Tuple[str, ...] = ()
    diagnostics: Tuple[Diagnostic, ...] = ()

    @classmethod
    def from_report(cls, report: LintReport) -> "AnalysisCertificate":
        """The verdicts of one :func:`~repro.analysis.analyzer.analyse` report."""
        certified = not report.has_errors
        unsafe = [d for d in report.diagnostics if d.category in _DELTA_CATEGORIES]
        leaks = [d for d in report.diagnostics if d.category in _LEAK_CATEGORIES]
        leaky_fluents: List[str] = []
        for diagnostic in leaks:
            match = _LEAKED_VALUE.match(diagnostic.message)
            assert match is not None, diagnostic.message
            leaky_fluents.append(match.group(1))
        return cls(
            certified=certified,
            delta_safe=certified and not unsafe,
            memory_bounded=certified and not leaks,
            leaky_fluents=tuple(sorted(leaky_fluents)),
            diagnostics=tuple(unsafe + leaks),
        )

    def report(
        self,
        source: Optional[str] = None,
        rule_lines: Optional[Sequence[int]] = None,
    ) -> LintReport:
        """The certification diagnostics as a lint report (text/JSON/SARIF)."""
        return LintReport(list(self.diagnostics), source=source, rule_lines=rule_lines)


# ---------------------------------------------------------------------------
# Memory-boundedness analysis
# ---------------------------------------------------------------------------


def _key_name(key: FluentKey) -> str:
    return "%s/%d" % key


def _value_name(value: Optional[Term]) -> str:
    return _OPEN_VALUE if value is None else term_to_str(value)


def _value_matches(pattern: Term, value: Optional[Term]) -> bool:
    """Whether a termination/maxDuration value pattern covers ``value``
    (``None`` = an open initiated value: only a variable pattern covers it)."""
    if not is_ground(pattern):
        return True
    if value is None:
        return False
    return unify(pattern, value) is not None


def _reachable_value(
    reach: Optional[Set[Term]], value: Optional[Term]
) -> bool:
    """Whether an initiated value is reachable under the per-key value set
    (``None`` set = open domain: everything reachable)."""
    if reach is None:
        return True
    if not reach:
        return False
    if value is None or not is_ground(value):
        return True
    return value in reach


def _memory_analysis(
    description: EventDescription,
    reachable: Mapping[FluentKey, Optional[Set[Term]]],
    dead_rules: Set[int],
    diagnostics: List[Diagnostic],
) -> Dict[FluentKey, Set[str]]:
    """RTEC027: leaky simple-fluent values, keyed by fluent key.

    The returned sets hold rendered value names (``"*"`` for open values);
    a non-empty map means the description is not memory-bounded.
    """
    rule_index_of = {id(rule): index for index, rule in enumerate(description.rules)}
    leaky: Dict[FluentKey, Set[str]] = {}

    max_durations: Dict[FluentKey, List[Term]] = {}
    for pattern, _duration in description.max_durations:
        if isinstance(pattern, Compound) and pattern.arity == 2:
            try:
                max_durations.setdefault(
                    fluent_key(pattern.args[0]), []
                ).append(pattern.args[1])
            except ValueError:
                continue

    initially_values: Dict[FluentKey, List[Term]] = {}
    for pair in description.initial_fvps:
        if isinstance(pair, Compound) and pair.arity == 2:
            try:
                initially_values.setdefault(
                    fluent_key(pair.args[0]), []
                ).append(pair.args[1])
            except ValueError:
                continue

    for key, definition in sorted(description.simple_fluents.items()):
        reach = reachable.get(key)
        if reach is not None and not reach:
            continue  # unreachable fluent: RTEC022 territory, nothing leaks

        # Live initiations: (value or None for open, anchoring rule index).
        initiated: List[Tuple[Optional[Term], Optional[int]]] = []
        for rule in definition.initiated_rules:
            index = rule_index_of.get(id(rule))
            if index is not None and index in dead_rules:
                continue
            try:
                _fluent, value = head_fvp(rule)
            except ValueError:
                continue
            initiated.append((value if is_ground(value) else None, index))
        for value in initially_values.get(key, []):
            initiated.append((value if is_ground(value) else None, None))

        live_terminated_values: List[Term] = []
        for rule in definition.terminated_rules:
            index = rule_index_of.get(id(rule))
            if index is not None and index in dead_rules:
                continue
            try:
                _fluent, value = head_fvp(rule)
            except ValueError:
                continue
            live_terminated_values.append(value)

        exclusivity_pool = {
            value
            for value, _index in initiated
            if value is not None and _reachable_value(reach, value)
        }

        for value, anchor_index in initiated:
            if not _reachable_value(reach, value):
                continue
            name = _value_name(value)
            if name in leaky.get(key, set()):
                continue
            if any(_value_matches(tv, value) for tv in live_terminated_values):
                continue
            if any(_value_matches(dv, value) for dv in max_durations.get(key, [])):
                continue
            if value is not None and any(
                other != value for other in exclusivity_pool
            ):
                continue  # value exclusivity displaces it
            leaky.setdefault(key, set()).add(name)
            diagnostics.append(
                Diagnostic(
                    "leaky-fluent",
                    "simple fluent %s=%s has no live termination mechanism: "
                    "no reachable terminatedAt rule covers the value, no "
                    "maxDuration deadline applies, and no other reachable "
                    "value can displace it — once initiated its state is "
                    "carried across windows forever"
                    % (_key_name(key), name),
                    rule_index=anchor_index,
                )
            )
    return leaky


def _fluent_value_leaky(
    key: FluentKey, value: Term, leaky: Mapping[FluentKey, Set[str]]
) -> bool:
    names = leaky.get(key)
    if not names:
        return False
    if _OPEN_VALUE in names:
        return True
    if is_ground(value):
        return term_to_str(value) in names
    return True  # a variable value can bind to any leaky instance


def _propagate_leaks(
    description: EventDescription,
    leaky: Dict[FluentKey, Set[str]],
    diagnostics: List[Diagnostic],
) -> None:
    """RTEC028: abstract interpretation of the interval operators.

    Walks the statically determined fluents bottom-up (the dependency
    order certification already validated) propagating a one-bit "leaky"
    abstract value through interval variables.
    """
    rule_index_of = {id(rule): index for index, rule in enumerate(description.rules)}
    try:
        order = description.topological_order()
    except Exception:  # pragma: no cover - cycles are base-analysis errors
        order = list(description.static_fluents)
    for key in order:
        definition = description.static_fluents.get(key)
        if definition is None:
            continue
        for rule in definition.rules:
            env: Dict[Variable, bool] = {}
            sources: Dict[Variable, str] = {}

            def _list_inputs(term: Term) -> List[Variable]:
                if isinstance(term, Compound) and term.functor == LIST_FUNCTOR:
                    return [arg for arg in term.args if isinstance(arg, Variable)]
                return []

            for literal in rule.body:
                term = literal.term
                if not isinstance(term, Compound):
                    continue
                if term.functor == "holdsFor" and term.arity == 2:
                    pair, out = term.args
                    if not (isinstance(out, Variable) and isinstance(pair, Compound)):
                        continue
                    if pair.functor != "=" or pair.arity != 2:
                        continue
                    try:
                        cond_key = fluent_key(pair.args[0])
                    except ValueError:
                        continue
                    if _fluent_value_leaky(cond_key, pair.args[1], leaky):
                        env[out] = True
                        sources[out] = _key_name(cond_key)
                elif term.functor in INTERVAL_CONSTRUCTS:
                    out_term = term.args[-1]
                    if not isinstance(out_term, Variable):
                        continue
                    if term.functor == "union_all":
                        inputs = _list_inputs(term.args[0])
                        flows = any(env.get(var, False) for var in inputs)
                    elif term.functor == "intersect_all":
                        inputs = _list_inputs(term.args[0])
                        flows = bool(inputs) and all(
                            env.get(var, False) for var in inputs
                        )
                    else:  # relative_complement_all(I', L, I)
                        base = term.args[0]
                        inputs = [base] if isinstance(base, Variable) else []
                        flows = any(env.get(var, False) for var in inputs)
                    if flows:
                        env[out_term] = True
                        for var in inputs:
                            if env.get(var, False) and var in sources:
                                sources[out_term] = sources[var]
                                break
            head = rule.head
            if not (isinstance(head, Compound) and head.arity == 2):
                continue
            head_interval = head.args[1]
            if isinstance(head_interval, Variable) and env.get(head_interval, False):
                try:
                    _fluent, head_value = head_fvp(rule)
                except ValueError:
                    head_value = None
                name = _value_name(
                    head_value if head_value is not None and is_ground(head_value) else None
                )
                if name in leaky.get(key, set()):
                    continue
                leaky.setdefault(key, set()).add(name)
                diagnostics.append(
                    Diagnostic(
                        "leaky-interval-flow",
                        "statically determined fluent %s=%s derives its "
                        "intervals from leaky fluent %s: its cached state "
                        "inherits the unbounded growth"
                        % (
                            _key_name(key),
                            name,
                            sources.get(head_interval, "an upstream fluent"),
                        ),
                        rule_index=rule_index_of.get(id(rule)),
                    )
                )


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------


def delta_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    """RTEC025/RTEC026: the delta-safety prover over every simple-fluent rule."""
    description = ctx.description
    rule_index_of = {id(rule): index for index, rule in enumerate(description.rules)}
    diagnostics: List[Diagnostic] = []
    for _key, definition in sorted(description.simple_fluents.items()):
        for rule in definition.initiated_rules + definition.terminated_rules:
            _safe, problems = prove_rule_delta_safety(rule)
            diagnostics.extend(
                Diagnostic(
                    problem.category,
                    problem.message,
                    rule_index=rule_index_of.get(id(rule)),
                    condition_index=problem.condition_index,
                )
                for problem in problems
            )
    return diagnostics


def memory_pass(ctx: AnalysisContext) -> List[Diagnostic]:
    """RTEC027/RTEC028 over the liveness facts ``semantic_pass`` left in ``ctx``."""
    facts = ctx.semantics
    assert facts is not None, "memory_pass runs after semantic_pass"
    reachable: Mapping[FluentKey, Optional[Set[Term]]] = (
        facts.reachable_values if facts.reachable_values is not None else facts.producible
    )
    diagnostics: List[Diagnostic] = []
    leaky = _memory_analysis(ctx.description, reachable, facts.dead_rules, diagnostics)
    _propagate_leaks(ctx.description, leaky, diagnostics)
    return diagnostics


def certify_description(
    description: EventDescription,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    outputs: Optional[Sequence[str]] = None,
) -> AnalysisCertificate:
    """Analyse ``description`` once and read its certificate off the report.

    A description whose report has an error (syntax, malformed rules,
    unbound variables, cycles, ...) is not certified and claims neither
    property. ``vocabulary`` sharpens the memory-boundedness analysis with
    input-reachability (without it the analysis falls back to the
    producible-value domains).
    """
    from repro.analysis.analyzer import analyse

    return AnalysisCertificate.from_report(
        analyse(description, vocabulary, kb=kb, outputs=outputs)
    )
