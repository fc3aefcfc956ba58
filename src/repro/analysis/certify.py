"""Whole-description certification: static properties the runtime can trust.

The serving tiers depend on three properties that were previously discovered
at run time, per window, or not at all:

* **delta safety** — whether every simple-fluent rule's firing points after
  a window boundary depend only on input newer than the boundary, the
  soundness condition of incremental (delta) window evaluation
  (:meth:`repro.rtec.engine.RTECEngine._process_window` with a cache);
* **memory boundedness** — whether every fluent's carried state (open
  initiations, cached maximal intervals) stays bounded across windows, the
  condition for hosting a session indefinitely without eviction pressure;
* **static cost** — a per-rule estimate of evaluation cost, available
  before any telemetry exists.

:func:`certify_description` composes the existing passes (structural
analysis, binding dataflow, value-interval semantics, reachability) with
three new interprocedural analyses proving these properties, and emits a
signed, JSON-serialisable :class:`AnalysisCertificate` bound to the
description's content hash. Consumers: ``RTECEngine``/``RTECSession``
(delta-path gating) and ``repro.serve`` session admission, whose
``status`` reports the cost as ``cost_weight``.

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
(contradictory comparisons, impossible value references, dead
terminations) does not count, and an alternative value only counts when it
is actually derivable from the inputs. Fluents failing the check are
*leaky* (RTEC027); leakiness then propagates through the interval algebra
of statically determined fluents by abstract interpretation (RTEC028):
``union_all`` is leaky when any input is, ``intersect_all`` only when all
inputs are, ``relative_complement_all`` follows its first operand.

Static cost model
-----------------
Per rule, the body is walked left-to-right evolving the bound-variable set;
each condition's class (:func:`condition_class`) contributes the class's
default expansion factor (:data:`DEFAULT_EXPANSIONS`), and the rule cost is the
total number of partial solutions flowing through the body. Rules whose
temporal conditions are unanchored additionally scan the whole window
(cost scales with omega, not with the delta) and get a window-sensitivity
multiplier; rules joining several entity variables get a multiplicity
factor. The per-fluent sums are emitted as machine-readable weights
(``fluent_costs`` / ``total_cost``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import LIST_FUNCTOR, Literal, ParseError, Rule, clause_lines
from repro.logic.pretty import term_to_str
from repro.logic.terms import Compound, Term, Variable, is_ground, term_variables
from repro.logic.unification import unify
from repro.rtec.builtins import is_comparison
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
    "RuleCertificate",
    "certify_description",
    "certify_text",
    "description_digest",
    "prove_rule_delta_safety",
]

#: Cost multiplier for rules whose temporal conditions scan the whole
#: window instead of a single anchored time-point.
WINDOW_SENSITIVITY_MULTIPLIER = 4.0

#: Rule-cost threshold above which an informational RTEC029 is emitted.
COSTLY_RULE_THRESHOLD = 32.0

#: Number of enumerating stream joins that makes a rule "costly" outright.
COSTLY_JOIN_COUNT = 3

#: Marker for an initiated value the analysis cannot enumerate (a rule head
#: with a variable value: the domain is open).
_OPEN_VALUE = "*"

_SEVERITIES: Dict[str, Severity] = {str(severity): severity for severity in Severity}


def description_digest(description: EventDescription) -> str:
    """Content hash binding a certificate to one event description.

    The same digest the serve tier's checkpoints use
    (:func:`repro.serve.checkpoint.description_hash`), duplicated here so
    the analysis layer stays import-independent of the serving layer.
    """
    return hashlib.sha256(description.to_text().encode()).hexdigest()


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


@dataclass(frozen=True)
class RuleCertificate:
    """The certified static properties of one defining rule."""

    #: Index into ``description.rules`` (None when the rule is not listed).
    rule_index: Optional[int]
    #: ``"name/arity"`` of the defined fluent.
    fluent: str
    #: ``"initiatedAt"`` / ``"terminatedAt"`` / ``"holdsFor"``.
    kind: str
    #: Rendered rule head, for human-readable reports.
    head: str
    delta_safe: bool
    #: Static cost estimate (partial solutions flowing through the body,
    #: window-sensitivity and entity-multiplicity factors applied).
    cost: float
    #: The rule's cost scales with the window extent, not the delta.
    window_sensitive: bool
    #: Entity variables joining at least two stream occurrences.
    entity_variables: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_index": self.rule_index,
            "fluent": self.fluent,
            "kind": self.kind,
            "head": self.head,
            "delta_safe": self.delta_safe,
            "cost": self.cost,
            "window_sensitive": self.window_sensitive,
            "entity_variables": self.entity_variables,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RuleCertificate":
        return cls(
            rule_index=data.get("rule_index"),
            fluent=str(data["fluent"]),
            kind=str(data["kind"]),
            head=str(data["head"]),
            delta_safe=bool(data["delta_safe"]),
            cost=float(data["cost"]),
            window_sensitive=bool(data["window_sensitive"]),
            entity_variables=int(data["entity_variables"]),
        )


@dataclass
class AnalysisCertificate:
    """The signed result of certifying one event description.

    ``diagnostics`` carries only the certification layer's codes
    (RTEC025–RTEC030); the base analyser's findings gate certification
    (``certified``) but are reported by ``repro lint``, not duplicated
    here. The ``signature`` is a SHA-256 over the canonical JSON payload —
    tamper-evidence for certificates persisted next to checkpoints, not a
    cryptographic authenticity claim.
    """

    description_hash: str
    #: The base analysis found no error-severity diagnostics and every
    #: certification pass ran to completion.
    certified: bool
    #: Every simple-fluent rule is provably safe for delta evaluation.
    delta_safe: bool
    #: Every reachable initiated value has a termination mechanism and no
    #: static fluent inherits unbounded intervals.
    memory_bounded: bool
    #: ``"name/arity=value"`` descriptors of the leaky fluent values.
    leaky_fluents: Tuple[str, ...] = ()
    rules: Tuple[RuleCertificate, ...] = ()
    #: Per-fluent static cost weights, keyed ``"name/arity"``.
    fluent_costs: Dict[str, float] = field(default_factory=dict)
    total_cost: float = 0.0
    diagnostics: Tuple[Diagnostic, ...] = ()
    signature: str = ""

    # -- integrity ---------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Everything the signature covers, as a JSON-able dict."""
        return {
            "description_hash": self.description_hash,
            "certified": self.certified,
            "delta_safe": self.delta_safe,
            "memory_bounded": self.memory_bounded,
            "leaky_fluents": list(self.leaky_fluents),
            "rules": [rule.to_dict() for rule in self.rules],
            "fluent_costs": dict(sorted(self.fluent_costs.items())),
            "total_cost": self.total_cost,
            "diagnostics": [diagnostic.to_dict() for diagnostic in self.diagnostics],
        }

    def compute_signature(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def sign(self) -> "AnalysisCertificate":
        self.signature = self.compute_signature()
        return self

    def verify(self, description: Optional[EventDescription] = None) -> bool:
        """Whether the signature matches the payload (and, when given, the
        certificate was issued for exactly ``description``)."""
        if self.signature != self.compute_signature():
            return False
        if description is not None:
            return self.description_hash == description_digest(description)
        return True

    # -- consumption -------------------------------------------------------

    def delta_messages(self) -> List[str]:
        """Why delta evaluation is unsafe, one message per unsafe rule;
        empty exactly when ``delta_safe`` (the
        ``RTECEngine.delta_diagnostics`` contract)."""
        return [
            "%s: rule %s is not delta-safe (a temporal condition can reach "
            "back before the previous query time)" % (rule.fluent, rule.head)
            for rule in self.rules
            if not rule.delta_safe
        ]

    def report(
        self,
        source: Optional[str] = None,
        rule_lines: Optional[Sequence[int]] = None,
    ) -> LintReport:
        """The certification diagnostics as a lint report (text/JSON/SARIF)."""
        return LintReport(list(self.diagnostics), source=source, rule_lines=rule_lines)

    def summary(self) -> str:
        verdicts = [
            "certified" if self.certified else "NOT certified",
            "delta-safe" if self.delta_safe else "delta-UNSAFE",
            "memory-bounded" if self.memory_bounded else "LEAKY",
        ]
        return "%s | rules: %d | total cost: %.2f" % (
            ", ".join(verdicts),
            len(self.rules),
            self.total_cost,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = self.payload()
        data["signature"] = self.signature
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisCertificate":
        diagnostics = tuple(
            Diagnostic(
                category=str(entry["category"]),
                message=str(entry["message"]),
                rule_index=entry.get("rule_index"),
                condition_index=entry.get("condition_index"),
                code=str(entry.get("code", "")),
                severity=_SEVERITIES.get(str(entry.get("severity", ""))),
            )
            for entry in data.get("diagnostics", [])
        )
        return cls(
            description_hash=str(data["description_hash"]),
            certified=bool(data["certified"]),
            delta_safe=bool(data["delta_safe"]),
            memory_bounded=bool(data["memory_bounded"]),
            leaky_fluents=tuple(str(item) for item in data.get("leaky_fluents", [])),
            rules=tuple(
                RuleCertificate.from_dict(entry) for entry in data.get("rules", [])
            ),
            fluent_costs={
                str(key): float(value)
                for key, value in data.get("fluent_costs", {}).items()
            },
            total_cost=float(data.get("total_cost", 0.0)),
            diagnostics=diagnostics,
            signature=str(data.get("signature", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisCertificate":
        return cls.from_dict(json.loads(text))


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
# Static cost model
# ---------------------------------------------------------------------------

#: Expansion factor per condition class: the partial solutions a condition
#: of that class hands on per one it receives — below 1 the class filters,
#: above 1 it fans out. A static prior, ordered comparisons before background
#: lookups before fluent queries before stream joins; the classes are the
#: ones the evaluator counts as ``cond.<class>.eval`` / ``.sol``.
DEFAULT_EXPANSIONS: Dict[str, float] = {
    "compare": 0.40,
    "background.neg": 0.60,
    "background": 0.80,
    "holdsat.ground": 0.90,
    "happensat.neg": 0.95,
    "happensat": 2.00,
    "holdsat.enum": 3.00,
}


def condition_class(literal: Literal, bound: Set[Variable]) -> str:
    """The cost class of one body condition given the bound variables."""
    term = literal.term
    if is_comparison(term):
        return "compare"
    if isinstance(term, Compound) and term.functor == "holdsAt" and term.arity == 2:
        if set(term_variables(term)) <= bound:
            return "holdsat.ground"
        return "holdsat.enum"
    if isinstance(term, Compound) and term.functor == "happensAt" and term.arity == 2:
        return "happensat.neg" if literal.negated else "happensat"
    return "background.neg" if literal.negated else "background"


#: Expansion factors of holdsFor-body condition shapes (the simple-rule
#: shapes use :data:`DEFAULT_EXPANSIONS` through :func:`condition_class`).
_STATIC_GROUND_EXPANSION = DEFAULT_EXPANSIONS["holdsat.ground"]
_STATIC_ENUM_EXPANSION = DEFAULT_EXPANSIONS["holdsat.enum"]
_STATIC_BACKGROUND_EXPANSION = DEFAULT_EXPANSIONS["background"]


def _entity_variable_count(rule: Rule) -> int:
    from repro.rtec.partition import _entity_vars_of, _stream_occurrences

    occurrences, problem = _stream_occurrences(rule)
    if occurrences is None or problem is not None:
        return 0
    return len(_entity_vars_of(occurrences))


def _simple_rule_cost(rule: Rule, window_sensitive: bool) -> Tuple[float, int]:
    """(cost, enumerating stream joins) of one initiated/terminated rule."""
    bound: Set[Variable] = set(term_variables(rule.body[0].term))
    size = 1.0
    total = 1.0  # the seed scan itself
    joins = 0
    for literal in rule.body[1:]:
        cls = condition_class(literal, bound)
        total += size
        size *= DEFAULT_EXPANSIONS.get(cls, 1.0)
        if cls in ("happensat", "holdsat.enum"):
            joins += 1
        if not literal.negated:
            bound |= set(term_variables(literal.term))
    if window_sensitive:
        total *= WINDOW_SENSITIVITY_MULTIPLIER
    total *= max(1.0, float(_entity_variable_count(rule)))
    return total, joins


def _static_rule_cost(rule: Rule) -> float:
    bound: Set[Variable] = set()
    size = 1.0
    total = 0.0
    for literal in rule.body:
        term = literal.term
        total += size
        if isinstance(term, Compound) and term.functor == "holdsFor" and term.arity == 2:
            entity_vars = set(term_variables(term.args[0]))
            if entity_vars - bound:
                size *= _STATIC_ENUM_EXPANSION  # seed-pass enumeration
            else:
                size *= _STATIC_GROUND_EXPANSION  # entity already bound: lookup
            bound |= entity_vars
        elif isinstance(term, Compound) and term.functor in INTERVAL_CONSTRUCTS:
            pass  # linear sweep over already-bound interval lists
        else:
            size *= _STATIC_BACKGROUND_EXPANSION
            bound |= set(term_variables(term))
    total *= max(1.0, float(_entity_variable_count(rule)))
    return total


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def certify_description(
    description: EventDescription,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    outputs: Optional[Sequence[str]] = None,
) -> AnalysisCertificate:
    """Certify ``description``; always returns a (signed) certificate.

    A description whose base analysis reports error-severity diagnostics
    (syntax, malformed rules, unbound variables, cycles, ...) is
    *uncertifiable*: the certificate carries a single RTEC030 and claims
    none of the three properties. ``vocabulary`` sharpens the
    memory-boundedness analysis with input-reachability (without it the
    analysis falls back to the producible-value domains).
    """
    from repro.analysis.analyzer import analyse
    from repro.analysis.semantics import analyse_semantics

    digest = description_digest(description)
    base = analyse(description, vocabulary, kb=kb, outputs=outputs)
    if base.has_errors:
        diagnostic = Diagnostic(
            "uncertifiable",
            "the base analysis reports %d error(s) (%s): no delta-safety, "
            "memory-boundedness or cost guarantees can be attached until "
            "they are fixed"
            % (
                len(base.errors),
                ", ".join(
                    sorted({error.code for error in base.errors})
                ),
            ),
        )
        return AnalysisCertificate(
            description_hash=digest,
            certified=False,
            delta_safe=False,
            memory_bounded=False,
            diagnostics=(diagnostic,),
        ).sign()

    diagnostics: List[Diagnostic] = []
    rule_index_of = {id(rule): index for index, rule in enumerate(description.rules)}

    # 1. Delta-safety prover over every simple-fluent rule.
    rule_certificates: List[RuleCertificate] = []
    fluent_costs: Dict[str, float] = {}
    delta_safe = True
    for key, definition in sorted(description.simple_fluents.items()):
        for kind, rules in (
            ("initiatedAt", definition.initiated_rules),
            ("terminatedAt", definition.terminated_rules),
        ):
            for rule in rules:
                safe, problems = prove_rule_delta_safety(rule)
                for problem in problems:
                    diagnostics.append(
                        Diagnostic(
                            problem.category,
                            problem.message,
                            rule_index=rule_index_of.get(id(rule)),
                            condition_index=problem.condition_index,
                        )
                    )
                delta_safe &= safe
                cost, joins = _simple_rule_cost(rule, window_sensitive=not safe)
                certificate = RuleCertificate(
                    rule_index=rule_index_of.get(id(rule)),
                    fluent=_key_name(key),
                    kind=kind,
                    head=term_to_str(rule.head),
                    delta_safe=safe,
                    cost=round(cost, 4),
                    window_sensitive=not safe,
                    entity_variables=_entity_variable_count(rule),
                )
                rule_certificates.append(certificate)
                fluent_costs[_key_name(key)] = (
                    fluent_costs.get(_key_name(key), 0.0) + certificate.cost
                )
                if joins >= COSTLY_JOIN_COUNT or cost >= COSTLY_RULE_THRESHOLD:
                    diagnostics.append(
                        Diagnostic(
                            "costly-rule",
                            "rule %s has an estimated static cost of %.2f "
                            "(%d enumerating stream joins%s)"
                            % (
                                term_to_str(rule.head),
                                cost,
                                joins,
                                ", window-sensitive" if not safe else "",
                            ),
                            rule_index=rule_index_of.get(id(rule)),
                        )
                    )

    for key, static_definition in sorted(description.static_fluents.items()):
        for rule in static_definition.rules:
            cost = _static_rule_cost(rule)
            certificate = RuleCertificate(
                rule_index=rule_index_of.get(id(rule)),
                fluent=_key_name(key),
                kind="holdsFor",
                head=term_to_str(rule.head),
                delta_safe=True,  # interval constructs are pointwise in time
                cost=round(cost, 4),
                window_sensitive=False,
                entity_variables=_entity_variable_count(rule),
            )
            rule_certificates.append(certificate)
            fluent_costs[_key_name(key)] = (
                fluent_costs.get(_key_name(key), 0.0) + certificate.cost
            )
            if cost >= COSTLY_RULE_THRESHOLD:
                diagnostics.append(
                    Diagnostic(
                        "costly-rule",
                        "holdsFor rule %s has an estimated static cost of %.2f"
                        % (term_to_str(rule.head), cost),
                        rule_index=rule_index_of.get(id(rule)),
                    )
                )

    # 2. Memory-boundedness: liveness facts, then the leak analysis.
    semantics = analyse_semantics(
        description,
        vocabulary,
        kb=kb,
        outputs=set(outputs) if outputs is not None else None,
    )
    dead_rules: Set[int] = set(semantics.dead_terminations)
    for index, facts in semantics.rule_facts.items():
        if facts.never_fires:
            dead_rules.add(index)
    reachable: Mapping[FluentKey, Optional[Set[Term]]] = (
        semantics.reachable_values
        if semantics.reachable_values is not None
        else semantics.producible
    )
    leaky = _memory_analysis(description, reachable, dead_rules, diagnostics)
    _propagate_leaks(description, leaky, diagnostics)
    leaky_fluents = tuple(
        sorted(
            "%s=%s" % (_key_name(key), name)
            for key, names in leaky.items()
            for name in names
        )
    )

    return AnalysisCertificate(
        description_hash=digest,
        certified=True,
        delta_safe=delta_safe,
        memory_bounded=not leaky,
        leaky_fluents=leaky_fluents,
        rules=tuple(rule_certificates),
        fluent_costs={key: round(value, 4) for key, value in fluent_costs.items()},
        total_cost=round(sum(fluent_costs.values()), 4),
        diagnostics=tuple(diagnostics),
    ).sign()


def certify_text(
    text: str,
    vocabulary: Optional[Vocabulary] = None,
    kb: Optional[KnowledgeBase] = None,
    outputs: Optional[Sequence[str]] = None,
) -> Tuple[AnalysisCertificate, Optional[List[int]]]:
    """Parse and certify; returns ``(certificate, rule source lines)``.

    A parse failure yields an uncertifiable certificate (RTEC030) instead
    of raising, mirroring :func:`repro.analysis.analyzer.analyse_text`.
    """
    try:
        description = EventDescription.from_text(text)
    except ParseError as exc:
        diagnostic = Diagnostic(
            "uncertifiable",
            "the text failed to parse (%s): nothing can be certified" % exc,
        )
        certificate = AnalysisCertificate(
            description_hash=hashlib.sha256(text.encode()).hexdigest(),
            certified=False,
            delta_safe=False,
            memory_bounded=False,
            diagnostics=(diagnostic,),
        ).sign()
        return certificate, None
    certificate = certify_description(
        description, vocabulary, kb=kb, outputs=outputs
    )
    return certificate, clause_lines(text)
