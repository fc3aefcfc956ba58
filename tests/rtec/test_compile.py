"""The compile stage around the programs: where they live, how long, and what
it shows (the programs' semantics are in test_simple.py / test_static.py)."""

import copy
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_rule, parse_term
from repro.logic.terms import _INTERNED, Compound, Constant, Variable
from repro.maritime import build_dataset, gold_event_description
from repro.rtec import Event, EventDescription, EventStream, RTECEngine
from repro.rtec import compile as compiler
from repro.rtec.session import RTECSession
from repro.serve.protocol import parse_event_term

RULES = """
initially(f(v9)=true).
initiatedAt(f(V)=true, T) :- happensAt(start(V), T).
terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).
holdsFor(g(V)=true, I) :- holdsFor(f(V)=true, I1), union_all([I1], I).
"""


def _stream(*events):
    return EventStream([Event(t, parse_term(text)) for t, text in events])


class TestProgramLifetime:
    def test_description_pickles_and_copies_after_recognition(self):
        engine = RTECEngine(EventDescription.from_text(RULES), strict=False)
        stream = _stream((1, "start(v1)"), (7, "stop(v1)"), (9, "start(v2)"))
        expected = engine.recognise(stream).to_json()
        # Programs are functions; none may hang off what a caller pickles or
        # shallow-copies.
        clone = pickle.loads(pickle.dumps(engine.description))
        assert RTECEngine(clone, strict=False).recognise(stream).to_json() == expected
        shallow = copy.copy(engine.description)
        assert RTECEngine(shallow, strict=False).recognise(stream).to_json() == expected
        rebuilt = EventDescription(engine.description.rules[1:])  # without initially/1
        assert RTECEngine(rebuilt, strict=False).recognise(stream).holds_for("g(v1)=true")

        def views(d):
            return d.dependencies(), d.definition_keys(), d.partitionability()

        filled = views(engine.description)
        # A copy pickled with every analysis computed answers the same.
        assert views(pickle.loads(pickle.dumps(engine.description))) == filled
        assert pickle.loads(pickle.dumps(engine.description.rules[1])) == engine.description.rules[1]

    def test_programs_die_with_their_description(self):
        gc.collect()
        before = len(compiler._PROGRAMS)
        engine = RTECEngine(EventDescription.from_text(RULES), strict=False)
        engine.recognise(_stream((1, "start(v1)")))
        assert len(compiler._PROGRAMS) == before + 2  # one simple, one static definition
        del engine
        gc.collect()
        assert len(compiler._PROGRAMS) == before

    def test_one_compilation_per_rule_not_per_window(self, monkeypatch):
        from repro.rtec import simple

        calls = []
        compile_rule = simple.compile_rule
        monkeypatch.setattr(
            simple, "compile_rule", lambda rule: calls.append(rule) or compile_rule(rule)
        )
        description = EventDescription.from_text(RULES)
        engine = RTECEngine(description, strict=False)
        stream = _stream(*[(t, "start(v%d)" % (t % 3)) for t in range(1, 40)])
        engine.recognise(stream, window=5)
        assert len(calls) == 2
        engine.recognise(stream, window=5)
        assert len(calls) == 2  # the programs outlive a run
        # A definition cannot grow; a description built with one more rule
        # compiles each of its own rules once.
        extra = "initiatedAt(f(V)=true, T) :- happensAt(resume(V), T).\n"
        with pytest.raises(AttributeError):
            description.simple_fluents[("f", 1)].initiated_rules.append(parse_rule(extra))
        extended = RTECEngine(EventDescription.from_text(RULES + extra), strict=False)
        result = extended.recognise(_stream((1, "resume(v5)"), (4, "stop(v5)")), window=5)
        assert result.holds_for("f(v5)=true").as_pairs() == [(2, 4)]
        assert len(calls) == 5 and parse_rule(extra) in calls[2:]

    def test_each_distinct_source_is_compiled_once(self, monkeypatch):
        stream = _stream((1, "start(v1)"), (7, "stop(v1)"))
        RTECEngine(EventDescription.from_text(RULES), strict=False).recognise(stream)
        sources = dict(compiler._CODE)
        # A second description restating the rules reuses every code object.
        RTECEngine(EventDescription.from_text(RULES), strict=False).recognise(stream)
        assert compiler._CODE == sources
        # The table is bounded: full, it is cleared before the next entry.
        monkeypatch.setattr(compiler, "_CODE", {})
        monkeypatch.setattr(compiler, "_CODE_LIMIT", 2)
        RTECEngine(EventDescription.from_text(RULES), strict=False).recognise(stream)
        assert len(compiler._CODE) == 1  # three sources: cleared once when full

    def test_certifying_reads_rule_shapes_and_builds_no_program(self, monkeypatch):
        built = []
        monkeypatch.setattr(compiler, "CompiledRule", built.append)
        engine = RTECEngine(EventDescription.from_text(RULES), strict=False)
        assert engine.certificate().delta_safe
        assert not built
        rule = engine.description.rules[1]
        assert compiler.rule_shape(rule) == rule.head.args + rule.body[0].term.args


def _site(text, ints=()):
    """The build of ``text`` with every variable bound, ``ints`` to bare ints."""
    term = parse_term(text)
    variables = compiler.term_variables(term)
    scope = compiler.Scope(bound=variables, ints=[Variable(name) for name in ints])
    for variable in variables:
        scope.slot(variable)
    return compiler.build(term, scope), [scope.slots[v] for v in variables]


def _frame(slots, values):
    frame = [None] * (max(slots) + 1)
    for slot, value in zip(slots, values):
        frame[slot] = value
    return frame


#: One site for every example, so ids and values of earlier examples stay in
#: its memo: ``2`` bound before must not come back for ``2.0``.
_SPEED, _SPEED_SLOTS = _site("speed(V, S)=at(T)", ints=("T",))
_NUMBERS = st.one_of(
    st.sampled_from([2, 2.0, -0.0, 0.0, float("nan")]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)
_VALUES = st.one_of(
    _NUMBERS.map(Constant),
    st.sampled_from(["v1", "v2"]).map(Constant),
    st.tuples(_NUMBERS.map(Constant)).map(lambda args: Compound("p", args)),
)


class TestGroundBuildMemo:
    @settings(max_examples=300, deadline=None)
    @given(vessel=_VALUES, speed=_VALUES, time=st.sampled_from([2, 3, 10**12]))
    def test_a_memoised_build_is_a_fresh_build_of_the_frames_own_objects(
        self, vessel, speed, time
    ):
        frame = _frame(_SPEED_SLOTS, [vessel, speed, time])
        built = _SPEED(frame)
        fresh = Compound(
            "=", (Compound("speed", (vessel, speed)), Compound("at", (Constant(time),)))
        )
        assert built == fresh and repr(built) == repr(fresh) and hash(built) == hash(fresh)
        fluent, value = built.args
        assert fluent.args[0] is vessel and fluent.args[1] is speed
        assert value.args[0].value is time
        assert built.ground

    def test_the_same_slot_objects_give_the_same_object(self):
        site, slots = _site("speed(V)=S")
        vessel, speed = Constant("v1"), Constant(2.5)
        first = site(_frame(slots, [vessel, speed]))
        assert site(_frame(slots, [vessel, speed])) is first
        # Equal but not identical: a new object, rendered as bound.
        other = site(_frame(slots, [vessel, Constant(2.5)]))
        assert other is not first and other == first
        two = site(_frame(slots, [vessel, Constant(2)]))
        two_float = site(_frame(slots, [vessel, Constant(2.0)]))
        assert (repr(two), repr(two_float)) == ("=(speed(v1), 2)", "=(speed(v1), 2.0)")

    def test_a_term_with_unbound_variables_memoises_its_ground_parts(self):
        scope = compiler.Scope(bound=[Variable("V")])
        slot = scope.slot(Variable("V"))
        site = compiler.build(parse_term("f(g(V), h(W))"), scope)
        frame = _frame([slot], [Constant("v1")])
        first, second = site(frame), site(frame)
        assert first is not second and first == second and not first.ground
        assert first.args[0] is second.args[0] and first.args[0].ground

    def test_threads_sharing_a_site_each_get_their_own_bindings(self, monkeypatch):
        monkeypatch.setattr(compiler, "_BUILD_MEMO_LIMIT", 8)  # clears all the time
        site, slots = _site("speed(V)=S")
        memo = site.__globals__["m0"]
        wrong = []

        def work(worker):
            for index in range(2000):
                vessel, speed = Constant("v%d" % worker), Constant(float(index))
                built = site(_frame(slots, [vessel, speed]))
                if built.args[0].args[0] is not vessel or built.args[1] is not speed:
                    wrong.append(built)
                if len(memo) > 8 + len(threads):
                    wrong.append(len(memo))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_a_head_fed_more_distinct_floats_than_the_bound_stays_bounded(self):
        description = EventDescription.from_text(
            "initiatedAt(speed(V)=S, T) :- happensAt(velocity(V, S), T)."
        )
        limit = compiler._BUILD_MEMO_LIMIT
        speeds = [index + 0.5 for index in range(limit + 100)]
        stream = EventStream(
            Event(t, Compound("velocity", (Constant("v1"), Constant(s))))
            for t, s in enumerate(speeds)
        )
        engine = RTECEngine(description, strict=False)
        engine.recognise(stream, window=len(speeds) // 4)
        (program,) = compiler._PROGRAMS[id(description.simple_fluents[("speed", 1)])].values()
        # The head's build is the rule's only memo, a global of its function.
        memo = program.function(False).__globals__["m0"]
        assert 0 < len(memo) <= limit
        assert len(memo) == (limit + 100) % limit  # cleared once when full


class TestLongBodies:
    """Python allows 20 nested loops and 100 indentation levels in one
    function; a body nested deeper continues in a function of its own."""

    def test_forty_enumerating_conditions_run_as_two(self):
        conditions = ", ".join("link(V, Y%d)" % index for index in range(40))
        description = EventDescription.from_text(
            "initiatedAt(f(V)=true, T) :- happensAt(start(V), T), %s.\n"
            "initiatedAt(g(V)=true, T) :- happensAt(start(V), T), link(V, Y).\n"
            "holdsFor(h(V)=true, I) :- holdsFor(f(V)=true, I1), %s, union_all([I1], I).\n"
            % (conditions, conditions)
        )
        kb = KnowledgeBase.from_text("link(v1, a). link(v2, b).")
        stream = _stream((1, "start(v1)"), (4, "start(v2)"), (6, "start(v3)"))
        with telemetry.enabled():
            traced = RTECEngine(description, kb, strict=False).recognise(stream)
        result = RTECEngine(description, kb, strict=False).recognise(stream)
        assert result == traced
        for vessel in ("v1", "v2"):
            expected = result.holds_for("g(%s)=true" % vessel)
            assert expected and result.holds_for("f(%s)=true" % vessel) == expected
            assert result.holds_for("h(%s)=true" % vessel) == expected
        assert not result.holds_for("f(v3)=true")
        rule = description.simple_fluents[("f", 1)].initiated_rules[0]
        (program,) = [
            p for p in compiler._PROGRAMS[id(description.simple_fluents[("f", 1)])].values()
            if p.rule is rule
        ]
        generated = program.function(False).__globals__
        assert [name for name in generated if name[0] == "c" and name[1:].isdigit()]


class TestInternTable:
    def test_numbers_do_not_grow_the_intern_table(self):
        """A served session's memory is bounded by omega: neither decoding
        numeric arguments nor advancing may leave one entry per number."""

        def serve(lines, advances):
            session = RTECSession(
                RTECEngine(EventDescription.from_text(RULES), strict=False), window=10
            )
            for index in range(lines):
                term = parse_event_term(
                    "velocity(v1, %d.5, %d, %d.25)" % (index, index + 7, index)
                )
                session.submit([Event(index * advances // lines, term)])
            for step in range(1, advances + 1):
                session.submit([Event(step, parse_event_term("start(v1)"))])
                session.advance(step)
            return len(_INTERNED)

        assert serve(100, 5) == serve(10_000, 500)


class TestObservability:
    def test_rule_spans_carry_solutions(self):
        rules = """
        initiatedAt(fast(V)=true, T) :- happensAt(speed(V, S), T), S > 5.
        initiatedAt(fast(V)=true, T) :- happensAt(speed(V, S), T), limit(V, L), S > L.
        """
        kb = KnowledgeBase.from_text("limit(v1, 2).")
        engine = RTECEngine(EventDescription.from_text(rules), kb, strict=False)
        stream = _stream((1, "speed(v1, 3)"), (2, "speed(v1, 9)"), (3, "speed(v2, 9)"))
        with telemetry.enabled() as tracer:
            engine.recognise(stream)
        spans = []

        def visit(span):
            if span.name == "rtec.rule":
                spans.append(span)
            for child in span.children:
                visit(child)

        for root in tracer.report().roots:
            visit(root)
        assert [s.attrs["solutions"] for s in spans] == [2, 2]
        assert spans[1].counters["cond.background.eval"] == 3

    def test_condition_counters_of_the_maritime_gold(self):
        """The ``cond.<class>.eval`` / ``.sol`` counters ``repro profile``
        prints come from the compiled steps: attempts and solutions per class
        over the maritime gold, every comparison counted where it runs."""
        dataset = build_dataset(seed=0, scale=0.05)
        engine = RTECEngine(gold_event_description(), dataset.kb, dataset.vocabulary)
        with telemetry.enabled() as tracer:
            engine.recognise(dataset.stream, dataset.input_fluents, window=600)
        totals = {}
        for stage in tracer.report().aggregate().values():
            for name, value in stage.counters.items():
                if name.startswith("cond."):
                    totals[name] = totals.get(name, 0) + value
        assert totals == {
            "cond.background.eval": 26207,
            "cond.background.sol": 16543,
            "cond.compare.eval": 100197,
            "cond.compare.sol": 39995,
            "cond.holdsat.ground.eval": 1077,
            "cond.holdsat.ground.sol": 789,
        }
