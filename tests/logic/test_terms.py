"""Unit tests for the term representation."""

import pytest

from repro.logic.terms import (
    Compound,
    Constant,
    Variable,
    fvp,
    is_fvp,
    is_ground,
    make_atom,
    term_variables,
    walk_subterms,
)


class TestConstruction:
    def test_variable_repr(self):
        assert repr(Variable("Vessel")) == "Vessel"

    def test_constant_atom(self):
        constant = Constant("fishing")
        assert not constant.is_number
        assert repr(constant) == "fishing"

    def test_constant_number(self):
        assert Constant(23).is_number
        assert Constant(0.5).is_number

    def test_compound_requires_args(self):
        with pytest.raises(ValueError):
            Compound("foo", ())

    def test_compound_arity(self):
        term = Compound("entersArea", (Variable("Vl"), Constant("a1")))
        assert term.arity == 2
        assert term.functor == "entersArea"

    def test_make_atom_zero_arity(self):
        assert make_atom("fishing") == Constant("fishing")

    def test_make_atom_with_args(self):
        assert make_atom("f", Constant(1)) == Compound("f", (Constant(1),))


class TestFvp:
    def test_fvp_shape(self):
        pair = fvp(Compound("withinArea", (Variable("Vl"), Constant("fishing"))), Constant("true"))
        assert is_fvp(pair)
        assert pair.functor == "="

    def test_non_fvp(self):
        assert not is_fvp(Constant("true"))
        assert not is_fvp(Compound("f", (Constant(1),)))
        assert not is_fvp(Compound("=", (Constant(1),)))


class TestGroundness:
    def test_constant_is_ground(self):
        assert is_ground(Constant("a"))

    def test_variable_is_not_ground(self):
        assert not is_ground(Variable("X"))

    def test_nested(self):
        ground = Compound("f", (Compound("g", (Constant(1),)),))
        assert is_ground(ground)
        with_var = Compound("f", (Compound("g", (Variable("X"),)),))
        assert not is_ground(with_var)


class TestTraversal:
    def test_term_variables_order_and_dedup(self):
        term = Compound(
            "f", (Variable("B"), Compound("g", (Variable("A"), Variable("B"))))
        )
        assert term_variables(term) == [Variable("B"), Variable("A")]

    def test_walk_subterms_depth_first(self):
        term = Compound("f", (Constant(1), Compound("g", (Constant(2),))))
        subterms = list(walk_subterms(term))
        assert subterms[0] == term
        assert Constant(2) in subterms
        assert len(subterms) == 4

    def test_hashable(self):
        a = Compound("f", (Variable("X"),))
        b = Compound("f", (Variable("X"),))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestDataclassSemantics:
    """Slotted terms with a cached hash behave as the frozen dataclasses did."""

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(Variable("X")) == hash(("X",))
        assert hash(Constant("a")) == hash(("a",))
        assert hash(Constant(2)) == hash((2,)) == hash(Constant(2.0))
        inner = Compound("g", (Constant(1), Variable("Y")))
        assert hash(inner) == hash(("g", (Constant(1), Variable("Y"))))
        assert hash(Compound("f", (inner,))) == hash(("f", (inner,)))

    def test_numbers_compare_as_python_numbers(self):
        assert Constant(2) == Constant(2.0)
        assert Compound("f", (Constant(2),)) == Compound("f", (Constant(2.0),))
        assert {Compound("f", (Constant(2),)): 1}[Compound("f", (Constant(2.0),))] == 1
        big = 2**53 + 1
        assert Constant(big) != Constant(float(2**53))
        assert Constant(-big) != Constant(-float(2**53))
        assert Constant(big) == Constant(big)

    def test_one_nan_object_equals_itself_two_do_not(self):
        nan = float("nan")
        assert Constant(nan) == Constant(nan)
        assert Compound("f", (Constant(nan),)) == Compound("f", (Constant(nan),))
        assert Constant(float("nan")) != Constant(float("nan"))

    def test_never_equal_across_classes(self):
        assert Variable("x") != Constant("x")
        assert Constant("f") != Compound("f", (Constant(1),))
        assert Constant("a") != "a"
        assert Compound("f", (Constant(1),)) != ("f", (Constant(1),))
        assert Compound("f", (Constant(1),)) != Compound("g", (Constant(1),))
        assert Compound("f", (Constant(1),)) != Compound("f", (Constant(1), Constant(1)))

    def test_ground_flag(self):
        assert Constant(1).ground and not Variable("X").ground
        assert Compound("f", (Constant(1), Compound("g", (Constant("a"),)))).ground
        assert not Compound("f", (Constant(1), Compound("g", (Variable("X"),)))).ground

    def test_immutable_and_slotted(self):
        from dataclasses import FrozenInstanceError

        for term, field in (
            (Variable("X"), "name"),
            (Constant(1), "value"),
            (Compound("f", (Constant(1),)), "args"),
        ):
            with pytest.raises(FrozenInstanceError):
                setattr(term, field, "other")
            with pytest.raises(FrozenInstanceError):
                delattr(term, field)
            with pytest.raises(AttributeError):
                term.extra = 1
            assert not hasattr(term, "__dict__")
        assert Compound("f", [Constant(1)]).args == (Constant(1),)

    def test_repr(self):
        term = Compound("=", (Compound("f", (Variable("V"), Constant(2.5))), Constant("true")))
        assert repr(term) == "=(f(V, 2.5), true)"
        assert repr(Constant(3)) == "3"


class TestPickle:
    TERMS = (
        Variable("Vessel"),
        Constant("v1"),
        Constant(2.5),
        Compound("=", (Compound("withinArea", (Constant("v1"), Constant("fishing"))), Constant("true"))),
    )

    def test_round_trip_recomputes_hash_and_flag(self):
        import copy
        import pickle

        for term in self.TERMS:
            for clone in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term), copy.copy(term)):
                assert clone == term and hash(clone) == hash(term)
                assert clone.ground == term.ground
                assert {term: 1}[clone] == 1

    def test_cached_hash_does_not_cross_a_process(self):
        """``str`` hashes differ between processes unless PYTHONHASHSEED is
        pinned: a term unpickled elsewhere must hash as one built there."""
        import os
        import pickle
        import subprocess
        import sys

        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = (
            "import pickle, sys\n"
            "from repro.logic.terms import Compound, Constant, Variable\n"
            "terms = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = [Variable('Vessel'), Constant('v1'), Constant(2.5),\n"
            "         Compound('=', (Compound('withinArea', (Constant('v1'), Constant('fishing'))),\n"
            "                        Constant('true')))]\n"
            "table = {term: index for index, term in enumerate(fresh)}\n"
            "assert [table[term] for term in terms] == [0, 1, 2, 3]\n"
            "assert all(hash(a) == hash(b) for a, b in zip(terms, fresh))\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(list(self.TERMS)),
            env=env,
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()
