"""The similarity metric is a pseudometric (Defs 4.11, 4.12 and 4.14).

``event_description_distance`` pairs off rules that are ``canonical``-equal
before it runs Kuhn-Munkres. That is sound only if the rule distance is a
pseudometric: zero on renamed-equal rules, symmetric and obeying the triangle
inequality. These properties search for counterexamples over random non-ground
rules (terms of depth <= 4 and arity <= 3, variables shared between head and
body, negated conditions, ``2`` next to ``2.0``) and their renamed,
body-permuted and respelled variants; a deterministic check compares the peeled
distance with a full-matrix reference on every generated description of the
corpus, bit for bit.

Run ``--hypothesis-profile=metric`` (registered in ``tests/conftest.py``) for a
2 000-example search.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import MODEL_NAMES, PROMPT_SCHEMES
from repro.llm.pipeline import GenerationPipeline
from repro.llm.simulated import SimulatedLLM
from repro.logic.parser import Literal, Rule, parse_rule
from repro.logic.terms import Compound, Constant, Variable
from repro.generation.metrics import headline_rules
from repro.maritime import MARITIME
from repro.maritime.gold import ACTIVITY_GROUPS
from repro.rtec.description import canonical
from repro.similarity import event_description_distance, kuhn_munkres, rule_distance
from repro.similarity.rules import rule_distance_matrix
from repro.similarity.variables import literal_expression, variable_instances

TOLERANCE = 1e-12
VARIABLES = ("A", "B", "C", "D")
NAMES = VARIABLES + ("P", "Q", "R", "S")  # what a renaming may map VARIABLES to
CONSTANTS = (Constant("a"), Constant("b"), Constant(2), Constant(2.0), Constant(3))
FUNCTORS = ("f", "g", "h")
LEAVES = st.one_of(st.sampled_from(VARIABLES).map(Variable), st.sampled_from(CONSTANTS))


def _terms(depth):
    """Terms of depth <= ``depth``, compounds of arity 1-3."""
    if depth == 1:
        return LEAVES
    compounds = st.builds(
        Compound,
        st.sampled_from(FUNCTORS),
        st.lists(_terms(depth - 1), min_size=1, max_size=3).map(tuple),
    )
    return st.one_of(LEAVES, compounds)


ARGUMENTS = st.lists(_terms(3), min_size=1, max_size=3).map(tuple)
LITERALS = st.builds(
    Literal, st.builds(Compound, st.sampled_from(("p", "q")), ARGUMENTS), st.booleans()
)
RULES = st.builds(
    Rule,
    st.builds(Compound, st.sampled_from(("initiatedAt", "holdsFor")), ARGUMENTS),
    st.lists(LITERALS, max_size=3).map(tuple),
)


def _rewrite(rule, leaf):
    """``rule`` with every variable and constant replaced by ``leaf(it)``."""

    def walk(term):
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(map(walk, term.args)))
        return leaf(term)

    return Rule(walk(rule.head), tuple(Literal(walk(lit.term), lit.negated) for lit in rule.body))


def _renamed(rule, names):
    """``rule`` with ``NAMES[i]`` renamed to ``names[i]``, a permutation of ``NAMES``."""
    mapping = dict(zip(NAMES, names))
    return _rewrite(rule, lambda t: Variable(mapping[t.name]) if isinstance(t, Variable) else t)


def _respelled(rule):
    """``2`` written ``2.0`` and back: equal values, different text."""

    def leaf(term):
        if isinstance(term, Constant) and term.value == 2:
            return Constant(2.0 if isinstance(term.value, int) else 2)
        return term

    return _rewrite(rule, leaf)


@st.composite
def variants(draw, rule):
    """``rule`` renamed, body-permuted and perhaps respelled: distance 0."""
    rule = _renamed(rule, draw(st.permutations(NAMES)))
    rule = Rule(rule.head, tuple(draw(st.permutations(rule.body))))
    return _respelled(rule) if draw(st.booleans()) else rule


@st.composite
def relatives(draw, rule):
    """A variant of ``rule`` after up to two edits, so distances spread over [0, 1]."""
    for _ in range(draw(st.integers(0, 2))):
        body = list(rule.body)
        edit = draw(st.sampled_from(("add", "drop", "negate", "replace", "merge")))
        if edit == "add" or not body:
            body.append(draw(LITERALS))
        else:
            i = draw(st.integers(0, len(body) - 1))
            if edit == "drop":
                del body[i]
            elif edit == "negate":
                body[i] = Literal(body[i].term, not body[i].negated)
            elif edit == "replace":
                body[i] = draw(LITERALS)
        rule = Rule(rule.head, tuple(body))
        if edit == "merge":  # one variable renamed to another, or to a constant
            old = draw(st.sampled_from(VARIABLES))
            new = draw(LEAVES)
            rule = _rewrite(rule, lambda t: new if t == Variable(old) else t)
    return draw(variants(rule))


@st.composite
def related_rules(draw, count):
    base = draw(RULES)
    return [base] + [draw(relatives(base)) for _ in range(count - 1)]


@st.composite
def descriptions(draw, count):
    """``count`` descriptions of 0-5 rules drawn from one pool of relatives,
    so renamed-equal rules and duplicate rules are common."""
    pool = draw(related_rules(3))
    rule_lists = st.lists(st.sampled_from(pool).flatmap(variants), max_size=5)
    return [draw(rule_lists) for _ in range(count)]


def _image(rule):
    """``rule`` as Def. 4.11 sees it: every variable replaced by its instance
    set, constants by their value, the body as a multiset."""
    instances = variable_instances(rule)

    def label(term):
        if isinstance(term, Variable):
            return ("V", instances[term])
        if isinstance(term, Constant):
            return ("C", term.value)
        return ("T", term.functor) + tuple(map(label, term.args))

    return label(rule.head), Counter(label(literal_expression(lit)) for lit in rule.body)


def full_matrix_distance(left, right):
    """Def. 4.14 without the peel: one Kuhn-Munkres over every rule pair."""
    larger, smaller = (left, right) if len(left) >= len(right) else (right, left)
    m, k = len(larger), len(smaller)
    if m == 0:
        return 0.0
    if k == 0:
        return 1.0
    _assignment, total = kuhn_munkres(rule_distance_matrix(larger, smaller))
    return ((m - k) + total) / m


class TestRuleDistance:
    @given(st.data())
    @settings(deadline=None)
    def test_canonical_equal_rules_are_at_distance_exactly_zero(self, data):
        rule = data.draw(RULES)
        renamed = _renamed(rule, data.draw(st.permutations(NAMES)))
        assert canonical(rule.head, *rule.body) == canonical(renamed.head, *renamed.body)
        assert rule_distance(rule, renamed) == 0.0
        assert rule_distance(rule, data.draw(variants(rule))) == 0.0

    @given(related_rules(2))
    @settings(deadline=None)
    def test_symmetric_in_range_and_zero_exactly_when_the_images_agree(self, rules):
        left, right = rules
        distance = rule_distance(left, right)
        assert 0.0 <= distance <= 1.0
        assert distance == pytest.approx(rule_distance(right, left), abs=TOLERANCE)
        assert (distance == 0.0) == (_image(left) == _image(right))

    @given(related_rules(3))
    @settings(deadline=None)
    def test_triangle_inequality(self, rules):
        left, middle, right = rules
        assert rule_distance(left, right) <= (
            rule_distance(left, middle) + rule_distance(middle, right) + TOLERANCE
        )

    def test_a_zero_distance_does_not_imply_equal_up_to_renaming(self):
        """The metric is a pseudometric, not a metric: instance sets forget
        which condition an occurrence is in, so "the pair is symmetric" and
        "each is reflexive" look alike. This is why the peel keys on
        ``canonical`` equality and never on a zero distance."""
        symmetric = parse_rule(
            "initiatedAt(alarm=true, T) :- happensAt(near(X, Y), T), happensAt(near(Y, X), T)."
        )
        reflexive = parse_rule(
            "initiatedAt(alarm=true, T) :- happensAt(near(X, X), T), happensAt(near(Y, Y), T)."
        )
        assert rule_distance(symmetric, reflexive) == 0.0
        assert _image(symmetric) == _image(reflexive)
        assert canonical(symmetric.head, *symmetric.body) != canonical(
            reflexive.head, *reflexive.body
        )
        assert canonical(symmetric.head, *symmetric.body[::-1]) != canonical(
            reflexive.head, *reflexive.body
        )


class TestEventDescriptionDistance:
    @given(descriptions(2))
    @settings(deadline=None)
    def test_peeled_equals_the_full_matrix_symmetric_and_in_range(self, pair):
        left, right = pair
        distance = event_description_distance(left, right)
        assert distance == pytest.approx(full_matrix_distance(left, right), abs=TOLERANCE)
        assert distance == pytest.approx(event_description_distance(right, left), abs=TOLERANCE)
        assert 0.0 <= distance <= 1.0

    @given(descriptions(3))
    @settings(deadline=None)
    def test_triangle_inequality(self, triple):
        left, middle, right = triple
        assert event_description_distance(left, right) <= (
            event_description_distance(left, middle)
            + event_description_distance(middle, right)
            + TOLERANCE
        )


def test_peeled_equals_the_full_matrix_bit_for_bit_on_the_corpus():
    """6 models x 2 schemes x seeds 0-4 x 15 activity groups, each group scored
    whole and on its headline fluent (as Fig. 2a/2b score it): 1 800 cells,
    compared with ``==`` in both argument orders."""
    cells = 0
    for model in MODEL_NAMES:
        for scheme in PROMPT_SCHEMES:
            for seed in range(5):
                generated = GenerationPipeline(SimulatedLLM(model, MARITIME), scheme, MARITIME).run()
                for group in ACTIVITY_GROUPS:
                    rules = generated.rules_for(group.name)
                    headline = group.fluents[-1][0]
                    for left, right in (
                        (rules, group.rules),
                        (headline_rules(rules, headline), headline_rules(group.rules, headline)),
                    ):
                        expected = full_matrix_distance(left, right)
                        assert event_description_distance(left, right) == expected
                        assert event_description_distance(right, left) == expected
                        cells += 1
    assert cells == 1800
