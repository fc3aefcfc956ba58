"""Machine-applicable rename fixes: ``apply_fixes`` and its rename maps.

One lint round trip — from a report over a corrupted description to the
repaired rule list — plus the determinism and idempotence contract of
``apply_fixes`` under hypothesis-random fix batches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyse_text
from repro.analysis.diagnostics import Diagnostic, Fix
from repro.analysis.fixers import apply_fixes, normalise_rename_map
from repro.logic.parser import parse_program
from repro.logic.pretty import program_to_str
from repro.maritime import MARITIME_VOCABULARY, gold_event_description
from repro.rtec import EventDescription


class TestLintRoundTrip:
    def test_fixing_a_naming_divergence_makes_the_report_clean(self):
        text = gold_event_description().to_text().replace("gap_start", "gapStart")
        report = analyse_text(text, MARITIME_VOCABULARY)
        assert report.by_code("RTEC016")
        fixed = apply_fixes(EventDescription.from_text(text).rules, report.diagnostics)
        assert program_to_str(fixed) == gold_event_description().to_text()
        after = analyse_text(program_to_str(fixed), MARITIME_VOCABULARY)
        assert not after.by_code("RTEC016")
        assert after.errors == []


class TestNormaliseRenameMap:
    def test_chains_collapse(self):
        assert normalise_rename_map({"a": "b", "b": "c"}) == {"a": "c", "b": "c"}

    def test_cycles_are_dropped(self):
        assert normalise_rename_map({"a": "b", "b": "a"}) == {}

    def test_identity_entries_are_dropped(self):
        assert normalise_rename_map({"a": "a", "b": "c"}) == {"b": "c"}

    @given(
        mapping=st.dictionaries(
            st.sampled_from("abcdef"), st.sampled_from("abcdef"), max_size=6
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_result_is_idempotent_as_a_map(self, mapping):
        resolved = normalise_rename_map(mapping)
        # No value is itself a key: applying the map twice equals once.
        assert not set(resolved.values()) & set(resolved)
        # Normalising an already-normal map changes nothing.
        assert normalise_rename_map(resolved) == resolved


_BASE_RULES_TEXT = """
initiatedAt(alpha(V)=true, T) :-
    happensAt(beta(V), T),
    holdsAt(gamma(V, W)=high, T).

terminatedAt(alpha(V)=true, T) :-
    happensAt(delta(V, epsilon), T).

initiatedAt(gamma(V, X)=high, T) :-
    happensAt(zeta(V, X), T),
    X > 3,
    not holdsAt(alpha(V)=true, T).
"""

_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")

_rename_fixes = st.lists(
    st.tuples(
        st.sampled_from(("rename-functor", "rename-constant")),
        st.sampled_from(_NAMES),
        st.sampled_from(_NAMES),
    ),
    max_size=6,
)


def _build_diagnostics(renames):
    return [Diagnostic("naming", "m", fix=Fix(kind, old, new)) for kind, old, new in renames]


class TestApplyFixesProperties:
    @given(renames=_rename_fixes)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, renames):
        rules = parse_program(_BASE_RULES_TEXT)
        diagnostics = _build_diagnostics(renames)
        once = apply_fixes(rules, diagnostics)
        twice = apply_fixes(once, diagnostics)
        assert twice == once

    @given(renames=_rename_fixes, seed=st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_deterministic_under_shuffling(self, renames, seed):
        rules = parse_program(_BASE_RULES_TEXT)
        diagnostics = _build_diagnostics(renames)
        shuffled = list(diagnostics)
        seed.shuffle(shuffled)
        assert apply_fixes(rules, shuffled) == apply_fixes(rules, diagnostics)
