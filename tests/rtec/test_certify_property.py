"""Property: certificate-predicted delta safety agrees with runtime behaviour.

Random event descriptions are assembled from a pool of rule groups — some
provably delta-safe (head-time anchored, ``=:=``-equality anchored), some
statically unsafe (conditions at free or foreign times). For every drawn
description and random stream:

* the certificate's ``delta_safe`` verdict matches the engine's
  ``delta_diagnostics()`` gate and the statically expected verdict for the
  drawn rule set;
* an incremental session is byte-equal to the full-recompute oracle — for
  certified-delta-safe descriptions that exercises the delta path, for
  statically unsafe ones the certificate gate forces the full-recompute
  fallback, which must also stay exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.certify import certify_description
from repro.logic.parser import parse_term
from repro.rtec import Event, EventDescription, RTECEngine
from repro.rtec.session import RTECSession

#: (rules, delta_safe) building blocks; the base group is always present.
_BASE = (
    "initiatedAt(f(V)=true, T) :- happensAt(start(V), T).\n"
    "terminatedAt(f(V)=true, T) :- happensAt(stop(V), T).\n"
)

_GROUPS = {
    # Anchored through an =:= equality chain: certified safe.
    "equality": (
        "initiatedAt(g(V)=true, T) :- "
        "happensAt(start(V), T0), happensAt(ping(V), T), T0 =:= T.\n"
        "terminatedAt(g(V)=true, T) :- happensAt(stop(V), T).\n",
        True,
    ),
    # holdsAt at the head time: safe (reads the repaired store).
    "anchored_holdsat": (
        "initiatedAt(h(V)=true, T) :- "
        "happensAt(ping(V), T), holdsAt(f(V)=true, T).\n"
        "terminatedAt(h(V)=true, T) :- happensAt(stop(V), T).\n",
        True,
    ),
    # A statically determined fluent: always delta-safe (pointwise).
    "static": (
        "holdsFor(m(V)=true, I) :- "
        "holdsFor(f(V)=true, I1), union_all([I1], I).\n",
        True,
    ),
    # A free temporal condition: unsafe (RTEC025).
    "free_time": (
        "initiatedAt(u(V)=true, T) :- "
        "happensAt(start(V), T), happensAt(ping(V), T2).\n"
        "terminatedAt(u(V)=true, T) :- happensAt(stop(V), T).\n",
        False,
    ),
    # Seed and head at different, unrelated times: unsafe (RTEC026).
    "foreign_seed": (
        "initiatedAt(w(V)=true, T) :- "
        "happensAt(ping(V), T0), happensAt(start(V), T), "
        "holdsAt(f(V)=true, T0).\n"
        "terminatedAt(w(V)=true, T) :- happensAt(stop(V), T).\n",
        False,
    ),
}

_streams = st.lists(
    st.tuples(
        st.integers(0, 90),
        st.sampled_from(("start", "stop", "ping")),
        st.sampled_from(("v1", "v2")),
    ),
    min_size=1,
    max_size=22,
)

_group_names = st.sets(st.sampled_from(sorted(_GROUPS)), max_size=len(_GROUPS))


def _run_session(engine, events, window, step, incremental):
    session = RTECSession(engine, window, incremental=incremental)
    session.submit(events)
    end = max(event.time for event in events)
    query_time = step
    while True:
        session.advance(query_time)
        if query_time >= end:
            break
        query_time = min(query_time + step, end)
    return session


def _snapshot(session):
    return sorted(
        (repr(pair), session.holds_for(pair).as_pairs())
        for pair in session.result.fvps()
    )


class TestCertifiedDeltaSafety:
    @given(
        names=_group_names,
        raw=_streams,
        window=st.integers(5, 60),
        step=st.integers(2, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_certificate_verdict_matches_runtime(self, names, raw, window, step):
        text = _BASE + "".join(_GROUPS[name][0] for name in sorted(names))
        expected_safe = all(_GROUPS[name][1] for name in names)
        description = EventDescription.from_text(text)

        certificate = certify_description(description)
        assert certificate.certified
        assert certificate.delta_safe == expected_safe

        # The engine's delta gate and the certificate agree.
        engine = RTECEngine(description, strict=False)
        assert (engine.delta_diagnostics() == []) == certificate.delta_safe

        events = [
            Event(t, parse_term("%s(%s)" % (name, vessel)))
            for t, name, vessel in raw
        ]
        incremental = _run_session(
            RTECEngine(description, strict=False), events, window, step,
            incremental=True,
        )
        oracle = _run_session(
            RTECEngine(description, strict=False), events, window, step,
            incremental=False,
        )
        assert _snapshot(incremental) == _snapshot(oracle)

        if not certificate.delta_safe:
            # The statically-unsafe path must have been exercised under the
            # full-recompute fallback: the delta cache is never populated.
            assert incremental._derived_cache is None
