"""Lightweight tracing for the recognition stack.

RTEC's scalability argument (Section 2: reasoning cost depends on the
window omega, not on the stream size) is a claim about *per-window* cost —
which the engine, before this package, offered no way to observe. The
telemetry layer is the measurement substrate for that claim and for every
subsequent optimisation: a zero-dependency span/counter tracer wired
through the engine, the fluent evaluators, the online session, the
similarity metric and the LLM pipeline.

Design constraints:

* **off by default** — no tracer is active unless :func:`enable` (or the
  :func:`enabled` context manager) installs one, and the disabled fast
  path is a module-level ``None`` check so instrumented hot paths stay
  within noise (<2% on the RTEC scaling bench);
* **zero dependencies** — standard library only (``time.perf_counter``
  monotonic timings, plain dicts);
* **nestable** — spans form a tree via a per-thread span stack, so a
  window span contains the per-fluent evaluation spans it triggered, and
  a thread (the one a served session writes its checkpoints on) grows its
  own root spans.

Typical use::

    from repro import telemetry

    with telemetry.enabled() as tracer:
        engine.recognise(stream, input_fluents, window=600)
    report = tracer.report()
    print(report.render())          # span tree with timings and counters
    print(report.to_json())         # machine-readable form

Instrumented code does not hold a tracer reference; it calls the module
functions :func:`span` and :func:`count`, which route to the active tracer
or to shared no-op singletons when telemetry is off.
"""

from repro.telemetry.report import TelemetryReport
from repro.telemetry.tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    active,
    count,
    disable,
    enable,
    enabled,
    is_enabled,
    span,
)

__all__ = [
    "NULL_SPAN",
    "Span",
    "TelemetryReport",
    "Tracer",
    "active",
    "count",
    "disable",
    "enable",
    "enabled",
    "is_enabled",
    "span",
]
