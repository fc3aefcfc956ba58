"""Picklable engine recipes for spawned worker processes.

A worker process cannot receive a live :class:`~repro.rtec.engine.RTECEngine`
(engines hold parsed rule structures, knowledge bases and caches that are
not worth pickling, and each session must get a *fresh* engine anyway).
Instead the router ships an :class:`EngineSpec` — a dotted ``module:callable``
path plus JSON-able keyword arguments — and every worker builds engines
locally, once per attached session. The heavyweight parts (gold event
descriptions, synthetic dataset knowledge bases) are cached per process
(:func:`repro.domain.gold_parts`, which a single-process ``repro serve`` or
``replay`` reads too), so attaching the hundredth session costs one engine
construction, not one dataset build.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict

from repro.rtec.description import EventDescription
from repro.rtec.engine import RTECEngine

__all__ = [
    "EngineSpec",
    "gold_engine_spec",
    "soak_description",
    "soak_engine",
]


@dataclass
class EngineSpec:
    """A portable recipe for building fresh engines in any process.

    ``factory`` is a dotted path ``package.module:callable``; ``kwargs``
    must be JSON-able (they cross a process boundary). Calling
    :meth:`create` resolves the callable and invokes it — once per
    session, so factories must return a *new* engine each call.
    """

    factory: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def create(self) -> RTECEngine:
        module_name, _, attribute = self.factory.partition(":")
        if not attribute:
            raise ValueError(
                "engine factory %r is not of the form 'module:callable'" % self.factory
            )
        module = importlib.import_module(module_name)
        try:
            builder = getattr(module, attribute)
        except AttributeError:
            raise ValueError(
                "engine factory %r does not exist in %s" % (attribute, module_name)
            )
        engine = builder(**self.kwargs)
        if not isinstance(engine, RTECEngine):
            raise TypeError(
                "engine factory %r returned %r, not an RTECEngine"
                % (self.factory, type(engine).__name__)
            )
        return engine

    def to_dict(self) -> Dict[str, Any]:
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}


# -- gold dataset engines ------------------------------------------------------


def gold_engine_spec(gold: str, **dataset: Any) -> EngineSpec:
    """The :class:`EngineSpec` of :func:`repro.domain.gold_engine`."""
    return EngineSpec("repro.domain:gold_engine", dict(dataset, gold=gold))


# -- soak engine ---------------------------------------------------------------

#: A deliberately tiny, perfectly shardable event description for
#: millions-of-sessions soak runs: per-entity state machines with no
#: background knowledge, so per-event recognition cost is minimal and the
#: load generator measures the serving fabric, not the rules.
SOAK_RULES = """
initiatedAt(active(E)=true, T) :- happensAt(start(E), T).
terminatedAt(active(E)=true, T) :- happensAt(stop(E), T).
initiatedAt(surge(E)=true, T) :-
    happensAt(spike(E), T),
    holdsAt(active(E)=true, T).
terminatedAt(surge(E)=true, T) :- happensAt(stop(E), T).
maxDuration(surge(E)=true, 120).
"""


@lru_cache(maxsize=1)
def soak_description() -> EventDescription:
    return EventDescription.from_text(SOAK_RULES)


def soak_engine() -> RTECEngine:
    """A fresh engine over the soak rules (no knowledge base needed)."""
    return RTECEngine(soak_description(), strict=False)
