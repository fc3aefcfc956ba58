"""A Python implementation of RTEC, the Run-Time Event Calculus.

RTEC (Artikis et al., TKDE 2015) is a logic-programming framework for
composite event recognition: it reasons over streams of instantaneous input
events and durative input fluents, and computes the maximal intervals during
which composite activities — defined as simple or statically determined
fluent-value pairs — hold.

Typical use::

    from repro.rtec import EventDescription, RTECEngine, EventStream, Event

    description = EventDescription.from_text(rules_text)
    engine = RTECEngine(description, kb, vocabulary)
    result = engine.recognise(EventStream(events), window=3600)
    result.holds_for("trawling(v1)=true")
"""

from repro.rtec.description import (
    EventDescription,
    FluentKey,
    SimpleFluentDef,
    StaticFluentDef,
    Vocabulary,
    fluent_key,
)
from repro.rtec.engine import RTECEngine
from repro.rtec.partition import PartitionAnalysis, analyse_partitionability
from repro.rtec.errors import (
    CyclicDependencyError,
    EvaluationError,
    InvalidEventDescriptionError,
    RTECError,
    ValidationIssue,
)
from repro.rtec.result import RecognitionResult
from repro.rtec.session import RTECSession, SessionSnapshot
from repro.rtec.stream import Event, EventStream, InputFluents, InputShard, partition_input

__all__ = [
    "EventDescription",
    "FluentKey",
    "SimpleFluentDef",
    "StaticFluentDef",
    "Vocabulary",
    "fluent_key",
    "RTECEngine",
    "PartitionAnalysis",
    "analyse_partitionability",
    "InputShard",
    "partition_input",
    "RecognitionResult",
    "RTECSession",
    "SessionSnapshot",
    "Event",
    "EventStream",
    "InputFluents",
    "RTECError",
    "EvaluationError",
    "CyclicDependencyError",
    "InvalidEventDescriptionError",
    "ValidationIssue",
]
