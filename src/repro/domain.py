"""The gold domains: one record each, looked up by name.

Section 6 of the paper: "Prompt R may be re-used as it is, while the
prompts F, E, and T may be customised with domain-specific knowledge." A
:class:`GoldDomain` is that customisation together with everything else
that differs between domains: the activities prompt G asks for, the
vocabulary and the gold event description, the simulated models' error
profiles, and the dataset. :mod:`repro.maritime` builds the paper's
evaluation domain (``MARITIME``), :mod:`repro.fleet` its further-work
domain (``FLEET``); every ``--gold`` command finds them through
:func:`gold_domain`, and every gold engine, in a serve worker or in one
process, comes from :func:`gold_engine` over one per-process cache. A
third domain is one more record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Mapping, Tuple

from repro.rtec.engine import RTECEngine

if TYPE_CHECKING:
    from repro.llm.profiles import Profile
    from repro.maritime.gold import ActivityGroup
    from repro.rtec.description import EventDescription, Vocabulary

__all__ = ["GOLD_NAMES", "GoldDomain", "gold_domain", "gold_engine", "gold_parts"]

#: The names :func:`gold_domain` knows, as ``--gold`` takes them.
GOLD_NAMES = ("maritime", "fleet")


@dataclass(frozen=True, eq=False, repr=False)
class GoldDomain:
    """Everything domain-specific, from prompts to dataset."""

    #: The label of prompt G and of the repair prompt ("Maritime").
    name: str
    #: The activities, in the order prompt G asks for them.
    groups: Tuple["ActivityGroup", ...]
    vocabulary: "Vocabulary"
    #: Parses the gold event description.
    gold: Callable[[], "EventDescription"]
    #: What prompt E lists: input events and input fluents, with meanings.
    event_meanings: Mapping[str, str]
    fluent_meanings: Mapping[str, str]
    #: What prompt T lists: anything with ``items()`` of (name, value).
    thresholds: Any
    threshold_meanings: Mapping[str, str]
    #: Prompt T's sentence on the atemporal background predicates.
    background_note: str
    #: ``profile(model, scheme)``: a simulated model's error profile.
    profile: Callable[[str, str], "Profile"]
    #: ``dataset(seed=, scale=, traffic=)``: an object with ``stream``,
    #: ``input_fluents``, ``kb`` and ``vocabulary``.
    dataset: Callable[..., Any]

    @property
    def outputs(self) -> FrozenSet[str]:
        """Every fluent an activity group defines (the paper reports all
        activity levels, not just the composite ones)."""
        return frozenset(name for group in self.groups for name, _arity in group.fluents)

    def __repr__(self) -> str:
        return "GoldDomain(%r)" % self.name


def gold_domain(name: str) -> GoldDomain:
    """The record of the gold domain called ``name`` (one of :data:`GOLD_NAMES`)."""
    if name == "maritime":
        from repro.maritime import MARITIME

        return MARITIME
    if name == "fleet":
        from repro.fleet import FLEET

        return FLEET
    raise ValueError("unknown gold %r (expected one of %s)" % (name, ", ".join(GOLD_NAMES)))


@lru_cache(maxsize=4)
def gold_parts(gold: str, **dataset: Any) -> Tuple[Any, "EventDescription"]:
    """(dataset, gold description) of the gold domain called ``gold``, built
    once per process and arguments; ``dataset`` goes to the domain's
    dataset builder (``seed``, ``scale``, ``traffic``)."""
    domain = gold_domain(gold)
    return domain.dataset(**dataset), domain.gold()


def gold_engine(gold: str, **dataset: Any) -> RTECEngine:
    """A fresh engine over a gold domain's description and dataset: the
    factory a serve worker's ``EngineSpec`` names, and what one process
    serves."""
    built, description = gold_parts(gold, **dataset)
    return RTECEngine(description, built.kb, built.vocabulary)
