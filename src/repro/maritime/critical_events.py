"""Critical-event detection: from AIS messages to RTEC input.

This is the online preprocessing stage of Pitsikalis et al. (2019): raw AIS
position reports are turned into the input events of the maritime event
description (``velocity``, ``stop_start/end``, ``slow_motion_start/end``,
``change_in_speed_start/end``, ``change_in_heading``, ``gap_start/end``,
``entersArea``/``leavesArea``) and into the ``proximity`` input fluent
(maximal intervals during which two vessels are within a distance
threshold).

State machines reset at communication gaps: after a ``gap_end`` the
detector re-emits the start events of every condition that holds at the
first message (the gold rules terminate the corresponding fluents at
``gap_start``, so they must be re-initiated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.intervals import IntervalList
from repro.logic.terms import Compound, Constant, Term
from repro.maritime.ais import AISMessage
from repro.maritime.geometry import Geography
from repro.maritime.thresholds import DETECTOR_SETTINGS, DetectorSettings
from repro.rtec.stream import Event, EventStream, InputFluents

if TYPE_CHECKING:
    # Imported where it is used: routers and fleet workers load this module too.
    import numpy as np

__all__ = ["CriticalEventDetector", "DetectedStream"]


def _atom(name: str) -> Constant:
    return Constant(name)


def _event(time: int, functor: str, *args: Term) -> Event:
    return Event(time, Compound(functor, tuple(args)))


def _angle_diff(a: float, b: float) -> float:
    diff = abs(a - b) % 360.0
    return 360.0 - diff if diff > 180.0 else diff


@dataclass
class DetectedStream:
    """The RTEC input derived from an AIS stream."""

    events: EventStream
    proximity: InputFluents


class CriticalEventDetector:
    """Derives input events and the proximity fluent from AIS messages."""

    def __init__(
        self,
        geography: Geography,
        settings: DetectorSettings = DETECTOR_SETTINGS,
    ) -> None:
        self.geography = geography
        self.settings = settings

    # -- public API ------------------------------------------------------

    def detect(self, messages: Sequence[AISMessage]) -> DetectedStream:
        """Run the full detection pipeline over a time-ordered AIS stream."""
        by_vessel: Dict[str, List[AISMessage]] = {}
        for message in sorted(messages):
            by_vessel.setdefault(message.vessel, []).append(message)
        events: List[Event] = []
        for vessel_id, track in by_vessel.items():
            events.extend(self._detect_vessel(vessel_id, track))
        proximity = self._detect_proximity(by_vessel)
        return DetectedStream(events=EventStream(events), proximity=proximity)

    # -- per-vessel event detection ---------------------------------------

    def _detect_vessel(self, vessel_id: str, track: List[AISMessage]) -> List[Event]:
        events: List[Event] = []
        vessel = _atom(vessel_id)
        s = self.settings

        stopped = False
        slow = False
        changing_speed = False
        inside: Dict[str, bool] = {area.area_id: False for area in self.geography}
        previous: Optional[AISMessage] = None

        for message in track:
            time = message.time
            gap_boundary = previous is not None and time - previous.time > s.gap_seconds
            if gap_boundary:
                assert previous is not None
                events.append(_event(previous.time, "gap_start", vessel))
                events.append(_event(time, "gap_end", vessel))
                stopped = slow = changing_speed = False
                inside = {area.area_id: False for area in self.geography}
                previous = None

            events.append(
                _event(
                    time,
                    "velocity",
                    vessel,
                    Constant(message.speed),
                    Constant(message.course),
                    Constant(message.heading),
                )
            )

            is_stopped = message.speed < s.stopped_max
            if is_stopped != stopped:
                events.append(_event(time, "stop_start" if is_stopped else "stop_end", vessel))
                stopped = is_stopped

            is_slow = s.stopped_max <= message.speed < s.low_max
            if is_slow != slow:
                events.append(
                    _event(time, "slow_motion_start" if is_slow else "slow_motion_end", vessel)
                )
                slow = is_slow

            if previous is not None:
                delta = abs(message.speed - previous.speed)
                if delta > s.speed_delta and not changing_speed:
                    events.append(_event(time, "change_in_speed_start", vessel))
                    changing_speed = True
                elif delta <= s.speed_delta and changing_speed:
                    events.append(_event(time, "change_in_speed_end", vessel))
                    changing_speed = False
                if _angle_diff(message.heading, previous.heading) > s.heading_delta:
                    events.append(_event(time, "change_in_heading", vessel))

            for area in self.geography:
                now_inside = area.contains(message.x, message.y)
                if now_inside != inside[area.area_id]:
                    functor = "entersArea" if now_inside else "leavesArea"
                    events.append(_event(time, functor, vessel, _atom(area.area_id)))
                    inside[area.area_id] = now_inside

            previous = message
        return events

    # -- proximity ----------------------------------------------------------

    def _detect_proximity(self, by_vessel: Dict[str, List[AISMessage]]) -> InputFluents:
        """Maximal intervals of pairwise proximity, on a fixed resampling grid.

        Tracks are linearly interpolated between messages; positions inside
        communication gaps are treated as unknown (never in proximity).
        Pairs are reported in lexicographic vessel-id order.
        """
        import numpy as np

        fluents = InputFluents()
        vessel_ids = sorted(by_vessel)
        if len(vessel_ids) < 2:
            return fluents
        t_min = min(track[0].time for track in by_vessel.values())
        t_max = max(track[-1].time for track in by_vessel.values())
        tick = 10
        grid = np.arange(t_min, t_max + 1, tick)
        sampled = {
            vessel_id: self._resample(by_vessel[vessel_id], grid)
            for vessel_id in vessel_ids
        }
        for i, first in enumerate(vessel_ids):
            x1, y1, valid1 = sampled[first]
            for second in vessel_ids[i + 1 :]:
                x2, y2, valid2 = sampled[second]
                close = (
                    valid1
                    & valid2
                    & (np.hypot(x1 - x2, y1 - y2) <= self.settings.proximity_nm)
                )
                intervals = _runs_to_intervals(grid, close, tick)
                if intervals:
                    pair = Compound(
                        "=",
                        (
                            Compound("proximity", (_atom(first), _atom(second))),
                            Constant("true"),
                        ),
                    )
                    fluents.set(pair, intervals)
        return fluents

    def _resample(
        self, track: List[AISMessage], grid: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        import numpy as np

        times = np.array([m.time for m in track], dtype=float)
        xs = np.array([m.x for m in track], dtype=float)
        ys = np.array([m.y for m in track], dtype=float)
        x = np.interp(grid, times, xs)
        y = np.interp(grid, times, ys)
        valid = (grid >= times[0]) & (grid <= times[-1])
        # Invalidate grid points falling inside communication gaps.
        gaps = np.flatnonzero(np.diff(times) > self.settings.gap_seconds)
        for index in gaps:
            valid &= ~((grid > times[index]) & (grid < times[index + 1]))
        return x, y, valid


def _runs_to_intervals(grid: np.ndarray, mask: np.ndarray, tick: int) -> IntervalList:
    """Convert a boolean mask over the grid into maximal closed intervals."""
    import numpy as np

    if not mask.any():
        return IntervalList.empty()
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[0::2], changes[1::2] - 1
    return IntervalList(
        (int(grid[s]), int(grid[e]) + tick - 1) for s, e in zip(starts, ends)
    )
