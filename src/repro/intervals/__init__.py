"""Maximal-interval algebra over an integer timeline.

RTEC represents the periods during which a fluent-value pair holds as a
list of *maximal intervals*. This package provides the interval list type
(:class:`repro.intervals.IntervalList`) and the three interval manipulation
constructs of the RTEC language: :func:`union_all`, :func:`intersect_all`
and :func:`relative_complement_all` (Definition 2.4 of the paper).
"""

from repro.intervals.interval import Interval, IntervalList
from repro.intervals.operations import (
    intersect_all,
    relative_complement_all,
    union_all,
)
from repro.intervals.pairing import make_intervals_from_points

__all__ = [
    "Interval",
    "IntervalList",
    "union_all",
    "intersect_all",
    "relative_complement_all",
    "make_intervals_from_points",
    "get_backend",
]


def get_backend() -> str:
    # Read by bench/report.py for the ``kernel_backend`` machine fact.
    return "pure"
