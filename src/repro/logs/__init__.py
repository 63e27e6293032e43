"""Event-log substrate: traces, logs, statistics and serialization.

This package is the paper's input layer: an event log is a multiset of
traces (Section 2), and the dependency graph consumes the normalized
frequency statistics computed here.
"""

from repro.logs.events import Event, Trace
from repro.logs.footprint import Footprint, Relation, compute_footprint, footprint_agreement
from repro.logs.log import RESERVED_ACTIVITY, EventLog
from repro.logs.streaming import OnlineStatistics
from repro.logs.stats import (
    LogStatistics,
    LogSummary,
    compute_statistics,
    summarize,
)

__all__ = [
    "Event",
    "Trace",
    "EventLog",
    "RESERVED_ACTIVITY",
    "Footprint",
    "Relation",
    "compute_footprint",
    "footprint_agreement",
    "OnlineStatistics",
    "LogStatistics",
    "LogSummary",
    "compute_statistics",
    "summarize",
]
