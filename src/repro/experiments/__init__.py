"""Shared experiment harness.

* :mod:`repro.experiments.packet_sizes` — byte-exact construction and
  per-layer dissection of the canonical messages (Figures 6, 14);
* :mod:`repro.experiments.resolution` — the result structs of the
  testbed runs behind Figures 7, 10, 11, 15;
* :mod:`repro.experiments.metrics` — CDFs, quartiles, histograms.
"""

from .packet_sizes import (
    PacketDissection,
    canonical_messages,
    dissect_transport,
    dissect_all,
    FRAGMENTATION_LIMIT,
)
from .metrics import cdf, percentile, quantiles, summary_stats
from .resolution import ExperimentResult, LinkUtilization, QueryOutcome
from .timelines import TimelinePoint, event_timeline, offsets_in_windows

__all__ = [
    "ExperimentResult",
    "FRAGMENTATION_LIMIT",
    "LinkUtilization",
    "PacketDissection",
    "QueryOutcome",
    "canonical_messages",
    "cdf",
    "dissect_all",
    "dissect_transport",
    "percentile",
    "quantiles",
    "TimelinePoint",
    "event_timeline",
    "offsets_in_windows",
    "summary_stats",
]
