"""The metrics structs of one testbed run (Figures 7, 10, 11, 15).

:meth:`~repro.scenarios.ScenarioRunner.run` emits an
:class:`ExperimentResult` of :class:`QueryOutcome` rows and a
:class:`LinkUtilization`; :func:`repro.api.run` wraps it in the unified
Report (as ``report.raw``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache import CacheStats
from repro.coap.endpoint import ClientEvent
from repro.scenarios.runner import NAME_TEMPLATE

__all__ = [
    "ExperimentResult",
    "LinkUtilization",
    "NAME_TEMPLATE",
    "QueryOutcome",
]


@dataclass
class QueryOutcome:
    """One query's fate."""

    name: str
    client: str
    issued_at: float
    resolution_time: Optional[float]   # None on failure
    error: Optional[str] = None
    rtype: Optional[int] = None


@dataclass
class LinkUtilization:
    """Frames/bytes split by link distance to the sink (Figure 10).

    ``frames_1hop``/``bytes_1hop`` cover the bottleneck link into the
    border router; ``frames_2hop``/``bytes_2hop`` the outermost client
    links. For topologies deeper than two hops, ``per_hop_frames`` maps
    every hop distance to its frame count.
    """

    frames_1hop: int
    frames_2hop: int
    bytes_1hop: int
    bytes_2hop: int
    queries_frames: int
    responses_frames: int
    per_hop_frames: Dict[int, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    outcomes: List[QueryOutcome]
    link: LinkUtilization
    client_events: List[ClientEvent]
    #: (event time offset vs query issue) per cache/validation event.
    proxy_cache_hits: int = 0
    proxy_revalidations: int = 0
    #: The declarative scenario the run executed.
    scenario: Optional[object] = None
    #: Aggregated :class:`repro.cache.CacheStats` per cache location
    #: ("client-dns", "client-coap", "proxy", "resolver") — client
    #: caches pooled across all clients. The Figure 11 event counts.
    cache_stats: Dict[str, "CacheStats"] = field(default_factory=dict)

    @property
    def resolution_times(self) -> List[float]:
        return [
            outcome.resolution_time
            for outcome in self.outcomes
            if outcome.resolution_time is not None
        ]

    @property
    def success_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return len(self.resolution_times) / len(self.outcomes)

    def cache_ratios(self) -> Dict[str, Dict[str, float]]:
        """Per-location hit/stale/validation ratios (Figure 11 shape)."""
        return {
            location: {
                "hit_ratio": stats.hit_ratio,
                "stale_ratio": stats.stale_ratio,
                "validation_ratio": stats.validation_ratio,
            }
            for location, stats in sorted(self.cache_stats.items())
        }
