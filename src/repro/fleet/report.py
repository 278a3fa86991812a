"""Fleet results → the unified :class:`~repro.api.report.Report`.

A fleet Report carries exactly the non-namespaced metric key set the
other substrates emit — ``queries.*``, ``latency.*``,
``throughput.qps``, and ``cache.client_dns.*`` / ``cache.client_coap.*``
when those locations are active — plus a ``fleet.*`` namespaced block
describing the scaling plan, the fleet-only dimensions, and the
service-model calibration. Sampled counters are blown up to fleet
totals by the run's :class:`~repro.fleet.arrivals.SamplePlan` scales;
latency percentiles come straight from the (unscaled) reservoir
samples, since quantiles are scale-invariant under client sampling.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.report import (
    Report,
    RunTally,
    as_runs,
    cache_stats_from,
    pool_tallies,
    tally_metrics,
)

from .engine import RCODE_ERROR, TIMEOUT_ERROR, FleetResult


def _scaled_telemetry(
    result: FleetResult,
) -> Optional[List[Dict[str, object]]]:
    """The per-second timeline, with counts scaled to fleet totals.

    Buckets come from the sample's per-query columns via the shared
    :func:`~repro.obs.telemetry.timeline_from_outcomes`; each
    snapshot's counters then scale by the plan's query scale (rounded
    back to integers) and its rate recomputes from the scaled count, so
    the series reads as what the whole fleet did per second. Latency
    quantiles stay unscaled — sampling thins the population, not the
    per-query latency distribution.
    """
    if not result.issued_at:
        return None
    from repro.obs.telemetry import timeline_from_outcomes

    timeline = timeline_from_outcomes(
        result.issued_at, result.resolution_time, result.error
    )
    scale = result.plan.query_scale
    if scale == 1.0:
        return timeline
    scaled = []
    for snapshot in timeline:
        entry = dict(snapshot)
        for key in ("queries", "succeeded", "failed", "timeouts"):
            entry[key] = int(round(snapshot[key] * scale))
        interval = snapshot["interval_s"]
        entry["qps"] = round(entry["queries"] / interval, 3) if interval else 0.0
        scaled.append(entry)
    return scaled


def _tally_fleet(result: FleetResult) -> RunTally:
    """One fleet run as a tally, its sampled counters scaled to fleet
    totals."""
    plan = result.plan
    scale = plan.query_scale
    succeeded = 0
    last_done: Optional[float] = None
    for issued_at, rtime in zip(result.issued_at, result.resolution_time):
        if rtime is not None:
            succeeded += 1
            done = issued_at + rtime
            if last_done is None or done > last_done:
                last_done = done
    timeouts = result.error.count(TIMEOUT_ERROR)
    rcode_failures = result.error.count(RCODE_ERROR)
    first_issue = min(result.issued_at, default=None)
    issued = int(round(len(result.issued_at) * scale))
    ok = int(round(succeeded * scale))
    failed = issued - ok
    # Round the failure breakdown inside the scaled failure total so
    # issued = succeeded + failed always survives the scaling.
    scaled_timeouts = min(failed, int(round(timeouts * scale)))
    span = (
        last_done - first_issue
        if last_done is not None and first_issue is not None
        else 0.0
    )
    return RunTally(
        issued=issued,
        succeeded=ok,
        timeouts=scaled_timeouts,
        rcode_failures=min(
            failed - scaled_timeouts, int(round(rcode_failures * scale))
        ),
        latencies=result.reservoir.samples,
        # The sampled sub-fleet ran at rate × clients/fleet_clients, so
        # its achieved qps scales back up by the client scale.
        qps=(succeeded / span) * plan.client_scale if span > 0 else 0.0,
        cache={
            location: cache_stats_from(counters)
            for location, counters in result.cache_stats.items()
        },
    )


def report_from_fleet(
    results,
    spec: Optional[Dict[str, object]] = None,
) -> Report:
    """Build the unified Report from fleet-engine output.

    *results* is one :class:`~repro.fleet.engine.FleetResult` or a list
    of repeats, pooled by :func:`~repro.api.report.pool_tallies`.
    """
    runs = as_runs(results)
    metrics = tally_metrics(
        pool_tallies([_tally_fleet(result) for result in runs]), "fleet"
    )
    head = runs[0]
    plan = head.plan
    options = head.options
    metrics["fleet.clients"] = plan.fleet_clients
    metrics["fleet.active_clients"] = int(round(
        sum(result.active_clients for result in runs) / len(runs)
        * plan.client_scale
    ))
    metrics["fleet.repeats"] = len(runs)
    metrics["fleet.sample.queries"] = plan.queries
    metrics["fleet.sample.scale"] = round(plan.query_scale, 3)
    # "Exact" = every fleet query was simulated individually and every
    # success latency kept — the Report equals an exact-sim aggregate up
    # to the service-model approximation, with no sampling error on top.
    metrics["fleet.tolerance.exact"] = plan.exact and not any(
        result.reservoir.saturated for result in runs
    )
    metrics["fleet.churn"] = options.churn
    metrics["fleet.duty_cycle"] = options.duty_cycle
    metrics["fleet.flash_crowd"] = options.flash_crowd
    metrics.update(head.calibration.metrics())

    telemetry = _scaled_telemetry(head) if len(runs) == 1 else None
    return Report(
        substrate="fleet",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=results,
    )
