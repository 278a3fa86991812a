"""The unified, versioned result document of the ``repro.api`` façade.

One :class:`Report` describes the outcome of one run regardless of the
substrate that produced it: a discrete-event simulation
(:class:`~repro.scenarios.ScenarioRunner`), or a wall-clock
serve+loadtest pairing (:mod:`repro.live`). Metric names are **stable
dotted identifiers** shared by both substrates:

``queries.*``
    ``issued``, ``succeeded``, ``failed``, ``timeouts``,
    ``rcode_failures``, ``success_rate``.
``latency.*``
    ``p50_ms``, ``p95_ms``, ``p99_ms``, ``mean_ms``, ``max_ms``
    (``null`` when no query succeeded).
``throughput.qps``
    Successful resolutions per second over the span successes landed in.
``cache.<location>.*``
    Per-location cache counters and ratios for the *client-side* cache
    locations the run's spec enabled (``client_dns``, ``client_coap``):
    ``hits``, ``misses``, ``stale_hits``, ``validations``,
    ``validation_failures``, ``hit_ratio``, ``stale_ratio``,
    ``validation_ratio``.

Everything only one substrate can measure is **explicitly namespaced**
under ``sim.*`` (link frames/bytes, resolver/proxy cache stats),
``live.*`` (wall-clock elapsed time, offered rate, loop mode, server
counters), or ``fleet.*`` (client count, sampling scale, service-model
calibration — see :mod:`repro.fleet`). Reports produced from the same
:class:`~repro.api.spec.RunSpec` on different substrates therefore
carry identical non-namespaced key sets and diff directly.

Each substrate converter reduces every run (or concurrently running
part of a run, such as a load worker) to a :class:`RunTally`, and
:func:`pool_tallies` is the one merge: counters and latency samples add
up, cache ratios come from the pooled
:class:`~repro.cache.CacheStats`, throughput adds up over concurrent
parts and averages over repeats.

This module is import-light on purpose (stdlib only at module level):
:mod:`repro.live.loadgen` and :mod:`repro.perf` both import the shared
:data:`REPORT_VERSION` / :func:`provenance` stamp from here without
pulling in the scenario engine.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

#: Schema version shared by every JSON document the toolkit emits
#: (unified Reports, the loadgen report, the :func:`sweep_report` of a
#: ``run`` with ``|`` alternatives, and ``repro.perf`` reports). Bump
#: on breaking changes. Version 2 introduced the unified Report;
#: version 1 was the loadgen-only report.
REPORT_VERSION = 2

#: Every substrate a RunSpec can execute on. Single-sourced: RunSpec
#: validation, Report validation, the ``common_metrics()`` namespace
#: filter, and ``tests/report_schema.json`` (via the schema-sync test)
#: all derive from this tuple, so adding a substrate is one edit here
#: plus the matching schema entry.
SUBSTRATES = ("sim", "live", "fleet")

#: The metric-key prefixes that mark substrate-namespaced metrics —
#: everything else is the common, substrate-agnostic vocabulary.
SUBSTRATE_NAMESPACES = tuple(f"{substrate}." for substrate in SUBSTRATES)

#: Sub-metrics every cache location reports, in emission order.
CACHE_METRICS = (
    "hits", "misses", "stale_hits", "validations", "validation_failures",
    "hit_ratio", "stale_ratio", "validation_ratio",
)

#: Cache locations that live on the client side — the only locations
#: both substrates can observe, hence the only non-namespaced ones.
CLIENT_CACHE_LOCATIONS = ("client_dns", "client_coap")

#: Latency quantile keys of the common vocabulary (milliseconds).
LATENCY_METRICS = ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")


class ReportError(ValueError):
    """A malformed or version-incompatible report document."""


@lru_cache(maxsize=1)
def _git_commit() -> str:
    """The repository commit this process runs from (or ``unknown``)."""
    try:
        import os

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def provenance() -> Dict[str, str]:
    """The shared provenance stamp: interpreter, platform, git commit.

    One function for every JSON artifact so reports from different
    subsystems (api, loadgen, sweep, perf) stay attributable to the
    same build the same way.
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": _git_commit(),
    }


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, Optional[float]]:
    """The common ``latency.*`` values (ms) from raw seconds samples."""
    if not latencies_s:
        return {f"latency.{key}": None for key in LATENCY_METRICS}
    from repro.experiments.metrics import percentile

    return {
        "latency.p50_ms": round(percentile(latencies_s, 50) * 1000, 3),
        "latency.p95_ms": round(percentile(latencies_s, 95) * 1000, 3),
        "latency.p99_ms": round(percentile(latencies_s, 99) * 1000, 3),
        "latency.mean_ms": round(
            sum(latencies_s) / len(latencies_s) * 1000, 3
        ),
        "latency.max_ms": round(max(latencies_s) * 1000, 3),
    }


def _cache_location_metrics(prefix: str, stats) -> Dict[str, object]:
    """One location's :data:`CACHE_METRICS` from its ``CacheStats``."""
    return {f"{prefix}.{key}": getattr(stats, key) for key in CACHE_METRICS}


@dataclass
class Report:
    """One run's outcome, versioned and substrate-agnostic.

    ``spec`` is the JSON-ready description of the
    :class:`~repro.api.spec.RunSpec` that produced the run; ``metrics``
    maps the stable dotted names documented in the module docstring to
    scalars. ``raw`` keeps the substrate-native input the converter
    pooled (an :class:`~repro.experiments.resolution.ExperimentResult`,
    a fleet result, a loadgen dict or distributed pass, or a list of
    repeats) for Python callers — it is never serialised and does not
    participate in equality.
    """

    substrate: str
    spec: Dict[str, object]
    metrics: Dict[str, object]
    report_version: int = REPORT_VERSION
    provenance: Dict[str, str] = field(default_factory=provenance)
    telemetry: Optional[List[Dict[str, object]]] = None
    raw: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ReportError(
                f"unknown substrate {self.substrate!r} "
                f"(known: {', '.join(SUBSTRATES)})"
            )

    # -- (de)serialisation -------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """The JSON document (plain dict, ``json.dumps``-ready as-is).

        The ``telemetry`` time series (per-second run snapshots, the
        :mod:`repro.obs.telemetry` vocabulary) appears only when the
        run recorded one — single-repeat runs on either substrate.
        """
        payload: Dict[str, object] = {
            "report_version": self.report_version,
            "substrate": self.substrate,
            "spec": self.spec,
            "provenance": self.provenance,
            "metrics": dict(self.metrics),
        }
        if self.telemetry is not None:
            payload["telemetry"] = list(self.telemetry)
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Report":
        """Rebuild a Report from :meth:`to_json` output."""
        if not isinstance(payload, dict):
            raise ReportError(f"report must be an object, got {type(payload)}")
        missing = [
            key
            for key in ("report_version", "substrate", "spec", "metrics")
            if key not in payload
        ]
        if missing:
            raise ReportError(f"report is missing keys: {', '.join(missing)}")
        version = payload["report_version"]
        if not isinstance(version, int) or version < 1:
            raise ReportError(f"bad report_version: {version!r}")
        telemetry = payload.get("telemetry")
        return cls(
            substrate=payload["substrate"],
            spec=dict(payload["spec"]),
            metrics=dict(payload["metrics"]),
            report_version=version,
            provenance=dict(payload.get("provenance", {})),
            telemetry=list(telemetry) if telemetry is not None else None,
        )

    # -- accessors ---------------------------------------------------------

    def common_metrics(self) -> Dict[str, object]:
        """The substrate-agnostic (non-namespaced) metric subset."""
        return {
            key: value
            for key, value in self.metrics.items()
            if not key.startswith(SUBSTRATE_NAMESPACES)
        }

    def __getitem__(self, key: str) -> object:
        return self.metrics[key]


def sweep_report(reports: Dict[str, Report]) -> Dict[str, object]:
    """The sweep envelope: per-cell Report JSON keyed by cell, under the
    shared ``report_version`` + provenance stamp."""
    return {
        "report_version": REPORT_VERSION,
        "kind": "sweep",
        "provenance": provenance(),
        "cells": {key: report.to_json() for key, report in reports.items()},
    }


# -- the pooling step ------------------------------------------------------


@dataclass
class RunTally:
    """One run, or one concurrently running part of a run, reduced to
    what pooling needs.

    ``latencies`` are success latencies in seconds, in issue order;
    ``qps`` is the part's achieved throughput; ``cache`` maps a cache
    location to its :class:`~repro.cache.CacheStats`; ``counters``
    holds namespaced metrics that simply add up (link frames, server
    counters, per-worker columns).
    """

    issued: int = 0
    succeeded: int = 0
    timeouts: int = 0
    rcode_failures: int = 0
    latencies: List[float] = field(default_factory=list)
    qps: float = 0.0
    cache: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)


def pool_tallies(
    tallies: Sequence[RunTally], concurrent: bool = False
) -> RunTally:
    """Pool runs into one tally: the single merge behind every Report.

    Counters, cache counters and latency samples add up in the given
    order. Throughput adds up over *concurrent* parts (load workers
    share one window) and averages over repeats, which run one after
    another and each restart the clock.
    """
    from repro.cache import CacheStats

    if not tallies:
        raise ReportError("cannot pool zero runs")
    pooled = RunTally()
    rates: List[float] = []
    for tally in tallies:
        pooled.issued += tally.issued
        pooled.succeeded += tally.succeeded
        pooled.timeouts += tally.timeouts
        pooled.rcode_failures += tally.rcode_failures
        pooled.latencies.extend(tally.latencies)
        rates.append(tally.qps)
        for location, stats in tally.cache.items():
            pooled.cache.setdefault(location, CacheStats()).merge(stats)
        for key, value in tally.counters.items():
            pooled.counters[key] = pooled.counters.get(key, 0) + value
    pooled.qps = sum(rates) if concurrent else sum(rates) / len(rates)
    return pooled


def tally_metrics(tally: RunTally, namespace: str) -> Dict[str, object]:
    """A pooled tally as Report metrics: the common vocabulary, then
    its counters.

    Client-side cache locations are common; any other location is
    namespaced under ``<namespace>.cache``.
    """
    issued, succeeded = tally.issued, tally.succeeded
    metrics: Dict[str, object] = {
        "queries.issued": issued,
        "queries.succeeded": succeeded,
        "queries.failed": issued - succeeded,
        "queries.timeouts": tally.timeouts,
        "queries.rcode_failures": tally.rcode_failures,
        "queries.success_rate": succeeded / issued if issued else 0.0,
    }
    metrics.update(latency_metrics(tally.latencies))
    metrics["throughput.qps"] = round(tally.qps, 3)
    for location in sorted(tally.cache):
        normalized = location.replace("-", "_")
        prefix = (
            "cache" if normalized in CLIENT_CACHE_LOCATIONS
            else f"{namespace}.cache"
        )
        metrics.update(_cache_location_metrics(
            f"{prefix}.{normalized}", tally.cache[location]
        ))
    metrics.update(tally.counters)
    return metrics


def cache_stats_from(counters: Dict[str, float]):
    """A :class:`~repro.cache.CacheStats` from a counter mapping (extra
    keys such as precomputed ratios are ignored)."""
    from repro.cache import CacheStats

    return CacheStats(**{
        key: counters.get(key, 0) for key in CacheStats().as_dict()
    })


def as_runs(results) -> list:
    """One result or a list of repeats, as a list."""
    return list(results) if isinstance(results, (list, tuple)) else [results]


# -- substrate converters --------------------------------------------------

#: Error-name fragments classified as timeouts (sim outcomes record the
#: raising exception's type name).
_TIMEOUT_MARKERS = ("timeout",)

#: Error-name fragments classified as response-code failures.
_RCODE_MARKERS = ("rcode", "nxdomain", "servfail", "docerror")

#: Link counters of a simulated run, surfaced as ``sim.link.*``.
_LINK_COUNTERS = (
    "frames_1hop", "frames_2hop", "bytes_1hop", "bytes_2hop",
    "queries_frames", "responses_frames",
)


def _classify_error(error_name: str) -> str:
    lowered = error_name.lower()
    if any(marker in lowered for marker in _TIMEOUT_MARKERS):
        return "timeout"
    if any(marker in lowered for marker in _RCODE_MARKERS):
        return "rcode"
    return "other"


def _tally_experiment(result) -> RunTally:
    """One simulated run as a tally.

    Throughput spans this run's first arrival to its last success.
    """
    succeeded = timeouts = rcode_failures = 0
    latencies: List[float] = []
    first_issue: Optional[float] = None
    last_done: Optional[float] = None
    for outcome in result.outcomes:
        if outcome.resolution_time is not None:
            succeeded += 1
            latencies.append(outcome.resolution_time)
            done = outcome.issued_at + outcome.resolution_time
            last_done = done if last_done is None else max(last_done, done)
        elif outcome.error:
            kind = _classify_error(outcome.error)
            if kind == "timeout":
                timeouts += 1
            elif kind == "rcode":
                rcode_failures += 1
        if first_issue is None or outcome.issued_at < first_issue:
            first_issue = outcome.issued_at
    span = (
        last_done - first_issue
        if last_done is not None and first_issue is not None
        else 0.0
    )
    return RunTally(
        issued=len(result.outcomes),
        succeeded=succeeded,
        timeouts=timeouts,
        rcode_failures=rcode_failures,
        latencies=latencies,
        qps=succeeded / span if span > 0 else 0.0,
        cache=result.cache_stats,
        counters={
            f"sim.link.{key}": getattr(result.link, key)
            for key in _LINK_COUNTERS
        },
    )


def report_from_experiment_result(
    results,
    spec: Optional[Dict[str, object]] = None,
) -> Report:
    """Build the unified Report from simulation output.

    *results* is one :class:`~repro.experiments.resolution.ExperimentResult`
    or a list of repeats, pooled by :func:`pool_tallies`. Resolver and
    proxy caches, which only the simulator can see, are sim-namespaced.
    """
    runs = as_runs(results)
    metrics = tally_metrics(
        pool_tallies([_tally_experiment(result) for result in runs]), "sim"
    )
    metrics["sim.repeats"] = len(runs)
    # The telemetry timeline only makes sense for one run: repeats
    # restart the simulated clock, so their per-second series would
    # overlay rather than concatenate.
    telemetry = None
    if len(runs) == 1 and runs[0].outcomes:
        from repro.obs.telemetry import timeline_from_outcomes

        outcomes = runs[0].outcomes
        telemetry = timeline_from_outcomes(
            [outcome.issued_at for outcome in outcomes],
            [outcome.resolution_time for outcome in outcomes],
            [outcome.error for outcome in outcomes],
        )
    return Report(
        substrate="sim",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=results,
    )


#: Per-load-worker counters surfaced as ``live.workers.load.<i>.*``.
_LOAD_WORKER_METRICS = (
    "queries", "succeeded", "failed", "timeouts", "rcode_failures",
    "achieved_qps",
)

#: Server counters surfaced as ``live.server.*``.
_SERVER_METRICS = (
    "queries_handled", "datagrams_received", "datagrams_sent",
    "validations_sent",
)

#: Per-serve-worker counters surfaced as ``live.workers.serve.<i>.*``.
_SERVE_WORKER_METRICS = (
    "queries_handled", "datagrams_received", "datagrams_sent",
)


def _tally_loadgen(report: Dict[str, object], worker: bool) -> RunTally:
    """One load generator's report as a tally; a distributed *worker*
    also contributes its ``live.workers.load.<i>.*`` column."""
    tally = RunTally(
        issued=report["queries"],
        succeeded=report["succeeded"],
        timeouts=report["timeouts"],
        rcode_failures=report["rcode_failures"],
        latencies=[ms / 1000 for ms in report.get("latencies_ms", ())],
        qps=report["achieved_qps"],
        cache={
            location: cache_stats_from(stats)
            for location, stats in report.get("cache", {}).items()
        },
    )
    if worker:
        index = report["worker"]
        tally.counters = {
            f"live.workers.load.{index}.{key}": report[key]
            for key in _LOAD_WORKER_METRICS
        }
    return tally


def _tally_server(stats: Dict[str, object], worker: bool) -> RunTally:
    """One server's stats block as a counters-only tally; a pool
    *worker* also contributes its ``live.workers.serve.<i>.*`` column."""
    counters = {
        f"live.server.{key}": stats[key]
        for key in _SERVER_METRICS if key in stats
    }
    if worker:
        index = stats.get("worker", 0)
        counters.update({
            f"live.workers.serve.{index}.{key}": stats[key]
            for key in _SERVE_WORKER_METRICS if key in stats
        })
    cache = stats.get("resolver_cache")
    if isinstance(cache, dict):
        counters["live.cache.resolver.hits"] = cache.get("hits", 0)
        counters["live.cache.resolver.misses"] = cache.get("misses", 0)
    return RunTally(counters=counters)


def _serve_metrics(pools: List[Dict[str, object]]) -> Dict[str, object]:
    """The ``live.workers.serve.*`` pool facts of sharded serving.

    *pools* are :meth:`~repro.live.workers.ServePool.drain` blocks, one
    per repeat. Runtime facts cannot change between repeats, so the
    first block's stand; failures add up.
    """
    runtime = pools[0]["runtime"]
    failed = sorted({
        index for block in pools for index in block.get("failed_workers", ())
    })
    return {
        "live.workers.serve.count": runtime.get("serve_workers", 1),
        "live.workers.serve.failed": sum(
            block.get("workers_failed", 0) for block in pools
        ),
        "live.workers.serve.failed_workers": (
            ",".join(str(index) for index in failed) if failed else None
        ),
        "live.workers.reuseport": bool(runtime.get("reuseport")),
        "live.workers.uvloop": bool(runtime.get("uvloop")),
        "live.workers.warning": runtime.get("warning"),
    }


def report_from_loadgen(
    runs,
    spec: Optional[Dict[str, object]] = None,
    server_stats=None,
) -> Report:
    """Build the unified Report from live load-generation output.

    *runs* is one run or a list of repeats. A run is one
    :func:`~repro.live.loadgen.generate_load` report dict, or the
    ``{"load": [...], "load_failed": n}`` pass of
    :func:`~repro.live.workers.run_distributed_load`, whose per-worker
    reports ran concurrently and surface as ``live.workers.load.*``.
    *server_stats* optionally attaches the paired server counters under
    ``live.server.*``: one :class:`~repro.live.server.DocLiveServer` or
    :class:`~repro.live.workers.ServePool` stats block, or a list of
    them (one per repeat). Pool blocks also yield ``live.workers.serve.*``.
    """
    from repro.cache import CacheStats

    raw = runs
    runs = as_runs(runs)
    repeats: List[RunTally] = []
    elapsed = 0.0
    load_failed = 0
    load_workers = set()
    for run in runs:
        distributed = "load" in run
        parts = run["load"] if distributed else [run]
        if distributed:
            load_failed += run["load_failed"]
            load_workers.update(part["worker"] for part in parts)
        repeats.append(pool_tallies(
            [_tally_loadgen(part, distributed) for part in parts],
            concurrent=True,
        ))
        elapsed += max(part["elapsed_s"] for part in parts)
    pools: List[Dict[str, object]] = []
    servers: List[RunTally] = []
    for block in as_runs(server_stats) if server_stats is not None else []:
        if "runtime" in block:
            pools.append(block)
            servers.extend(
                _tally_server(entry, True) for entry in block["workers"]
            )
        else:
            servers.append(_tally_server(block, False))
    # Server parts carry counters only, so pooling them alongside the
    # load leaves throughput untouched.
    tally = pool_tallies([pool_tallies(repeats), *servers], concurrent=True)

    metrics = tally_metrics(tally, "live")
    for key in metrics:
        if key.endswith(".achieved_qps"):
            metrics[key] = round(metrics[key], 3)
    if "live.cache.resolver.hits" in metrics:
        metrics["live.cache.resolver.hit_ratio"] = CacheStats(
            hits=metrics["live.cache.resolver.hits"],
            misses=metrics["live.cache.resolver.misses"],
        ).hit_ratio
    first = runs[0]["load"] if "load" in runs[0] else [runs[0]]
    mode = first[0]["mode"]
    metrics["live.mode"] = mode
    # Concurrent load workers split the offered load between them.
    metrics["live.offered_rate_qps"] = (
        round(sum(part["offered_rate_qps"] for part in first), 3)
        if mode == "open" else None
    )
    metrics["live.concurrency"] = (
        sum(part["concurrency"] for part in first)
        if mode == "closed" else None
    )
    metrics["live.elapsed_s"] = round(elapsed, 3)
    metrics["live.repeats"] = len(runs)
    if load_workers:
        metrics["live.workers.load.count"] = len(load_workers)
        metrics["live.workers.load.failed"] = load_failed
    if pools:
        metrics.update(_serve_metrics(pools))
    # Same single-run rule as the sim side: repeats restart the clock,
    # so only an unrepeated run carries its per-second series.
    telemetry = None
    if len(runs) == 1 and len(first) == 1:
        telemetry = first[0].get("telemetry")
    elif len(runs) == 1:
        from repro.obs.telemetry import merge_timelines

        telemetry = merge_timelines(
            [part.get("telemetry") or [] for part in first]
        )
    return Report(
        substrate="live",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=list(telemetry) if telemetry else None,
        raw=raw,
    )


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.api.report`` — print the provenance stamp."""
    import json

    print(json.dumps(
        {"report_version": REPORT_VERSION, "provenance": provenance()},
        indent=2,
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
