"""The fleet-1m workload: a million DoC clients on the fleet substrate.

The spec of ``examples/million_clients.py`` (1M clients, 4M queries, 64
names, client DNS and CoAP caches) with ``fleet-sample-cap=262144``.
Set-up runs the calibration probes; each timed repeat is the full
``RunSpec -> run() -> Report`` path, report building included.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import List

from bench_common import digest, median, proc_peak_rss_mb, self_cpu_s

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

BASE = (
    "one-hop,transport=coap,clients=1000000,queries=4000000,rate=400000,"
    "names=64,cache=client-dns+client-coap,substrate=fleet,"
    "fleet-sample-cap=262144"
)
MIN_RUNS = 3
#: The bit-identity guard: a smaller fleet at a fixed seed, still thinned
#: (its sample cap is below its query count), whose Report digest must
#: equal the one kept in ``reference.json``. It takes about 0.3 s.
GUARD_SPEC = (
    "one-hop,transport=coap,clients=100000,queries=400000,rate=40000,"
    "names=64,cache=client-dns+client-coap,substrate=fleet,"
    "fleet-sample-cap=16384,seed=1"
)


def fleet_spec(seed: int):
    from repro.api import RunSpec

    return RunSpec.from_spec(f"{BASE},seed={seed}")


def setup_fleet(seed: int):
    """Imports, spec parsing and the calibration probe runs."""
    from repro.fleet.service import calibrate

    spec = fleet_spec(seed)
    calibrate(spec.to_scenario(), spec.fleet)
    return spec


def check_report(report, schema: dict) -> bool:
    """The Report passes the schema and answered at least one query.

    The values themselves are checked by the digests in :func:`run_fleet`.
    """
    from repro.api.schema import ValidationError, validate

    try:
        validate(report.to_json(), schema)
    except ValidationError:
        return False
    return report.metrics["queries.succeeded"] > 0


def guard_digest() -> str:
    """Digest of the guard fleet's Report metrics."""
    from repro.api import RunSpec, run

    return digest(run(RunSpec.from_spec(GUARD_SPEC)).metrics)


def reference_digest() -> str:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["fleet_digest"]


def one_run(spec):
    from repro.api import run

    start = time.perf_counter()
    report = run(spec)
    return report, time.perf_counter() - start


def run_fleet(spec, seconds: float, setup_s: float, schema: dict) -> dict:
    """Repeat the run for *seconds*; report per-run medians.

    A fleet Report holds no wall-clock values, so every run at one seed
    must produce the identical digest.
    """
    run_s: List[float] = []
    run_cpu: List[float] = []
    sampled: List[int] = []
    digests = set()
    bad = 0
    began = time.perf_counter()
    while len(run_s) < MIN_RUNS or (
        time.perf_counter() - began + median(run_s) <= seconds
    ):
        # Collect the previous run's garbage untimed, so that every run
        # starts as a user's single run would.
        gc.collect()
        cpu0 = self_cpu_s()
        report, elapsed = one_run(spec)
        run_cpu.append(self_cpu_s() - cpu0)
        run_s.append(elapsed)
        metrics = report.metrics
        sampled.append(metrics["fleet.sample.queries"])
        digests.add(digest(metrics))
        if not check_report(report, schema):
            bad += 1
        # A Report holds about 260k objects; alive during the next run,
        # they would slow its garbage collection by a fifth.
        del report
    peak_rss = proc_peak_rss_mb(os.getpid())
    identical = guard_digest() == reference_digest()
    deterministic = len(digests) == 1
    return {
        "setup_s": setup_s,
        "attempted": len(run_s) + 1,
        "failed": bad + (0 if identical else 1)
        + (0 if deterministic else len(run_s)),
        "correct": identical and deterministic and bad == 0,
        "end_to_end": {
            "setup_s": setup_s,
            "queries_per_s": median([q / s for q, s in zip(sampled, run_s)]),
            "cpu_us_per_query": median(
                [c / q for c, q in zip(run_cpu, sampled)]
            ) * 1e6,
            "peak_rss_mb": peak_rss,
        },
        "details": {
            "runs": len(run_s),
            "run_s": run_s,
            "run_p50_s": median(run_s),
            "sampled_queries_per_run": sampled[0],
            "client_dns_hit_ratio": metrics.get("cache.client_dns.hit_ratio"),
        },
    }
