"""The sim-sweep workload: the paper's Figure 7 grid on the exact simulator.

``ScenarioRunner.sweep`` over {udp, dtls, coap, oscore} x {figure2,
three-hop} x loss {0.05, 0.25} with the serial executor, each cell a
mixed A/AAAA workload with 2 records per name and Zipf(0.8) popularity
over 200 names, so DNS responses fragment over 6LoWPAN. Each cell's
unified Report is built as part of the work, as a sweep user would.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import List

from repro.scenarios.executors import SerialExecutor

from bench_common import digest, median, proc_peak_rss_mb, self_cpu_s

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

GRID = dict(
    transports=("udp", "dtls", "coap", "oscore"),
    topologies=("figure2", "three-hop"),
    losses=(0.05, 0.25),
)
#: Queries per cell; one round of the sweep takes about 3 s. A run
#: repeats rounds for ``--seconds`` and reports per-round medians.
QUERIES_PER_CELL = 200
MIN_ROUNDS = 3
#: The bit-identity guard: a small sweep at a fixed seed whose digest
#: must equal the one kept in ``reference.json``.
REFERENCE_SEED = 1
REFERENCE_QUERIES = 40


def base_scenario(seed: int, queries: int):
    from repro.dns import RecordType
    from repro.scenarios import Scenario, WorkloadSpec

    return Scenario(
        workload=WorkloadSpec(
            num_queries=queries,
            num_names=200,
            records_per_name=2,
            rtype_mix=((int(RecordType.A), 0.5), (int(RecordType.AAAA), 0.5)),
            zipf_alpha=0.8,
        ),
        seed=seed,
    )


class TimedSerialExecutor(SerialExecutor):
    """The serial executor, recording each cell's wall time and report.

    Runs cells exactly as its parent class does; building each cell's
    Report inside the timed region charges the report to its cell.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cell_s: List[float] = []
        self.reports: List[dict] = []

    def map(self, fn, items):
        results = []
        for item in items:
            start = time.perf_counter()
            cell = fn(item)
            report = cell.report()
            self.cell_s.append(time.perf_counter() - start)
            self.reports.append(report.to_json())
            results.append(cell)
        return results


def run_sweep(seed: int, queries: int) -> TimedSerialExecutor:
    from repro.scenarios import ScenarioRunner

    executor = TimedSerialExecutor()
    ScenarioRunner().sweep(
        base=base_scenario(seed, queries), executor=executor, **GRID
    )
    return executor


def sweep_digest(executor: TimedSerialExecutor) -> str:
    return digest([report["metrics"] for report in executor.reports])


def reference_digest() -> str:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["sim_sweep_digest"]


def check_reports(reports: List[dict], schema: dict) -> int:
    """How many cell Reports fail the schema.

    The values themselves are checked by the digests in :func:`run_sim`.
    """
    from repro.api.schema import ValidationError, validate

    bad = 0
    for report in reports:
        try:
            validate(report, schema)
        except ValidationError:
            bad += 1
    return bad


def run_sim(seed: int, seconds: float, setup_s: float, schema: dict) -> dict:
    """Repeat the sweep at one seed for *seconds*; report per-round medians.

    Every round does identical work, so every round must also produce
    the identical digest.
    """
    rounds: List[TimedSerialExecutor] = []
    round_s: List[float] = []
    round_cpu: List[float] = []
    began = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - began + median(round_s) <= seconds
    ):
        # Collect the previous round's garbage untimed, so that every
        # round starts as a user's single sweep would.
        gc.collect()
        cpu0, wall0 = self_cpu_s(), time.perf_counter()
        rounds.append(run_sweep(seed, QUERIES_PER_CELL))
        round_s.append(time.perf_counter() - wall0)
        round_cpu.append(self_cpu_s() - cpu0)
    queries = sum(r["metrics"]["queries.issued"] for r in rounds[0].reports)
    reports = [report for executor in rounds for report in executor.reports]
    bad = check_reports(reports, schema)
    digests = {sweep_digest(executor) for executor in rounds}
    guard = run_sweep(REFERENCE_SEED, REFERENCE_QUERIES)
    identical = sweep_digest(guard) == reference_digest()
    deterministic = len(digests) == 1
    return {
        "setup_s": setup_s,
        "attempted": len(reports) + len(guard.reports),
        "failed": bad + (0 if identical else len(guard.reports))
        + (0 if deterministic else len(reports)),
        "correct": identical and deterministic and bad == 0,
        "end_to_end": {
            "setup_s": setup_s,
            "queries_per_s": median([queries / s for s in round_s]),
            "cpu_us_per_query": median(round_cpu) / queries * 1e6,
            "peak_rss_mb": proc_peak_rss_mb(os.getpid()),
        },
        "details": {"rounds": len(rounds), "cells": len(rounds[0].reports),
                    "queries_per_round": queries, "round_s": round_s},
    }


def setup_sim() -> None:
    """What a sweep user pays before the first cell runs: the imports."""
    import repro.api  # noqa: F401
    import repro.scenarios  # noqa: F401
