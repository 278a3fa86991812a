"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
The smoke tests run every workload for about a second each.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import openloop  # noqa: E402
import spans  # noqa: E402
from bench_common import (  # noqa: E402
    percentile,
    reportable_percentile,
)


# -- self-time arithmetic -------------------------------------------------------


def test_self_times_subtract_children():
    # root [0, 100) with children [10, 30) and [40, 90); the second child
    # has its own child [50, 60).
    start = np.array([0, 10, 40, 50], dtype=np.int64)
    end = np.array([100, 30, 90, 60], dtype=np.int64)
    parent = np.array([-1, 0, 0, 2], dtype=np.int32)
    assert spans.self_times(start, end, parent).tolist() == [30, 20, 40, 10]


def test_tracer_records_nesting_roots_and_self_time():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return inner() + inner()

    inner = tracer.traced(inner, "b.inner")
    outer = tracer.traced(outer, "a.outer")
    event = tracer.traced(lambda: inner(), "sim.event", root=True)
    assert outer() == 2
    event()
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name"]]
    assert names == ["a.outer", "b.inner", "b.inner", "sim.event", "b.inner"]
    assert arrays["parent"].tolist() == [-1, 0, 0, -1, 3]
    assert arrays["root"].tolist() == [0, 0, 0, 1, 1]
    agg = spans.aggregate(tracer.names, arrays)
    # outer spans 0..50, inner 10..20 and 30..40: self 30 + 10 + 10.
    assert agg["a.outer"] == {"count": 1, "incl_ns": 50.0, "self_ns": 30.0}
    assert agg["b.inner"]["count"] == 3
    assert agg["b.inner"]["self_ns"] == 30.0


def test_wrap_function_patches_every_alias_and_unwraps(tmp_path):
    from repro.lowpan import adaptation, iphc

    original = iphc.compress
    assert adaptation.compress is original
    tracer = spans.Tracer()
    sites = tracer.wrap_function(iphc, "compress", "lowpan.iphc")
    assert sites >= 2
    assert adaptation.compress is not original
    assert adaptation.compress is iphc.compress
    tracer.unwrap_all()
    assert adaptation.compress is original and iphc.compress is original


def test_spans_round_trip_through_a_file(tmp_path):
    tracer = spans.Tracer()
    work = tracer.traced(lambda x: x * 2, "a.work")
    work(3)
    tracer.count("a.things", 5)
    path = str(tmp_path / "spans.npz")
    tracer.write(path)
    names, arrays, counters = spans.load(path)
    assert names == ["a.work"]
    assert counters == {"a.things": 5}
    assert len(arrays["start"]) == 1


# -- percentiles ---------------------------------------------------------------


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5.0
    assert percentile(range(101), 99) == 99.0


@pytest.mark.parametrize("count, expected", [
    (1000, 99.0), (5000, 99.0), (999, 98.9), (100, 90.0), (20, 50.0),
    (19, None), (0, None),
])
def test_reportable_percentile_keeps_ten_samples_beyond(count, expected):
    assert reportable_percentile(count) == expected


# -- lateness and backlog ------------------------------------------------------


def test_flat_lateness_is_no_backlog_however_noisy():
    lateness = [0.001, 0.009, 0.002, 0.008] * 50
    assert not openloop.backlog_grows(lateness)


def test_growing_lateness_is_a_backlog():
    lateness = [i * 0.0002 for i in range(300)]  # 0 -> 60 ms
    assert openloop.backlog_grows(lateness)


def _stage(latencies, lateness=(), **counts):
    stage = openloop.StageResult(rate=100.0, duration=1.0)
    stage.latencies = list(latencies)
    stage.lateness = list(lateness) or [0.0] * len(latencies)
    stage.succeeded = len(latencies)
    for key, value in counts.items():
        setattr(stage, key, value)
    stage.attempted = stage.succeeded + stage.failed
    return stage


def test_stage_pass_rules():
    fast = [0.001] * 2000
    assert _stage(fast).passed
    assert not _stage([0.2] * 2000).passed  # p99 over the limit
    assert not _stage(fast, timeouts=3).passed  # 3/2003 > 0.1% failed
    assert _stage(fast, timeouts=2).passed  # 2/2002 <= 0.1%
    assert not _stage(fast, lateness=[i * 1e-5 for i in range(2000)]).passed


def test_failed_queries_count_as_infinite_latency():
    stage = _stage([0.001] * 98, timeouts=2)
    assert stage.latency_p(50) == 0.001
    assert stage.latency_p(99) == float("inf")


def test_poisson_schedule_is_seeded_and_in_range():
    import random

    a = openloop.poisson_schedule(random.Random(3), 1000.0, 2.0, 5.0)
    b = openloop.poisson_schedule(random.Random(3), 1000.0, 2.0, 5.0)
    assert a == b
    assert all(5.0 < t < 7.0 for t in a)
    assert 1800 < len(a) < 2200


def _ladder(knee, flaky=()):
    """Run the ladder against a fake system that passes below *knee*."""
    seen = []
    flaky = list(flaky)

    async def run(rate):
        seen.append(rate)
        ok = rate <= knee and not (flaky and flaky[0] == len(seen) and flaky.pop(0))
        return _stage([0.001] * 2000 if ok else [0.5] * 2000)

    clock = iter(range(1000)).__next__
    capacity, stages = asyncio.run(openloop.capacity_ladder(
        run, 100.0, 2.0, 3, budget_s=500, stage_s=1, clock=clock,
    ))
    return capacity, seen


def test_ladder_brackets_and_bisects_the_knee():
    capacity, seen = _ladder(knee=500.0)
    # 100, 200, 400 pass; 800 fails twice; bisection between 400 and 800.
    assert seen[:5] == [100.0, 200.0, 400.0, 800.0, 800.0]
    assert 400.0 <= capacity <= 500.0
    assert capacity > 400.0


def test_ladder_survives_one_stall():
    capacity, seen = _ladder(knee=500.0, flaky=[2])
    assert seen[:3] == [100.0, 200.0, 200.0]
    assert capacity > 400.0


def test_ladder_reports_zero_when_the_first_rate_fails():
    capacity, _ = _ladder(knee=50.0)
    assert capacity == 0.0


# -- smoke runs ----------------------------------------------------------------


def _run(workload, trace, seconds="1"):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload",
                         ["sim-sweep", "live-hot", "live-cold", "fleet-1m"])
def test_smoke_end_to_end(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in _spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sim-sweep", "live-hot"])
def test_smoke_traced(workload):
    # Live CPU is read in clock ticks; a 1 s run reads too few of them
    # to tell traced from untraced reliably.
    result = _run(workload, 1, seconds="3")
    assert result["correct"] is True
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0
    assert result["metrics"]["coap.encode_us"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
