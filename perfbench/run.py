"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sim-sweep``, ``live-hot``, ``live-cold``, ``fleet-1m`` (see
``perfbench/NOTES.md``). With ``--trace 0`` the last line of standard
output is one JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric of a separate traced pass.
Spans, provenance and details go to ``.perfbench_out/``. The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SCHEMA_PATH = os.path.join(ROOT, "tests", "report_schema.json")
WORKLOADS = ("sim-sweep", "live-hot", "live-cold", "fleet-1m")
#: Set-ups per run: this process's own plus fresh child processes.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "cpu_us_per_query": "us",
    "peak_rss_mb": "MiB",
}

#: Queries per cell of the sweep the traced run repeats with and
#: without tracing.
TRACE_SIM_QUERIES = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print only setup_s")
    return parser.parse_args(argv)


def import_program() -> None:
    """Make ``src/`` importable; exit 2 when the program is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
        import repro.api  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    if not os.path.exists(SCHEMA_PATH):
        print(f"perfbench: missing {SCHEMA_PATH}", file=sys.stderr)
        sys.exit(2)


def load_schema() -> dict:
    from repro.api.schema import load_schema as load

    return load(SCHEMA_PATH)


def child_setups(args, count: int) -> list:
    """``setup_s`` of *count* fresh processes doing only the set-up."""
    values = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed: {out.stderr[-2000:]}")
        values.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# -- workloads ----------------------------------------------------------------


def run_sim_workload(args) -> dict:
    import bench_sim
    from bench_common import process_start_age_s

    bench_sim.setup_sim()
    schema = load_schema()
    setup_s = process_start_age_s()
    if args.setup_only:
        return {"setup_s": setup_s}
    result = bench_sim.run_sim(args.seed, args.seconds, setup_s, schema)
    if args.trace:
        result["layers"] = trace_sim(args.seed, bench_sim)
    return result


def trace_sim(seed: int, bench_sim) -> dict:
    import layers

    plain = bench_sim.run_sweep(seed, TRACE_SIM_QUERIES)
    plain_s = sum(plain.cell_s)
    tracer = layers.install()
    try:
        traced = bench_sim.run_sweep(seed, TRACE_SIM_QUERIES)
    finally:
        tracer.unwrap_all()
    traced_s = sum(traced.cell_s)
    tracer.write(os.path.join(OUT_DIR, "spans-sim-sweep.npz"))
    agg, counters, pairs = layers.summarize([tracer])
    reports = [r["metrics"] for r in traced.reports]
    queries = sum(m["queries.issued"] for m in reports)
    metrics = layers.layer_metrics(agg, counters, pairs, queries,
                                   cells=len(reports))
    hits = sum(m.get("sim.cache.resolver.hits", 0) for m in reports)
    misses = sum(m.get("sim.cache.resolver.misses", 0) for m in reports)
    metrics["dns.resolver_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["trace.spans"] = len(tracer)
    # Tracing must not change what the program computes.
    metrics["_identical"] = (bench_sim.sweep_digest(plain)
                             == bench_sim.sweep_digest(traced))
    return metrics


def run_fleet_workload(args) -> dict:
    import bench_fleet
    from bench_common import process_start_age_s

    schema = load_schema()
    start = time.perf_counter()
    spec = bench_fleet.setup_fleet(args.seed)
    calibrate_s = time.perf_counter() - start
    setup_s = process_start_age_s()
    if args.setup_only:
        return {"setup_s": setup_s}
    result = bench_fleet.run_fleet(spec, args.seconds, setup_s, schema)
    if args.trace:
        result["layers"] = trace_fleet(spec, bench_fleet, result, calibrate_s)
    return result


def trace_fleet(spec, bench_fleet, result, calibrate_s) -> dict:
    import layers

    tracer = layers.install()
    try:
        report, traced_s = bench_fleet.one_run(spec)
    finally:
        tracer.unwrap_all()
    tracer.write(os.path.join(OUT_DIR, "spans-fleet-1m.npz"))
    agg, counters, pairs = layers.summarize([tracer])
    queries = report.metrics["fleet.sample.queries"]
    metrics = layers.layer_metrics(agg, counters, pairs, queries)
    metrics["fleet.calibrate_s"] = calibrate_s
    metrics["trace.overhead_ratio"] = traced_s / result["details"]["run_p50_s"]
    metrics["trace.spans"] = len(tracer)
    return metrics


def run_live_workload(args) -> dict:
    import bench_live

    raw = asyncio.run(bench_live.run_live(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR,
        setup_only=args.setup_only,
    ))
    if args.setup_only:
        return raw
    result = {
        "setup_s": raw["setup_s"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "correct": raw["wrong"] == 0,
        "end_to_end": bench_live.end_to_end(raw),
        "details": bench_live.live_details(raw),
    }
    if args.trace:
        result["layers"] = trace_live(raw, bench_live)
    return result


def trace_live(raw, bench_live) -> dict:
    import layers

    traced = raw["traced"]
    reference = traced["reference"]
    stage = reference["stage"]
    queries = stage.attempted
    agg, counters, pairs = layers.summarize(
        [traced["server_spans"], traced["client_spans"]]
    )
    server_agg = layers.summarize([traced["server_spans"]])[0]
    client_agg = layers.summarize([traced["client_spans"]])[0]
    metrics = layers.layer_metrics(agg, counters, pairs, queries,
                                   client_agg=client_agg, server_agg=server_agg)
    before, after = raw["reference"]["server_stats"]

    def ratio(hits, misses):
        total = hits + misses
        return hits / total if total else 0.0

    metrics["doc.fastpath_hit_ratio"] = ratio(
        after["fastpath_hits"] - before["fastpath_hits"],
        after["fastpath_misses"] - before["fastpath_misses"],
    )
    metrics["dns.resolver_hit_ratio"] = ratio(
        after["resolver_cache"]["hits"] - before["resolver_cache"]["hits"],
        after["resolver_cache"]["misses"] - before["resolver_cache"]["misses"],
    )
    untraced = bench_live.end_to_end(raw)["cpu_us_per_query"]
    answered = max(stage.succeeded, 1)
    traced_cpu = (reference["server_cpu_s"] + reference["client_cpu_s"]) \
        / answered * 1e6
    metrics["trace.overhead_ratio"] = traced_cpu / untraced
    details = bench_live.live_details(raw)
    metrics.update({
        "live.server_cpu_us_per_query": details["server_cpu_us_per_query"],
        "live.client_cpu_us_per_query": details["client_cpu_us_per_query"],
        "live.latency_p50_ms": details["latency_p50_ms"],
        "live.latency_p99_ms": details["latency_p99_ms"],
        "live.latency_samples": details["latency_samples"],
        "live.rcvbuf_drops": details["rcvbuf_drops_reference"]
        + details["rcvbuf_drops_ladder"],
        "live.capacity_qps": details["capacity_qps"],
        "loadgen.late_p99_ms": details["late_p99_ms"],
        "loadgen.inflight_max": details["inflight_max"],
    })
    metrics["trace.spans"] = sum(
        stats["count"] for stats in agg.values()
    )
    metrics["_identical"] = traced["wrong"] == 0
    return metrics


# -- output -------------------------------------------------------------------


def per_layer_names() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def emit(args, result: dict, started: float) -> int:
    from bench_common import median, provenance

    correct = bool(result["correct"])
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if args.trace:
        layer = result["layers"]
        correct = correct and layer.pop("_identical", True)
        layer["fail_ratio"] = failed / attempted if attempted else 0.0
        units = per_layer_names()
        # A layer the workload never calls reads 0.
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = median(result["setup_all"])
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(ROOT, loopback=args.workload.startswith("live")),
        "details": result.get("details", {}),
        "setup_all": result.get("setup_all"),
        "elapsed_s": time.perf_counter() - started,
        "metrics": metrics,
    }
    with open(os.path.join(
            OUT_DIR, f"run-{args.workload}-{args.seed}-t{args.trace}.json"),
            "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = {
        "sim-sweep": run_sim_workload,
        "fleet-1m": run_fleet_workload,
        "live-hot": run_live_workload,
        "live-cold": run_live_workload,
    }[args.workload]
    result = runner(args)
    if args.setup_only:
        print(json.dumps({"setup_s": result["setup_s"]}))
        return 0
    result["setup_all"] = [result["setup_s"]] + child_setups(
        args, SETUP_REPEATS - 1
    )
    return emit(args, result, started)


if __name__ == "__main__":
    sys.exit(main())
