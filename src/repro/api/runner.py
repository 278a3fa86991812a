"""``repro.api.run``: one RunSpec in, one Report out, any substrate.

The sim path compiles the spec to a
:class:`~repro.scenarios.ScenarioRunner` execution (repeats fan out
over the :mod:`~repro.scenarios.executors` backends); the live path
compiles it to one serve+load pass per repeat — a loopback
:class:`~repro.live.server.DocLiveServer`, a sharded
:class:`~repro.live.workers.ServePool` or an external endpoint, driven
by :func:`~repro.live.loadgen.generate_load` inline or by
:func:`~repro.live.workers.run_distributed_load`; the fleet path compiles it to
a :func:`~repro.fleet.run_fleet` aggregate pass (repeats fan out over
the same executor backends). All paths emit the same versioned
:class:`~repro.api.report.Report`.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Union

from repro.live.wiring import DEFAULT_SECRET
from repro.obs.log import get_logger

from .report import Report, report_from_experiment_result, report_from_loadgen
from .spec import RunSpec

_log = get_logger("repro.api.runner")


def run(
    spec: Union[RunSpec, str],
    *,
    snapshot_sinks: Sequence[Callable[[Dict[str, object]], None]] = (),
    secret: bytes = DEFAULT_SECRET,
) -> Report:
    """Execute *spec* (a :class:`RunSpec` or a spec string) and return
    its :class:`~repro.api.report.Report`.

    Two live-only inputs stay out of the spec (and so out of the
    Report): *snapshot_sinks* receive each per-second telemetry record
    of an inline load pass as it is produced (the hook behind
    ``run --stream`` and the progress line), and *secret* is the OSCORE
    master secret shared with the server.
    """
    if isinstance(spec, str):
        spec = RunSpec.from_spec(spec)
    log = _log.bind(
        substrate=spec.substrate,
        transport=spec.scenario.transport,
        repeats=spec.repeats,
    )
    log.info("run starting")
    if spec.substrate == "sim":
        report = _run_sim(spec)
    elif spec.substrate == "fleet":
        report = _run_fleet(spec)
    else:
        report = _run_live(spec, snapshot_sinks, secret)
    log.info(
        "run finished",
        succeeded=report.metrics.get("queries.succeeded"),
        qps=report.metrics.get("throughput.qps"),
        telemetry_snapshots=(
            len(report.telemetry) if report.telemetry else 0
        ),
    )
    return report


def _run_sim(spec: RunSpec) -> Report:
    from repro.scenarios.executors import get_executor
    from repro.scenarios.runner import ScenarioRunner

    if spec.repeats == 1:
        result = ScenarioRunner().run(
            spec.to_scenario(), frame_capture="records"
        )
        return report_from_experiment_result(result, spec=spec.to_dict())
    scenarios = [spec.to_scenario(seed) for seed in spec.repeat_seeds()]
    results = get_executor(None, spec.workers).map(
        _run_one_scenario, scenarios
    )
    return report_from_experiment_result(results, spec=spec.to_dict())


def _run_one_scenario(scenario):
    """Module-level so the process executor can pickle it."""
    from repro.scenarios.runner import ScenarioRunner

    return ScenarioRunner().run(scenario, frame_capture="counts")


def _run_fleet(spec: RunSpec) -> Report:
    from repro.fleet import report_from_fleet, run_fleet
    from repro.scenarios.executors import get_executor

    if spec.repeats == 1:
        result = run_fleet(spec.to_scenario(), spec.fleet)
        return report_from_fleet(result, spec=spec.to_dict())
    jobs = [
        (spec.to_scenario(seed), spec.fleet) for seed in spec.repeat_seeds()
    ]
    results = get_executor(None, spec.workers).map(_run_one_fleet, jobs)
    return report_from_fleet(results, spec=spec.to_dict())


def _run_one_fleet(job):
    """Module-level so the process executor can pickle it."""
    from repro.fleet import run_fleet

    scenario, options = job
    return run_fleet(scenario, options)


def _run_live(spec: RunSpec, sinks, secret: bytes) -> Report:
    """The serve+load pairing, one pass per repeat.

    Self-serving runs restart the server per repetition so each repeat
    is an independent measurement (and OSCORE sender sequences restart
    cleanly, see :class:`~repro.live.client.LiveResolver`).
    """
    runs = []
    server_stats = []
    for seed in spec.repeat_seeds():
        load, stats = _live_repeat(spec, seed, sinks, secret)
        runs.append(load)
        if stats is not None:
            server_stats.append(stats)
    return report_from_loadgen(
        runs if spec.repeats > 1 else runs[0],
        spec=spec.to_dict(),
        server_stats=server_stats,
    )


def _live_repeat(spec: RunSpec, seed: int, sinks, secret: bytes):
    """One repeat: the serve step, then the load step.

    The server is an external host, a forked :class:`ServePool` when
    either side is sharded, or else an in-process
    :class:`~repro.live.server.DocLiveServer` sharing the load
    generator's event loop. Load runs inline, or over forked
    generators when ``load_workers`` > 1. Both forks happen here,
    outside any running event loop. Returns the loadgen report (or
    distributed pass) and the server stats (``None`` for an external
    host).
    """
    import asyncio

    from repro.live.workers import ServePool, run_distributed_load

    scenario = spec.to_scenario(seed)
    workload = scenario.workload
    options = spec.live
    # The zone derives from this repeat's seed on every serve worker:
    # any worker must answer any query identically, so the per-worker
    # decorrelation lives in the load side only.
    server_kwargs = dict(
        transport=scenario.transport,
        host="127.0.0.1",
        port=options.port,
        num_names=workload.num_names,
        dataset=options.dataset,
        name_seed=options.name_seed,
        ttl=workload.ttl,
        scheme=scenario.scheme,
        seed=seed,
        secret=secret,
    )
    endpoint = None if options.host is None else (options.host, options.port)
    pool = None
    if endpoint is None and (
        options.serve_workers > 1 or options.load_workers > 1
    ):
        pool = ServePool(workers=options.serve_workers, **server_kwargs)
        endpoint = pool.start()
    try:
        stats = None
        if options.load_workers > 1:
            load = run_distributed_load(
                endpoint,
                transport=scenario.transport,
                scheme=scenario.scheme,
                cache_placement=spec.client_cache_placement(),
                block_size=scenario.block_size,
                secret=secret,
                timeout=options.timeout,
                num_names=workload.num_names,
                dataset=options.dataset,
                name_seed=options.name_seed,
                rate=workload.query_rate,
                duration=workload.num_queries / workload.query_rate,
                mode=options.mode,
                concurrency=options.concurrency,
                seed=seed,
                workload=workload,
                workers=options.load_workers,
            )
        else:
            load, stats = asyncio.run(
                _load_inline(spec, scenario, endpoint, server_kwargs, sinks)
            )
        if pool is not None:
            stats = pool.drain()
    finally:
        if pool is not None:
            pool.terminate()
    return load, stats


async def _load_inline(
    spec: RunSpec, scenario, endpoint, server_kwargs, sinks
):
    """The in-process load step; with no *endpoint* it also serves in
    process. Returns the loadgen report and the server stats."""
    from repro.live.client import LiveResolver
    from repro.live.loadgen import generate_load
    from repro.live.server import DocLiveServer
    from repro.live.wiring import build_names

    workload = scenario.workload
    options = spec.live
    server = None
    if endpoint is None:
        server = DocLiveServer(**server_kwargs)
        await server.start()
        endpoint = server.endpoint
    try:
        resolver = LiveResolver(
            endpoint,
            transport=scenario.transport,
            scheme=scenario.scheme,
            cache_placement=spec.client_cache_placement(),
            block_size=scenario.block_size,
            seed=scenario.seed + 1,
            secret=server_kwargs["secret"],
            timeout=options.timeout,
        )
        async with resolver:
            report = await generate_load(
                resolver,
                build_names(
                    workload.num_names,
                    dataset=options.dataset,
                    name_seed=options.name_seed,
                ),
                rate=workload.query_rate,
                duration=workload.num_queries / workload.query_rate,
                mode=options.mode,
                concurrency=options.concurrency,
                timeout=options.timeout,
                seed=scenario.seed,
                workload=workload,
                include_latencies=True,
                snapshot_sinks=sinks,
            )
        return report, server.stats() if server is not None else None
    finally:
        if server is not None:
            await server.stop()
