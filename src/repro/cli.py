"""Command-line interface: explore the reproduction without writing code.

Subcommands
-----------
``run``
    The one way to launch a run: execute a :class:`repro.api.RunSpec`
    — ``"[preset][,key=value]..."`` including ``substrate=sim|live|fleet``,
    ``repeats=N``, ``workers=N`` — on any substrate and print (or
    ``--json``-emit) the versioned unified Report. Alternatives joined
    by ``|`` (``transport=udp|coap``) sweep their cross product and
    emit one Report per cell. ``substrate=live`` with
    ``live-host``/``live-port`` drives load against a running
    ``serve``; ``--stream`` mirrors its per-second telemetry as NDJSON
    to stdout, a file, or a TCP peer.
``dissect``
    Print the Figure 6 per-layer packet dissection for one transport
    (any registry profile, including the modeled QUIC), or for every
    transport with ``--sweep``.
``resolve``
    Run a demo resolution over an optional scenario spec and print
    per-name timings.
``memory``
    Print the Figure 5 / Figure 8 build-size tables.
``compress``
    Show the Section 7 CBOR compression for a given name.
``serve``
    Run the live DoC server on a real UDP socket (any live transport
    profile: udp, dtls, coap, coaps, oscore).
``watch``
    Render a telemetry NDJSON stream (from ``--stream``) as live
    qps/p99 lines — from stdin, or over TCP with ``--listen PORT``.

Examples
--------
::

    python -m repro.cli run one-hop,transport=coap,queries=20
    python -m repro.cli run transport=coap,queries=50,loss=0.2,retries=1
    python -m repro.cli run figure7,transport=oscore
    python -m repro.cli run figure7,repeats=5,workers=4 --json report.json
    python -m repro.cli run "one-hop|figure2,transport=udp|coap|oscore" --json
    python -m repro.cli run "cache=none|client-coap+proxy,workers=2"
    python -m repro.cli run transport=coap,queries=50,substrate=live --json
    python -m repro.cli serve --transport udp
    python -m repro.cli run "transport=udp,queries=100,rate=50,substrate=live,
        live-host=127.0.0.1,live-port=5853" --json
    python -m repro.cli serve --transport oscore --duration 30
    python -m repro.cli run "transport=oscore,mode=closed,concurrency=16,
        queries=250,rate=50,substrate=live,live-host=127.0.0.1,
        live-port=5853" --stream -
    python -m repro.cli dissect --transport oscore
    python -m repro.cli dissect --sweep
    python -m repro.cli resolve transport=coaps --names 5
    python -m repro.cli resolve three-hop,loss=0.1
    python -m repro.cli memory
    python -m repro.cli compress --name device.example.org
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _emit_json(payload: dict, dest: str) -> None:
    """Write *payload* to stdout (``dest == "-"``) or to a file."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=False)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {dest}")


def _print_report(report) -> None:
    """Human summary of one unified Report."""
    metrics = report.metrics
    spec = report.spec
    print(f"substrate:        {report.substrate}")
    print(f"transport:        {spec.get('transport', '?')}")
    print(f"queries:          {metrics['queries.issued']}")
    print(f"success rate:     {metrics['queries.success_rate']:.2%} "
          f"({metrics['queries.timeouts']} timeouts, "
          f"{metrics['queries.rcode_failures']} rcode failures)")
    p50 = metrics["latency.p50_ms"]
    if p50 is not None:
        print(f"latency p50:      {p50:.2f} ms")
        print(f"latency p95:      {metrics['latency.p95_ms']:.2f} ms")
        print(f"latency p99:      {metrics['latency.p99_ms']:.2f} ms")
        print(f"latency mean/max: {metrics['latency.mean_ms']:.2f} / "
              f"{metrics['latency.max_ms']:.2f} ms")
    print(f"throughput:       {metrics['throughput.qps']} qps")
    locations = sorted({
        key.split(".")[1]
        for key in metrics
        if key.startswith("cache.")
    })
    for location in locations:
        print(f"cache {location:12s} hit-ratio "
              f"{metrics[f'cache.{location}.hit_ratio']:.0%}  "
              f"hits {metrics[f'cache.{location}.hits']}  "
              f"validations {metrics[f'cache.{location}.validations']}")
    if report.substrate == "sim":
        print(f"frames @1hop:     {metrics['sim.link.frames_1hop']}")
        print(f"frames @2hop:     {metrics['sim.link.frames_2hop']}")


def _hit_ratio(metrics) -> Optional[float]:
    """Hit ratio over every lookup the client and proxy caches saw
    (``None`` when the run had none of those caches)."""
    counts = {"hits": 0, "stale_hits": 0, "misses": 0}
    for name, value in metrics.items():
        if name.startswith(("cache.", "sim.cache.proxy.")):
            kind = name.rsplit(".", 1)[1]
            if kind in counts:
                counts[kind] += value
    lookups = sum(counts.values())
    return counts["hits"] / lookups if lookups else None


def _print_sweep(reports) -> None:
    """One row per sweep cell, read from its Report metrics."""
    width = max(len(key) for key in reports)
    print(f"{'cell':{width}s} {'queries':>7s} {'success':>8s} "
          f"{'p50 ms':>9s} {'p95 ms':>9s} {'qps':>9s} "
          f"{'frames@1hop':>11s} {'hit%':>6s}")

    def column(value, spec: str, size: int) -> str:
        return f"{'-':>{size}s}" if value is None else f"{value:{size}{spec}}"

    for key, report in reports.items():
        metrics = report.metrics
        print(
            f"{key:{width}s} {metrics['queries.issued']:7d} "
            f"{metrics['queries.success_rate']:8.2%} "
            f"{column(metrics['latency.p50_ms'], '.1f', 9)} "
            f"{column(metrics['latency.p95_ms'], '.1f', 9)} "
            f"{metrics['throughput.qps']:9.2f} "
            f"{column(metrics.get('sim.link.frames_1hop'), 'd', 11)} "
            f"{column(_hit_ratio(metrics), '.1%', 6)}"
        )


def _run_sweep(cells, sinks, secret: bytes):
    """Run every sweep cell through :func:`repro.api.run`, in spec order.

    Sim and fleet cells fan out over the scenario executors
    (``workers=N`` picks N processes) and each runs its repeats
    serially; live cells run one after another.
    """
    from dataclasses import replace

    from repro.api import run
    from repro.scenarios.executors import get_executor

    workers = max(spec.workers or 1 for spec in cells.values())
    batch = [
        replace(spec, workers=None)
        for spec in cells.values() if spec.substrate != "live"
    ]
    done = iter(get_executor(None, workers).map(run, batch))
    return {
        key: (
            run(spec, snapshot_sinks=sinks, secret=secret)
            if spec.substrate == "live" else next(done)
        )
        for key, spec in cells.items()
    }


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run, sweep_report

    # Every cell is parsed (and validated) before any of them runs.
    cells = RunSpec.expand(args.spec)
    live = [spec for spec in cells.values() if spec.substrate == "live"]
    if args.stream and not live:
        print("error: --stream applies to the live substrate",
              file=sys.stderr)
        return 2
    # Per-second telemetry of live load: a progress line on stderr
    # (silenced by --json, which owns the machine-readable contract),
    # plus the optional --stream NDJSON destination.
    sinks = [_progress_sink] if live and args.json is None else []
    stream_close = None
    if args.stream:
        if any(spec.live.load_workers > 1 for spec in live):
            print(
                "warning: --stream applies to the single-process path; "
                "distributed runs carry their merged telemetry in the "
                "final report only",
                file=sys.stderr, flush=True,
            )
        else:
            stream_sink, stream_close = _open_stream_sink(args.stream)
            sinks.append(stream_sink)
    secret = args.secret.encode()
    sweep = len(cells) > 1
    try:
        if sweep:
            reports = _run_sweep(cells, sinks, secret)
        else:
            (spec,) = cells.values()
            reports = {"": run(spec, snapshot_sinks=sinks, secret=secret)}
    finally:
        if stream_close is not None:
            stream_close()
    if args.json is not None:
        payload = sweep_report(reports) if sweep else reports[""].to_json()
        _emit_json(payload, args.json)
    elif sweep:
        _print_sweep(reports)
    else:
        _print_report(reports[""])
    return 0 if all(
        report.metrics["queries.issued"]
        and report.metrics["queries.success_rate"] > 0
        for report in reports.values()
    ) else 1


def _print_dissections(dissections) -> None:
    print(f"{'message':16s} {'DNS':>5s} {'sec':>5s} {'CoAP':>5s} "
          f"{'UDP':>5s} frames")
    for d in dissections:
        print(
            f"{d.message:16s} {d.dns_bytes:5d} {d.security_bytes:5d} "
            f"{d.coap_bytes:5d} {d.udp_payload:5d} {list(d.frame_sizes)}"
            f"{'  FRAGMENTED' if d.fragmented else ''}"
        )


def _cmd_dissect(args: argparse.Namespace) -> int:
    from repro.coap.codes import Code
    from repro.experiments.packet_sizes import dissect_transport
    from repro.transports.registry import registry

    method = {"fetch": Code.FETCH, "get": Code.GET, "post": Code.POST}[args.method]
    if args.sweep:
        for profile in registry:
            print(f"--- {profile.display_name} ---")
            _print_dissections(profile.dissect(method=method))
            print()
        return 0
    _print_dissections(dissect_transport(args.transport, method=method))
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.dns import RecordType, RecursiveResolver, Zone
    from repro.scenarios import scenario_from_spec
    from repro.sim import Simulator
    from repro.transports.registry import TransportEnv, registry

    scenario = scenario_from_spec(args.spec)

    profile = registry.get(scenario.transport)
    sim = Simulator(seed=scenario.seed)
    topo = scenario.topology.build(sim)
    zone = Zone()
    for index in range(args.names):
        zone.add_address(
            f"name{index:02d}.example.org", f"2001:db8::{index + 1}", ttl=300
        )
    env = TransportEnv(
        sim=sim,
        topology=topo,
        resolver=RecursiveResolver(zone),
        scenario=scenario,
    )
    profile.provision(env)
    env.server = profile.build_server(env)
    env.target = env.server.endpoint
    client = profile.build_client(env, topo.clients[0], 0)

    def report_for(name: str, issued_at: float):
        def report(result, error) -> None:
            if error is not None:
                print(f"  FAILED: {error}")
            else:
                elapsed = sim.now - issued_at
                print(
                    f"  {name:28s} -> "
                    f"{', '.join(result.addresses):20s} "
                    f"{elapsed * 1000:7.1f} ms"
                )
        return report

    def issue(index: int) -> None:
        name = f"name{index:02d}.example.org"
        client.resolve(name, RecordType.AAAA, report_for(name, sim.now))

    for index in range(args.names):
        sim.schedule(index * 0.5, issue, index)
    sim.run(until=60)
    return 0


def _parse_scheme(value: str):
    from repro.doc import CachingScheme

    try:
        return CachingScheme(value.lower())
    except ValueError:
        known = ", ".join(s.value for s in CachingScheme)
        raise SystemExit(
            f"error: unknown caching scheme {value!r} (known: {known})"
        ) from None


def _open_stream_sink(dest: str):
    """A telemetry sink writing one NDJSON line per snapshot.

    *dest* is ``-`` (stdout), ``tcp:HOST:PORT`` (a line stream to a
    listening peer, e.g. ``repro watch --listen PORT``), or a file
    path. Returns ``(sink, close)``.
    """
    import json

    if dest == "-":
        stream = sys.stdout

        def close() -> None:
            pass
    elif dest.startswith("tcp:"):
        import socket as socket_module

        try:
            _, host, port_text = dest.split(":", 2)
            port = int(port_text)
        except ValueError:
            raise SystemExit(
                f"error: bad --stream destination {dest!r} "
                "(expected tcp:HOST:PORT)"
            ) from None
        sock = socket_module.create_connection((host, port), timeout=5)
        stream = sock.makefile("w", encoding="utf-8")

        def close() -> None:
            try:
                stream.close()
            finally:
                sock.close()
    else:
        stream = open(dest, "w", encoding="utf-8")
        close = stream.close

    def sink(record: dict) -> None:
        stream.write(json.dumps(record) + "\n")
        stream.flush()

    return sink, close


def _progress_sink(record: dict) -> None:
    """One per-second progress line on stderr (sent/recv/qps/p99)."""
    from repro.obs.telemetry import format_snapshot

    print(format_snapshot(record), file=sys.stderr, flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live import DocLiveServer

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers > 1:
        return _cmd_serve_pool(args)
    server = DocLiveServer(
        transport=args.transport,
        host=args.host,
        port=args.port,
        num_names=args.names,
        dataset=args.dataset,
        name_seed=args.name_seed,
        scheme=_parse_scheme(args.cache_scheme),
        seed=args.seed,
        secret=args.secret.encode(),
        metrics_port=args.metrics_port,
    )
    stream_close = None
    sinks = []
    if args.stream:
        stream_sink, stream_close = _open_stream_sink(args.stream)
        sinks.append(stream_sink)

    async def run() -> None:
        from repro.obs.telemetry import TelemetrySampler, run_sampler

        async with server:
            host, port = server.endpoint
            print(
                f"serving DNS over {args.transport} on {host}:{port} "
                f"({len(server.names)} names, scheme {args.cache_scheme})",
                flush=True,
            )
            if server.metrics_endpoint:
                print(
                    f"metrics on {server.metrics_endpoint}/metrics "
                    f"(health: {server.metrics_endpoint}/healthz)",
                    flush=True,
                )
            sampler_task = None
            sampler_stop = asyncio.Event()
            if sinks:
                sampler = TelemetrySampler(server.registry, sinks=sinks)
                sampler_task = asyncio.ensure_future(
                    run_sampler(sampler, sampler_stop)
                )
            try:
                if args.duration > 0:
                    await asyncio.sleep(args.duration)
                else:
                    await asyncio.Event().wait()
            finally:
                if sampler_task is not None:
                    sampler_stop.set()
                    await sampler_task

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        if stream_close is not None:
            stream_close()
    stats = server.stats()
    print(f"served {stats.get('queries_handled', 0)} queries "
          f"({stats['datagrams_received']} datagrams in, "
          f"{stats['datagrams_sent']} out)")
    return 0


def _cmd_serve_pool(args: argparse.Namespace) -> int:
    """``serve --workers N``: an SO_REUSEPORT-sharded worker pool.

    The single-worker command path above stays untouched — ``--workers
    1`` (the default) never constructs a pool, so existing serve runs
    behave bit-identically.
    """
    import sys
    import time

    from repro.live import ServePool

    pool = ServePool(
        workers=args.workers,
        transport=args.transport,
        host=args.host,
        port=args.port,
        num_names=args.names,
        dataset=args.dataset,
        name_seed=args.name_seed,
        scheme=_parse_scheme(args.cache_scheme),
        seed=args.seed,
        secret=args.secret.encode(),
    )
    if pool.warning:
        print(f"warning: {pool.warning}", file=sys.stderr, flush=True)
    host, port = pool.start()
    print(
        f"serving DNS over {args.transport} on {host}:{port} "
        f"({args.names} names, scheme {args.cache_scheme}, "
        f"{pool.workers} workers)",
        flush=True,
    )
    obs_http = None
    if args.metrics_port is not None:
        from repro.obs.http import ObsHttpThread

        # The pool parent is synchronous, so the scrape endpoint runs
        # on its own daemon thread; pipe access inside render/health is
        # lock-guarded by the pool.
        obs_http = ObsHttpThread(
            pool.render_metrics, pool.health,
            host=args.host, port=args.metrics_port,
        )
        obs_http.start()
        print(
            f"metrics on {obs_http.endpoint}/metrics "
            f"(health: {obs_http.endpoint}/healthz)",
            flush=True,
        )
    sampler = None
    stream_close = None
    if args.stream:
        from repro.obs.metrics import merge_snapshots
        from repro.obs.telemetry import TelemetrySampler

        stream_sink, stream_close = _open_stream_sink(args.stream)
        sampler = TelemetrySampler(
            lambda: merge_snapshots(
                snap for _index, snap in pool.sample()
            ),
            sinks=[stream_sink],
        )
        sampler.tick()  # prime
    try:
        deadline = (
            time.monotonic() + args.duration if args.duration > 0 else None
        )
        while deadline is None or time.monotonic() < deadline:
            step = 1.0 if sampler is not None else 3600.0
            if deadline is not None:
                step = min(step, max(deadline - time.monotonic(), 0.0))
            time.sleep(step)
            if sampler is not None:
                sampler.tick()
    except KeyboardInterrupt:
        pass
    finally:
        if stream_close is not None:
            stream_close()
    stats = pool.drain()
    if obs_http is not None:
        obs_http.stop()
    handled = [
        worker.get("queries_handled", 0) for worker in stats["workers"]
    ]
    per_worker = " + ".join(str(count) for count in handled)
    print(f"served {sum(handled)} queries "
          f"across {pool.workers} workers ({per_worker or 0}; "
          f"{stats['io']['recv_bursts']} bursts, "
          f"{stats['workers_failed']} workers failed)")
    return pool.exit_code


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: render a live telemetry NDJSON stream.

    Reads per-second snapshot lines (the ``--stream`` vocabulary)
    from stdin by default, or accepts one TCP line-stream connection
    with ``--listen PORT`` — the peer for
    ``run ... --stream tcp:HOST:PORT``. Malformed or non-snapshot
    lines are skipped with a note on stderr, so the stream can be
    piped through without pre-filtering.
    """
    import json

    from repro.api.schema import ValidationError
    from repro.obs.telemetry import format_snapshot, validate_snapshot

    rendered = 0
    skipped = 0

    def render(line: str) -> None:
        nonlocal rendered, skipped
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
            validate_snapshot(record)
        except (ValueError, ValidationError):
            skipped += 1
            print("watch: skipping non-snapshot line", file=sys.stderr)
            return
        rendered += 1
        print(format_snapshot(record), flush=True)

    try:
        if args.listen is not None:
            import socket

            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((args.host, args.listen))
            listener.listen(1)
            print(
                f"watch: listening on {args.host}:"
                f"{listener.getsockname()[1]}",
                file=sys.stderr, flush=True,
            )
            conn, peer = listener.accept()
            print(f"watch: stream from {peer[0]}:{peer[1]}",
                  file=sys.stderr, flush=True)
            with conn, conn.makefile("r", encoding="utf-8") as stream:
                for line in stream:
                    render(line)
            listener.close()
        else:
            for line in sys.stdin:
                render(line)
    except KeyboardInterrupt:
        pass
    print(f"watch: {rendered} snapshots rendered, {skipped} skipped",
          file=sys.stderr)
    return 0 if rendered or not skipped else 1


def _cmd_memory(args: argparse.Namespace) -> int:
    from repro.memmodel import fig5_builds, fig8_builds

    print("Figure 5 (with CoAP example app):")
    for name, build in fig5_builds(with_get=True).items():
        print(f"  {name:10s} ROM {build.rom_kbytes:5.1f} kB   "
              f"RAM {build.ram_kbytes:4.1f} kB")
    print("Figure 8 (UDP/sock omitted):")
    for name, build in fig8_builds().items():
        print(f"  {name:10s} ROM {build.rom_kbytes:5.1f} kB")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.dns import (
        AAAAData,
        DNSClass,
        Flags,
        Message,
        Question,
        RecordType,
        ResourceRecord,
        make_query,
    )
    from repro.doc.cbor_format import encode_query, encode_response

    question = Question(args.name, RecordType.AAAA)
    wire_query = make_query(args.name, RecordType.AAAA, txid=0).encode()
    cbor_query = encode_query(question)
    response = Message(
        flags=Flags(qr=True),
        questions=(question,),
        answers=(
            ResourceRecord(args.name, RecordType.AAAA, DNSClass.IN, 300,
                           AAAAData("2001:db8::1")),
        ),
    )
    wire_response = response.encode()
    cbor_response = encode_response(response)
    print(f"name: {args.name} ({len(args.name)} chars)")
    print(f"query:    wire {len(wire_query):3d} B -> CBOR {len(cbor_query):3d} B "
          f"(-{100 * (1 - len(cbor_query) / len(wire_query)):.0f}%)")
    print(f"response: wire {len(wire_response):3d} B -> CBOR {len(cbor_response):3d} B "
          f"(-{100 * (1 - len(cbor_response) / len(wire_response)):.0f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.transports import transport_names

    parser = argparse.ArgumentParser(
        prog="repro", description="DNS over CoAP reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    from repro.live.wiring import (
        DEFAULT_LIVE_PORT,
        DEFAULT_SECRET,
        LIVE_TRANSPORTS,
    )

    secret_help = "shared OSCORE master secret (oscore transport)"
    stream_help = (
        "emit per-second telemetry snapshots as NDJSON to DEST: '-' for "
        "stdout, tcp:HOST:PORT (e.g. a `repro watch --listen` peer), or "
        "a file path"
    )
    run = subparsers.add_parser(
        "run",
        help="run a unified RunSpec (or a sweep of them) on any substrate",
    )
    run.add_argument(
        "spec", metavar="SPEC",
        help="run spec: scenario keys plus substrate=sim|live|fleet, "
             "repeats=N, workers=N, live-host/live-port/mode/"
             "concurrency/timeout/dataset/name-seed, "
             "churn/duty_cycle/flash_crowd, e.g. "
             "'one-hop,transport=coap,clients=1000000,substrate=fleet'; "
             "'|' lists alternatives whose cross product runs as a "
             "sweep, e.g. 'figure2|one-hop,transport=udp|coap'",
    )
    run.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the unified Report JSON (a sweep emits per-cell "
             "Reports keyed by cell; to stdout, or to PATH)",
    )
    run.add_argument(
        "--stream", default=None, metavar="DEST",
        help=f"live runs: {stream_help}",
    )
    run.add_argument(
        "--secret", default=DEFAULT_SECRET.decode(),
        help=f"{secret_help}; never written to the Report",
    )
    run.set_defaults(func=_cmd_run)

    dissect = subparsers.add_parser("dissect", help="Figure 6 packet dissection")
    dissect.add_argument(
        "--transport", default="coap", choices=transport_names(),
    )
    dissect.add_argument(
        "--method", default="fetch", choices=["fetch", "get", "post"]
    )
    dissect.add_argument(
        "--sweep", action="store_true",
        help="dissect every registered transport",
    )
    dissect.set_defaults(func=_cmd_dissect)

    resolve = subparsers.add_parser("resolve", help="demo DoC resolution")
    resolve.add_argument(
        "spec", nargs="?", default="", metavar="SPEC",
        help="scenario preset/spec, e.g. three-hop,loss=0.1",
    )
    resolve.add_argument("--names", type=int, default=4)
    resolve.set_defaults(func=_cmd_resolve)

    serve = subparsers.add_parser(
        "serve", help="live DoC server on a real UDP socket"
    )
    serve.add_argument(
        "--transport", default="udp", choices=list(LIVE_TRANSPORTS),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_LIVE_PORT)
    serve.add_argument(
        "--names", type=int, default=50,
        help="size of the name universe (server zone = loadgen names)",
    )
    serve.add_argument(
        "--dataset", default=None,
        help="draw names from a Section 3 dataset profile "
             "(yourthings, iotfinder, moniotr, ixp)",
    )
    serve.add_argument(
        "--name-seed", type=int, default=7,
        help="seed of the shared name universe (must match the "
             "name-seed= of a live run against this server)",
    )
    serve.add_argument(
        "--cache-scheme", default="eol-ttls",
        help="TTL handling scheme (doh-like or eol-ttls)",
    )
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--secret", default=DEFAULT_SECRET.decode(), help=secret_help,
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding one port via SO_REUSEPORT "
             "(default 1 = the single-process path)",
    )
    serve.add_argument(
        "--duration", type=float, default=0.0,
        help="stop after this many seconds (default: run until Ctrl-C)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text) and /healthz on this "
             "TCP port (0 = ephemeral; sharded pools serve merged "
             "per-worker + pool-total series)",
    )
    serve.add_argument("--stream", default=None, metavar="DEST",
                       help=stream_help)
    serve.set_defaults(func=_cmd_serve)

    watch = subparsers.add_parser(
        "watch",
        help="render a live telemetry stream (qps/p99 per second)",
    )
    watch.add_argument(
        "--listen", type=int, default=None, metavar="PORT",
        help="accept one TCP line-stream connection on PORT (the "
             "`--stream tcp:HOST:PORT` peer) instead of reading stdin",
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.set_defaults(func=_cmd_watch)

    memory = subparsers.add_parser("memory", help="Figure 5/8 build sizes")
    memory.set_defaults(func=_cmd_memory)

    compress = subparsers.add_parser("compress", help="Section 7 CBOR sizes")
    compress.add_argument("--name", default="name0000.example-iot.org")
    compress.set_defaults(func=_cmd_compress)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.live.wiring import LiveWiringError
    from repro.scenarios import ScenarioError
    from repro.transports.registry import (
        TransportCapabilityError,
        UnknownTransportError,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ScenarioError, TransportCapabilityError, UnknownTransportError,
        LiveWiringError,
    ) as exc:
        # Misconfiguration (unknown names, bad spec keys) reads as a
        # CLI error; internal errors keep their tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
