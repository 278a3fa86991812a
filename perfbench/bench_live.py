"""The live workloads: a DoC server process under open-loop load.

The server runs in its own process (``live_server.py``); this process
runs the load generator and one :class:`repro.live.LiveResolver` per
server session (a second OSCORE session would restart the sender
sequence and be rejected by the server's replay window). Traffic
crosses the host's loopback interface.

A run measures, with tracing off:

* a reference stage at the workload's fixed rate, for latency from due
  time and CPU per query of each process;
* a capacity ladder: rising rates until a stage misses the latency
  limit, the failure limit, or lets the generator's backlog grow.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import openloop
from bench_common import (
    percentile,
    proc_cpu_s,
    process_start_age_s,
    proc_peak_rss_mb,
    self_cpu_s,
    summarize_latencies,
    udp_rcvbuf_errors,
)

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class LiveWorkload:
    transport: str
    names: int
    #: Zipf exponent of name popularity; ``None`` draws names uniformly.
    zipf: Optional[float]
    reference_rate: float


WORKLOADS: Dict[str, LiveWorkload] = {
    "live-hot": LiveWorkload("coap", 64, 1.0, 1500.0),
    "live-cold": LiveWorkload("oscore", 8192, None, 800.0),
}

#: Shares of ``--seconds`` spent, in a traced run, on the untraced
#: reference stage, the capacity ladder and the traced reference stage.
REFERENCE_SHARE = 0.3
LADDER_SHARE = 0.8
STAGE_S = 1.0
#: Rate step of the capacity ladder, before bisection.
LADDER_FACTOR = 1.6
#: Ladder queries slower than this count as failed: they are far past
#: the latency limit already, and waiting longer only slows the ladder.
#: Other stages leave the deadline to the resolver (CoAP retransmits a
#: lost datagram after about 2-3 s).
LADDER_TIMEOUT_S = 1.0
LADDER_BISECTIONS = 3
WARMUP_S = 0.5


class LiveServerProcess:
    """A ``live_server.py`` child: start, query counters, stop."""

    def __init__(self, workload: LiveWorkload, seed: int,
                 trace_path: Optional[str] = None) -> None:
        command = [
            sys.executable, os.path.join(HERE, "live_server.py"),
            "--transport", workload.transport,
            "--names", str(workload.names), "--seed", str(seed),
        ]
        if trace_path:
            command += ["--trace", trace_path]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.pid = self.proc.pid
        try:
            ready = json.loads(self.proc.stdout.readline())
        except ValueError:
            self.kill()
            raise RuntimeError("live server exited before binding") from None
        self.endpoint = (ready["host"], ready["port"])

    def _command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stats(self) -> dict:
        return self._command("stats")

    def reset_trace(self) -> None:
        self._command("reset")

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    def stop(self) -> None:
        try:
            self._command("stop")
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
            self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def expected_answers(names: List[str], seed: int) -> Dict[tuple, List[str]]:
    """The zone the server serves, rebuilt from the same names and seed.

    Addresses are put in RFC 5952 form, the form answers decode to.
    """
    import ipaddress

    from repro.dns.enums import RecordType
    from repro.live.wiring import build_zone

    zone = build_zone(names, rng=random.Random(seed))
    expected = {}
    for name in names:
        for rtype in (int(RecordType.A), int(RecordType.AAAA)):
            expected[(name, rtype)] = sorted(
                ipaddress.ip_address(record.rdata.address).compressed
                for record in zone.lookup(name, rtype)
            )
    return expected


def make_draw(workload: LiveWorkload, names: List[str]):
    """``draw(rng) -> (name, rtype)``: the workload's query mix."""
    from repro.dns.enums import RecordType
    from repro.sim.workload import sample_zipf_many, zipf_cumulative

    rtypes = (int(RecordType.A), int(RecordType.AAAA))
    count = len(names)
    if workload.zipf is None:
        def draw(rng):
            return names[int(rng.random() * count)], rtypes[rng.random() < 0.5]
        return draw
    cumulative = zipf_cumulative(count, workload.zipf)

    def draw(rng):
        index = sample_zipf_many(rng, cumulative, 1)[0]
        return names[index], rtypes[rng.random() < 0.5]
    return draw


def make_check(expected):
    def check(name, rtype, result) -> str:
        if result.rcode != 0:
            return "rcode"
        if sorted(result.addresses) != expected[(name, rtype)]:
            return "wrong"
        return "ok"
    return check


class LiveSession:
    """One server process plus the resolver that talks to it."""

    def __init__(self, workload, seed, names, trace_path=None):
        self.workload = workload
        self.seed = seed
        self.names = names
        self.server = LiveServerProcess(workload, seed, trace_path)
        self.resolver = None

    async def connect(self):
        """Connect and answer the first query; returns ``(name, result)``."""
        from repro.live import LiveResolver

        self.resolver = LiveResolver(
            self.server.endpoint, transport=self.workload.transport,
            seed=self.seed + 1,
        )
        await self.resolver.connect()
        name = self.names[0]
        return name, await self.resolver.resolve(name, timeout=5.0)

    async def close(self) -> None:
        if self.resolver is not None:
            await self.resolver.close()
        self.server.stop()


def check_first(check, first) -> None:
    name, result = first
    if check(name, result.rtype, result) != "ok":
        raise RuntimeError(f"first answer for {name} is wrong")


async def _stage(session, check, rate, duration, draw, rng, timeout=None):
    return await openloop.run_stage(
        session.resolver, rate, duration, draw, check, rng, timeout
    )


async def measure_reference(session, check, rate, duration, draw, rng):
    """The reference stage, with both processes' CPU and kernel drops."""
    server_cpu0, client_cpu0 = session.server.cpu_s(), self_cpu_s()
    drops0 = udp_rcvbuf_errors()
    stats0 = session.server.stats()
    stage = await _stage(session, check, rate, duration, draw, rng)
    stats1 = session.server.stats()
    server_cpu = session.server.cpu_s() - server_cpu0
    client_cpu = self_cpu_s() - client_cpu0
    return {
        "stage": stage,
        "server_cpu_s": server_cpu,
        "client_cpu_s": client_cpu,
        "rcvbuf_drops": udp_rcvbuf_errors() - drops0,
        "server_stats": (stats0, stats1),
    }


async def run_live(name: str, seed: int, seconds: float, trace: bool,
                   out_dir: str, setup_only: bool = False) -> dict:
    """Set up, then measure the reference stage for *seconds*.

    With *trace*, the reference stage is shorter and is followed by the
    capacity ladder and by the traced reference stage.
    """
    workload = WORKLOADS[name]
    from repro.live.wiring import build_names

    names = build_names(workload.names)
    session = LiveSession(workload, seed, names)
    ladder, capacity, ladder_drops, traced = [], 0.0, 0, None
    try:
        first = await session.connect()
        # The first answer ends set-up; the checker's own zone is built
        # after it, so its cost is not charged to the program.
        setup_s = process_start_age_s()
        if setup_only:
            await session.close()
            session = None
            return {"setup_s": setup_s}
        check = make_check(expected_answers(names, seed))
        check_first(check, first)
        draw = make_draw(workload, names)
        rng = random.Random(seed)
        loop = asyncio.get_running_loop()
        warmup = await _stage(session, check, workload.reference_rate,
                              WARMUP_S, draw, rng)
        reference = await measure_reference(
            session, check, workload.reference_rate,
            REFERENCE_SHARE * seconds if trace else seconds, draw, rng,
        )
        if trace:
            drops0 = udp_rcvbuf_errors()
            capacity, ladder = await openloop.capacity_ladder(
                lambda rate: _stage(session, check, rate, STAGE_S, draw, rng,
                                    LADDER_TIMEOUT_S),
                workload.reference_rate, LADDER_FACTOR,
                LADDER_BISECTIONS, LADDER_SHARE * seconds, STAGE_S,
                loop.time,
            )
            ladder_drops = udp_rcvbuf_errors() - drops0
        peak_rss = session.server.peak_rss_mb()
        await session.close()
        session = None
        if trace:
            traced = await traced_reference(
                name, seed, names, check, draw, rng, seconds, out_dir,
            )
    finally:
        if session is not None:
            session.server.kill()
    stage = reference["stage"]
    counted = [stage] + [s for s in ladder if s.passed]
    return {
        "setup_s": setup_s,
        "capacity_qps": capacity,
        "reference": reference,
        "ladder": ladder,
        "ladder_drops": ladder_drops,
        "peak_rss_mb": peak_rss,
        "attempted": sum(s.attempted for s in counted),
        "failed": sum(s.failed for s in counted),
        "wrong": sum(s.wrong for s in [warmup, stage] + ladder),
        "traced": traced,
    }


async def traced_reference(name, seed, names, check, draw, rng, seconds,
                           out_dir):
    """The reference stage again, with both processes traced."""
    import layers

    workload = WORKLOADS[name]
    server_path = os.path.join(out_dir, f"spans-{name}-server.npz")
    client_path = os.path.join(out_dir, f"spans-{name}-client.npz")
    tracer = layers.install()
    session = LiveSession(workload, seed, names, server_path)
    try:
        check_first(check, await session.connect())
        warmup = await _stage(session, check, workload.reference_rate,
                              WARMUP_S, draw, rng)
        tracer.reset()
        session.server.reset_trace()
        reference = await measure_reference(
            session, check, workload.reference_rate,
            REFERENCE_SHARE * seconds, draw, rng,
        )
        await session.close()
        session = None
    finally:
        tracer.unwrap_all()
        if session is not None:
            session.server.kill()
    tracer.write(client_path)
    return {"reference": reference, "server_spans": server_path,
            "client_spans": client_path,
            "wrong": warmup.wrong + reference["stage"].wrong}


def end_to_end(result: dict) -> Dict[str, float]:
    """The end-to-end metrics of the reference stage.

    ``queries_per_s`` is the CPU-bound capacity: the rate at which the
    busier of the two processes would use one whole core, from its CPU
    per answered query at the reference rate.
    """
    reference = result["reference"]
    stage = reference["stage"]
    answered = max(stage.succeeded, 1)
    server_us = reference["server_cpu_s"] / answered * 1e6
    client_us = reference["client_cpu_s"] / answered * 1e6
    return {
        "setup_s": result["setup_s"],
        "queries_per_s": 1e6 / max(server_us, client_us),
        "cpu_us_per_query": server_us + client_us,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def live_details(result: dict) -> Dict[str, object]:
    """The live-only figures, for the traced run's per-layer block."""
    reference = result["reference"]
    stage = reference["stage"]
    answered = max(stage.succeeded, 1)
    latency = summarize_latencies(stage.latencies)
    return {
        "server_cpu_us_per_query": reference["server_cpu_s"] / answered * 1e6,
        "client_cpu_us_per_query": reference["client_cpu_s"] / answered * 1e6,
        "latency_p50_ms": latency.get("p50_ms", 0.0),
        # p99, or the highest percentile with 10 samples beyond it.
        "latency_p99_ms": latency.get("tail_ms", 0.0),
        "latency_samples": latency["count"],
        "late_p99_ms": percentile(stage.lateness, 99) * 1e3,
        "inflight_max": stage.inflight_max,
        "capacity_qps": result["capacity_qps"],
        "rcvbuf_drops_ladder": result["ladder_drops"],
        "rcvbuf_drops_reference": reference["rcvbuf_drops"],
        "ladder": [(round(s.rate, 1), s.passed) for s in result["ladder"]],
    }
