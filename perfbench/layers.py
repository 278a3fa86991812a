"""Which calls into the program are traced, and the per-layer metrics.

Layers are named after the packages under ``src/repro``; a span's layer
is the part of its name before the first dot. :func:`install` wraps the
calls listed in :func:`targets` (plus every simulator event callback)
with a :class:`spans.Tracer`; :func:`layer_metrics` turns the recorded
spans into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

import spans


def _count_hit(tracer):
    from repro.cache.store import LookupState

    hit = LookupState.HIT

    def on_result(result) -> None:
        if result[1] is hit:
            tracer.count("cache.hits")
    return on_result


def _count_len(tracer, key):
    def on_result(result) -> None:
        tracer.count(key, len(result))
    return on_result


def targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped call.

    An owner that is a class gets its attribute replaced; one that is a
    module gets the function replaced there and in every module that
    imported it by name.
    """
    from repro.api import report as api_report
    from repro.cache.store import KeyedCache
    from repro.cborlib import decoder as cbor_decoder
    from repro.cborlib import encoder as cbor_encoder
    from repro.coap.endpoint import CoapClient, CoapServer
    from repro.coap.message import CoapMessage
    from repro.crypto.ccm import AESCCM
    from repro.dns.message import Message
    from repro.dns.resolver import RecursiveResolver
    from repro.doc.client import DocClient
    from repro.doc.server import DocServer
    from repro.dtls.record import RecordLayer
    from repro.dtls.session import DtlsSession
    from repro.fleet import arrivals as fleet_arrivals
    from repro.fleet import engine as fleet_engine
    from repro.fleet import report as fleet_report
    from repro.fleet import service as fleet_service
    from repro.fleet.cache import FleetCacheModel
    from repro.live.reservoir import LatencyReservoir
    from repro.live.transport import LiveUdpTransport
    from repro.lowpan import iphc
    from repro.lowpan.adaptation import LowpanAdaptation
    from repro.lowpan.fragmentation import Fragmenter, Reassembler
    from repro.lowpan.ieee802154 import MacFrame
    from repro.net.ipv6 import Ipv6Packet
    from repro.net.udp import UdpDatagram
    from repro.obs import telemetry
    from repro.oscore import protect
    from repro.scenarios import runner as scenarios_runner
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.scenario import TopologySpec
    from repro.sim.core import Simulator
    from repro.sim.medium import RadioMedium
    from repro.stack.node import Node, UdpSocket
    from repro.transports.dns_over_udp import DnsOverUdpClient, DnsOverUdpServer
    from repro.transports.dtls_adapter import DtlsClientAdapter, DtlsServerAdapter

    return [
        (Simulator, "run", "sim.run"),
        (RadioMedium, "transmit", "medium.transmit"),
        (RadioMedium, "broadcast", "medium.broadcast"),
        (RadioMedium, "_complete_attempt", "medium.complete"),
        (RadioMedium, "_complete_broadcast", "medium.complete"),
        (LowpanAdaptation, "packet_to_frames", "lowpan.to_frames"),
        (LowpanAdaptation, "frame_to_packet", "lowpan.to_packet"),
        (Fragmenter, "fragment", "lowpan.fragment"),
        (Reassembler, "push", "lowpan.reassemble"),
        (iphc, "compress", "lowpan.iphc"),
        (iphc, "decompress", "lowpan.iphc"),
        (MacFrame, "encode", "lowpan.mac"),
        (MacFrame, "decode", "lowpan.mac"),
        (Node, "send_packet", "stack.send"),
        (Node, "_receive_frame", "stack.receive"),
        (Node, "_receive_packet", "stack.receive"),
        (Node, "_deliver", "stack.deliver"),
        (UdpSocket, "sendto", "stack.sendto"),
        (Ipv6Packet, "encode", "net.ipv6"),
        (Ipv6Packet, "decode", "net.ipv6"),
        (UdpDatagram, "encode", "net.udp"),
        (UdpDatagram, "encode_with_checksum", "net.udp"),
        (UdpDatagram, "decode", "net.udp"),
        (CoapMessage, "encode", "coap.encode"),
        (CoapMessage, "decode", "coap.decode"),
        (CoapClient, "request", "coap.request"),
        (CoapClient, "_transmit", "coap.transmit"),
        (CoapClient, "_on_datagram", "coap.receive"),
        (CoapServer, "_on_datagram", "coap.receive"),
        (protect, "protect_request", "oscore.protect"),
        (protect, "protect_response", "oscore.protect"),
        (protect, "unprotect_request", "oscore.unprotect"),
        (protect, "unprotect_response", "oscore.unprotect"),
        (cbor_encoder, "dumps", "cborlib.dumps"),
        (cbor_decoder, "loads", "cborlib.loads"),
        (AESCCM, "encrypt", "crypto.ccm"),
        (AESCCM, "decrypt", "crypto.ccm"),
        (RecordLayer, "seal", "dtls.seal"),
        (RecordLayer, "open", "dtls.open"),
        (DtlsSession, "handle_datagram", "dtls.receive"),
        (DtlsSession, "protect", "dtls.protect"),
        (DtlsClientAdapter, "sendto", "dtls.adapter"),
        (DtlsClientAdapter, "_receive", "dtls.adapter"),
        (DtlsServerAdapter, "sendto", "dtls.adapter"),
        (DtlsServerAdapter, "_receive", "dtls.adapter"),
        (Message, "encode", "dns.encode"),
        (Message, "decode", "dns.decode"),
        (RecursiveResolver, "resolve", "dns.resolve"),
        (DnsOverUdpClient, "resolve", "transports.dns_client"),
        (DnsOverUdpClient, "_on_datagram", "transports.dns_client"),
        (DnsOverUdpServer, "_on_datagram", "transports.dns_server"),
        (DocServer, "_handle_plain", "doc.server"),
        (DocServer, "_handle_oscore", "doc.server"),
        (DocServer, "_process", "doc.server_process"),
        (DocClient, "resolve", "doc.client"),
        (DocClient, "_send", "doc.client_send"),
        (DocClient, "_decode_response", "doc.client_decode"),
        (DocClient, "_build_result", "doc.client_result"),
        (KeyedCache, "lookup", "cache.lookup"),
        (KeyedCache, "store", "cache.store"),
        (KeyedCache, "refresh", "cache.store"),
        (KeyedCache, "_evict_one", "cache.evict"),
        (KeyedCache, "__init__", "cache.create"),
        (LiveUdpTransport, "sendto", "live.sendto"),
        (LiveUdpTransport, "_drain_ready", "live.wakeup"),
        (LatencyReservoir, "add", "reservoir.add"),
        (telemetry, "timeline_from_outcomes", "obs.telemetry"),
        (TopologySpec, "build", "scenarios.build"),
        (scenarios_runner, "build_workload_zone", "scenarios.build"),
        (ScenarioRunner, "run", "scenarios.run"),
        (api_report, "report_from_experiment_result", "api.report"),
        (fleet_service, "calibrate", "fleet.calibrate"),
        (fleet_arrivals, "plan_sample", "fleet.arrivals"),
        (fleet_arrivals, "generate_arrivals", "fleet.arrivals"),
        (fleet_arrivals, "defer_to_wake", "fleet.arrivals"),
        (fleet_engine, "run_fleet", "fleet.engine"),
        (FleetCacheModel, "touch", "fleet.cache"),
        (FleetCacheModel, "dns", "fleet.cache"),
        (FleetCacheModel, "coap", "fleet.cache"),
        (FleetCacheModel, "scaled_stats", "fleet.cache"),
        (fleet_service.ServiceModel, "draw", "fleet.service"),
        (fleet_report, "report_from_fleet", "fleet.report"),
    ]


def install() -> spans.Tracer:
    """Wrap every target and return the recording tracer."""
    import inspect

    from repro.cache.store import KeyedCache
    from repro.coap.endpoint import CoapClient
    from repro.lowpan.adaptation import LowpanAdaptation
    from repro.live.transport import LiveUdpTransport
    from repro.sim.core import Simulator

    tracer = spans.Tracer()
    hooks = {
        (KeyedCache, "lookup"): _count_hit(tracer),
        (LowpanAdaptation, "packet_to_frames"):
            _count_len(tracer, "lowpan.fragments"),
    }
    for owner, attr, name in targets():
        on_result = hooks.get((owner, attr))
        if inspect.ismodule(owner):
            tracer.wrap_function(owner, attr, name, on_result=on_result)
        else:
            tracer.wrap_method(owner, attr, name, on_result=on_result)
    # One root span per datagram handed to the stack.
    tracer.wrap_method(LiveUdpTransport, "datagram_received", "live.datagram",
                       root=True)
    _wrap_retransmissions(tracer, CoapClient)
    _wrap_sim_events(tracer, Simulator)
    return tracer


def _wrap_retransmissions(tracer, cls) -> None:
    """Count ``CoapClient._transmit`` calls that are not first sends."""
    traced = cls._transmit

    def _transmit(self, exchange, first):
        if not first:
            tracer.count("coap.retransmissions")
        return traced(self, exchange, first)

    tracer.replace(cls, "_transmit", _transmit)


def _wrap_sim_events(tracer, cls) -> None:
    """Give every scheduled simulator callback a ``sim.event`` root span.

    ``schedule_at`` delegates to ``schedule``, so wrapping ``schedule``
    and ``schedule_many`` covers every event exactly once.
    """
    wrap = tracer.traced
    original = cls.__dict__["schedule"]
    original_many = cls.__dict__["schedule_many"]

    def schedule(self, delay, callback, *args):
        return original(self, delay,
                        wrap(callback, "sim.event", True, wraps=False), *args)

    def schedule_many(self, entries):
        return original_many(self, (
            (at, wrap(callback, "sim.event", True, wraps=False), args)
            for at, callback, args in entries
        ))

    tracer.replace(cls, "schedule", schedule)
    tracer.replace(cls, "schedule_many", schedule_many)


# -- per-layer metrics --------------------------------------------------------


def summarize(paths_or_tracers) -> Tuple[Dict[str, Dict[str, float]],
                                         Dict[str, int],
                                         Dict[Tuple[str, str], float]]:
    """Aggregates over one or more span sets (tracers or written files).

    Returns per-name ``{count, incl_ns, self_ns}``, summed counters, and
    the inclusive nanoseconds of each ``(parent name, name)`` pair.
    """
    parts, counters = [], {}
    pairs: Dict[Tuple[str, str], float] = {}
    for source in paths_or_tracers:
        if isinstance(source, spans.Tracer):
            names, arrays, extra = source.names, source.arrays(), source.counters
        else:
            names, arrays, extra = spans.load(source)
        parts.append(spans.aggregate(names, arrays))
        for key, value in extra.items():
            counters[key] = counters.get(key, 0) + value
        ids, parent = arrays["name"], arrays["parent"]
        has_parent = parent >= 0
        if has_parent.any():
            parent_ids = ids[parent[has_parent]]
            child_ids = ids[has_parent]
            duration = (arrays["end"] - arrays["start"])[has_parent]
            width = len(names)
            sums = np.bincount(parent_ids * width + child_ids,
                               weights=duration, minlength=width * width)
            for flat in np.nonzero(sums)[0]:
                key = (names[flat // width], names[flat % width])
                pairs[key] = pairs.get(key, 0.0) + float(sums[flat])
    return spans.merge_aggregates(parts), counters, pairs


def _layer_self_ns(agg, layer: str) -> float:
    return sum(stats["self_ns"] for name, stats in agg.items()
               if name.split(".", 1)[0] == layer)


def _per_call_us(agg, *names: str) -> float:
    count = sum(agg.get(name, {}).get("count", 0) for name in names)
    total = sum(agg.get(name, {}).get("incl_ns", 0.0) for name in names)
    return total / count / 1e3 if count else 0.0


def _count(agg, *names: str) -> int:
    return sum(agg.get(name, {}).get("count", 0) for name in names)


def _incl_s(agg, *names: str) -> float:
    return sum(agg.get(name, {}).get("incl_ns", 0.0) for name in names) / 1e9


def layer_metrics(agg, counters, pairs, queries: int,
                  client_agg: Optional[dict] = None,
                  server_agg: Optional[dict] = None,
                  cells: int = 1) -> Dict[str, float]:
    """The per-layer metrics that spans alone determine.

    *queries* normalises the ``*_per_query`` figures; *client_agg* and
    *server_agg* split the live processes; *cells* normalises the sweep
    figures. The fleet figures are those of one traced run. A layer the
    workload never calls reads 0.
    """
    q = max(queries, 1)

    def self_us_per_query(layer, part=None):
        return _layer_self_ns(part if part is not None else agg, layer) / q / 1e3

    lookups = _count(agg, "cache.lookup")
    fleet_cache_ns = sum(
        value for (parent, child), value in pairs.items()
        if parent == "fleet.engine" and child.startswith("cache.")
    )
    metrics = {
        "sim.events_per_query": _count(agg, "sim.event") / q,
        "sim.self_us_per_query": self_us_per_query("sim"),
        "medium.frames_per_query":
            _count(agg, "medium.transmit", "medium.broadcast") / q,
        "medium.self_us_per_query": self_us_per_query("medium"),
        "lowpan.fragments_per_query": counters.get("lowpan.fragments", 0) / q,
        "lowpan.iphc_us": _per_call_us(agg, "lowpan.iphc"),
        "lowpan.self_us_per_query": self_us_per_query("lowpan"),
        "stack.self_us_per_query": self_us_per_query("stack"),
        "net.self_us_per_query": self_us_per_query("net"),
        "coap.encode_us": _per_call_us(agg, "coap.encode"),
        "coap.decode_us": _per_call_us(agg, "coap.decode"),
        "coap.messages_per_query": _count(agg, "coap.receive") / q,
        "coap.retransmissions_per_query":
            counters.get("coap.retransmissions", 0) / q,
        "coap.self_us_per_query": self_us_per_query("coap"),
        "oscore.protect_us": _per_call_us(agg, "oscore.protect"),
        "oscore.unprotect_us": _per_call_us(agg, "oscore.unprotect"),
        "cborlib.self_us_per_query": self_us_per_query("cborlib"),
        "crypto.ccm_us": _per_call_us(agg, "crypto.ccm"),
        "dtls.records_per_query": _count(agg, "dtls.seal") / q,
        "dtls.self_us_per_query": self_us_per_query("dtls"),
        "dns.encode_us": _per_call_us(agg, "dns.encode"),
        "dns.decode_us": _per_call_us(agg, "dns.decode"),
        "dns.resolve_us": _per_call_us(agg, "dns.resolve"),
        "cache.lookup_us": _per_call_us(agg, "cache.lookup"),
        "cache.store_us": _per_call_us(agg, "cache.store"),
        "cache.ops_per_query":
            _count(agg, "cache.lookup", "cache.store") / q,
        "cache.hit_ratio":
            counters.get("cache.hits", 0) / lookups if lookups else 0.0,
        "cache.evictions_per_query": _count(agg, "cache.evict") / q,
        "live.sendto_us": _per_call_us(agg, "live.sendto"),
        "live.datagrams_per_query":
            _count(agg, "live.datagram", "live.sendto") / q,
        "live.datagrams_per_wakeup": (
            _count(agg, "live.datagram") / _count(agg, "live.wakeup")
            if _count(agg, "live.wakeup") else 0.0
        ),
        "fleet.arrivals_s": _incl_s(agg, "fleet.arrivals"),
        "fleet.engine_self_s":
            agg.get("fleet.engine", {}).get("self_ns", 0.0) / 1e9,
        "fleet.cache_s": _incl_s(agg, "fleet.cache") + fleet_cache_ns / 1e9,
        "fleet.service_s": _incl_s(agg, "fleet.service"),
        "fleet.report_s": _incl_s(agg, "fleet.report"),
        "fleet.cache_objects": (
            _count(agg, "cache.create") if "fleet.engine" in agg else 0.0
        ),
        "reservoir.add_us": _per_call_us(agg, "reservoir.add"),
        "obs.telemetry_ms": _per_call_us(agg, "obs.telemetry") / 1e3,
        "scenarios.build_ms_per_cell":
            _incl_s(agg, "scenarios.build") * 1e3 / cells,
        "api.report_ms": _per_call_us(agg, "api.report", "fleet.report") / 1e3,
    }
    doc_client = client_agg if client_agg is not None else agg
    doc_server = server_agg if server_agg is not None else agg
    metrics["doc.server_self_us_per_query"] = sum(
        stats["self_ns"] for name, stats in doc_server.items()
        if name.startswith("doc.server")
    ) / q / 1e3
    metrics["doc.client_self_us_per_query"] = sum(
        stats["self_ns"] for name, stats in doc_client.items()
        if name.startswith("doc.client")
    ) / q / 1e3
    metrics["live.client_self_us_per_query"] = (
        self_us_per_query("live", client_agg) if client_agg is not None else 0.0
    )
    return metrics
