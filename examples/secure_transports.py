#!/usr/bin/env python3
"""Compare every DNS transport of the paper on the same network.

Runs DNS over UDP, DNS over DTLS, plain DoC, DoC over DTLS (CoAPS), and
DoC with OSCORE over the Figure 2 topology and reports resolution
times, link-layer footprints, and the Figure 6 packet dissection.

Run:  python examples/secure_transports.py
"""

from repro.experiments import dissect_all, percentile
from repro.scenarios import Scenario, ScenarioRunner, TopologySpec


def main() -> None:
    print("=== Packet dissection (24-char name, Figure 6) ===")
    print(f"{'transport':11s} {'message':16s} {'DNS':>4s} {'sec':>4s} "
          f"{'CoAP':>5s} {'frames':>7s} fragmented")
    for transport, dissections in dissect_all().items():
        for d in dissections:
            if "Hello" in d.message or "Cipher" in d.message \
                    or "Exchange" in d.message or "Finish" in d.message:
                continue
            print(
                f"{transport:11s} {d.message:16s} {d.dns_bytes:4d} "
                f"{d.security_bytes:4d} {d.coap_bytes:5d} "
                f"{str(list(d.frame_sizes)):>7s}  {d.fragmented}"
            )

    print("\n=== Resolution times, 50 queries at lambda=5/s (Figure 7) ===")
    print(f"{'transport':8s} {'success':>8s} {'median':>9s} {'p95':>9s} {'max':>9s}")
    for transport in ("udp", "dtls", "coap", "coaps", "oscore"):
        result = ScenarioRunner().run(Scenario(
            transport=transport,
            topology=TopologySpec(loss=0.15, l2_retries=1),
        ))
        times = result.resolution_times
        print(
            f"{transport:8s} {result.success_rate:8.2f} "
            f"{percentile(times, 50) * 1000:8.1f}m "
            f"{percentile(times, 95) * 1000:8.1f}m "
            f"{max(times):8.2f}s"
        )


if __name__ == "__main__":
    main()
