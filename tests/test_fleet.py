"""The fleet substrate: golden tolerance vs the exact simulator,
sampling plans, fleet-only dimensions, and the API wiring.

The acceptance core is the golden-cell grid: every simulatable
transport × both caching schemes runs the same small scenario on both
substrates, and each common metric must agree within the checked-in
per-metric tolerances (``tests/fleet_tolerances.json``). Counters and
cache behaviour reproduce exactly by construction; latency tails and
throughput carry the service-model resampling error those tolerances
bound.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api import ApiError, RunSpec, run
from repro.api.schema import load_schema, validate
from repro.fleet import (
    FleetCacheModel,
    FleetOptions,
    FleetOptionsError,
    flash_crowd_warp,
    plan_sample,
    probe_scenario,
    run_fleet,
    wake_time,
)
from repro.scenarios import CachingSpec, scenario_from_spec

SCHEMA = load_schema(
    str(pathlib.Path(__file__).parent / "report_schema.json")
)
TOLERANCES = json.loads(
    (pathlib.Path(__file__).parent / "fleet_tolerances.json").read_text()
)

#: The golden-cell scenario both substrates run: small enough to finish
#: quickly on the exact simulator, busy enough to exercise cache hits,
#: losses, and retransmission tails.
GOLDEN_CELL = (
    "one-hop,clients=4,queries=30,names=6,rate=10,loss=0.05,"
    "cache=client-dns+client-coap"
)
TRANSPORTS = ("udp", "dtls", "coap", "coaps", "oscore")
SCHEMES = ("doh-like", "eol-ttls")


def tolerance_for(key: str):
    if key in TOLERANCES:
        return TOLERANCES[key]
    if key.startswith("cache."):
        return TOLERANCES["cache.*"]
    raise AssertionError(f"no tolerance on record for metric {key!r}")


# -- the acceptance criterion: golden cells within tolerance ---------------


class TestGoldenCells:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_fleet_matches_exact_sim_within_tolerance(
        self, transport, scheme
    ):
        spec = f"{GOLDEN_CELL},transport={transport},scheme={scheme}"
        sim_report = run(RunSpec.from_spec(spec))
        fleet_report = run(RunSpec.from_spec(spec + ",substrate=fleet"))
        assert sorted(sim_report.common_metrics()) == sorted(
            fleet_report.common_metrics()
        )
        for key, sim_value in sim_report.common_metrics().items():
            fleet_value = fleet_report.metrics[key]
            if sim_value is None or fleet_value is None:
                assert sim_value == fleet_value, key
                continue
            bound = tolerance_for(key)
            limit = bound["abs"] + bound["rel"] * max(
                abs(sim_value), abs(fleet_value)
            )
            assert abs(sim_value - fleet_value) <= limit, (
                f"{transport}/{scheme} {key}: sim={sim_value} "
                f"fleet={fleet_value} exceeds abs={bound['abs']} "
                f"rel={bound['rel']}"
            )
        assert fleet_report.metrics["fleet.tolerance.exact"] is True
        validate(fleet_report.to_json(), SCHEMA)


# -- the sampling plan ------------------------------------------------------


class TestSamplePlan:
    def test_below_cap_is_exact(self):
        plan = plan_sample(clients=1000, queries=500, rate=50.0, cap=1000)
        assert plan.exact
        assert plan.query_scale == 1.0
        assert plan.client_scale == 1.0
        assert plan.rate == 50.0

    def test_thinning_preserves_per_client_rate(self):
        plan = plan_sample(
            clients=1_000_000, queries=1_000_000, rate=100_000.0, cap=65536
        )
        assert not plan.exact
        assert plan.clients <= 65536 + 1
        # Per-client rate is invariant under thinning.
        assert plan.rate / plan.clients == pytest.approx(
            100_000.0 / 1_000_000
        )
        assert plan.query_scale == pytest.approx(
            1_000_000 / plan.queries
        )
        assert plan.client_scale == pytest.approx(1_000_000 / plan.clients)

    def test_small_fleet_truncates_in_time(self):
        # Two clients issuing a million queries cannot be client-thinned
        # below the cap; the sample truncates the run in time instead.
        plan = plan_sample(clients=2, queries=1_000_000, rate=10.0, cap=1000)
        assert plan.clients == 1
        assert plan.queries == 1000
        assert plan.query_scale == 1000.0
        assert plan.client_scale == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_sample(clients=0, queries=10, rate=1.0, cap=10)
        with pytest.raises(ValueError):
            plan_sample(clients=1, queries=0, rate=1.0, cap=10)


# -- fleet-only dimensions --------------------------------------------------


class TestFlashCrowd:
    def test_multiplier_one_is_identity(self):
        arrivals = [0.5, 1.0, 2.0]
        assert flash_crowd_warp(arrivals, 1.0, 0.0, 3.0) == arrivals

    def test_warp_preserves_count_and_order(self):
        arrivals = [i * 0.1 for i in range(300)]
        warped = flash_crowd_warp(arrivals, 3.0, 0.0, 30.0)
        assert len(warped) == 300
        assert warped == sorted(warped)

    def test_middle_third_compresses_and_tail_shifts(self):
        # Uniform arrivals over [0, 30) with multiplier 3: cumulative
        # mass [10, 25] maps into [10, 15] (3x hot), later arrivals
        # shift 10 s earlier; arrivals before the window are untouched.
        arrivals = [5.0, 12.0, 24.9, 26.0, 29.9]
        warped = flash_crowd_warp(arrivals, 3.0, 0.0, 30.0)
        assert warped[0] == 5.0
        assert warped[1] == pytest.approx(10.0 + 2.0 / 3.0)
        assert warped[2] == pytest.approx(10.0 + 14.9 / 3.0)
        assert warped[3] == pytest.approx(16.0)
        assert warped[4] == pytest.approx(19.9)


class TestDutyCycle:
    def test_always_on_is_identity(self):
        assert wake_time(3, 7.25, 1.0, 10.0) == 7.25

    def test_awake_window_issues_immediately(self):
        # Client 0 has phase 0: awake during [0, duty*period) of each
        # period.
        assert wake_time(0, 0.5, 0.2, 10.0) == 0.5
        assert wake_time(0, 10.5, 0.2, 10.0) == 10.5

    def test_sleeping_defers_to_next_wake(self):
        # Client 0, period 10, duty 0.2: asleep during [2, 10); a query
        # arising at t=5 waits until the next period starts.
        assert wake_time(0, 5.0, 0.2, 10.0) == pytest.approx(10.0)

    def test_phases_spread_clients(self):
        phases = {
            round(wake_time(client, 0.0, 0.001, 10.0), 6)
            for client in range(8)
        }
        # Golden-ratio phasing: every client wakes at a distinct point.
        assert len(phases) == 8


class FixedRng:
    """A 'random' source that always returns the same value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestChurn:
    def make_model(self, churn: float, rng_value: float) -> FleetCacheModel:
        return FleetCacheModel(
            CachingSpec(client_dns=True, client_coap=False, proxy=False),
            coap_based=False,
            churn=churn,
            model_rng=FixedRng(rng_value),
        )

    def test_replacement_restarts_cold(self):
        model = self.make_model(churn=10.0, rng_value=0.999)
        cache = model.dns(0)
        cache.store("key", True, lifetime=300.0, now=0.0)
        model.touch(0, 0.0)
        # Survival probability exp(-10 * 5) is far below 0.999: the
        # client is replaced and its cache cleared.
        model.touch(0, 5.0)
        entry, state = model.dns(0).lookup("key", 5.0)
        assert entry is None

    def test_survivor_keeps_cache(self):
        model = self.make_model(churn=0.001, rng_value=0.5)
        cache = model.dns(0)
        cache.store("key", True, lifetime=300.0, now=0.0)
        model.touch(0, 0.0)
        # Survival probability exp(-0.001 * 5) ~ 0.995 > 0.5: survives.
        model.touch(0, 5.0)
        entry, state = model.dns(0).lookup("key", 5.0)
        assert entry is not None

    def test_churn_lowers_hit_ratio_end_to_end(self):
        base = scenario_from_spec(
            "one-hop,transport=coap,clients=4,queries=60,names=4,rate=10,"
            "cache=client-dns"
        )
        steady = run_fleet(base, FleetOptions())
        churned = run_fleet(base, FleetOptions(churn=20.0))
        assert (
            churned.cache_stats["client-dns"]["hits"]
            < steady.cache_stats["client-dns"]["hits"]
        )


# -- options and spec wiring ------------------------------------------------


class TestFleetOptions:
    def test_validation(self):
        with pytest.raises(FleetOptionsError):
            FleetOptions(churn=-0.1)
        with pytest.raises(FleetOptionsError):
            FleetOptions(duty_cycle=0.0)
        with pytest.raises(FleetOptionsError):
            FleetOptions(duty_cycle=1.5)
        with pytest.raises(FleetOptionsError):
            FleetOptions(flash_crowd=0.5)
        with pytest.raises(FleetOptionsError):
            FleetOptions(sample_cap=0)

    def test_from_spec_parses_fleet_keys(self):
        spec = RunSpec.from_spec(
            "transport=coap,substrate=fleet,churn=0.5,duty_cycle=0.25,"
            "duty-period=20,flash-crowd=4,fleet-sample-cap=1000"
        )
        assert spec.substrate == "fleet"
        assert spec.fleet.churn == 0.5
        assert spec.fleet.duty_cycle == 0.25
        assert spec.fleet.duty_period == 20.0
        assert spec.fleet.flash_crowd == 4.0
        assert spec.fleet.sample_cap == 1000

    def test_from_spec_rejects_bad_fleet_values(self):
        with pytest.raises(ApiError):
            RunSpec.from_spec("substrate=fleet,churn=-1")

    def test_to_dict_carries_fleet_block_and_topology(self):
        payload = RunSpec.from_spec(
            "one-hop,transport=coap,clients=5000,substrate=fleet,churn=0.1"
        ).to_dict()
        json.dumps(payload)
        assert payload["substrate"] == "fleet"
        assert payload["topology"]["clients"] == 5000
        assert payload["fleet"]["churn"] == 0.1
        assert "live" not in payload


# -- the probe --------------------------------------------------------------


class TestProbe:
    def test_probe_disables_client_caches_and_caps_clients(self):
        scenario = scenario_from_spec(
            "one-hop,transport=coap,clients=5000,queries=500,rate=100,"
            "cache=client-dns+client-coap"
        )
        probe = probe_scenario(scenario, FleetOptions())
        assert probe.topology.clients == 4
        caching = probe.caching_spec
        assert not caching.client_dns
        assert not caching.client_coap
        # Per-client rate is preserved: 100 qps over 5000 clients is
        # 0.08 qps over 4 — but floored so the probe finishes inside
        # the run-duration cutoff.
        assert probe.workload.num_queries == 160
        assert probe.workload.query_rate >= (
            2.0 * probe.workload.num_queries / scenario.run_duration
        )

    def test_calibration_is_memoised(self):
        from repro.fleet.service import calibrate

        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=8,queries=20,rate=10"
        )
        first = calibrate(scenario, FleetOptions())
        assert calibrate(scenario, FleetOptions()) is first


# -- scale ------------------------------------------------------------------


class TestFleetAtScale:
    def test_sampled_run_scales_counters(self):
        report = run(RunSpec.from_spec(
            "one-hop,transport=coap,clients=100000,queries=100000,"
            "rate=10000,cache=client-dns,substrate=fleet,"
            "fleet-sample-cap=2000"
        ))
        metrics = report.metrics
        assert metrics["queries.issued"] == pytest.approx(100000, rel=0.02)
        assert metrics["fleet.sample.scale"] > 1.0
        assert metrics["fleet.tolerance.exact"] is False
        assert metrics["fleet.clients"] == 100000
        # The telemetry timeline reports fleet totals, not sample
        # counts: the per-second series must sum to ~the fleet size.
        assert report.telemetry is not None
        assert sum(s["queries"] for s in report.telemetry) == pytest.approx(
            100000, rel=0.05
        )
        validate(report.to_json(), SCHEMA)

    def test_repeats_pool_and_fan_out(self):
        report = run(RunSpec.from_spec(
            "one-hop,transport=udp,clients=50,queries=40,rate=20,"
            "cache=client-dns,substrate=fleet,repeats=3"
        ))
        assert report.metrics["fleet.repeats"] == 3
        assert report.metrics["queries.issued"] == 120
        assert report.telemetry is None
        assert isinstance(report.raw, list) and len(report.raw) == 3
        validate(report.to_json(), SCHEMA)

    def test_duty_cycle_defers_and_flash_crowd_preserves_counts(self):
        base = "one-hop,transport=udp,clients=32,queries=64,rate=20,substrate=fleet"
        plain = run(RunSpec.from_spec(base))
        duty = run(RunSpec.from_spec(base + ",duty_cycle=0.2,duty_period=8"))
        crowd = run(RunSpec.from_spec(base + ",flash_crowd=5"))
        assert duty.metrics["queries.issued"] == plain.metrics["queries.issued"]
        assert crowd.metrics["queries.issued"] == plain.metrics["queries.issued"]
        assert duty.metrics["fleet.duty_cycle"] == 0.2
        assert crowd.metrics["fleet.flash_crowd"] == 5.0
        # Deferral pushes arrivals to wake boundaries, stretching the
        # observed span: the duty-cycled run cannot finish earlier.
        duty_last = max(duty.raw.issued_at)
        plain_last = max(plain.raw.issued_at)
        assert duty_last >= plain_last


# -- engine semantics -------------------------------------------------------


class TestEngineSemantics:
    def test_dns_hits_are_zero_latency(self):
        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=2,queries=30,names=2,rate=10,"
            "cache=client-dns"
        )
        result = run_fleet(scenario)
        hits = [t for t in result.resolution_time if t == 0.0]
        assert hits, "expected repeat queries to hit the client DNS cache"
        assert result.cache_stats["client-dns"]["hits"] == len(hits)

    def test_zero_ttl_is_uncacheable(self):
        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=2,queries=20,names=2,rate=10,"
            "cache=client-dns,records=1"
        )
        from dataclasses import replace

        scenario = replace(
            scenario, workload=replace(scenario.workload, ttl=(0, 0))
        )
        result = run_fleet(scenario)
        assert result.cache_stats["client-dns"]["hits"] == 0

    def test_oscore_coap_cache_exists_but_is_never_consulted(self):
        scenario = scenario_from_spec(
            "one-hop,transport=oscore,clients=2,queries=20,names=2,rate=10,"
            "cache=client-coap"
        )
        result = run_fleet(scenario)
        stats = result.cache_stats["client-coap"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_deterministic_for_seed(self):
        scenario = scenario_from_spec(
            "one-hop,transport=coap,clients=8,queries=30,rate=10,"
            "cache=client-dns"
        )
        first = run_fleet(scenario)
        second = run_fleet(scenario)
        for column in ("issued_at", "resolution_time", "error", "rtype",
                       "name_index", "client"):
            assert getattr(first, column) == getattr(second, column)
        assert first.cache_stats == second.cache_stats


# -- bit-identity pin -------------------------------------------------------


def _pin_run(transport, fleet, repeats=1):
    """A small fleet run busy enough to exercise every cache path.

    Tiny capacities force evictions; short TTLs make client CoAP
    entries go stale and revalidate; a DNS cache smaller than the CoAP
    cache leaves room for fresh CoAP hits behind DNS misses.
    """
    from repro.scenarios import Scenario, TopologySpec, WorkloadSpec

    scenario = Scenario(
        transport=transport,
        topology=TopologySpec(clients=64),
        workload=WorkloadSpec(
            num_queries=4000, num_names=12, query_rate=200.0,
            ttl=(1, 6), zipf_alpha=0.8,
        ),
        caching=CachingSpec(
            client_dns=True, client_coap=True, proxy=False,
            client_dns_capacity=2, client_coap_capacity=4,
        ),
        seed=7,
    )
    return run(RunSpec(
        scenario=scenario, substrate="fleet", fleet=fleet, repeats=repeats,
    ))


def _digest(value) -> str:
    import hashlib

    blob = json.dumps(value, sort_keys=True, default=repr,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: name -> (transport, fleet options, repeats, metrics digest, telemetry
#: digest) of the reference Reports. A change to the engine, the cache
#: model or report assembly that keeps behaviour must leave them
#: untouched.
PINNED_RUNS = {
    "coap-churn-sampled": (
        "coap", FleetOptions(churn=0.5, sample_cap=2048), 1,
        "f6da5085e57bc88e6a91a239af4a3ab576831709ca83161a39d55b832f868da5",
        "d8ee635c1dc27a1af17defea1a131964374f03abe446cc55ef43bd595e679a51",
    ),
    "coap-duty-crowd": (
        "coap", FleetOptions(duty_cycle=0.5, duty_period=4.0,
                             flash_crowd=3.0), 1,
        "9b80a459940c873a78535c5abc933198eccebf195e15b3278d04d3ab6cc4a9fb",
        "9463cf0bd8d608c75f654c38ff62d1d9e539ff396da75363638eaacdf2de6d3d",
    ),
    "oscore-duty-crowd": (
        "oscore", FleetOptions(duty_cycle=0.3, duty_period=4.0,
                               flash_crowd=4.0), 1,
        "8db4dcc2f6cd267f51137d70ea3f5444184c4c07de8fc442b6af2c9ab9f70226",
        "c3d549adc142b36b14ad93a81e59452e78636ffcb2461ab3a2de321f44a50c54",
    ),
    "coaps-repeats": (
        "coaps", FleetOptions(), 2,
        "78b6c55b0a11965b41ce89a7eabda584a8478f292c51f9e69198993e1da01b31",
        "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
    ),
}


class TestBitIdentityPin:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_report_digests_are_pinned(self, name):
        transport, fleet, repeats, metrics_digest, telemetry_digest = (
            PINNED_RUNS[name]
        )
        report = _pin_run(transport, fleet, repeats)
        assert _digest(report.metrics) == metrics_digest
        assert _digest(report.telemetry) == telemetry_digest

    def test_pinned_runs_cover_every_cache_path(self):
        """The pin must not drift to covering only the happy path."""
        totals = {}
        dimensions = {"churn": 0.0, "duty_cycle": 1.0, "flash_crowd": 1.0}
        repeated = False
        for transport, fleet, repeats, _, _ in PINNED_RUNS.values():
            report = _pin_run(transport, fleet, repeats)
            runs = report.raw if isinstance(report.raw, list) else [report.raw]
            repeated = repeated or len(runs) > 1
            for result in runs:
                for location, counters in result.cache_stats.items():
                    for key in ("hits", "stale_hits", "validations",
                                "evictions"):
                        slot = f"{location}.{key}"
                        totals[slot] = totals.get(slot, 0) + counters[key]
            dimensions["churn"] = max(dimensions["churn"], fleet.churn)
            dimensions["duty_cycle"] = min(
                dimensions["duty_cycle"], fleet.duty_cycle
            )
            dimensions["flash_crowd"] = max(
                dimensions["flash_crowd"], fleet.flash_crowd
            )
        assert totals["client-dns.hits"] > 0
        assert totals["client-coap.hits"] > 0
        assert totals["client-coap.stale_hits"] > 0
        assert totals["client-coap.validations"] > 0
        assert totals["client-dns.evictions"] > 0
        assert totals["client-coap.evictions"] > 0
        assert dimensions["churn"] > 0.0
        assert dimensions["duty_cycle"] < 1.0
        assert dimensions["flash_crowd"] > 1.0
        assert "oscore" in {spec[0] for spec in PINNED_RUNS.values()}
        assert repeated
