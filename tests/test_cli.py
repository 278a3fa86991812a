"""CLI smoke tests: every subcommand runs and prints sensible output."""

import asyncio
import contextlib
import json
import pathlib
import threading

import pytest

from repro.api.schema import load_schema, validate
from repro.cli import main

SCHEMA = load_schema(
    str(pathlib.Path(__file__).parent / "report_schema.json")
)


@contextlib.contextmanager
def background_server(**server_kwargs):
    """A DocLiveServer on an ephemeral port, served from a thread with
    its own event loop; yields the port."""
    from repro.live import DocLiveServer

    endpoint = {}
    ready = threading.Event()
    done = threading.Event()

    def serve() -> None:
        async def run() -> None:
            server = DocLiveServer(port=0, **server_kwargs)
            async with server:
                endpoint["port"] = server.endpoint[1]
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.02)

        asyncio.run(run())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=10)
    try:
        yield endpoint["port"]
    finally:
        done.set()
        thread.join(timeout=10)


def test_dissect(capsys):
    assert main(["dissect", "--transport", "oscore"]) == 0
    out = capsys.readouterr().out
    assert "response_aaaa" in out
    assert "FRAGMENTED" in out


def test_dissect_get_method(capsys):
    assert main(["dissect", "--transport", "coap", "--method", "get"]) == 0
    assert "query" in capsys.readouterr().out


def test_resolve(capsys):
    assert main(["resolve", "seed=3", "--names", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("ms") == 2
    assert "FAILED" not in out


def test_experiment(capsys):
    assert main(["run", "transport=udp,queries=10,loss=0.05,retries=1"]) == 0
    out = capsys.readouterr().out
    assert "success rate:     100.00%" in out
    assert "latency p50" in out


def test_memory(capsys):
    assert main(["memory"]) == 0
    out = capsys.readouterr().out
    assert "OSCORE" in out and "QUIC" in out


def test_compress(capsys):
    assert main(["compress", "--name", "name0000.example-iot.org"]) == 0
    out = capsys.readouterr().out
    assert "wire  70 B" in out


def test_experiment_scenario_flag(capsys):
    assert main(["run", "one-hop,queries=8,loss=0.0"]) == 0
    out = capsys.readouterr().out
    assert "success rate:     100.00%" in out


def test_experiment_sweep(capsys):
    assert main(["run", "one-hop,transport=udp|coap,loss=0.0,queries=4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header + one row per cell
    assert lines[1].startswith("transport=udp ")
    assert lines[2].startswith("transport=coap ")


def test_experiment_sweep_workers(capsys):
    assert main([
        "run", "one-hop,transport=udp|coap,loss=0.0,queries=4,workers=2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("transport=") == 2


def test_scenario_errors_are_clean(capsys):
    assert main(["run", "transport=tcp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "udp" in err  # lists the known transports


def test_dissect_sweep_covers_quic(capsys):
    assert main(["dissect", "--sweep"]) == 0
    out = capsys.readouterr().out
    assert "QUIC (model)" in out
    assert "OSCORE" in out


def test_resolve_scenario_flag(capsys):
    assert main(["resolve", "three-hop,loss=0.0", "--names", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("ms") == 2
    assert "FAILED" not in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize("command", ["experiment", "loadtest"])
def test_folded_commands_are_gone(command):
    with pytest.raises(SystemExit):
        main([command])


def test_serve_bounded_duration(capsys):
    assert main([
        "serve", "--transport", "udp", "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving DNS over udp" in out
    assert "served 0 queries" in out


def test_loadtest_against_inline_server(capsys):
    # Serve and load in one process: the server runs in a background
    # thread with its own event loop, the live run in this one.
    with background_server(transport="coap", num_names=8) as port:
        assert main([
            "run", "transport=coap,names=8,queries=32,rate=80,timeout=5,"
            f"substrate=live,live-host=127.0.0.1,live-port={port}",
            "--json",
        ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "live"
    assert report["metrics"]["queries.success_rate"] >= 0.95
    assert report["metrics"]["latency.p50_ms"] is not None
    assert report["spec"]["transport"] == "coap"


def test_run_live_reaches_a_dataset_server_by_name_seed(capsys):
    server = dict(transport="udp", num_names=8, dataset="iotfinder",
                  name_seed=3)
    spec = ("transport=udp,names=8,queries=16,rate=100,timeout=5,"
            "dataset=iotfinder,substrate=live,live-host=127.0.0.1,")
    with background_server(**server) as port:
        assert main([
            "run", f"{spec}name-seed=3,live-port={port}", "--json",
        ]) == 0
        matched = json.loads(capsys.readouterr().out)
        main(["run", f"{spec}name-seed=4,live-port={port}", "--json"])
        mismatched = json.loads(capsys.readouterr().out)
    assert matched["metrics"]["queries.success_rate"] == 1.0
    assert matched["spec"]["live"]["name_seed"] == 3
    assert mismatched["metrics"]["queries.success_rate"] < 1.0


def test_run_stream_writes_snapshots_and_progress(tmp_path, capsys):
    stream = tmp_path / "stream.ndjson"
    assert main([
        "run", "transport=udp,queries=120,rate=100,timeout=5,substrate=live",
        "--stream", str(stream),
    ]) == 0
    captured = capsys.readouterr()
    assert "substrate:        live" in captured.out
    assert "qps=" in captured.err  # the per-second progress line
    records = [json.loads(line) for line in stream.read_text().splitlines()]
    assert records
    for record in records:
        validate(record, SCHEMA)


def test_run_stream_requires_live(capsys):
    assert main(["run", "one-hop,queries=4", "--stream", "-"]) == 2
    assert "live substrate" in capsys.readouterr().err


def test_run_secret_reaches_both_sides_and_stays_out_of_report(capsys):
    assert main([
        "run", "transport=oscore,queries=8,rate=100,timeout=5,substrate=live",
        "--secret", "a-private-secret", "--json",
    ]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["metrics"]["queries.success_rate"] == 1.0
    assert "a-private-secret" not in text


def test_run_sweep_json_validates_with_cell_keys(capsys):
    assert main([
        "run", "figure2|one-hop,transport=udp|coap,queries=4,loss=0",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, SCHEMA)
    assert list(payload["cells"]) == [
        "figure2,transport=udp", "figure2,transport=coap",
        "one-hop,transport=udp", "one-hop,transport=coap",
    ]
    cell = payload["cells"]["one-hop,transport=coap"]
    assert cell["spec"]["topology"]["name"] == "one-hop"
    assert cell["metrics"]["queries.issued"] == 4


@pytest.mark.parametrize("spec", [
    "transport=udp|coap,cache=client-coap+proxy",
    "transport=coap|udp,cache=client-coap+proxy",
])
def test_run_bad_cell_exits_before_any_cell_runs(spec, monkeypatch, capsys):
    from repro.scenarios import ScenarioRunner

    ran = []
    monkeypatch.setattr(
        ScenarioRunner, "run", lambda self, *a, **k: ran.append(a)
    )
    assert main(["run", spec]) == 2
    assert "error:" in capsys.readouterr().err
    assert ran == []


def test_run_sim_human_summary(capsys):
    assert main(["run", "one-hop,transport=coap,queries=6,loss=0.0"]) == 0
    out = capsys.readouterr().out
    assert "substrate:        sim" in out
    assert "latency p50:" in out


def test_run_emits_report_json(capsys):
    assert main([
        "run", "one-hop,transport=udp,queries=6,loss=0.0", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "sim"
    assert report["metrics"]["queries.issued"] == 6
    assert report["spec"]["topology"]["name"] == "one-hop"


def test_run_live_substrate_self_serves(capsys):
    assert main([
        "run",
        "transport=udp,queries=6,loss=0.0,rate=100,substrate=live,timeout=5",
        "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "live"
    assert report["metrics"]["queries.succeeded"] > 0


def test_run_bad_spec_is_cli_error(capsys):
    assert main(["run", "substrate=quantum"]) == 2
    assert "substrate" in capsys.readouterr().err


def test_experiment_json_emits_report(capsys):
    assert main(["run", "transport=udp,queries=6,loss=0.0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "sim"
    assert report["metrics"]["queries.issued"] == 6


def test_experiment_sweep_json_uses_string_grid_keys(capsys):
    assert main([
        "run", "one-hop,transport=udp|coap,loss=0.0,queries=4", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "sweep"
    assert sorted(payload["cells"]) == ["transport=coap", "transport=udp"]
    cell = payload["cells"]["transport=udp"]
    assert cell["metrics"]["queries.issued"] == 4


def test_loadtest_unknown_scheme_is_cli_error(capsys):
    assert main(["run", "scheme=bogus,substrate=live"]) == 2
    assert "unknown caching scheme" in capsys.readouterr().err


def test_workers_below_one_is_cli_error(capsys):
    assert main(["serve", "--workers", "0", "--duration", "0.1"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert main(["run", "substrate=live,load-workers=-1"]) == 2
    assert "load_workers must be >= 1" in capsys.readouterr().err
