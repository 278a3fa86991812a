"""Launch a :class:`repro.live.DocLiveServer` for the live workloads.

Run as ``python3 perfbench/live_server.py --transport coap --names 64
--seed 1 [--trace PATH]`` from the repository root. Prints one JSON line
``{"host", "port"}`` once the socket is bound, then obeys one command
per line on stdin, answering each with one JSON line:

* ``stats`` prints the server's counters as one JSON line;
* ``reset`` forgets the spans recorded so far (after a warm-up);
* ``stop`` (or end of input) stops the server, writes the spans to
  ``PATH`` when tracing, prints how many there were and exits.

With ``--trace`` the layer wrappers of :mod:`layers` are installed
before the server is built, so every call the server makes into a
wrapped layer is recorded.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


async def serve(args) -> None:
    from repro.live import DocLiveServer

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    server = DocLiveServer(
        transport=args.transport, port=0, num_names=args.names,
        seed=args.seed,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    print(json.dumps({"host": server.host, "port": server.port}), flush=True)

    def on_stdin() -> None:
        line = sys.stdin.readline()
        command = line.strip()
        if command == "stats":
            print(json.dumps(server.stats()), flush=True)
        elif command == "reset":
            if tracer is not None:
                tracer.reset()
            print(json.dumps({"spans": 0}), flush=True)
        elif (command == "stop" or not line) and not done.done():
            done.set_result(None)

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    try:
        await done
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await server.stop()
    spans = 0
    if tracer is not None:
        tracer.unwrap_all()
        tracer.write(args.trace)
        spans = len(tracer)
    print(json.dumps({"spans": spans}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transport", default="coap")
    parser.add_argument("--names", type=int, default=64)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", default=None)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
