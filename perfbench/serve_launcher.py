"""Server process of the ``serve-mutate`` workload.

Loads an artifact with ``load_artifact``, serves it on the lastfm graph
through ``InfluenceService`` and ``make_server``, and prints one JSON line
``{"ready": true, "port": ...}`` once the socket is listening, so the
benchmark waits on that line instead of polling the port.

It then answers one-line commands on stdin, each with one JSON line:

* ``stats`` — this process's CPU seconds and peak RSS;
* ``trace on`` / ``trace off`` — install or remove the layer wrappers;
* ``reset`` — drop the spans recorded so far;
* ``profile`` — the recorded spans, summarized;
* ``stop`` (or end of input) — shut the server down and exit.

With ``--trace 1`` the wrappers are installed before serving starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro.datasets as datasets  # noqa: E402
from repro.serving import InfluenceService, load_artifact  # noqa: E402
from repro.serving.http import make_server  # noqa: E402

from layers import SERVER_TARGETS  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = Tracer(SERVER_TARGETS)
    graph = datasets.load_dataset("lastfm", scale=args.scale)
    service = InfluenceService(load_artifact(args.artifact), graph)
    server = make_server(service, port=0)
    if args.trace:
        tracer.install()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _reply({"ready": True, "port": server.server_address[1], "pid": os.getpid()})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                _reply(_usage())
            elif command == "trace on":
                tracer.install()
                _reply({"trace": True})
            elif command == "trace off":
                tracer.uninstall()
                _reply({"trace": False})
            elif command == "reset":
                tracer.spans.clear()
                _reply({"spans": 0})
            elif command == "profile":
                summary = summarize(list(tracer.spans))
                _reply({"by_name": summary["by_name"], "tree": summary["tree"]})
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.shutdown_gracefully()
        thread.join(timeout=10.0)
        server.server_close()
        tracer.uninstall()
        try:
            _reply(dict(_usage(), stopped=True))
        except BrokenPipeError:
            pass  # the benchmark stopped listening; nothing left to report
    return 0


if __name__ == "__main__":
    sys.exit(main())
