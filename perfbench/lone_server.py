"""Server process of the ``predict-lone`` workload.

Runs one single-process ``create_server`` over a registry, prints
``{"port": N}`` on stdout, and serves until its stdin closes.  With
``--spans PATH`` the server's own tracing is switched on through its
public knob (``create_server(tracer=Tracer(enabled=True, ...))``); the
spans are kept in memory and written to PATH as one JSON list on exit.

    python3 perfbench/lone_server.py --registry DIR [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    common.require_source()
    from repro.observability import Tracer
    from repro.serving import create_server

    sink = common.SpanList() if args.spans else None
    tracer = Tracer(enabled=True, recorder=sink) if sink is not None else None
    server = create_server(args.registry, port=0, tracer=tracer)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.read()  # the benchmark closes our stdin to stop us
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    if sink is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(sink.spans, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
