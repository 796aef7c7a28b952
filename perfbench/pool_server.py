"""Server process of the ``stream`` and ``stream-session`` workloads.

Starts a 2-worker ``ServingPool`` over a registry, prints
``{"port": N, "pids": [...]}`` on stdout, and serves until its stdin
closes, then stops the pool.  Running the pool in its own interpreter
keeps the load generator out of the supervisor and the workers: they
are forked from a process that only ever imported the server.  With
``--trace-export PATH`` the pool's tracing is switched on through its
public knobs (``trace=True, trace_export=PATH``), one JSONL file per
worker.

    python3 perfbench/pool_server.py --registry DIR --pool-dir DIR
        [--trace-export PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--pool-dir", required=True)
    parser.add_argument("--trace-export", default=None)
    args = parser.parse_args()
    common.require_source()
    from repro.serving import ServingPool

    pool = ServingPool(args.registry, workers=2, pool_dir=args.pool_dir,
                       trace=args.trace_export is not None,
                       trace_export=args.trace_export)
    pool.start()
    try:
        pids = [pid for _, pid in sorted(pool.worker_pids().items())]
        print(json.dumps({"port": pool.port, "pids": pids}), flush=True)
        sys.stdin.read()  # the benchmark closes our stdin to stop us
        # Respawns are read before stopping: a worker death under load
        # is a failure the benchmark counts.
        print(json.dumps({"respawns": pool.respawns}), flush=True)
    finally:
        pool.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
