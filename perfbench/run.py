"""One benchmark command for the whole system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``grid``, ``predict-lone``, ``stream`` (see README.md in
this directory for what each drives and why).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer split from a separate traced run.
Every output is checked against an oracle; a mismatch counts as a failed
operation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("grid", "predict-lone", "stream")


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> tuple[dict, int, int]:
    """Run one workload; returns ``(metrics, attempted, failed)``."""
    if workload == "grid":
        import grid

        return grid.run(seed, seconds, trace)
    import serving

    with common.WorkDir(workload) as work:
        if workload == "predict-lone":
            return serving.run_predict_lone(seed, seconds, trace, work)
        return serving.run_stream(seed, seconds, trace, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    # Pool side-channel sockets live under a relative work directory, so
    # their paths stay short whatever the checkout's location.
    os.chdir(common.ROOT)
    metrics, attempted, failed = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    units = common.PER_LAYER if args.trace else common.END_TO_END
    print(common.result_line(metrics, units, attempted=attempted,
                             failed=failed, correct=failed == 0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
