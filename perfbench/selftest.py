"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced with the size floors
shrunk (a two-dataset grid, short streams, few requests) and asserts
that every named metric is present with its unit, every oracle passed
and no operation failed.  Exits non-zero on the first broken workload.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

TINY_DATASETS = ["RacketSports", "PenDigits"]


def _tiny_serving(serving) -> None:
    serving.MIN_REQUESTS = 20
    serving.MIN_PACED_WINDOWS = 50
    serving.STREAM_SERIES = 8
    serving.STREAM_PANELS = 2
    serving.SETUP_REPEATS = 1
    serving.SESSION_STREAMS = 1


def _check(workload: str, trace: bool, measured) -> None:
    metrics, attempted, failed = measured
    units = common.PER_LAYER if trace else common.END_TO_END
    line = json.loads(common.result_line(metrics, units, attempted=attempted,
                                         failed=failed, correct=failed == 0))
    for name, unit in units.items():
        got = line["metrics"][name]
        assert got["unit"] == unit, (workload, name, got)
    if not trace:
        zero = [name for name, m in line["metrics"].items() if m["value"] <= 0]
        assert not zero, f"{workload}: end-to-end metrics at 0: {zero}"
    assert line["attempted"] >= 1, workload
    assert line["failed"] == 0 and line["correct"], (workload, line)
    print(f"ok  {workload:15s} trace={int(trace)} attempted={attempted}",
          flush=True)


def main() -> int:
    common.require_source()
    os.chdir(common.ROOT)
    import grid
    import serving

    _tiny_serving(serving)
    for trace in (False, True):
        _check("grid", trace, grid.run(1, 0.0, trace, datasets=TINY_DATASETS))
        with common.WorkDir("selftest") as work:
            _check("predict-lone", trace,
                   serving.run_predict_lone(1, 1.0, trace, work))
        with common.WorkDir("selftest") as work:
            _check("stream", trace, serving.run_stream(1, 1.0, trace, work))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
