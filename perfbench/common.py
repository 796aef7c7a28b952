"""Shared pieces of the benchmark: metric tables, statistics, spans, RSS.

Every workload reports the same end-to-end metric names (so each run's
result line carries the full ``end_to_end`` set of ``BENCHMARK.json``)
and the same per-layer names (0 where the workload does not drive that
layer).  What an "operation" is differs per workload; ``README.md`` in
this directory gives the table.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

#: the checkout root: this file lives in ``<root>/perfbench/``
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: the metric tables live in ``BENCHMARK.json``: name -> unit, the same
#: set on every workload
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: the side channel's request read cap (``serving/pool.py``): a
#: ``session_put`` larger than this is cut off and the peer never adopts
SIDE_CHANNEL_CAP = 65536


def require_source() -> None:
    """Exit non-zero unless the program's source tree is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: BLAS/OpenMP threads per process under test.  The program's matrices
#: are small (serving batches are at most 64 windows x 60 kernels);
#: OpenBLAS's default pool of one spinning thread per core only fights
#: the load generator and the other processes for the 2 vCPUs.  With it,
#: stream CPU per window doubled and one busy neighbour process cut
#: stream throughput by 60%, against 11% with one thread.  The grid's
#: accuracies are bit-identical either way.
BLAS_THREADS = 1


def child_env() -> dict:
    """Environment for child interpreters: the source tree on the path,
    and the BLAS/OpenMP thread pools capped at ``BLAS_THREADS``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit.

    The path is relative to the checkout root (the benchmark's working
    directory), which keeps the pool's unix-socket paths short.
    """

    def __init__(self, tag: str):
        self.path = Path(".perfbench_work") / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return float(ordered[int(rank) - 1])


def rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Clock:
    """Deadline helper for the measured phases."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = float(seconds)

    def left(self) -> float:
        return self.seconds - (time.perf_counter() - self.start)


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


class SpanList:
    """In-memory span sink with the recorder interface ``Tracer`` calls.

    Spans stay in memory while the benchmark runs and are written out
    once at the end, so recording costs an append, not a file write.
    """

    def __init__(self):
        self.spans: list[dict] = []

    def record(self, span) -> None:
        self.spans.append({
            "name": span.name, "span_id": span.span_id,
            "parent_id": span.parent_id, "start": span.start,
            "duration": span.duration, "attributes": dict(span.attributes),
        })

    def add(self, name: str, start: float, end: float) -> None:
        """Record one span timed by the benchmark itself (perf_counter)."""
        self.spans.append({"name": name, "start": start,
                           "duration": end - start})

    def timed(self, name: str, call, *args, **kwargs):
        """Run ``call(*args, **kwargs)`` inside a benchmark span."""
        start = time.perf_counter()
        result = call(*args, **kwargs)
        self.add(name, start, time.perf_counter())
        return result

    def durations(self, name: str) -> list[float]:
        return [s["duration"] for s in self.spans if s["name"] == name]


def load_span_file(path) -> list[dict]:
    """Spans the program exported as JSON lines (``Span.as_dict`` shape)."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                raw = json.loads(line)
                spans.append({
                    "name": raw["name"], "span_id": raw["span_id"],
                    "parent_id": raw.get("parent_id"),
                    "start": raw["start"],
                    "duration": raw["duration_ms"] / 1000.0,
                    "attributes": raw.get("attributes") or {},
                })
    return spans


def self_time(span: dict, children: list[dict]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span["start"], span["start"] + span["duration"]
    covered, cursor = 0.0, start
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(cursor, child["start"])
        hi = min(end, child["start"] + child["duration"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, span["duration"] - covered)


# --------------------------------------------------------------------- #
# result line
# --------------------------------------------------------------------- #


def result_line(values: dict, units: dict, *, attempted: int, failed: int,
                correct: bool) -> str:
    """The JSON object a run prints as its last stdout line.

    Every name in *units* must be present in *values*: a missing metric
    is a benchmark bug, raised here rather than reported as 0.
    """
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def layer_defaults() -> dict:
    """Per-layer values for layers a workload does not drive."""
    return {name: 0.0 for name in PER_LAYER}
