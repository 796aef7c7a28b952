"""The ``grid`` workload: the paper grid through ``repro.experiments``.

The parent side (:func:`run`) starts one fresh interpreter per grid, so
every grid begins with cold ``repro.cache`` state and a cold engine
dataset cache.  The child side (``python3 perfbench/grid.py child ...``)
does one of two things:

* ``run`` — the end-to-end measurement: one ``run_grid`` over all 13
  archive datasets, after timing archive generation (the set-up);
* ``replay`` — the traced run: the same cells replayed through the
  public layer calls (``load_dataset``, ``augment_to_balance``,
  transform ``fit``/``transform``, ridge ``fit``, ``score``) with a
  benchmark span around each, reproducing ``run_grid``'s accuracies bit
  for bit so the replay provably did the same work.

``python3 perfbench/grid.py write-reference`` regenerates
``grid_reference.json``, the accuracies of the default seed.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: the grid of the workload table in README.md
TECHNIQUES = ("noise1", "noise3", "noise5", "smote")
N_RUNS = 5
KERNELS = 300
SCALE = "small"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
REFERENCE = Path(__file__).resolve().parent / "grid_reference.json"


# --------------------------------------------------------------------- #
# child side (fresh interpreter per grid)
# --------------------------------------------------------------------- #


def _child_run(seed: int, datasets: list[str] | None) -> dict:
    from repro.cache import feature_cache
    from repro.data.archive import list_datasets, load_dataset
    from repro.experiments import run_grid
    from repro.experiments.protocol import rocket_spec

    names = datasets or list_datasets()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for name in names:
            load_dataset(name, scale=SCALE)
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    result = run_grid(rocket_spec(KERNELS), datasets=names,
                      techniques=TECHNIQUES, n_runs=N_RUNS, scale=SCALE,
                      seed=seed)
    total = time.perf_counter() - start
    accuracies = {f"{dataset}/{technique}": list(cell.accuracies)
                  for (dataset, technique), cell in result.cells.items()}
    stats = feature_cache().stats
    return {"setups": setups, "total": total,
            "accuracies": accuracies, "cache_hits": stats.hits,
            "cache_lookups": stats.hits + stats.misses,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _child_replay(seed: int, datasets: list[str] | None) -> dict:
    import numpy as np

    from repro.augmentation import augment_to_balance, make_augmenter
    from repro.cache import caching
    from repro.data.archive import list_datasets, load_dataset
    from repro.experiments.engine import BASELINE, plan_grid
    from repro.experiments.protocol import rocket_spec

    names = datasets or list_datasets()
    spec = rocket_spec(KERNELS)
    spans = common.SpanList()
    accuracies: dict[str, list[float]] = {}
    total_start = time.perf_counter()
    with caching(True):
        for name in names:
            train, test = spans.timed("data.load", load_dataset, name,
                                      scale=SCALE)
            train_ready = train.znormalize().impute()
            test_ready = test.znormalize().impute()
            for job in plan_grid(spec.name, [name], TECHNIQUES,
                                 n_runs=N_RUNS, master_seed=seed):
                model = spec.build(np.random.default_rng(job.model_seed))
                X, y = train_ready.X, train_ready.y
                synth = None
                if job.technique != BASELINE:
                    augmented = spans.timed(
                        "augmentation.augment_to_balance", augment_to_balance,
                        train, make_augmenter(job.technique),
                        rng=np.random.default_rng(job.aug_seed))
                    if augmented.n_series > train.n_series:
                        synth = augmented.subset(np.arange(
                            train.n_series, augmented.n_series)
                        ).znormalize().impute()
                start = time.perf_counter()
                model.transformer.fit(X)
                features = model.transformer.transform(X)
                if synth is not None:
                    features = np.vstack(
                        [features, model.transformer.transform(synth.X)])
                    y = np.concatenate([y, synth.y])
                spans.add("classifiers.transform", start, time.perf_counter())
                spans.timed("classifiers.ridge_fit", model.ridge.fit,
                            features, y)
                accuracy = spans.timed("classifiers.score", model.score,
                                       test_ready.X, test_ready.y)
                accuracies.setdefault(f"{name}/{job.technique}", []).append(
                    accuracy)
    total = time.perf_counter() - total_start
    sums = {name: sum(spans.durations(name)) for name in (
        "data.load", "augmentation.augment_to_balance",
        "classifiers.transform", "classifiers.ridge_fit", "classifiers.score")}
    return {"total": total, "accuracies": accuracies, "span_sums": sums}


def _child_main(argv: list[str]) -> int:
    mode, seed = argv[0], int(argv[1])
    datasets = argv[2].split(",") if len(argv) > 2 and argv[2] else None
    common.require_source()
    out = _child_run(seed, datasets) if mode == "run" \
        else _child_replay(seed, datasets)
    print(json.dumps(out))
    return 0


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #


def _spawn(mode: str, seed: int, datasets: list[str] | None) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "child", mode,
               str(seed), ",".join(datasets or [])]
    done = subprocess.run(command, capture_output=True, text=True,
                          env=common.child_env(), timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"grid child {mode} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_cells(accuracies: dict, reference: dict,
                 expected_cells: int) -> int:
    """Failed cells: missing, or not bit-identical to the reference."""
    failed = expected_cells - len(accuracies)
    for key, runs in accuracies.items():
        failed += len(runs) != N_RUNS or reference.get(key) != runs
    return failed


def run(seed: int, seconds: float, trace: bool,
        datasets: list[str] | None = None) -> tuple[dict, int, int]:
    """Measure the grid; returns ``(metrics, attempted, failed)``."""
    from repro.data.archive import list_datasets

    reference = None
    if seed == DEFAULT_SEED and datasets is None:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)["accuracies"]
    cells = len(datasets or list_datasets()) * (1 + len(TECHNIQUES))
    if trace:
        return _run_traced(seed, datasets, reference, cells)
    clock = common.Clock(seconds)
    grids = []
    while not grids or clock.left() > 0:
        grids.append(_spawn("run", seed, datasets))
    attempted, failed = 0, 0
    first = grids[0]["accuracies"]
    for grid in grids:
        attempted += cells
        # Every grid must repeat the first bit for bit (seeded by job
        # identity), and the default seed must match the committed table.
        failed += _check_cells(grid["accuracies"], reference or first, cells)
    # One operation is one cold grid: its wall time is what a user waits.
    walls = [g["total"] for g in grids]
    metrics = {
        "setup_s": common.median(s for g in grids for s in g["setups"]),
        "peak_rss_mb": common.median(g["rss_mb"] for g in grids),
        "ops_per_s": cells / common.median(walls),
        "op_p50_ms": 1000.0 * common.median(walls),
    }
    return metrics, attempted, failed


def _run_traced(seed: int, datasets, reference,
                cells: int) -> tuple[dict, int, int]:
    measured = _spawn("run", seed, datasets)
    replay = _spawn("replay", seed, datasets)
    failed = _check_cells(measured["accuracies"],
                          reference or measured["accuracies"], cells)
    # The replay must reproduce run_grid exactly, or it measured other work.
    failed += _check_cells(replay["accuracies"], measured["accuracies"], cells)
    sums = replay["span_sums"]
    metrics = common.layer_defaults()
    metrics.update({
        "data.load_s": sums["data.load"],
        "augmentation.augment_s": sums["augmentation.augment_to_balance"],
        "classifiers.transform_s": sums["classifiers.transform"],
        "classifiers.ridge_fit_s": sums["classifiers.ridge_fit"],
        "classifiers.score_s": sums["classifiers.score"],
        "cache.hit_ratio": measured["cache_hits"] / measured["cache_lookups"],
        "grid.cells": cells,
        "client.tail_ms": 1000.0 * measured["total"],
        "trace.unattributed_share": max(
            0.0, 1.0 - sum(sums.values()) / replay["total"]),
        "trace.overhead_pct": 100.0 * (replay["total"] / measured["total"]
                                       - 1.0),
    })
    return metrics, 2 * cells, failed


def write_reference() -> None:
    """Regenerate ``grid_reference.json`` for the default seed."""
    out = _spawn("run", DEFAULT_SEED, None)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "techniques": list(TECHNIQUES),
                   "n_runs": N_RUNS, "kernels": KERNELS, "scale": SCALE,
                   "accuracies": out["accuracies"]}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        raise SystemExit(_child_main(sys.argv[2:]))
    if sys.argv[1:2] == ["write-reference"]:
        common.require_source()
        write_reference()
        raise SystemExit(0)
    print("usage: grid.py child {run|replay} SEED [DATASETS] | "
          "write-reference", file=sys.stderr)
    raise SystemExit(2)
