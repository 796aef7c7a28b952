"""Serving throughput: sequential single-request vs micro-batched.

Simulates a prediction workload against one published ROCKET model two
ways:

* **sequential** — one ``model.predict`` call per series, the shape of a
  server without batching (every request pays the full per-call transform
  overhead);
* **micro-batched** — the same requests submitted one-by-one through a
  :class:`~repro.serving.MicroBatcher`, which coalesces them into panels.

Labels must be identical request for request, and every run must give
the first run's labels; the published table records requests/second and
the coalescing statistics.  The acceptance bar is >= 2x throughput for
the batched path.

One timed run lasts a tenth of a second or so, so a single ratio moves
by tens of percent with host scheduling.  The bench therefore runs
``PAIRS`` sequential/batched pairs, the order alternating from pair to
pair, and holds the bar on the median of the per-pair ratios; the
results file records the median, the quartiles and every pair's ratio.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from _shared import publish

from repro.classifiers import RocketClassifier
from repro.data import load_dataset
from repro.serving import MicroBatcher, prepare_panel

DATASET = "RacketSports"
KERNELS = 400
N_REQUESTS = 200
MAX_BATCH = 64
SUBMITTERS = 8  # concurrent clients, as HTTP handler threads would be
PAIRS = 9  # sequential/batched pairs; the median ratio is judged


def _workload():
    train, test = load_dataset(DATASET, scale="small")
    ready = train.znormalize().impute()
    model = RocketClassifier(num_kernels=KERNELS, seed=0).fit(ready.X, ready.y)
    rng = np.random.default_rng(0)
    requests = prepare_panel(test.X)[rng.integers(0, test.n_series, size=N_REQUESTS)]
    return model, requests


def _time_sequential(model, requests):
    start = time.perf_counter()
    labels = [int(model.predict(series[None])[0]) for series in requests]
    return time.perf_counter() - start, labels


def _time_batched(model, requests):
    with MicroBatcher(model.predict, max_batch=MAX_BATCH) as batcher:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=SUBMITTERS) as pool:
            futures = list(pool.map(batcher.submit, requests))
        labels = [int(future.result()) for future in futures]
        elapsed = time.perf_counter() - start
    return elapsed, labels, batcher.stats


def test_serving_throughput():
    model, requests = _workload()

    pairs = []  # (sequential s, batched s, batcher stats)
    first_labels = None  # every later run must give the first run's labels
    for pair in range(PAIRS):
        # Alternate the order, so a drift in host speed over the run
        # does not land on one side only.
        if pair % 2:
            bat_time, bat_labels, stats = _time_batched(model, requests)
            seq_time, seq_labels = _time_sequential(model, requests)
        else:
            seq_time, seq_labels = _time_sequential(model, requests)
            bat_time, bat_labels, stats = _time_batched(model, requests)
        if first_labels is None:
            first_labels = seq_labels
        # Batching must never change an answer, and neither may a rerun.
        assert seq_labels == first_labels
        assert bat_labels == first_labels
        pairs.append((seq_time, bat_time, stats))

    ratios = [seq / bat for seq, bat, _ in pairs]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    seq_time = float(np.median([seq for seq, _, _ in pairs]))
    bat_time = float(np.median([bat for _, bat, _ in pairs]))
    batches = sorted(stats.batches for _, _, stats in pairs)
    lines = [
        f"workload: {N_REQUESTS} single-series requests, {DATASET} "
        f"(ROCKET {KERNELS} kernels), {SUBMITTERS} concurrent clients, "
        f"{PAIRS} sequential/batched pairs (order alternating)",
        "",
        f"{'strategy (median of ' + str(PAIRS) + ')':34s} {'wall-clock':>10s} "
        f"{'req/s':>8s}",
        f"{'sequential (1 predict per req)':34s} {seq_time:9.3f}s "
        f"{N_REQUESTS / seq_time:8.1f}",
        f"{'micro-batched (<= ' + str(MAX_BATCH) + '/panel)':34s} "
        f"{bat_time:9.3f}s {N_REQUESTS / bat_time:8.1f}",
        "",
        f"speedup: median {median:.2f}x, quartiles {q1:.2f}-{q3:.2f}x "
        f"(bar 2.0x on the median)",
        "per-pair ratios: " + ", ".join(f"{ratio:.2f}" for ratio in ratios),
        f"coalescing: {batches[len(batches) // 2]} batches for {N_REQUESTS} "
        f"requests in the median run (range {batches[0]}-{batches[-1]})",
    ]
    publish("perf_serving", "\n".join(lines))

    assert median >= 2.0, (
        f"micro-batched serving must be >= 2x sequential in the median "
        f"pair; got {median:.2f}x"
    )
