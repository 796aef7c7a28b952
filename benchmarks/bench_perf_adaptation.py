"""Shadow-scoring overhead: the adaptation loop vs plain streaming.

While a canary is under evaluation every live window is scored twice —
once by the stable version (the stream's own result) and once by the
canary (the controller's shadow submit).  The shadow submit is
asynchronous and rides the same micro-batcher, so the coalescing that
makes batch serving cheap should also absorb most of the double-scoring
cost.  This bench measures exactly that:

* **plain** — windows/second through a bare ``StreamScorer``;
* **shadowing** — the same stream with an ``AdaptationController``
  pinned in its shadow phase (a huge ``shadow_windows`` quorum keeps it
  comparing for the whole measured segment), timed only after the
  canary is live so the one-off retrain cost is excluded (it is
  reported separately).

One measured segment lasts a few tenths of a second, so a single ratio
moves by tens of percent with host scheduling.  The bench therefore runs
``PAIRS`` plain/shadowing pairs, each run on a fresh service and the
order alternating from pair to pair, and judges the median of the
per-pair ratios.  The acceptance target is < 1.2x per-window latency
while shadowing; the bench asserts a regression bar of 1.5x on the
median and records the median, the quartiles and every pair's ratio in
``benchmarks/results/``.
"""

import time

import numpy as np

from _shared import publish

from repro.adaptation import AdaptationController, family_trainer
from repro.classifiers import RocketClassifier
from repro.data.generators import MTSGenerator
from repro.serving import (
    PROTOCOL_PREPROCESSING,
    ModelRegistry,
    PredictionService,
    model_metadata,
    prepare_panel,
)
from repro.streaming import DriftMonitor, StreamScorer, SyntheticSource

WINDOW = 32
KERNELS = 100
N_SERIES = 400  # windows per measured stream
PAIRS = 9  # plain/shadowing pairs; the median ratio is judged
REGRESSION_BAR = 1.5  # hard assert on the median; the design target is 1.2


def _published_registry(tmp):
    generator = MTSGenerator(n_channels=2, length=WINDOW, n_classes=2,
                             difficulty=0.2, seed=7)
    X, y = generator.sample(np.array([40, 40]), np.random.default_rng(1))
    model = RocketClassifier(num_kernels=KERNELS, seed=0).fit(
        prepare_panel(X), y)
    registry = ModelRegistry(tmp)
    registry.publish(model, "demo", tags=("stable",),
                     metadata=model_metadata(
        model, dataset="synthetic", technique="baseline",
        preprocessing=PROTOCOL_PREPROCESSING, input_shape=[2, WINDOW]))
    return registry, generator


def _time_plain(service, generator):
    source = SyntheticSource(generator=generator, n_series=N_SERIES, seed=5)
    n = 0
    start = time.perf_counter()
    with StreamScorer(service, "demo", window=WINDOW) as scorer:
        for sample in source:
            n += len(scorer.feed(sample.values, sample.label))
        n += len(scorer.finish())
    return time.perf_counter() - start, n


def _time_shadowing(service, generator):
    """Per-window wall time with a live canary comparing every window.

    A hair-trigger monitor flags immediately after warmup; a tiny
    collect quorum retrains fast (the retrain is timed separately); an
    unreachable shadow quorum keeps the controller comparing for the
    rest of the stream, which is the segment we time.
    """
    controller = AdaptationController(
        service, "demo", background=False,
        collect_windows=8, shadow_windows=10 * N_SERIES,
        cooldown_windows=0,
        trainer=family_trainer("rocket", num_kernels=KERNELS),
    )
    monitor = DriftMonitor(warmup=2, persistence=1,
                           confidence_threshold=1e-9)
    source = SyntheticSource(generator=generator, n_series=N_SERIES, seed=5)
    samples = iter(source)
    retrain_started = time.perf_counter()
    n = 0
    start = None
    with StreamScorer(service, "demo", window=WINDOW, monitor=monitor,
                      adapter=controller) as scorer:
        for sample in samples:
            resolved = scorer.feed(sample.values, sample.label)
            if start is None:
                if controller.state == "shadowing":
                    retrain_elapsed = time.perf_counter() - retrain_started
                    start = time.perf_counter()  # canary live: start timing
            else:
                n += len(resolved)
        n += len(scorer.finish())
        elapsed = time.perf_counter() - start
    assert controller.errors == [], controller.errors
    assert controller.stats.shadow_windows.value >= n * 0.9, \
        "shadow scoring silently stopped"
    return elapsed, n, retrain_elapsed


def _on_fresh_service(registry, run, generator):
    service = PredictionService(registry, max_queue=1024)
    try:
        return run(service, generator)
    finally:
        service.close()


def test_adaptation_overhead(tmp_path):
    registry, generator = _published_registry(tmp_path / "registry")

    pairs = []  # (plain per-window s, shadow per-window s, retrain s)
    for pair in range(PAIRS):
        # Alternate the order, so a drift in host speed over the run
        # does not land on one side only.
        if pair % 2:
            shadow = _on_fresh_service(registry, _time_shadowing, generator)
            plain = _on_fresh_service(registry, _time_plain, generator)
        else:
            plain = _on_fresh_service(registry, _time_plain, generator)
            shadow = _on_fresh_service(registry, _time_shadowing, generator)
        pairs.append((plain[0] / plain[1], shadow[0] / shadow[1], shadow[2]))

    ratios = [shadow / plain for plain, shadow, _ in pairs]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    plain_median = float(np.median([plain for plain, _, _ in pairs]))
    shadow_median = float(np.median([shadow for _, shadow, _ in pairs]))
    retrain_median = float(np.median([retrain for _, _, retrain in pairs]))
    lines = [
        f"workload: {N_SERIES} tumbling windows of {WINDOW} samples, "
        f"ROCKET {KERNELS} kernels, {PAIRS} plain/shadowing pairs "
        f"(order alternating, a fresh service per run)",
        "",
        f"plain streaming:    {1e6 * plain_median:8.1f} us/window "
        f"(median of {PAIRS})",
        f"shadow scoring:     {1e6 * shadow_median:8.1f} us/window "
        f"(median of {PAIRS})",
        f"per-window overhead: median {median:.3f}x, quartiles "
        f"{q1:.3f}-{q3:.3f}x  (design target < 1.2x, regression bar "
        f"{REGRESSION_BAR}x on the median)",
        "per-pair ratios: " + ", ".join(f"{ratio:.3f}" for ratio in ratios),
        f"one-off retrain + canary publish: {retrain_median * 1e3:.0f} ms "
        f"median (excluded from the per-window numbers)",
    ]
    publish("perf_adaptation", "\n".join(lines))
    assert median < REGRESSION_BAR, (
        f"shadow scoring costs {median:.2f}x per window in the median "
        f"pair (bar {REGRESSION_BAR}x)"
    )


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    test_adaptation_overhead(Path(tempfile.mkdtemp()))
    print((Path(__file__).parent / "results" / "perf_adaptation.txt").read_text())
    sys.exit(0)
