"""The stream scorer against a real PredictionService, transport-free."""

import threading
import time

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServingError,
    model_metadata,
    prepare_panel,
)
from repro.streaming import (
    DriftMonitor,
    ReplaySource,
    StreamScorer,
    StreamSession,
    expected_windows,
)

WINDOW = 32


@pytest.fixture(scope="module")
def problem():
    return make_classification_panel(
        n_series=40, n_channels=2, length=WINDOW, n_classes=2,
        difficulty=0.15, seed=0,
    )


@pytest.fixture(scope="module")
def registry(tmp_path_factory, problem):
    X, y = problem
    model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.publish(model, "demo", metadata=model_metadata(
        model, dataset="synthetic", preprocessing="znormalize+impute"))
    return registry


@pytest.fixture
def service(registry):
    service = PredictionService(registry, max_queue=256)
    yield service
    service.close()


def _drive(scorer, source):
    results = []
    for sample in source:
        results.extend(scorer.feed(sample.values, sample.label))
    results.extend(scorer.finish())
    return results


class TestStreamScorer:
    def test_window_plan_order_and_truth(self, service, problem):
        X, y = problem
        source = ReplaySource(X[:12], y[:12])
        with StreamScorer(service, "demo", window=WINDOW, hop=WINDOW) as scorer:
            results = _drive(scorer, source)
        assert len(results) == expected_windows(len(source), WINDOW, WINDOW) == 12
        assert [r.index for r in results] == list(range(12))
        assert [r.start for r in results] == [i * WINDOW for i in range(12)]
        # Tumbling windows aligned to series boundaries: the truth is the
        # series label and an easy problem classifies nearly all of them.
        assert [r.truth for r in results] == [int(v) for v in y[:12]]
        accuracy = np.mean([r.label == r.truth for r in results])
        assert accuracy >= 0.8

    def test_hop_overlap_plan(self, service, problem):
        X, y = problem
        source = ReplaySource(X[:6], y[:6])
        hop = 8
        with StreamScorer(service, "demo", window=WINDOW, hop=hop) as scorer:
            results = _drive(scorer, source)
        assert len(results) == expected_windows(len(source), WINDOW, hop)

    def test_results_arrive_in_window_order_with_small_inflight(
            self, registry, problem):
        X, y = problem
        source = ReplaySource(X[:10], y[:10])
        service = PredictionService(registry, max_batch=2)
        try:
            with StreamScorer(service, "demo", window=WINDOW,
                              hop=4) as scorer:
                results = _drive(scorer, source)
        finally:
            service.close()
        assert [r.index for r in results] == list(range(len(results)))

    def test_streaming_shares_the_bounded_queue(self, registry, problem):
        """A full shared queue blocks the stream (bounded) instead of
        erroring: backpressure, not failure."""
        X, y = problem
        service = PredictionService(registry, max_queue=4)
        try:
            with StreamScorer(service, "demo", window=WINDOW, hop=1,
                              queue_timeout=10.0) as scorer:
                results = _drive(scorer, ReplaySource(X[:8], y[:8]))
            assert len(results) == expected_windows(8 * WINDOW, WINDOW, 1)
        finally:
            service.close()

    def test_lone_stream_fills_its_batch(self, registry, problem):
        """The in-flight cap is the service's ``max_batch``: while its
        first batch runs, one unpaced stream alone keeps ``max_batch``
        windows in the batcher, and no more."""
        X, y = problem
        max_batch = 16
        service = PredictionService(registry, max_batch=max_batch)
        _, batcher = service._resolve("demo", None)
        predict, release = batcher._predict_fn, threading.Event()
        sizes = []  # of the batches that reached the model

        def gated(panel):
            sizes.append(len(panel))
            release.wait(timeout=30)
            return predict(panel)

        def in_flight():
            return sizes[0] + batcher.queue_depth if sizes else 0

        batcher._predict_fn = gated
        results, failures = [], []

        def drive(scorer):
            try:
                results.extend(_drive(scorer, ReplaySource(X, y)))
            except Exception as error:  # noqa: BLE001 - asserted below
                failures.append(error)

        try:
            with StreamScorer(service, "demo", window=WINDOW,
                              hop=4) as scorer:
                driver = threading.Thread(target=drive, args=(scorer,))
                driver.start()
                try:
                    deadline = time.monotonic() + 10
                    while in_flight() < max_batch \
                            and time.monotonic() < deadline:
                        time.sleep(0.01)
                    time.sleep(0.1)  # the stream now waits on its oldest
                    assert in_flight() == max_batch
                finally:
                    release.set()
                    driver.join(timeout=60)
                assert not driver.is_alive()
        finally:
            service.close()
        assert not failures
        assert [r.index for r in results] \
            == list(range(expected_windows(len(X) * WINDOW, WINDOW, 4)))

    def test_unknown_model_fails_at_open(self, service):
        with pytest.raises(ServingError) as excinfo:
            StreamScorer(service, "nope", window=WINDOW)
        assert excinfo.value.status == 404

    def test_adapter_with_session_is_refused(self, service):
        """A session snapshot carries no adapter state, so a resumed
        stream would come back with an empty adapter: refused up front."""
        with pytest.raises(ValueError, match="adapter"):
            StreamScorer(service, "demo", window=WINDOW, adapter=object(),
                         session=StreamSession("s"))

    def test_session_snapshot_holds_two_signals(self, service, problem):
        """A session snapshot carries the monitor's accuracy and
        confidence state under codec 2, and nothing else of it."""
        X, y = problem
        session = StreamSession("s")
        with StreamScorer(service, "demo", window=WINDOW, hop=WINDOW,
                          session=session) as scorer:
            _drive(scorer, ReplaySource(X[:4], y[:4]))
        assert session.state["codec"] == 2
        assert set(session.state["monitor"]) == {
            "config", "windows", "conf_diverging", "acc_fast", "acc_slow",
            "conf_fast", "conf_slow"}

    def test_feed_after_close_rejected(self, service, problem):
        scorer = StreamScorer(service, "demo", window=WINDOW)
        scorer.close()
        with pytest.raises(RuntimeError):
            scorer.feed(np.zeros(2))

    def test_custom_monitor_and_shift_counting(self, service, problem):
        X, y = problem
        monitor = DriftMonitor(warmup=2, threshold=0.3, persistence=1)
        with StreamScorer(service, "demo", window=WINDOW, hop=WINDOW,
                          monitor=monitor) as scorer:
            # Establish an honest accuracy baseline, then lie about the
            # truth: the accuracy EWMA collapses and the monitor flags it.
            results = []
            for sample in ReplaySource(X[:8], y[:8]):
                results.extend(scorer.feed(sample.values, sample.label))
            for sample in ReplaySource(X[:8], 1 - y[:8]):
                results.extend(scorer.feed(sample.values, sample.label))
            results.extend(scorer.finish())
        assert scorer.shifts > 0
        assert scorer.shifts == sum(r.drift.shift for r in results)
        assert any(r.drift.signal == "accuracy" for r in results if r.drift.shift)


class TestStreamStats:
    def test_gauges_and_counters(self, service, problem):
        X, y = problem
        record, stats = service.open_stream("demo")
        assert stats.active.value == 1
        with StreamScorer(service, "demo", window=WINDOW) as scorer:
            assert stats.active.value == 2  # same per-version stats object
            for sample in ReplaySource(X[:3], y[:3]):
                scorer.feed(sample.values, sample.label)
            scorer.finish()
        assert stats.active.value == 1
        assert stats.windows.value == 3
        assert stats.opened.value == 2
        service.close_stream(record)
        assert stats.active.value == 0

    def test_metrics_text_families(self, service, problem):
        X, y = problem
        with StreamScorer(service, "demo", window=WINDOW) as scorer:
            for sample in ReplaySource(X[:2], y[:2]):
                scorer.feed(sample.values, sample.label)
            scorer.finish()
        text = service.metrics_text()
        assert '# TYPE repro_serving_streams_total counter' in text
        assert 'repro_serving_stream_windows_total{model="demo",version="1"} 2' \
            in text
        assert 'repro_serving_active_streams{model="demo",version="1"} 0' in text
        assert '# TYPE repro_serving_stream_shifts_total counter' in text

    def test_streaming_and_batch_traffic_share_batcher_metrics(
            self, service, problem):
        """Streamed windows ride the same per-model batcher as predict()."""
        X, y = problem
        service.predict("demo", X[:2])
        with StreamScorer(service, "demo", window=WINDOW) as scorer:
            for sample in ReplaySource(X[:3], y[:3]):
                scorer.feed(sample.values, sample.label)
            scorer.finish()
        stats = service._stats[("demo", 1)]
        assert stats.requests == 2 + 3  # batch series + streamed windows


class TestConcurrentStreams:
    def test_sixteen_streams_share_one_service(self, service, problem):
        X, y = problem
        failures = []
        counts = []

        def run_stream(seed):
            try:
                order = np.random.default_rng(seed).permutation(8)
                source = ReplaySource(X[order], y[order])
                with StreamScorer(service, "demo", window=WINDOW,
                                  hop=WINDOW, queue_timeout=30.0) as scorer:
                    counts.append(len(_drive(scorer, source)))
            except Exception as error:  # noqa: BLE001 - recorded for assert
                failures.append(error)

        threads = [threading.Thread(target=run_stream, args=(seed,))
                   for seed in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        assert counts == [8] * 16


class TestStalledPrediction:
    def test_timeout_surfaces_as_serving_error_not_timeout(self, registry):
        """A window whose future never resolves must become ServingError
        503 — a bare TimeoutError reads as a socket event to transports."""
        from concurrent.futures import Future

        class StalledService:
            predict_timeout = 0.1

            def open_stream(self, name, version=None):
                record, stats = real.open_stream(name, version)
                return record, stats

            def submit(self, name, instances, version=None, **kwargs):
                return None, [Future()]  # never completes

            def close_stream(self, record):
                real.close_stream(record)

        real = PredictionService(registry)
        try:
            with StreamScorer(StalledService(), "demo", window=WINDOW) as scorer:
                for step in range(WINDOW):
                    scorer.feed(np.zeros(2))
                with pytest.raises(ServingError) as excinfo:
                    scorer.finish()
            assert excinfo.value.status == 503
            assert "timed out" in str(excinfo.value)
        finally:
            real.close()
