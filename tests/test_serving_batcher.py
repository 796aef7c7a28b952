"""The micro-batching inference engine."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import BatcherStats, MicroBatcher, QueueFullError


@pytest.fixture
def fitted():
    X, y = make_classification_panel(
        n_series=40, n_channels=2, length=32, n_classes=2, difficulty=0.2, seed=0
    )
    return RocketClassifier(num_kernels=60, seed=0).fit(X, y), X


def test_labels_match_direct_prediction(fitted):
    model, X = fitted
    with MicroBatcher(model.predict, max_batch=8) as batcher:
        labels = [batcher.submit(series) for series in X]
        labels = np.array([future.result(timeout=10) for future in labels])
    assert np.array_equal(labels, model.predict(X))


def _backlog_stats(max_batch, backlog):
    """Stats once *backlog* requests queued behind a gated first batch
    have all been served."""
    batcher, entered, release = _gated_batcher(max_batch=max_batch)
    with batcher:
        futures = [batcher.submit(np.ones((1, 8)))]
        assert entered.wait(timeout=10)
        futures += [batcher.submit(np.ones((1, 8))) for _ in range(backlog)]
        release.set()
        for future in futures:
            future.result(timeout=10)
    return batcher.stats


def test_requests_are_coalesced():
    """The 20 requests queued behind a running batch form one batch."""
    stats = _backlog_stats(max_batch=64, backlog=20)
    assert (stats.requests, stats.batches, stats.max_batch_size) \
        == (21, 2, 20)


def test_max_batch_respected():
    """A backlog larger than max_batch is split into full batches."""
    stats = _backlog_stats(max_batch=4, backlog=12)
    assert (stats.batches, stats.max_batch_size) == (1 + 3, 4)


def test_concurrent_submitters(fitted):
    model, X = fitted
    expected = model.predict(X)
    results = {}

    def client(index):
        results[index] = batcher.predict(X[index], timeout=10)

    with MicroBatcher(model.predict, max_batch=16) as batcher:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(X))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert all(results[i] == expected[i] for i in range(len(X)))


def test_lone_request_runs_at_once():
    """With nothing queued behind it a request runs as a batch of one."""
    with MicroBatcher(lambda p: np.zeros(len(p), dtype=int)) as batcher:
        start = time.monotonic()
        assert batcher.submit(np.ones((1, 8))).result(timeout=10) == 0
        assert time.monotonic() - start < 0.25


def test_backlog_coalesces_and_lone_requests_never_wait():
    """Requests queued behind a running batch coalesce into one batch;
    after that burst each lone request runs at once, alone."""
    entered = threading.Event()
    gate = threading.Event()
    sizes = []

    def gated(panel):
        entered.set()
        gate.wait(timeout=30)
        sizes.append(len(panel))
        return np.zeros(len(panel), dtype=int)

    with MicroBatcher(gated, max_batch=8) as batcher:
        first = batcher.submit(np.ones((1, 8)))
        assert entered.wait(timeout=10)
        burst = [batcher.submit(np.ones((1, 8))) for _ in range(8)]
        gate.set()
        for future in [first] + burst:
            future.result(timeout=10)
        lone = []
        for _ in range(2):
            start = time.monotonic()
            batcher.submit(np.ones((1, 8))).result(timeout=10)
            lone.append(time.monotonic() - start)
    assert sizes == [1, 8, 1, 1]
    assert max(lone) < 0.15


def test_after_a_coalesced_batch_a_lone_request_runs_alone():
    """A batch never waits for requests that are not queued yet: after a
    batch that coalesced, a lone request runs before one sent 50 ms
    later arrives."""
    entered = threading.Event()
    gate = threading.Event()
    sizes = []

    def gated(panel):
        entered.set()
        gate.wait(timeout=30)
        sizes.append(len(panel))
        return np.zeros(len(panel), dtype=int)

    with MicroBatcher(gated, max_batch=2) as batcher:
        first = batcher.submit(np.ones((1, 8)))
        assert entered.wait(timeout=10)
        pair = [batcher.submit(np.ones((1, 8))) for _ in range(2)]
        gate.set()
        for future in [first] + pair:
            future.result(timeout=10)
        lone = batcher.submit(np.ones((1, 8)))
        time.sleep(0.05)
        later = batcher.submit(np.ones((1, 8)))
        lone.result(timeout=10)
        later.result(timeout=10)
    assert sizes == [1, 2, 1, 1]


def test_every_admitted_request_is_answered_once_under_contention():
    """Eight submitters (more than the cores), half of them blocking on a
    small bounded queue, with a short switch interval: each admitted
    request resolves to its own row, no batch exceeds max_batch, every
    refusal is counted, and close() serves what is still queued."""
    sizes = []

    def echo(panel):
        sizes.append(len(panel))
        return panel[:, 0, 0]

    admitted, refused = {}, []

    def client(worker):
        for i in range(60):
            ident = worker * 1000 + i
            try:
                admitted[ident] = batcher.submit(
                    np.full((1, 2), float(ident)),
                    timeout=10.0 if worker % 2 else None)
            except QueueFullError:
                refused.append(ident)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batcher = MicroBatcher(echo, max_batch=4, max_queue=8)
        threads = [threading.Thread(target=client, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert batcher.close(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert len(admitted) + len(refused) == 8 * 60
    # Only fast-fail submits are refused: a blocking one always finds
    # room, so no wake-up was lost.
    assert all((ident // 1000) % 2 == 0 for ident in refused)
    assert all(future.result(timeout=0) == ident
               for ident, future in admitted.items())
    assert batcher.stats.requests == sum(sizes) == len(admitted)
    assert batcher.stats.rejected == len(refused)
    assert max(sizes) <= 4


def test_univariate_series_promoted():
    seen = []

    def echo(panel):
        seen.append(panel.shape)
        return np.zeros(len(panel), dtype=int)

    with MicroBatcher(echo) as batcher:
        batcher.predict(np.ones(16), timeout=10)
    assert seen[0] == (1, 1, 16)


def test_shape_validation_is_eager():
    with MicroBatcher(lambda p: np.zeros(len(p)), input_shape=(2, 32)) as batcher:
        with pytest.raises(ValueError, match="input shape"):
            batcher.submit(np.ones((3, 32)))
        with pytest.raises(ValueError, match="one series"):
            batcher.submit(np.ones((2, 2, 32)))


def test_mismatched_shapes_fail_requests_not_workers():
    """Without an input_shape, ragged series coalesced into one batch must
    error out through the futures and leave the worker alive."""
    batcher, entered, release = _gated_batcher(max_batch=8)
    with batcher:
        batcher.submit(np.ones((1, 8)))
        assert entered.wait(timeout=10)
        short = batcher.submit(np.ones((1, 8)))
        long = batcher.submit(np.ones((1, 16)))
        release.set()
        with pytest.raises(ValueError):
            short.result(timeout=10)
        with pytest.raises(ValueError):
            long.result(timeout=10)
        # the worker survived and keeps serving
        assert batcher.predict(np.ones((1, 8)), timeout=10) == 0


def test_predict_errors_propagate_to_futures():
    def boom(panel):
        raise RuntimeError("model exploded")

    with MicroBatcher(boom) as batcher:
        future = batcher.submit(np.ones((1, 8)))
        with pytest.raises(RuntimeError, match="model exploded"):
            future.result(timeout=10)


def test_wrong_prediction_count_reported():
    with MicroBatcher(lambda p: np.zeros(len(p) + 1)) as batcher:
        future = batcher.submit(np.ones((1, 8)))
        with pytest.raises(RuntimeError, match="predictions"):
            future.result(timeout=10)


def test_close_drains_pending_work():
    released = threading.Event()

    def slow(panel):
        released.wait(timeout=10)
        return np.zeros(len(panel), dtype=int)

    batcher = MicroBatcher(slow)
    futures = [batcher.submit(np.ones((1, 8))) for _ in range(5)]
    closer = threading.Thread(target=batcher.close)
    closer.start()
    time.sleep(0.05)
    released.set()
    closer.join(timeout=10)
    assert all(future.result(timeout=10) == 0 for future in futures)


def test_submit_after_close_rejected():
    batcher = MicroBatcher(lambda p: np.zeros(len(p)))
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(np.ones((1, 8)))
    batcher.close()  # idempotent


def test_invalid_parameters_rejected():
    predict = len
    with pytest.raises(ValueError):
        MicroBatcher(predict, max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(predict, max_queue=-1)


def _gated_batcher(**kwargs):
    """A batcher whose predict blocks until ``release`` is set; returns
    (batcher, entered, release)."""
    entered, release = threading.Event(), threading.Event()

    def gated(panel):
        entered.set()
        release.wait(timeout=10)
        return np.zeros(len(panel), dtype=int)

    return MicroBatcher(gated, **kwargs), entered, release


def test_bounded_queue_fast_fails_with_queue_full():
    batcher, entered, release = _gated_batcher(max_batch=1, max_queue=2)
    try:
        first = batcher.submit(np.ones((1, 8)))  # occupies the worker
        assert entered.wait(timeout=10)
        queued = [batcher.submit(np.ones((1, 8))) for _ in range(2)]
        assert batcher.queue_depth == 2
        with pytest.raises(QueueFullError, match="queue is full"):
            batcher.submit(np.ones((1, 8)))
        assert batcher.stats.rejected == 1
        release.set()
        # Every admitted request is still answered.
        assert first.result(timeout=10) == 0
        assert [f.result(timeout=10) for f in queued] == [0, 0]
    finally:
        release.set()
        batcher.close()


def test_queue_drains_and_readmits_after_rejection():
    batcher, entered, release = _gated_batcher(max_batch=1, max_queue=1)
    try:
        batcher.submit(np.ones((1, 8)))
        assert entered.wait(timeout=10)
        batcher.submit(np.ones((1, 8)))
        with pytest.raises(QueueFullError):
            batcher.submit(np.ones((1, 8)))
        release.set()
        for _ in range(500):  # wait for the worker to drain the queue
            if batcher.queue_depth == 0:
                break
            time.sleep(0.01)
        # Once the queue drains, submissions are admitted again.
        assert batcher.predict(np.ones((1, 8)), timeout=10) == 0
        assert batcher.stats.rejected == 1
    finally:
        release.set()
        batcher.close()


def test_close_works_with_a_full_queue():
    """The shutdown sentinel must never be blocked out by the bound."""
    batcher, entered, release = _gated_batcher(max_batch=1, max_queue=1)
    batcher.submit(np.ones((1, 8)))
    assert entered.wait(timeout=10)
    queued = batcher.submit(np.ones((1, 8)))
    release.set()
    batcher.close()  # must drain the queued request, then stop
    assert queued.result(timeout=10) == 0


def test_unbounded_by_default(fitted):
    model, X = fitted
    with MicroBatcher(model.predict, max_batch=4) as batcher:
        assert batcher.max_queue == 0
        futures = [batcher.submit(series) for series in X]  # never rejected
        for future in futures:
            future.result(timeout=10)
    assert batcher.stats.rejected == 0


def test_latency_and_batch_size_histograms_recorded(fitted):
    model, X = fitted
    with MicroBatcher(model.predict, max_batch=8) as batcher:
        futures = [batcher.submit(series) for series in X[:10]]
        for future in futures:
            future.result(timeout=10)
    assert batcher.stats.latency.count == 10
    assert batcher.stats.latency.snapshot().sum > 0.0
    sizes = batcher.stats.batch_sizes.snapshot()
    assert sizes.count == batcher.stats.batches
    assert sizes.sum == batcher.stats.requests


def test_failed_requests_still_record_latency():
    def boom(panel):
        raise RuntimeError("model exploded")

    with MicroBatcher(boom) as batcher:
        future = batcher.submit(np.ones((1, 8)))
        with pytest.raises(RuntimeError):
            future.result(timeout=10)
        assert batcher.stats.latency.count == 1


def test_submit_many_is_all_or_nothing():
    """Overflow on a multi-series submit enqueues nothing: no orphaned
    work keeps computing for a client that was told 429."""
    batcher, entered, release = _gated_batcher(max_batch=1, max_queue=4)
    try:
        batcher.submit(np.ones((1, 8)))  # occupies the worker
        assert entered.wait(timeout=10)
        batcher.submit(np.ones((1, 8)))  # queue depth 1 of 4
        with pytest.raises(QueueFullError):
            batcher.submit_many([np.ones((1, 8))] * 4)  # 1 + 4 > 4
        assert batcher.queue_depth == 1  # nothing from the rejected batch
        assert batcher.stats.rejected == 4  # every refused series counted
    finally:
        release.set()
        batcher.close()


def test_submit_many_validates_before_admitting():
    with MicroBatcher(lambda p: np.zeros(len(p)), input_shape=(1, 8)) as batcher:
        with pytest.raises(ValueError, match="input shape"):
            batcher.submit_many([np.ones((1, 8)), np.ones((2, 8))])
        assert batcher.queue_depth == 0  # the valid series was not enqueued


def test_large_request_admitted_on_idle_queue():
    """A single request bigger than max_queue still runs when nothing is
    waiting (its size is bounded upstream by the HTTP body cap)."""
    with MicroBatcher(lambda p: np.zeros(len(p), dtype=int), max_queue=2,
                      max_batch=8) as batcher:
        futures = batcher.submit_many([np.ones((1, 8))] * 6)
        assert [f.result(timeout=10) for f in futures] == [0] * 6


def test_close_timeout_bounds_a_stalled_worker():
    stall = threading.Event()

    def stuck(panel):
        stall.wait(timeout=30)
        return np.zeros(len(panel), dtype=int)

    batcher = MicroBatcher(stuck)
    batcher.submit(np.ones((1, 8)))
    start = time.monotonic()
    drained = batcher.close(timeout=0.2)
    assert time.monotonic() - start < 5.0  # bounded, not a forever-join
    assert drained is False
    stall.set()
    assert batcher.close(timeout=10) is True  # second close reaps the worker


def test_shared_stats_accumulate_across_batchers():
    """The serving layer reuses one BatcherStats across reloads of the
    same model version, so counters survive LRU eviction."""
    stats = BatcherStats()
    for _ in range(2):
        with MicroBatcher(lambda p: np.zeros(len(p), dtype=int), stats=stats) as batcher:
            assert batcher.stats is stats
            batcher.predict(np.ones((1, 8)), timeout=10)
    assert stats.requests == 2
    assert stats.latency.count == 2


def test_nonfinite_series_rejected_at_admission():
    """A NaN/Inf series must fail its own submit, never a coalesced batch."""
    with MicroBatcher(lambda p: np.zeros(len(p), dtype=int)) as batcher:
        poisoned = np.ones((1, 8))
        poisoned[0, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            batcher.submit(poisoned)
        assert batcher.queue_depth == 0
        # A clean series right after is unaffected.
        assert batcher.predict(np.ones((1, 8)), timeout=10) == 0


def test_blocking_submit_waits_for_space():
    """submit(timeout=...) parks until the workers drain the queue instead
    of failing fast — the streaming scorer's backpressure mode."""
    release = threading.Event()

    def slow(panel):
        release.wait(timeout=30)
        return np.zeros(len(panel), dtype=int)

    with MicroBatcher(slow, max_queue=1, max_batch=1) as batcher:
        first = batcher.submit(np.ones((1, 8)))  # occupies the worker
        time.sleep(0.05)
        second = batcher.submit(np.ones((1, 8)))  # fills the queue
        # Immediate submit fails fast; a blocking one waits it out.
        with pytest.raises(QueueFullError):
            batcher.submit(np.ones((1, 8)))

        admitted = []

        def blocking_submit():
            admitted.append(batcher.submit(np.ones((1, 8)), timeout=20))

        waiter = threading.Thread(target=blocking_submit)
        waiter.start()
        time.sleep(0.1)
        assert not admitted  # still parked: the queue is still full
        release.set()
        waiter.join(timeout=20)
        assert len(admitted) == 1
        for future in (first, second, admitted[0]):
            assert future.result(timeout=10) == 0


def test_blocking_submit_times_out():
    stall = threading.Event()

    def stuck(panel):
        stall.wait(timeout=30)
        return np.zeros(len(panel), dtype=int)

    batcher = MicroBatcher(stuck, max_queue=1, max_batch=1)
    try:
        batcher.submit(np.ones((1, 8)))
        time.sleep(0.05)
        batcher.submit(np.ones((1, 8)))
        start = time.monotonic()
        with pytest.raises(QueueFullError):
            batcher.submit(np.ones((1, 8)), timeout=0.2)
        assert 0.1 <= time.monotonic() - start < 5.0
        assert batcher.stats.rejected == 1
    finally:
        stall.set()
        batcher.close(timeout=10)


def test_admit_nan_mode_for_imputing_pipelines():
    """Models whose predict_fn imputes may accept NaN; Inf never passes."""
    with MicroBatcher(lambda p: np.zeros(len(p), dtype=int),
                      admit_nan=True) as batcher:
        with_nan = np.ones((1, 8))
        with_nan[0, 2] = np.nan
        assert batcher.predict(with_nan, timeout=10) == 0
        with_inf = np.ones((1, 8))
        with_inf[0, 2] = np.inf
        with pytest.raises(ValueError, match="infinite"):
            batcher.submit(with_inf)
