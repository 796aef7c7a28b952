"""Micro-batching inference engine: coalesce single-series requests.

Feature-transform classifiers pay a large per-call overhead (kernel
matmuls, thousands of PPV thresholds) that is nearly flat in batch size,
so predicting 64 series in one panel costs little more than predicting
one.  The :class:`MicroBatcher` exploits that the same way the experiment
engine exploits job batching: callers submit one series at a time from
any thread, one worker thread drains the shared queue, coalesces up to
``max_batch`` series, stacks them into one ``(n, channels, length)``
panel, calls its one ``predict_fn`` on it, and fans the rows of the
result back out through per-request futures.

A batch is what is already queued: the worker takes the first request
and everything waiting behind it, up to ``max_batch``, and runs at
once.  It never waits for more.  Under concurrency the backlog that
builds while one batch runs fills the next, and a request that arrives
alone runs alone.

Per-series predictions are independent (PPV features and ridge scores
are computed row-wise), so a label never depends on which other requests
shared its batch — batching changes throughput, not results.  Under
float32 serving the bank and ridge GEMMs multiply one row at a time
(:func:`repro.backend.batch_invariant_matmul`), so probabilities are
bit-identical across batch compositions too, except for the deep
families (fcn, inceptiontime, resnet: float64 under every policy) and
models served at float64, which move by a few float64 ulps.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from .metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS, Histogram

__all__ = ["BatcherStats", "MicroBatcher", "QueueFullError"]


class QueueFullError(RuntimeError):
    """``submit`` fast-fail: the bounded request queue is at ``max_queue``.

    Raised instead of blocking so an overloaded server can shed load
    immediately (HTTP 429) rather than queueing without bound and letting
    every request's latency grow past its timeout.
    """


@dataclass
class BatcherStats:
    """Coalescing counters and distributions, exposed for ``/metrics``,
    benchmarks and tests.

    A stats object can outlive its batcher: the serving layer passes one
    per model version into every (re)loaded :class:`MicroBatcher`, so
    counters keep accumulating across LRU evictions and reloads.
    """

    requests: int = 0
    batches: int = 0
    max_batch_size: int = 0
    #: submits rejected by the bounded queue (each one was answered 429)
    rejected: int = 0
    batch_sizes: Histogram = field(
        default_factory=lambda: Histogram(BATCH_SIZE_BUCKETS), repr=False)
    #: submit-to-completion seconds per request: queue wait + predict,
    #: the latency a client actually observes
    latency: Histogram = field(
        default_factory=lambda: Histogram(LATENCY_BUCKETS), repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced panel size (0.0 before any batch ran)."""
        return self.requests / self.batches if self.batches else 0.0

    def _record_batch(self, size: int) -> None:
        with self._lock:
            self.requests += size
            self.batches += 1
            self.max_batch_size = max(self.max_batch_size, size)
        self.batch_sizes.observe(size)

    def _record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1


class MicroBatcher:
    """Queue single-series requests and predict them in coalesced panels.

    Parameters
    ----------
    predict_fn:
        Called with a panel ``(n, channels, length)``; must return one
        result per row (any sequence of length ``n``).  Each submitted
        series' future resolves to its row's result.
    input_shape:
        Optional ``(channels, length)``; when given, submissions are
        validated eagerly so a malformed request fails in the caller, not
        inside someone else's batch.
    max_batch:
        Panel-size ceiling per predict call.
    max_queue:
        Backpressure bound: when this many requests are already waiting,
        ``submit`` raises :class:`QueueFullError` immediately instead of
        queueing (0 = unbounded, the library default).  Bounding the
        queue bounds worst-case latency: at most ``max_queue`` requests
        can be ahead of an admitted one.
    admit_nan:
        Admit series containing NaN (Inf is always refused).  Set by the
        serving layer for models whose ``predict_fn`` includes the
        training protocol's imputation, which turns NaN into data; for
        every other model a NaN series would poison its whole coalesced
        batch, so it is refused at submit.
    stats:
        Optional pre-existing :class:`BatcherStats` to accumulate into —
        the serving layer passes the same object across model reloads so
        ``/metrics`` counters survive LRU eviction.
    stage_observer:
        Optional callable ``(stage, seconds)`` invoked per batch with
        the per-stage latency breakdown: ``queue_wait`` (submit to
        dequeue, once per request), ``assemble`` (dequeue to predict
        start, once per batch) and
        ``predict`` (the model call, once per batch).  The serving
        layer points this at its per-model stage histograms.
    tracer:
        Optional :class:`~repro.observability.trace.Tracer`.  Because
        batches run on the worker thread, which cannot inherit the
        submitter's contextvars, ``submit_many`` captures the caller's
        trace context (only while tracing is enabled) and carries it on
        the queue item; the worker then records ``batcher.queue`` /
        ``batcher.assemble`` / ``batcher.predict`` spans re-parented to
        the submitting request.
    """

    def __init__(self, predict_fn, *, input_shape: tuple[int, int] | None = None,
                 max_batch: int = 64, max_queue: int = 0,
                 admit_nan: bool = False,
                 stats: BatcherStats | None = None,
                 stage_observer=None, tracer=None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0; got {max_queue}")
        self._predict_fn = predict_fn
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.admit_nan = bool(admit_nan)
        self.stats = stats if stats is not None else BatcherStats()
        self._stage_observer = stage_observer
        self._tracer = tracer
        #: admitted requests, oldest first: ``(series, future, submitted,
        #: ctx)``.  One lock guards it and ``_closed``.  The worker waits
        #: on ``_has_work`` for a submit to fill an empty queue; a
        #: blocking submit (timeout > 0) waits on ``_has_room`` for a
        #: batch to leave it.
        self._pending: deque = deque()
        self._closed = False
        lock = threading.Lock()
        self._has_work = threading.Condition(lock)
        self._has_room = threading.Condition(lock)
        self._worker = threading.Thread(target=self._drain,
                                        name="micro-batcher", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #

    def submit(self, series, *, timeout: float | None = None) -> Future:
        """Enqueue one series ``(channels, length)``; returns its future."""
        return self.submit_many([series], timeout=timeout)[0]

    def submit_many(self, series_list, *,
                    timeout: float | None = None) -> list[Future]:
        """Enqueue several series atomically: either every series is
        admitted or none is (``QueueFullError``), so an over-quota
        multi-series request never leaves orphaned work behind its 429 —
        the rejected client retries the whole request, and nothing it
        already abandoned is still being computed.

        The bound is applied to *waiting* work: a request larger than
        ``max_queue`` is still admitted when the queue is empty (its size
        is capped upstream by the server's body limit), but any queued
        backlog makes overflow fail fast.

        With ``timeout`` (seconds) an over-quota submit *waits* for the
        worker to make space instead of failing immediately — the
        backpressure mode of the streaming scorer, which has nowhere to
        bounce a 429 mid-stream.  ``QueueFullError`` is still raised when
        the queue stays full past the deadline.
        """
        prepared = [self._validate(series) for series in series_list]
        futures: list[Future] = [Future() for _ in prepared]
        # Contextvars do not cross into the worker thread, so the trace
        # context rides the queue item; captured only while tracing is on
        # so the disabled path pays one attribute check.
        tracer = self._tracer
        ctx = tracer.current() if tracer is not None and tracer.enabled \
            else None
        deadline = None if not timeout else time.monotonic() + timeout
        with self._has_room:
            while True:
                if self._closed:
                    raise RuntimeError("cannot submit to a closed MicroBatcher")
                depth = len(self._pending)
                if not (self.max_queue and depth
                        and depth + len(prepared) > self.max_queue):
                    break
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is None or remaining <= 0:
                    for _ in prepared:
                        self.stats._record_rejected()
                    raise QueueFullError(
                        f"request queue is full ({self.max_queue} waiting); "
                        f"retry later"
                    )
                self._has_room.wait(remaining)
            now = time.monotonic()
            self._pending.extend((series, future, now, ctx)
                                 for series, future in zip(prepared, futures))
            if not depth:
                # The worker waits only on an empty queue.
                self._has_work.notify()
        return futures

    def _validate(self, series) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64)
        if series.ndim == 1:
            series = series[None, :]  # univariate convenience
        if series.ndim != 2:
            raise ValueError(
                f"a request is one series of shape (channels, length); "
                f"got ndim={series.ndim}"
            )
        if self.input_shape is not None and series.shape != self.input_shape:
            raise ValueError(
                f"series shape {series.shape} does not match the model's "
                f"input shape {self.input_shape}"
            )
        if not np.isfinite(series).all():
            # Classifiers reject non-finite panels; catching it at
            # admission fails only the offending request instead of the
            # whole coalesced batch it would have joined.  NaN is data
            # when the model's pipeline imputes (admit_nan); Inf never is.
            if not self.admit_nan:
                raise ValueError(
                    "series contains non-finite values (NaN/Inf); impute "
                    "or clean it before submitting"
                )
            if np.isinf(series).any():
                raise ValueError(
                    "series contains infinite values; clean it before "
                    "submitting"
                )
        return series

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be coalesced (approximate)."""
        return len(self._pending)

    def predict(self, series, timeout: float | None = None):
        """Blocking single-series prediction (submit + wait)."""
        return self.submit(series).result(timeout=timeout)

    def close(self, timeout: float | None = None) -> bool:
        """Stop the worker after all queued requests are served.

        With ``timeout`` (seconds), the join is bounded: a predict_fn
        stalled past the deadline leaves its daemon worker behind rather
        than hanging the closer forever.  Returns ``True`` when the
        worker actually exited (the queue fully drained).
        """
        with self._has_work:
            if not self._closed:
                # The worker empties the queue before it reads the flag,
                # so every admitted request is served first.
                self._closed = True
                self._has_work.notify()
                # Submits blocked waiting for queue space must observe the
                # close now, not at their deadline.
                self._has_room.notify_all()
        self._worker.join(timeout)
        return not self._worker.is_alive()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #

    def _drain(self) -> None:
        pending = self._pending
        while True:
            with self._has_work:
                while not pending:
                    if self._closed:
                        return
                    self._has_work.wait()
                # The batch is what is already queued; it never waits
                # for more.
                dequeued = time.monotonic()
                batch = [pending.popleft()
                         for _ in range(min(len(pending), self.max_batch))]
                self._has_room.notify_all()
            self._run_batch(batch, dequeued)

    def _run_batch(self, batch, dequeued: float) -> None:
        """Predict one *batch* (list of ``(series, future, submitted,
        ctx)``, taken off the queue at *dequeued*) and fan out."""
        self.stats._record_batch(len(batch))
        predict_start = time.monotonic()
        observer = self._stage_observer
        if observer is not None:
            observer("assemble", predict_start - dequeued)
            for _, _, submitted, _ in batch:
                observer("queue_wait", dequeued - submitted)
        predictions = None
        error = None
        try:
            # stack stays inside the try: without an input_shape the series
            # in one batch may disagree, and that must fail the requests,
            # not kill the worker thread.
            panel = np.stack([item[0] for item in batch])
            predictions = self._predict_fn(panel)
        except Exception as err:  # noqa: BLE001 - forwarded to every caller
            error = err
        predict_end = time.monotonic()
        if observer is not None:
            observer("predict", predict_end - predict_start)
        self._trace_batch(batch, dequeued, predict_start, predict_end, error)
        if error is not None:
            self._finish(batch, error=error)
            return
        if len(predictions) != len(batch):
            self._finish(batch, error=RuntimeError(
                f"predict_fn returned {len(predictions)} predictions "
                f"for a batch of {len(batch)}"
            ))
            return
        self._finish(batch, results=predictions)

    def _trace_batch(self, batch, dequeued: float, predict_start: float,
                     predict_end: float, error) -> None:
        """Record queue/assemble/predict spans for every traced request.

        Runs on the worker thread after the fact, reconstructing spans
        from the monotonic stamps the batch carried; requests submitted
        outside any trace (``ctx is None``) record nothing.
        """
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return
        size = len(batch)
        error_name = type(error).__name__ if error is not None else None
        for _, _, submitted, ctx in batch:
            if ctx is None:
                continue
            tracer.record_span("batcher.queue", start=submitted,
                               end=dequeued, parent=ctx)
            tracer.record_span("batcher.assemble", start=dequeued,
                               end=predict_start, parent=ctx,
                               batch_size=size)
            extra = {"batch_size": size}
            if error_name is not None:
                extra["error"] = error_name
            tracer.record_span("batcher.predict", start=predict_start,
                               end=predict_end, parent=ctx, **extra)

    def _finish(self, batch, results=None, error=None) -> None:
        """Complete every future in *batch*, recording observed latency."""
        now = time.monotonic()
        for index, (_, future, submitted, _) in enumerate(batch):
            self.stats.latency.observe(now - submitted)
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(results[index])
