"""Sliding-window stream scoring on top of the serving runtime.

The scorer turns *any* published model into an online classifier: samples
are pushed one at a time, a ring buffer assembles ``(channels, window)``
panels every ``hop`` steps, and each completed window is submitted to the
model's :class:`~repro.serving.batcher.MicroBatcher` through
:meth:`PredictionService.submit` — so streaming traffic shares the
micro-batching, the bounded-queue backpressure, the metrics and the LRU
model lifecycle with ordinary batch requests instead of sidestepping
them.

Samples arrive one at a time (:meth:`StreamScorer.feed`) or as a block
(:meth:`StreamScorer.feed_many`, of which ``feed`` is the one-sample
case): every window a block completes is admitted in one ``submit``, so
a transport that reads several queued lines per step pays one admission
for all of them.

Windows are scored **pipelined**: up to the service's ``max_batch``
windows ride the batcher concurrently while results are handed back
strictly in window order.  Backpressure composes in two layers — the
submit blocks (bounded by ``queue_timeout``) while the shared queue is
full, and the in-flight cap makes one slow stream wait on its own oldest
window rather than flooding the queue for everyone else.  Windows that
queue while a batch runs form the next batch, so one stream alone can
fill a batch.

A :class:`~repro.streaming.drift.DriftMonitor` (optional but on by
default) watches the per-window outcomes and flags concept shifts.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..observability import get_tracer
from ..serving.server import ServingError
from .drift import DriftMonitor, DriftState
from .session import (CODEC_VERSION, SessionError, StreamSession,
                      check_codec, decode_array, encode_array)

__all__ = ["SlidingWindower", "StreamScorer", "WindowResult", "expected_windows"]


def expected_windows(n_samples: int, window: int, hop: int) -> int:
    """How many full windows a stream of *n_samples* yields."""
    if n_samples < window:
        return 0
    return (n_samples - window) // hop + 1


def _key(label):
    """Hashable, numpy-scalar-free form of a predicted label."""
    item = getattr(label, "item", None)
    return item() if callable(item) else label


class SlidingWindower:
    """A ring buffer emitting ``(channels, window)`` panels every *hop* steps.

    Samples are written in place — pushing is O(channels) — and a
    completed window is unrolled into a fresh contiguous copy, oldest
    sample first.  Trailing samples that never complete a window are
    simply never emitted.
    """

    def __init__(self, n_channels: int, window: int, hop: int):
        if n_channels < 1:
            raise ValueError(f"n_channels must be >= 1; got {n_channels}")
        if window < 1:
            raise ValueError(f"window must be >= 1; got {window}")
        if hop < 1:
            raise ValueError(f"hop must be >= 1; got {hop}")
        self.n_channels = int(n_channels)
        self.window = int(window)
        self.hop = int(hop)
        self._buffer = np.zeros((self.n_channels, self.window))
        self._seen = 0

    @property
    def seen(self) -> int:
        """Samples pushed since construction (or the last :meth:`reset`)."""
        return self._seen

    def reset(self) -> None:
        """Forget every buffered sample: the next window completes only
        after ``window`` *fresh* pushes.

        The discontinuity hook: a stream gap (missing samples, a new
        ragged series) must never let one window silently mix
        observations from both sides of the break — the stale samples
        still in the ring are dead, so the window count restarts.
        """
        self._seen = 0

    def snapshot(self) -> dict:
        """The ring's exact state as a JSON-ready codec fragment.

        The buffer is captured raw (unordered ring plus ``seen``) so a
        :meth:`restore` continues the *same* ring — every future window
        is bit-identical to the one the uninterrupted stream would have
        produced.
        """
        return {
            "n_channels": self.n_channels, "window": self.window,
            "hop": self.hop, "seen": self._seen,
            "buffer": encode_array(self._buffer),
        }

    @classmethod
    def restore(cls, state: dict) -> "SlidingWindower":
        """Rebuild a windower from a :meth:`snapshot` fragment."""
        windower = cls(state["n_channels"], state["window"], state["hop"])
        windower._buffer[:] = decode_array(state["buffer"])
        windower._seen = int(state["seen"])
        return windower

    def push(self, values) -> np.ndarray | None:
        """Add one sample; returns the completed window when one is due."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_channels,):
            raise ValueError(
                f"a sample has shape (n_channels,) = ({self.n_channels},); "
                f"got {values.shape}"
            )
        self._buffer[:, self._seen % self.window] = values
        self._seen += 1
        if self._seen >= self.window \
                and (self._seen - self.window) % self.hop == 0:
            order = (np.arange(self.window) + self._seen) % self.window
            return self._buffer[:, order].copy()
        return None


@dataclass(frozen=True)
class WindowResult:
    """One scored window, in stream order."""

    index: int  # 0-based window number
    start: int  # sample index of the window's first observation
    end: int  # sample index of its last observation (inclusive)
    label: object  # the model's prediction
    truth: int | None  # ground truth of the freshest sample, when known
    drift: DriftState | None
    confidence: float  # top-1 probability
    proba: np.ndarray  # full probability vector, in the model's class order
    samples: int | None = None  # samples consumed at this window (sessions)

    def as_dict(self, *, with_proba: bool = False) -> dict:
        """JSON-ready form — the NDJSON wire format's ``window`` line.

        ``confidence`` always rides along; *with_proba* additionally
        inlines the full probability vector (off by default: it
        multiplies the line size by the class count).
        """
        out = {"kind": "window", "index": self.index, "start": self.start,
               "end": self.end, "label": self.label}
        if self.truth is not None:
            out["truth"] = self.truth
        out["confidence"] = round(self.confidence, 4)
        if with_proba:
            out["proba"] = [round(float(p), 6) for p in self.proba]
        if self.drift is not None:
            out["drift"] = self.drift.as_dict()
        return out


@dataclass(slots=True)
class _Pending:
    index: int
    start: int
    end: int
    truth: int | None
    panel: np.ndarray  # kept until resolution for adapter replay buffers
    ctx: dict | None  # feed-time session state (sessions only)
    future: object = None  # set when the window is admitted


class StreamScorer:
    """Score a sample stream window by window through a prediction service.

    Opens a stream on *service* (resolving the model — a missing name
    fails here, before any sample is consumed) and must be closed again;
    use it as a context manager.  ``feed`` returns the results that are
    ready *so far* (possibly none, possibly several), ``poll`` returns
    them without feeding, and ``finish`` drains the rest.  An optional
    *on_resolve* callable is invoked with each window's future when its
    prediction resolves — on the batcher's thread, so it must not
    block; the HTTP stream handler uses it to wake up and ``poll``.

    The window's ground truth, when samples carry labels, is the label of
    its **most recent** sample — windows straddling a concept boundary are
    judged against the new concept, which is what makes the accuracy
    signal drop promptly after a shift.

    Every window is scored through the model's probabilities: each
    result carries the top-1 ``confidence`` and the full ``proba``
    vector, and the drift monitor runs its confidence EWMA.

    An optional *adapter* (an
    :class:`~repro.adaptation.AdaptationController` or anything with its
    ``observe(panel, result)`` method) sees every resolved window along
    with the panel that produced it — the hook the drift-triggered
    canary retraining loop hangs off (:func:`repro.adaptation.adapt_stream`
    drives it).  A session snapshot does not carry adapter state, so
    *adapter* and *session* are mutually exclusive (``ValueError``).

    An optional *session* (a
    :class:`~repro.streaming.session.StreamSession`) makes the stream
    durable: every resolved window deposits a codec snapshot and bumps
    the session's resume token, and a scorer constructed with a session
    that already carries state *resumes* it — ring buffer, drift EWMAs
    and counters restored bit-identically, so the resumed stream scores
    exactly the windows the uninterrupted one would have.  Relatedly,
    :meth:`swap_version` moves a live stream onto another model version
    in place (the canary-promotion follow path) and :meth:`follow`
    triggers it automatically when a tag reference has moved.

    An optional *journal* (an
    :class:`~repro.observability.AuditJournal`) receives one
    ``drift_flag`` event per flagged window, carrying the monitor's full
    evidence (EWMA fast/slow values, thresholds, window index) — the
    stream-side half of the decision-audit trail.  With tracing enabled
    on the service, the whole stream becomes one trace: a ``stream``
    root span plus one ``stream.window`` span per resolved window, with
    the batcher's queue/assemble/predict spans parented underneath.

    The stream keeps at most the service's ``max_batch`` windows in the
    batcher at once, the most one batch can take.
    """

    def __init__(self, service, name: str, *, window: int, hop: int | None = None,
                 version=None, monitor: DriftMonitor | None = None,
                 queue_timeout: float = 5.0,
                 adapter=None, journal=None,
                 session: StreamSession | None = None, on_resolve=None):
        if window < 1:
            raise ValueError(f"window must be >= 1; got {window}")
        if hop is not None and hop < 1:
            raise ValueError(f"hop must be >= 1; got {hop}")
        if adapter is not None and session is not None:
            raise ValueError("a session does not carry adapter state; "
                             "pass adapter= or session=, not both")
        self.service = service
        self.version = version
        self.window = int(window)
        self.hop = int(hop) if hop is not None else self.window
        self.monitor = monitor if monitor is not None else DriftMonitor()
        #: windows this stream keeps in the batcher at once
        self._in_flight_cap = int(getattr(service, "max_batch", 64))
        #: the shared queue's bound: one admission carries at most this
        #: many windows, so a block never holds more of the queue than
        #: one-at-a-time admission would (0 = unbounded)
        self._max_admit = int(getattr(service, "max_queue", 0))
        self.queue_timeout = float(queue_timeout)
        self.adapter = adapter
        self.journal = journal
        self.session = session
        self.on_resolve = on_resolve
        self.tracer = getattr(service, "tracer", None) or get_tracer()
        self.record, self._stats = service.open_stream(name, version)
        #: the stream's root span: opened here, ended by close().  When
        #: tracing is off this is the shared no-op span and the context
        #: stays None, which turns every per-window trace guard off.
        self._span = self.tracer.begin(
            "stream", model=self.record.name, version=self.record.version)
        self._ctx = self._span.context
        self._windower: SlidingWindower | None = None  # lazy: first sample
        self._last_t: int | None = None  # stream clock of the latest sample
        self._gaps = 0
        self._pending: deque[_Pending] = deque()
        #: resolved ahead of collection (inflight-cap waits); always older
        #: than anything still pending, so collection order is preserved
        self._ready: list[WindowResult] = []
        self._submitted = 0
        self._samples = 0
        self._shifts = 0
        self._closed = False
        if session is not None and session.state is not None:
            try:
                self._restore(session.state)
            except BaseException:
                # The stream was counted as open above; don't leak the gauge.
                service.close_stream(self.record)
                raise

    # ------------------------------------------------------------------ #

    @property
    def samples(self) -> int:
        """Samples fed so far (window-complete or not)."""
        return self._samples

    @property
    def windows(self) -> int:
        """Windows submitted for scoring so far."""
        return self._submitted

    @property
    def shifts(self) -> int:
        """Windows flagged as shifted so far."""
        return self._shifts

    @property
    def gaps(self) -> int:
        """Stream discontinuities seen so far (non-consecutive ``t``)."""
        return self._gaps

    def feed(self, values, label=None, *, t: int | None = None
             ) -> list[WindowResult]:
        """Push one sample; returns whatever window results are now ready.

        *t* is the sample's position on the source's own clock.  When
        given, a jump (``t != previous t + 1``) is treated as a stream
        **gap** — missing samples, a truncated ragged series — and the
        window buffer is reset, so no window ever silently mixes
        observations from both sides of the discontinuity; window
        ``start``/``end`` indices are then reported on that clock.  A
        *t* that does not increase raises ``ValueError``.  Without *t*
        the stream is assumed contiguous (the historical behaviour,
        bit-identical).
        """
        return self.feed_many(((values, label, t),))

    def feed_many(self, samples) -> list[WindowResult]:
        """Push a block of ``(values, label, t)`` samples; returns
        whatever window results are now ready.

        Each sample goes through the window ring under :meth:`feed`'s
        rules, and the windows the block completes are admitted to the
        batcher together: one ``submit`` per block, split only where the
        in-flight cap or the service's ``max_queue`` requires it.  A
        sample that raises ends the block: the windows completed before
        it are still admitted, then the error propagates.
        """
        if self._closed:
            raise RuntimeError("cannot feed a closed StreamScorer")
        due: list[_Pending] = []
        try:
            for values, label, t in samples:
                completed = self._push(values, t)
                if completed is None:
                    continue
                if len(self._pending) >= self._in_flight_cap:
                    # This stream is ahead of its model: wait on our own
                    # oldest window instead of piling further onto the
                    # shared queue.  The windows that resolved with it
                    # make room too.
                    self._ready.append(self._resolve_head())
                    self._take_resolved()
                panel, end = completed
                index = self._submitted + len(due)
                due.append(_Pending(
                    index=index, start=end - self.window + 1, end=end,
                    truth=None if label is None else int(label),
                    panel=panel, ctx=self._feed_context(index)))
                if len(self._pending) + len(due) >= self._in_flight_cap \
                        or len(due) == self._max_admit:
                    batch, due = due, []
                    self._admit(batch)
        finally:
            self._admit(due)
        return self._collect()

    def poll(self) -> list[WindowResult]:
        """Return the window results that are ready now, without feeding."""
        if self._closed:
            raise RuntimeError("cannot poll a closed StreamScorer")
        return self._collect()

    def finish(self) -> list[WindowResult]:
        """Wait for every outstanding window and return its result."""
        return self._collect(drain=True)

    def close(self) -> None:
        """Release the stream (idempotent): drops the active-streams
        gauge, ends the stream's root span, and makes further ``feed``
        calls fail."""
        if not self._closed:
            self._closed = True
            self.service.close_stream(self.record)
            self._span.end(windows=self._submitted, shifts=self._shifts,
                           samples=self._samples)

    def swap_version(self, version=None):
        """Swap the live stream onto another model version, in place.

        The promotion follow-path for long-lived streams: every window
        still in flight is drained against the old version (order
        preserved — the results land in the ready list ahead of
        anything submitted later), the stream is reopened against
        *version*, and everything else — windower ring, drift-monitor
        EWMAs, window/sample counters, the session — carries over
        untouched.  No window is ever scored twice or skipped: windows
        submitted before the swap resolve on the old version, windows
        after it on the new one, and the index sequence is continuous
        across the boundary.

        Returns the newly resolved
        :class:`~repro.serving.registry.ModelRecord`.
        """
        if self._closed:
            raise RuntimeError("cannot swap a closed StreamScorer")
        self._take_resolved(drain=True)
        old = self.record
        self.record, self._stats = self.service.open_stream(old.name, version)
        self.service.close_stream(old)
        self.version = version
        self._span.set("swapped_to", self.record.version)
        return self.record

    def follow(self):
        """Swap when this stream's version *reference* points elsewhere.

        Streams pinned to a concrete version number never move.  A
        stream opened against a tag (``"stable"``, ``"canary"``) or
        against the floating latest re-resolves its reference here;
        when a canary promotion (or any publish) has moved it, the
        scorer swaps in place via :meth:`swap_version` and returns the
        new record — otherwise ``None``.  Cheap enough to call once per
        resolved window: resolution rides the registry's memoised
        manifest scan (one ``stat`` per call).
        """
        ref = self.version
        if ref is not None and (not isinstance(ref, str) or ref.isdigit()):
            return None
        registry = getattr(self.service, "registry", None)
        if registry is None:
            return None
        try:
            target = registry.record(self.record.name, ref)
        except KeyError:
            return None
        if target.version == self.record.version:
            return None
        return self.swap_version(ref)

    def __enter__(self) -> "StreamScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _push(self, values, t) -> tuple[np.ndarray, int] | None:
        """One sample into the ring; returns ``(panel, end)`` when it
        completes a window."""
        if t is not None:
            t = int(t)
            if self._last_t is not None and t <= self._last_t:
                raise ValueError(
                    f"t must increase: got {t} after {self._last_t}")
        values = np.asarray(values, dtype=np.float64)
        if self._windower is None:
            if values.ndim != 1:
                raise ValueError(
                    f"a sample is a 1-D (n_channels,) vector; got "
                    f"ndim={values.ndim}"
                )
            self._windower = SlidingWindower(len(values), self.window, self.hop)
        if t is not None:
            if self._last_t is not None and t != self._last_t + 1:
                self._gaps += 1
                self._windower.reset()
            self._last_t = t
        end = t if t is not None else self._samples
        panel = self._windower.push(values)
        self._samples += 1
        return None if panel is None else (panel, end)

    def _feed_context(self, index: int) -> dict | None:
        """Feed-time session state: the ring, the sample clock and the
        gap count as of window *index*'s completion.  The monitor half
        of the snapshot is taken at resolve time, when the window's
        outcome has actually updated it."""
        if self.session is None:
            return None
        return {"windower": self._windower.snapshot(),
                "samples": self._samples, "submitted": index + 1,
                "last_t": self._last_t, "gaps": self._gaps}

    def _admit(self, due: list[_Pending]) -> None:
        """Submit *due*'s windows to the batcher in one call."""
        if not due:
            return
        # Parent the batcher's queue/assemble/predict spans to this
        # stream rather than to whatever request shares the thread.
        with nullcontext() if self._ctx is None \
                else self.tracer.use_context(self._ctx):
            _, futures = self.service.submit(
                self.record.name, [entry.panel for entry in due],
                self.record.version, queue_timeout=self.queue_timeout,
            )
        for entry, future in zip(due, futures):
            entry.future = future
        self._pending.extend(due)
        self._submitted += len(due)
        if self.on_resolve is not None:
            for future in futures:
                future.add_done_callback(self.on_resolve)

    def _take_resolved(self, drain: bool = False) -> None:
        """Move resolved windows (every one, with *drain*) from the head
        of the in-flight queue to the ready list, in window order."""
        while self._pending and (drain or self._pending[0].future.done()):
            self._ready.append(self._resolve_head())

    def _collect(self, drain: bool = False) -> list[WindowResult]:
        self._take_resolved(drain)
        out, self._ready = self._ready, []
        return out

    def _resolve_head(self) -> WindowResult:
        head = self._pending.popleft()
        timeout = getattr(self.service, "predict_timeout", 30.0)
        with self.tracer.span("stream.window", parent=self._ctx,
                              index=head.index) as span:
            try:
                outcome = head.future.result(timeout=timeout)
            except FutureTimeoutError as error:
                # The same 503 the batch path answers; on 3.11+ the bare
                # FutureTimeoutError aliases TimeoutError, which transports
                # treat as a socket event — it must not escape looking like
                # one.
                raise ServingError(
                    503, f"window {head.index} prediction timed out after "
                         f"{timeout}s"
                ) from error
            label = _key(outcome.label)
            proba = outcome.proba
            confidence = float(proba.max())
            state = self.monitor.update(label, head.truth, confidence)
            if state.shift:
                self._shifts += 1
                span.set("shift", True)
                span.set("signal", state.signal)
                if self.journal is not None:
                    self.journal.log(
                        "drift_flag", model=self.record.name,
                        version=self.record.version, window=head.index,
                        signal=state.signal,
                        evidence={"state": state.as_dict(),
                                  "windows": state.windows,
                                  "thresholds": self.monitor.config()},
                    )
            self._stats.record_window(shift=state.shift,
                                      confidence=confidence)
            result = WindowResult(index=head.index, start=head.start,
                                  end=head.end, label=label, truth=head.truth,
                                  drift=state, confidence=confidence,
                                  proba=proba,
                                  samples=None if head.ctx is None
                                  else head.ctx["samples"])
            if self.adapter is not None:
                self.adapter.observe(head.panel, result)
            if self.session is not None and head.ctx is not None:
                self.session.advance(self._snapshot(head))
        return result

    def _snapshot(self, head: _Pending) -> dict:
        """One window's full codec snapshot: feed-time ring state from
        the pending entry plus the monitor state as of this resolution."""
        ctx = head.ctx
        return {
            "codec": CODEC_VERSION,
            "token": head.index + 1,
            "model": {"name": self.record.name,
                      "version": self.record.version},
            "window": self.window, "hop": self.hop,
            "windower": ctx["windower"],
            "monitor": self.monitor.snapshot(),
            "counters": {"samples": ctx["samples"],
                         "submitted": ctx["submitted"],
                         "last_t": ctx["last_t"], "gaps": ctx["gaps"],
                         "shifts": self._shifts},
        }

    def _restore(self, state: dict) -> None:
        """Adopt a codec snapshot: ring, monitor, counters — the stream
        continues exactly where the snapshotted one stopped."""
        check_codec(state)
        if state["model"]["name"] != self.record.name:
            raise SessionError(
                409, f"session belongs to model "
                     f"{state['model']['name']!r}, not {self.record.name!r}")
        if state["window"] != self.window or state["hop"] != self.hop:
            raise SessionError(
                409, f"session was windowed {state['window']}/{state['hop']} "
                     f"(window/hop); cannot resume as "
                     f"{self.window}/{self.hop}")
        if state.get("windower") is not None:
            self._windower = SlidingWindower.restore(state["windower"])
        self.monitor.restore(state["monitor"])
        counters = state["counters"]
        self._samples = int(counters["samples"])
        self._submitted = int(counters["submitted"])
        self._last_t = None if counters["last_t"] is None \
            else int(counters["last_t"])
        self._gaps = int(counters["gaps"])
        self._shifts = int(counters["shifts"])
