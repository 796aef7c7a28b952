"""Stdlib HTTP prediction server over a model registry.

Routes (JSON in, JSON out unless noted)::

    GET  /healthz                        liveness + model count
    GET  /metrics                        Prometheus text format (0.0.4)
    GET  /v1/models                      latest record per published name
    GET  /v1/debug/traces                flight-recorder dump (recent/slowest)
    POST /v1/models/<name>/predict       classify one series or a list

A predict body carries either one series (``{"series": [[...], ...]}`` —
a ``channels x length`` matrix) or several (``{"instances": [series,
...]}``); ``{"version": 2}`` or ``{"version": "prod"}`` selects a
non-latest version or a tag.  The response echoes the model identity and
returns ``"label"`` (or ``"labels"``).

The server is a ``ThreadingHTTPServer``: each connection gets a thread,
and all threads funnel their series into one shared
:class:`~repro.serving.batcher.MicroBatcher` per model version, so
concurrent clients are answered from coalesced panels.  A batcher
scores each panel once through the model's ``predict_proba`` and every
series' answer is a :class:`Prediction` (label plus probability vector);
the ``proba`` request flags only decide which keys a reply carries.
Models are loaded from the registry lazily, memoised, and — when
``max_loaded_models`` is set — LRU-evicted with their queued requests
drained first.  Input series are preprocessed exactly as the training
protocol preprocesses panels (per-series z-normalisation, then
imputation) when the published metadata says the model was trained that
way.

The runtime is load-safe by construction:

* **backpressure** — each batcher's queue is bounded (``max_queue``);
  overflow is answered ``429`` with a ``Retry-After`` hint instead of
  queueing unboundedly, so admitted requests keep a bounded worst-case
  latency;
* **admission control** — request bodies above ``max_body_bytes`` are
  refused with ``413`` before being read;
* **lifecycle** — ``server_close`` drains in-flight requests and every
  batcher before returning; a model evicted mid-request is reloaded
  transparently;
* **observability** — ``/metrics`` exports per-model request counts,
  queue depths, batch-size, latency and per-stage latency histograms
  plus a client-disconnect counter; ``access_log=True`` writes one
  structured JSON line per request to stderr through the shared
  :mod:`repro.observability.logging` logger; with tracing enabled every
  POST request records per-stage spans into the flight recorder served
  at ``GET /v1/debug/traces`` (GETs are not traced, so scrapes and
  health checks never crowd out the requests an operator wants).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.parse
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from contextlib import nullcontext
from functools import partial
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ..backend import INFERENCE_POLICY, ComputePolicy, apply_inference_policy
from ..data.dataset import TimeSeriesDataset
from ..observability import get_logger, get_tracer
from .batcher import BatcherStats, MicroBatcher, QueueFullError
from .metrics import (
    CONFIDENCE_BUCKETS,
    STAGE_LATENCY_BUCKETS,
    Counter,
    FamilySpec,
    Gauge,
    Histogram,
    render_families,
)
from .registry import ModelRecord, ModelRegistry

__all__ = ["Prediction", "PredictionService", "PredictionServer",
           "SERVICE_FAMILIES", "ServingError", "StreamStats",
           "build_service", "create_server", "prepare_panel",
           "PROTOCOL_PREPROCESSING"]

#: metadata value written by ``repro train`` — the training-protocol
#: preprocessing (znormalize + impute) the server must mirror
PROTOCOL_PREPROCESSING = "znormalize+impute"


def prepare_panel(X: np.ndarray) -> np.ndarray:
    """Apply the training protocol's preprocessing to a raw panel.

    Calls :meth:`TimeSeriesDataset.preprocess`, the one definition the
    training protocol also prepares its panels with, so the serving path
    can never drift from what published models were trained on.  It
    lives in :mod:`repro.data`, so serving never imports the experiment
    stack.
    """
    dataset = TimeSeriesDataset(X, np.zeros(len(X), dtype=np.int64))
    return dataset.preprocess().X


class Prediction(NamedTuple):
    """One served series' answer: its label and its probability vector.

    ``proba`` has one column per class in the model's ``classes_``
    order; ``label`` is the class of its largest entry, which the
    classifier contract makes equal to ``model.predict`` exactly.
    """

    label: object
    proba: np.ndarray


def _predictor(model, preprocessed: bool):
    """The one function a loaded model is served through.

    Runs ``predict_proba`` once per coalesced panel (after the training
    protocol's preprocessing when the model was trained on it) and
    returns one :class:`Prediction` per row.
    """
    classes = np.asarray(model.classes_)

    def predict(panel: np.ndarray) -> list[Prediction]:
        if preprocessed:
            panel = prepare_panel(panel)
        probas = np.asarray(model.predict_proba(panel))
        return [Prediction(label, row) for label, row
                in zip(classes[probas.argmax(axis=1)], probas)]

    return predict


class ServingError(Exception):
    """A client-visible failure with an HTTP status.

    ``retry_after`` (seconds) is surfaced as a ``Retry-After`` response
    header for the transient statuses (429/503) where a client should
    back off and try again.
    """

    def __init__(self, status: int, message: str, *,
                 retry_after: int | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


@dataclass
class StreamStats:
    """Per-model-version streaming counters for ``/metrics``.

    Like :class:`~repro.serving.batcher.BatcherStats`, one object lives
    per ``(name, version)`` for the process lifetime, so the counters
    are monotone across streams coming and going.
    """

    opened: Counter = field(default_factory=Counter)
    active: Gauge = field(default_factory=Gauge)
    windows: Counter = field(default_factory=Counter)
    shifts: Counter = field(default_factory=Counter)
    #: top-1 confidence per scored window — the live distribution the
    #: drift monitor watches
    confidence: Histogram = field(
        default_factory=lambda: Histogram(CONFIDENCE_BUCKETS))

    def record_window(self, *, shift: bool = False,
                      confidence: float | None = None) -> None:
        """Count one scored window (and its confidence, when known)."""
        self.windows.inc()
        if shift:
            self.shifts.inc()
        if confidence is not None:
            self.confidence.observe(confidence)


#: Every family :meth:`PredictionService.metrics_text` renders, in
#: exposition order: name, kind, help, label source and value getter.
#: The label sources are gathered per scrape — ``batcher``, ``stream``
#: and ``queue`` entries are labelled by model version, ``stage`` by
#: version and stage, ``status`` by HTTP status; ``process`` and
#: ``sessions`` carry one unlabelled entry each.
SERVICE_FAMILIES = tuple(FamilySpec(*row) for row in (
    ("repro_serving_requests_total", "counter",
     "Series admitted to a model's micro-batcher.", "batcher",
     attrgetter("requests")),
    ("repro_serving_rejected_total", "counter",
     "Series refused by the bounded queue (answered 429).", "batcher",
     attrgetter("rejected")),
    ("repro_serving_batches_total", "counter", "Coalesced panels predicted.",
     "batcher", attrgetter("batches")),
    ("repro_serving_queue_depth", "gauge",
     "Requests waiting in each loaded model's queue.", "queue", int),
    ("repro_serving_loaded_models", "gauge",
     "Models currently resident in memory.", "process",
     attrgetter("loaded_models")),
    ("repro_serving_streams_total", "counter",
     "NDJSON streams opened against each model.", "stream",
     attrgetter("opened.value")),
    ("repro_serving_active_streams", "gauge",
     "NDJSON streams currently open per model.", "stream",
     attrgetter("active.value")),
    ("repro_serving_stream_windows_total", "counter",
     "Windows scored through the streaming scorer.", "stream",
     attrgetter("windows.value")),
    ("repro_serving_stream_shifts_total", "counter",
     "Windows the drift monitor flagged as shifted.", "stream",
     attrgetter("shifts.value")),
    ("repro_serving_stream_confidence", "histogram",
     "Top-1 probability per scored window.", "stream",
     lambda stream: stream.confidence.snapshot()
     if stream.confidence.count else None),
    ("repro_serving_batch_size", "histogram", "Coalesced panel sizes.",
     "batcher", lambda stat: stat.batch_sizes.snapshot()),
    ("repro_serving_request_latency_seconds", "histogram",
     "Submit-to-completion seconds per series.", "batcher",
     lambda stat: stat.latency.snapshot()),
    ("repro_serving_stage_latency_seconds", "histogram",
     "Per-stage request latency: queue_wait, assemble, predict, serialize.",
     "stage", Histogram.snapshot),
    ("repro_serving_client_disconnects_total", "counter",
     "Responses abandoned because the client hung up first.", "process",
     attrgetter("client_disconnects")),
    ("repro_session_opened_total", "counter",
     "Durable stream sessions opened.", "sessions",
     attrgetter("opened.value")),
    ("repro_session_resumed_total", "counter",
     "Session re-attachments after a disconnect.", "sessions",
     attrgetter("resumed.value")),
    ("repro_session_active", "gauge",
     "Sessions currently attached to a live stream.", "sessions",
     attrgetter("active.value")),
    ("repro_session_snapshots_total", "counter",
     "Per-window session snapshots saved.", "sessions",
     attrgetter("snapshots.value")),
    ("repro_session_replayed_windows_total", "counter",
     "Cached window lines replayed to resuming clients.", "sessions",
     attrgetter("replayed.value")),
    ("repro_session_handoffs_total", "counter",
     "Sessions adopted from a peer worker on resume.", "sessions",
     attrgetter("handoffs.value")),
    ("repro_session_takeovers_total", "counter",
     "Resumes that fenced out a still-attached handler (half-open or "
     "zombie connections).", "sessions", attrgetter("takeovers.value")),
    ("repro_session_expired_total", "counter",
     "Suspended sessions dropped by TTL or eviction.", "sessions",
     attrgetter("expired.value")),
    ("repro_session_swaps_total", "counter",
     "In-place model version swaps on session streams.", "sessions",
     attrgetter("swaps.value")),
    ("repro_session_replication_failures_total", "counter",
     "Session blobs a peer worker did not acknowledge adopting "
     "(includes stale copies it refused).", "sessions",
     attrgetter("replication_failures.value")),
    ("repro_session_side_channel_errors_total", "counter",
     "Peer side-channel requests this worker could not read or answer "
     "(torn or malformed).", "sessions",
     attrgetter("side_channel_errors.value")),
    ("repro_session_fetch_failures_total", "counter",
     "Peer workers a session resume fetch failed on (down, respawning or "
     "a torn reply).", "sessions", attrgetter("fetch_failures.value")),
    ("repro_serving_http_responses_total", "counter",
     "HTTP responses by status code.", "status", int),
))


def _version_labels(key: tuple[str, int]) -> dict[str, str]:
    return {"model": key[0], "version": str(key[1])}


class PredictionService:
    """Registry-backed prediction with one micro-batcher per model version.

    The service is the transport-free core of the server: the HTTP layer,
    the CLI ``predict`` command and in-process tests all call the same
    :meth:`predict`.

    Parameters beyond the batching knobs:

    max_queue:
        Per-model bounded request queue; overflow raises
        ``ServingError(429)`` (0 = unbounded).
    max_loaded_models:
        Cap on concurrently loaded models; the least-recently-used one is
        evicted — its queued requests drained first — to make room
        (0 = unlimited).
    drain_timeout:
        How long :meth:`close` waits for in-flight predicts to finish
        before tearing the batchers down.
    tracer:
        The :class:`~repro.observability.Tracer` the whole serving stack
        (batchers, scorers, controllers) records spans through; defaults
        to the process-wide tracer (disabled until
        ``configure_tracing``/``repro serve --trace`` switches it on).
    logger:
        The :class:`~repro.observability.StructuredLogger` used for the
        access log and structured server events; defaults to the shared
        stderr logger stamped ``component: "server"``.
    """

    def __init__(self, registry: ModelRegistry, *, max_batch: int = 64,
                 predict_timeout: float = 30.0, max_queue: int = 0,
                 max_loaded_models: int = 0, drain_timeout: float = 5.0,
                 compute_policy: ComputePolicy | None = None,
                 tracer=None, logger=None):
        self.registry = registry
        #: service-wide policy override; ``None`` defers to each record's
        #: published ``compute_policy`` metadata, falling back to the
        #: float32 serving default (INFERENCE_POLICY)
        self.compute_policy = compute_policy
        self.tracer = tracer if tracer is not None else get_tracer()
        self.logger = logger if logger is not None else get_logger("server")
        self.max_batch = max_batch
        self.predict_timeout = predict_timeout
        self.max_queue = int(max_queue)
        self.max_loaded_models = int(max_loaded_models)
        self.drain_timeout = float(drain_timeout)
        #: insertion order doubles as LRU order: a cache hit reinserts its
        #: key, so the first key is always the least recently used
        self._loaded: dict[tuple[str, int], tuple[ModelRecord, MicroBatcher]] = {}
        self._lock = threading.Lock()
        #: close() waits on this for in-flight predicts to drain
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._closed = False
        #: per-version load locks, so a cold load of one model never blocks
        #: requests that only need the cache
        self._loading: dict[tuple[str, int], threading.Lock] = {}
        #: per-version stats survive eviction/reload so /metrics counters
        #: are monotone over the process lifetime
        self._stats: dict[tuple[str, int], BatcherStats] = {}
        #: per-version JSON-ready class list, recorded at load: the label
        #: values a reply's probability columns refer to
        self._classes: dict[tuple[str, int], list] = {}
        #: per-version streaming stats (same lifetime rules)
        self._streams: dict[tuple[str, int], StreamStats] = {}
        self._http_responses: dict[int, int] = {}
        #: per-version per-stage latency histograms (queue_wait, assemble,
        #: predict, serialize) — always on; the cost is one observe per
        #: stage, not a span allocation
        self._stage: dict[tuple[str, int], dict[str, Histogram]] = {}
        #: responses abandoned because the client hung up first
        self._client_disconnects = 0
        # Deferred import: repro.streaming imports this module at load
        # time, so the session layer must resolve lazily.
        from ..streaming.session import SessionStore

        #: durable stream sessions (resume tokens + snapshots); the
        #: worker pool swaps in a replicating subclass before serving
        self.sessions = SessionStore()

    # ------------------------------------------------------------------ #

    def models(self) -> list[dict]:
        """Latest record per name, with the total version count."""
        out = []
        for name in self.registry.list_models():
            versions = self.registry.versions(name)
            latest = versions[-1].describe()
            latest["n_versions"] = len(versions)
            out.append(latest)
        return out

    def healthz(self) -> dict:
        """Liveness summary; uses the registry's memoised name scan so a
        health-check loop never hammers the filesystem."""
        return {"status": "ok", "models": len(self.registry.list_models())}

    def predict(self, name: str, instances, version=None, *,
                return_proba: bool = False) -> dict:
        """Classify *instances* — a sequence of series, each ``(channels,
        length)`` or 1-D univariate.  A single 2-D array is accepted as a
        one-series convenience; everything else is validated per series,
        so e.g. a list of 1-D univariate series yields one label each
        rather than being misread as one multivariate series.

        Returns ``{"model", "version", "labels"}``; labels come back in
        request order whatever batches the series landed in.  Every
        series is scored once, through the model's probabilities;
        ``return_proba`` only shapes the reply, which then additionally
        carries ``"probas"`` (one row-stochastic vector per instance),
        ``"confidences"`` (its per-instance maximum) and ``"classes"``
        (the label values the probability columns refer to).  Raises
        :class:`ServingError` 429 under backpressure, 503 on shutdown.
        """
        with self._idle:
            if self._closed:
                raise ServingError(503, "service is shutting down")
            self._active += 1
        try:
            with self.tracer.span("serve.predict", model=name) as span:
                record, futures = self._admit(name, instances, version, None)
                span.set("version", record.version)
                span.set("instances", len(futures))
                try:
                    results = [future.result(timeout=self.predict_timeout)
                               for future in futures]
                except FutureTimeoutError as error:
                    # Fail fast instead of parking a handler thread forever
                    # on a stalled batcher.
                    raise ServingError(
                        503,
                        f"prediction timed out after {self.predict_timeout}s"
                    ) from error
                reply = {"model": record.name, "version": record.version,
                         "labels": [_jsonable(result.label)
                                    for result in results]}
                if return_proba:
                    reply["probas"] = [[float(p) for p in result.proba]
                                       for result in results]
                    reply["confidences"] = [float(result.proba.max())
                                            for result in results]
                    reply["classes"] = \
                        self._classes[(record.name, record.version)]
                return reply
        finally:
            with self._idle:
                self._active -= 1
                if not self._active:
                    self._idle.notify_all()

    def submit(self, name: str, instances, version=None, *,
               queue_timeout: float | None = None
               ) -> tuple[ModelRecord, list[Future]]:
        """Admit *instances* to the model's batcher without waiting.

        The asynchronous face of :meth:`predict`: the streaming scorer
        keeps many windows in flight and collects their futures in its
        own order.  With *queue_timeout*, a full queue blocks (bounded)
        instead of answering 429 immediately — mid-stream there is no
        client to bounce, so waiting *is* the backpressure.  Each future
        resolves to a :class:`Prediction` (label + probability vector).

        Raises the same :class:`ServingError` family as :meth:`predict`.
        """
        with self._idle:
            if self._closed:
                raise ServingError(503, "service is shutting down")
            self._active += 1
        try:
            return self._admit(name, instances, version, queue_timeout)
        finally:
            with self._idle:
                self._active -= 1
                if not self._active:
                    self._idle.notify_all()

    def _admit(self, name: str, instances, version,
               queue_timeout) -> tuple[ModelRecord, list[Future]]:
        if isinstance(instances, np.ndarray):
            if instances.ndim in (1, 2):
                instances = instances[None]
        elif isinstance(instances, (list, tuple)) and instances \
                and np.isscalar(instances[0]):
            instances = [instances]  # one flat univariate series
        for attempt in (0, 1):
            record, batcher = self._resolve(name, version)
            try:
                # All-or-nothing admission: a 429 never leaves already-
                # submitted series computing for a client that will retry.
                futures = batcher.submit_many(instances, timeout=queue_timeout)
                return record, futures
            except QueueFullError as error:
                raise ServingError(429, str(error), retry_after=1) from error
            except (TypeError, ValueError) as error:
                raise ServingError(400, str(error)) from error
            except RuntimeError as error:
                # The batcher closed between _resolve and submit: either
                # the service is shutting down (the next _resolve answers
                # 503) or the LRU evicted this model under us — drop the
                # stale cache entry and retry once, which reloads it.
                key = (record.name, record.version)
                with self._lock:
                    current = self._loaded.get(key)
                    if current is not None and current[1] is batcher:
                        del self._loaded[key]
                if attempt:
                    raise ServingError(
                        503, f"model {name} was unloaded mid-request; retry",
                        retry_after=1,
                    ) from error

    # ------------------------------------------------------------------ #
    # streaming lifecycle
    # ------------------------------------------------------------------ #

    def open_stream(self, name: str, version=None
                    ) -> tuple[ModelRecord, StreamStats]:
        """Resolve a model for streaming and count the stream as active.

        Raises ``ServingError(404)`` for an unknown model — before any
        sample is consumed, so the transport can still answer with a
        proper status line.  Pair with :meth:`close_stream`.
        """
        try:
            record = self.registry.record(name, version)
        except KeyError as error:
            raise ServingError(404, error.args[0]) from error
        key = (record.name, record.version)
        with self._lock:
            stats = self._streams.setdefault(key, StreamStats())
        stats.opened.inc()
        stats.active.inc()
        return record, stats

    def close_stream(self, record: ModelRecord) -> None:
        """Count the stream on *record* as closed (active-gauge pair of
        :meth:`open_stream`; idempotence is the scorer's job)."""
        with self._lock:
            stats = self._streams.get((record.name, record.version))
        if stats is not None:
            stats.active.dec()

    def close(self) -> None:
        """Refuse new work, wait (bounded) for in-flight predicts, then
        drain and stop every batcher.

        The whole close is bounded by ``drain_timeout``: the in-flight
        wait and the batcher joins share one deadline, so a predict_fn
        stalled forever cannot hang shutdown — its daemon worker is
        abandoned instead.
        """
        with self._idle:
            self._closed = True
            deadline = time.monotonic() + self.drain_timeout
            while self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
            batchers = [batcher for _, batcher in self._loaded.values()]
            self._loaded.clear()
            self._loading.clear()  # per-version load locks die with us
        for batcher in batchers:
            batcher.close(timeout=max(0.1, deadline - time.monotonic()))

    # ------------------------------------------------------------------ #

    def record_response(self, status: int) -> None:
        """Count one HTTP response for ``/metrics`` (called by the handler)."""
        with self._lock:
            self._http_responses[status] = self._http_responses.get(status, 0) + 1

    def record_client_disconnect(self, **info) -> None:
        """Count one client disconnect (the peer hung up before reading
        its response) and emit a structured ``client_disconnect`` event.

        Called by the HTTP handler when a write hits
        ``BrokenPipeError``/``ConnectionResetError`` — previously these
        were swallowed invisibly; now they are first-class signal:
        ``repro_serving_client_disconnects_total`` in ``/metrics`` plus
        one structured log line carrying *info* (client, path, status).
        """
        with self._lock:
            self._client_disconnects += 1
        self.logger.event("client_disconnect", **info)

    def observe_stage(self, key: tuple[str, int], stage: str,
                      seconds: float) -> None:
        """Record one per-stage latency observation for model *key*.

        *stage* is one of ``queue_wait`` / ``assemble`` / ``predict``
        (reported by the batcher) or ``serialize`` (reported by the HTTP
        handler).  Histograms are created lazily per ``(name, version,
        stage)`` and rendered in ``/metrics`` as
        ``repro_serving_stage_latency_seconds{...,stage="..."}``.
        """
        stages = self._stage.get(key)
        if stages is None:
            with self._lock:
                stages = self._stage.setdefault(key, {})
        hist = stages.get(stage)
        if hist is None:
            with self._lock:
                hist = stages.setdefault(stage,
                                         Histogram(STAGE_LATENCY_BUCKETS))
        hist.observe(seconds)

    def debug_traces(self, *, limit: int = 20, slowest: bool = False) -> dict:
        """The flight recorder's view, as served at ``/v1/debug/traces``.

        Returns ``{"enabled", "stats", "traces"}``; ``traces`` is newest
        first (or slowest first with *slowest*), empty whenever tracing
        never ran or no recorder is attached.
        """
        recorder = self.tracer.recorder
        out = {"enabled": self.tracer.enabled, "stats": {}, "traces": []}
        if recorder is not None:
            out["stats"] = recorder.stats()
            out["traces"] = recorder.snapshot(limit=limit, slowest=slowest)
        return out

    def metrics_text(self) -> str:
        """The Prometheus exposition-format dump for ``/metrics``: the
        :data:`SERVICE_FAMILIES` table over this scrape's label sources."""
        with self._lock:
            batchers = [(_version_labels(key), stat)
                        for key, stat in self._stats.items()]
            streams = [(_version_labels(key), stream)
                       for key, stream in sorted(self._streams.items())]
            queues = [(_version_labels(key), batcher.queue_depth)
                      for key, (_, batcher) in sorted(self._loaded.items())]
            stages = [({**_version_labels(key), "stage": stage}, hist)
                      for key, hists in sorted(self._stage.items())
                      for stage, hist in sorted(hists.items())]
            statuses = [({"status": str(status)}, count) for status, count
                        in sorted(self._http_responses.items())]
            process = SimpleNamespace(
                loaded_models=len(self._loaded),
                client_disconnects=self._client_disconnects)
        return render_families(SERVICE_FAMILIES, {
            "batcher": batchers, "stream": streams, "queue": queues,
            "stage": stages, "status": statuses,
            "process": [(None, process)], "sessions": [(None, self.sessions)],
        })

    # ------------------------------------------------------------------ #

    def _resolve(self, name: str, version) -> tuple[ModelRecord, MicroBatcher]:
        try:
            record = self.registry.record(name, version)
        except KeyError as error:
            # KeyError.__str__ repr-quotes its message; unwrap it.
            raise ServingError(404, error.args[0]) from error
        key = (record.name, record.version)
        with self._lock:
            if self._closed:
                raise ServingError(503, "service is shutting down")
            entry = self._loaded.get(key)
            if entry is not None:
                self._loaded[key] = self._loaded.pop(key)  # refresh LRU rank
                return entry
            load_lock = self._loading.setdefault(key, threading.Lock())
        # Deserialisation can take seconds for deep ensembles; hold only this
        # version's lock so other models keep answering from the cache.
        with load_lock:
            with self._lock:
                entry = self._loaded.get(key)
            if entry is not None:
                return entry
            with self.tracer.span("model.load", model=record.name,
                                  version=record.version):
                model, record = self.registry.load(record.name, record.version)
                # Policy resolution: service override > published metadata
                # (already applied by registry.load) > the float32 serving
                # default.  Batch, stream and shadow-canary traffic all
                # come through this one load path, so they hit the same
                # fused banks under the same policy.
                policy = self.compute_policy
                if policy is None and "compute_policy" not in record.metadata:
                    policy = INFERENCE_POLICY
                apply_inference_policy(model, policy)
            preprocessed = record.metadata.get("preprocessing") \
                == PROTOCOL_PREPROCESSING
            shape = record.metadata.get("input_shape")
            with self._lock:
                stats = self._stats.setdefault(key, BatcherStats())
                self._classes[key] = [_jsonable(value)
                                      for value in model.classes_]
            entry = (record, MicroBatcher(
                _predictor(model, preprocessed),
                input_shape=tuple(shape) if shape else None,
                max_batch=self.max_batch, max_queue=self.max_queue,
                # prepare_panel imputes, so NaN requests are servable —
                # and must stay so (missing values are a modelled archive
                # characteristic).
                admit_nan=preprocessed, stats=stats,
                stage_observer=partial(self.observe_stage, key),
                tracer=self.tracer,
            ))
            evicted = []
            with self._lock:
                if self._closed:
                    # close() ran while we were loading; don't resurrect.
                    entry[1].close()
                    raise ServingError(503, "service is shutting down")
                self._loaded[key] = entry
                while self.max_loaded_models > 0 \
                        and len(self._loaded) > self.max_loaded_models:
                    oldest = next(iter(self._loaded))
                    evicted.append(self._loaded.pop(oldest))
            for _, old_batcher in evicted:
                # Outside the lock: close() drains the evicted model's
                # queued requests, so nobody who was already admitted loses
                # an answer to the eviction.
                old_batcher.close()
        return entry


def _jsonable(value):
    """Numpy scalars -> plain python for json.dumps."""
    if isinstance(value, np.generic):
        return value.item()
    return value


# --------------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------------- #


class _Inbox:
    """A stream handler's two event sources behind one lock.

    A reader thread queues request-body lines (:meth:`fill`), blocking
    while *bound* lines wait or are held by the handler, so TCP
    backpressure still reaches a client that sends faster than the
    stream is scored.  Window futures post a coalesced "a window
    resolved" flag (:meth:`wake`) from their done-callbacks, which run
    on the batcher thread: it holds the lock only to set the flag and
    never waits for space, so a stalled stream cannot stall the batcher
    every stream of its model shares.  The handler thread consumes both
    through :meth:`take`, every queued line at once.  Each side is
    notified only when the other may be waiting for it.
    """

    END = object()  # take(): the body is complete

    def __init__(self, bound: int):
        self._bound = bound
        self._lines: list[bytes] = []
        #: lines the last take() handed out; they count against the
        #: bound until the next take(), so the reader frames at most
        #: *bound* lines ahead of the scoring
        self._held = 0
        lock = threading.Lock()
        self._has_event = threading.Condition(lock)  # the handler waits
        self._has_room = threading.Condition(lock)  # the reader waits
        self._woken = False
        self._ended = False
        self._error: Exception | None = None
        self._closed = False

    def fill(self, lines) -> None:
        """Reader-thread body: queue every line of *lines*, then the end
        of the body or the error that cut it short.  Returns early once
        :meth:`close` is called."""
        error = None
        try:
            for line in lines:
                with self._has_room:
                    while len(self._lines) + self._held >= self._bound \
                            and not self._closed:
                        self._has_room.wait()
                    if self._closed:
                        return
                    self._lines.append(line)
                    if len(self._lines) == 1:
                        self._has_event.notify()
        except Exception as caught:  # noqa: BLE001 - raised again by take()
            error = caught
        with self._has_event:
            self._ended, self._error = True, error
            self._has_event.notify()

    def wake(self, _future=None) -> None:
        """Post "a window resolved"; returns at once, whatever is queued."""
        if self._woken:
            return  # posted already; the next take() sees this window too
        with self._has_event:
            self._woken = True
            self._has_event.notify()

    def take(self):
        """Block for the next event: every queued body line as one list,
        an empty list for a resolve wake-up, or :attr:`END`.  Lines come
        first (feeding collects the resolved windows too); the reader's
        error is raised once the lines before it are taken."""
        with self._has_event:
            if self._held:
                # The last block is done with.  Its room goes back to the
                # reader *before* this waits, or the reader (waiting for
                # room) and this loop (waiting for lines) wait on each
                # other.
                self._held = 0
                self._has_room.notify()
            while not (self._lines or self._woken or self._ended):
                self._has_event.wait()
            woken, self._woken = self._woken, False
            if self._lines:
                block, self._lines = self._lines, []
                self._held = len(block)
                return block
            if woken:
                return []
            if self._error is not None:
                raise self._error
            return self.END

    def close(self) -> None:
        """Release a reader blocked on a full queue; it stops reading."""
        with self._has_room:
            self._closed = True
            self._has_room.notify()


class _Handler(BaseHTTPRequestHandler):
    service: PredictionService  # injected by create_server
    quiet = True
    #: refuse request bodies above this many bytes with 413 (0 = unlimited)
    max_body_bytes = 0
    #: one structured JSON line per request on stderr
    access_log = False
    # Keep-alive: _reply always sends Content-Length, so clients can reuse
    # one connection for a burst instead of a TCP handshake per request.
    protocol_version = "HTTP/1.1"
    # Headers and body are two writes; with Nagle on, the body waits for
    # the client's delayed ACK of the headers (~40 ms per response).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #

    def handle_one_request(self) -> None:
        # A client may reset its connection, most often a keep-alive one
        # idling between requests (closing with a reply unread does
        # that).  Like a clean close, that is the client hanging up, not
        # a server error: end the connection instead of printing a
        # traceback.
        try:
            super().handle_one_request()
        except ConnectionResetError:
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        # Untraced: scrapes, health checks and trace polls would fill the
        # flight recorder with their own reads.  The reset keeps a GET off
        # the span of a POST served earlier on this keep-alive connection.
        self._started = time.monotonic()
        self._span = None
        self._handle_get()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._traced(self._handle_post)

    def _traced(self, handle) -> None:
        """Run one request inside its ``http.request`` root span."""
        self._started = time.monotonic()
        self._span = span = self.service.tracer.span(
            "http.request", method=self.command, path=self.path)
        with span:
            handle()

    def _handle_get(self) -> None:
        """Route one GET request."""
        url = urllib.parse.urlsplit(self.path)
        try:
            if url.path == "/healthz":
                self._reply(200, self.service.healthz())
            elif url.path == "/metrics":
                self._send(200, self.service.metrics_text().encode(),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif url.path == "/v1/models":
                self._reply(200, {"models": self.service.models()})
            elif url.path == "/v1/debug/traces":
                query = urllib.parse.parse_qs(url.query)
                try:
                    limit = int(query.get("limit", ["20"])[0])
                except ValueError as error:
                    self._reply(400, {"error": f"bad limit: {error}"})
                    return
                slowest = query.get("slowest", ["0"])[0].lower() \
                    not in ("", "0", "false")
                self._reply(200, self.service.debug_traces(
                    limit=limit, slowest=slowest))
            else:
                self._reply(404, {"error": f"no route for GET {self.path}"})
        except Exception as error:  # noqa: BLE001 - must answer the client
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def _handle_post(self) -> None:
        """Route one POST request (inside the request's root span)."""
        url = urllib.parse.urlsplit(self.path)
        parts = url.path.strip("/").split("/")
        routed = len(parts) == 4 and parts[:2] == ["v1", "models"]
        if routed and parts[3] == "stream":
            self._stream(parts[2], urllib.parse.parse_qs(url.query))
            return
        if not routed or parts[3] != "predict":
            self._reply(404, {"error": f"no route for POST {self.path}"})
            return
        try:
            body = self._read_json()
            result = self._predict(parts[2], body)
        except ServingError as error:
            headers = {}
            if error.retry_after is not None:
                headers["Retry-After"] = str(error.retry_after)
            self._reply(error.status, {"error": str(error)}, headers=headers)
        except Exception as error:  # noqa: BLE001 - must answer the client
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            started = time.monotonic()
            with self.service.tracer.span("serialize", model=result["model"]):
                self._reply(200, result)
            self.service.observe_stage(
                (result["model"], result["version"]), "serialize",
                time.monotonic() - started)

    def _predict(self, name: str, body: dict) -> dict:
        if not isinstance(body, dict):
            raise ServingError(400, "request body must be a JSON object")
        single = "series" in body
        if single == ("instances" in body):
            raise ServingError(400, "provide exactly one of 'series' or 'instances'")
        instances = [body["series"]] if single else body["instances"]
        want_proba = bool(body.get("proba", False))
        try:
            result = self.service.predict(name, instances, body.get("version"),
                                          return_proba=want_proba)
        except ValueError as error:
            raise ServingError(400, str(error)) from error
        if single:
            result["label"] = result.pop("labels")[0]
            if want_proba:
                result["proba"] = result.pop("probas")[0]
                result["confidence"] = result.pop("confidences")[0]
        return result

    # ------------------------------------------------------------------ #
    # streaming: POST /v1/models/<name>/stream  (NDJSON in, NDJSON out)
    # ------------------------------------------------------------------ #

    #: refuse NDJSON lines longer than this — a line is one sample, and a
    #: megabyte of sample means a broken or hostile sender
    _MAX_STREAM_LINE = 1_048_576

    #: session ids live in URLs, metrics and unix-socket JSON — keep them
    #: to a filename-safe alphabet
    _SESSION_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")

    #: body lines the reader thread may queue ahead of the stream loop;
    #: past this it stops reading, so TCP backpressure reaches the sender
    _READ_AHEAD = 64

    def _stream(self, name: str, query: dict[str, list[str]]) -> None:
        """Score an NDJSON sample stream window by window.

        The request body is NDJSON — one ``{"values": [...], "label":
        n?, "t": n?}`` object per line, chunked transfer encoding or a
        plain ``Content-Length`` body; ``t``, the sample's position on
        the source clock, must be an integer that increases, and a jump
        in it restarts the window ring (a gap).  The response is NDJSON
        too, streamed in chunked encoding: one ``{"kind": "window",
        ...}`` line per scored window as soon as its prediction
        resolves — not when the next sample arrives — then one
        ``{"kind": "summary", ...}`` line.  Window lines always carry
        ``confidence``; ``?proba=1`` additionally inlines each window's
        full probability vector.  Failures after the 200 status has
        been committed are reported in-band as a ``{"kind": "error",
        ...}`` line.

        One loop on this thread owns the scorer, the session and the
        response.  It takes two kinds of event from an :class:`_Inbox`:
        body lines, framed by a reader thread that only reads the
        socket, and "a window resolved" wake-ups posted by the window
        futures.  Each step takes every queued line, feeds them in one
        scorer call (one batcher admission for the windows they
        complete) and writes what it resolved as one chunk, so window
        lines may share a chunk.  The reader ends with the stream,
        however it ends.

        ``?session=<id>`` makes the stream durable: the response leads
        with a ``{"kind": "session", ...}`` ack, every window line gains
        a monotonic ``token`` plus the server's consumed-``samples``
        count, and on disconnect the scorer state survives in the
        service's session store.  ``?resume=<token>`` re-attaches: the
        cached window lines past the token are replayed verbatim and
        scoring continues from the snapshot — nothing re-scored, nothing
        lost.  Session streams opened against a tag (or the floating
        latest) also follow model promotions in place, announced by a
        ``{"kind": "swap", ...}`` line (``?follow=0`` pins); and when
        the worker starts draining, the stream is handed back with
        ``{"kind": "detach"}`` so the client resumes on a peer.
        """
        from ..streaming.scorer import StreamScorer  # deferred: avoids a cycle
        from ..streaming.session import SessionError

        store = self.service.sessions
        session = None
        epoch = 0
        resume = None
        try:
            window = int(query.get("window", ["32"])[0])
            hop = int(query.get("hop", [str(window)])[0])
            version = query.get("version", [None])[0]
            with_proba = query.get("proba", ["0"])[0].lower() \
                not in ("", "0", "false")
            session_id = query.get("session", [None])[0]
            # Only session streams follow promotions in place.
            follow = session_id is not None and query.get(
                "follow", ["1"])[0].lower() not in ("", "0", "false")
            resume_arg = query.get("resume", [None])[0]
            resume = None if resume_arg is None else int(resume_arg)
            replay: list[dict] = []
            if resume is not None and session_id is None:
                raise ServingError(400, "resume= requires session=")
            if session_id is not None:
                if not self._SESSION_ID.fullmatch(session_id):
                    raise ServingError(
                        400, "session ids are 1-64 characters of "
                             "[A-Za-z0-9._-]")
                if resume is not None:
                    session, replay = store.resume(session_id, resume)
                else:
                    session = store.open(session_id)
                epoch = session.epoch
            body_lines = self._open_body_lines()
            inbox = _Inbox(self._READ_AHEAD)
            scorer = StreamScorer(self.service, name, window=window, hop=hop,
                                  version=version, session=session,
                                  on_resolve=inbox.wake)
            if session is not None:
                session.on_takeover = inbox.wake
        except (SessionError, ServingError, ValueError) as error:
            # Nothing is committed yet (the scorer is the try's last
            # step), so the session settles and the refusal gets a
            # proper status line.
            self._settle_session(session, epoch,
                                 resumable=resume is not None)
            if isinstance(error, ValueError):
                self._refuse_stream(
                    400, {"error": f"bad stream parameters: {error}"})
            else:
                self._refuse_stream(error.status, {"error": str(error)})
            return

        # From here on the stream is committed: errors go in-band.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self.close_connection = True
        sent = 0
        self._body_truncated = False
        resumable = True  # how to settle the session if the wire dies
        reader = threading.Thread(target=inbox.fill, args=(body_lines,),
                                  name="stream-reader", daemon=True)
        reader.start()
        # One owner batch per session-stream step: scorer advance, line
        # caching and the store save land atomically with respect to a
        # resume takeover — the socket writes stay outside so a zombie
        # connection can never stall a takeover.
        owner_batch = nullcontext if session is None \
            else partial(session.guard, epoch)
        try:
            try:
                if session is not None:
                    ack = {"kind": "session", "session": session.id,
                           "token": session.token,
                           "samples": session.samples}
                    slot = getattr(self, "worker_slot", None)
                    if slot is not None:
                        ack["worker"] = slot
                    sent += self._write_stream_lines([ack, *replay])
                detach = False
                # One step per take: every queued line (none on a resolve
                # wake-up) is fed in one scorer call, which admits the
                # windows they complete together, and everything the
                # step resolved leaves as one chunk.
                while (block := inbox.take()) is not inbox.END:
                    samples, failure = self._parse_block(block)
                    with owner_batch():
                        try:
                            results = scorer.feed_many(samples)
                        except ValueError as error:
                            # A bad sample ends the stream; the windows
                            # resolved before it still go out, since
                            # the session token already counts them.
                            failure = error
                            results = scorer.poll()
                        payloads = self._prepare_windows(
                            results, session, store, with_proba)
                        if follow and results:
                            swapped = scorer.follow()
                            if swapped is not None:
                                store.swaps.inc()
                                payloads.append({"kind": "swap",
                                                 "version": swapped.version,
                                                 "window": scorer.windows})
                    sent += self._write_stream_lines(payloads)
                    if failure is not None:
                        raise failure
                    if session is not None \
                            and getattr(self.server, "draining", False):
                        # Hand the stream back mid-drain: the client
                        # resumes on a peer worker instead of losing
                        # the session with the process.
                        detach = True
                        break
                truncated = session is not None and self._body_truncated
                with owner_batch():
                    payloads = self._prepare_windows(
                        scorer.finish(), session, store, with_proba)
                sent += self._write_stream_lines(payloads)
                if detach:
                    sent += self._write_stream_lines(
                        [{"kind": "detach", "reason": "draining",
                          "token": session.token}])
                elif truncated:
                    # The connection died mid-body; the client never saw
                    # an end-of-stream, so keep the session resumable
                    # rather than retiring it under a summary it will
                    # never read.
                    pass
                else:
                    sent += self._write_stream_lines([{
                        "kind": "summary", "model": scorer.record.name,
                        "version": scorer.record.version,
                        "samples": scorer.samples, "windows": scorer.windows,
                        "shifts": scorer.shifts,
                    }])
                    # Only now is the session genuinely over: had the
                    # summary write died on the wire, the client would
                    # still need to resume to learn the stream's fate.
                    resumable = False
            except SessionError as error:
                # Post-commit session conflict — most likely this
                # attachment was fenced out by a resume takeover.  The
                # session itself is fine (owned by someone newer); this
                # connection just ends.  The in-band line is best-effort:
                # a taken-over connection is usually already dead.
                sent += self._write_stream_lines(
                    [{"kind": "error", "error": str(error)}])
            except (ValueError, ServingError) as error:
                sent += self._write_stream_lines(
                    [{"kind": "error", "error": str(error)}])
            # Close (idempotent) before the terminal chunk: when the client
            # unblocks, the active-streams gauge has already dropped and
            # the reader thread is gone.
            scorer.close()
            self._stop_reader(inbox, reader)
            self.wfile.write(b"0\r\n\r\n")  # terminate the chunked body
        except (BrokenPipeError, ConnectionResetError, TimeoutError) as error:
            # Client hung up mid-stream; nothing left to answer, but the
            # hangup itself is signal.
            self.service.record_client_disconnect(
                client=self.client_address[0], method=self.command,
                path=self.path, status=200, error=type(error).__name__)
        finally:
            scorer.close()
            self._stop_reader(inbox, reader)
            self._settle_session(session, epoch, resumable=resumable)
        self.service.record_response(200)
        if self.access_log:
            self._log_access(200, sent)

    @classmethod
    def _parse_block(cls, lines) -> tuple[list[tuple], ValueError | None]:
        """A block of request lines as ``feed_many`` samples, up to the
        first malformed line, plus that line's error (or ``None``)."""
        samples = []
        for line in lines:
            try:
                samples.append(cls._parse_sample(line))
            except ValueError as error:  # JSONDecodeError included
                return samples, error
        return samples, None

    @staticmethod
    def _parse_sample(line: bytes) -> tuple:
        """One request line as ``feed``'s ``(values, label, t)``."""
        sample = json.loads(line)
        if not isinstance(sample, dict) or "values" not in sample:
            raise ValueError(
                'each stream line is {"values": [...]} with an optional '
                '"label" and an optional integer "t"'
            )
        t = sample.get("t")
        if t is not None and type(t) is not int:
            raise ValueError(f'"t" must be an integer; got {t!r}')
        return sample["values"], sample.get("label"), t

    def _stop_reader(self, inbox: _Inbox, reader: threading.Thread) -> None:
        """End the stream's reader thread before the connection closes.

        A reader blocked on the full inbox is released by ``close``; one
        blocked in ``recv`` by shutting the socket's read side, so
        ``rfile.close()`` never waits on a read that cannot finish.
        """
        inbox.close()
        try:
            self.connection.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already gone
        reader.join()

    def _refuse_stream(self, status: int, payload: dict) -> None:
        """Answer a stream refused before it committed, leaving the
        connection fit for its next request.

        The refusal has read none of the body, and on a keep-alive
        connection the unread NDJSON would be parsed as the next request
        line.  A ``Content-Length`` body is drained after the reply
        (bounded, as the 413 path does) and the connection stays alive,
        unless the client asked to close it (``Connection: close``, or
        HTTP/1.0); the reply then says it closes.  A chunked body (or a
        length past ``_DISCARD_LIMIT``) closes the connection, and the
        reply says so; the wire is still drained, bounded, until the
        client hangs up.  Either drain matters on a closing connection
        too: closing on unread data sends a reset, which can destroy the
        reply before the client reads it.  A body with nothing left to
        drain (a 413 that drained it) or no known end (a malformed
        length) only closes.
        """
        chunked = "chunked" in (
            self.headers.get("Transfer-Encoding") or "").lower()
        try:
            owed = int(self.headers.get("Content-Length") or "0")
        except ValueError:
            owed = None
        if self._body_drained or (owed is None and not chunked):
            self._reply(status, payload, {"Connection": "close"})
        elif chunked or owed > self._DISCARD_LIMIT:
            self._reply(status, payload, {"Connection": "close"})
            self._discard_body(self._DISCARD_LIMIT)
        else:
            self._reply(status, payload, {"Connection": "close"}
                        if self.close_connection else None)
            self._discard_body(owed)

    def _settle_session(self, session, epoch: int = 0, *,
                        resumable: bool) -> None:
        """Detach or retire *session* when its stream ends (None is fine).

        *epoch* is the attachment this handler holds; the store ignores
        the call if a takeover moved the session to a newer owner.
        """
        if session is None:
            return
        store = self.service.sessions
        if resumable:
            store.suspend(session, epoch or None)
        else:
            store.finish(session, epoch or None)

    def _prepare_windows(self, results, session, store,
                         with_proba: bool) -> list[dict]:
        """Build a batch's wire payloads; session lines gain token/ack.

        In session mode every line is cached (and the snapshot saved —
        the pool's replication point) *before* the first byte is
        written: the scorer has already advanced the resume token for
        the whole batch, so a wire failure halfway through must leave
        the replay cache covering everything the token claims.  The
        caller writes the returned payloads outside the session guard.
        """
        payloads = []
        for result in results:
            payload = result.as_dict(with_proba=with_proba)
            if session is not None:
                payload["token"] = result.index + 1
                if result.samples is not None:
                    payload["samples"] = result.samples
                session.remember(payload)
            payloads.append(payload)
        if session is not None and payloads:
            store.save(session)
        return payloads

    def _write_stream_lines(self, payloads: list[dict]) -> int:
        """Write NDJSON lines as one chunk with one flush; returns the
        byte count.  Clients frame the response by newline, never by
        chunk."""
        if not payloads:
            return 0
        data = "".join(json.dumps(payload) + "\n"
                       for payload in payloads).encode()
        self.wfile.write(b"%x\r\n%b\r\n" % (len(data), data))
        self.wfile.flush()
        return len(data)

    def _open_body_lines(self):
        """Validate the request framing and return the body line iterator."""
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            return self._iter_lines(self._iter_chunked_body())
        length = self._admitted_length(
            "a stream body needs chunked transfer encoding or a "
            "Content-Length")
        # read1 returns whatever has arrived, so a line is framed when it
        # lands, not when 64 KiB more do.
        return self._iter_lines(
            self._iter_sized_body(length, self.rfile.read1))

    def _iter_chunked_body(self):
        while True:
            size_line = self.rfile.readline(1024)
            try:
                size = int(size_line.split(b";")[0].strip() or b"", 16)
            except ValueError:
                raise ServingError(400, "malformed chunked encoding") from None
            if size == 0:
                while True:  # trailer section, ends at the blank line
                    trailer = self.rfile.readline(1024)
                    if trailer in (b"\r\n", b"\n", b""):
                        return
            # Read in exact slices, so the line cap bounds a chunk as it
            # arrives; a short read (the connection died mid-chunk)
            # marks the body truncated, which keeps a session resumable.
            yield from self._iter_sized_body(size, self.rfile.read)
            if self._body_truncated:
                return
            self.rfile.read(2)  # the chunk's trailing CRLF

    def _iter_sized_body(self, length: int, read):
        remaining = length
        while remaining > 0:
            data = read(min(65536, remaining))
            if not data:
                self._body_truncated = True  # died short of Content-Length
                return
            remaining -= len(data)
            yield data

    def _iter_lines(self, chunks):
        """Frame body *chunks* into non-blank lines in linear time: each
        read is split once, and the unterminated line waits as one part
        per read until its newline arrives."""
        parts: list[bytes] = []  # the unterminated line so far
        size = 0
        for data in chunks:
            *lines, tail = data.split(b"\n")
            if lines:
                parts.append(lines[0])
                lines[0] = b"".join(parts)
                parts, size = [], 0
                for line in lines:
                    if line.strip():
                        yield line
            if tail:
                parts.append(tail)
                size += len(tail)
                if size > self._MAX_STREAM_LINE:
                    raise ServingError(
                        400,
                        f"stream line exceeds {self._MAX_STREAM_LINE} bytes")
        # A body cut short ends in a torn line, never a sample.
        tail = b"".join(parts)
        if tail.strip() and not self._body_truncated:
            yield tail

    # ------------------------------------------------------------------ #

    def _read_json(self):
        length = self._admitted_length("empty request body")
        try:
            return json.loads(self.rfile.read(length))
        except json.JSONDecodeError as error:
            raise ServingError(400, f"invalid JSON body: {error}") from error

    def _admitted_length(self, empty_message: str) -> int:
        """The declared ``Content-Length``, refused when absent (400,
        *empty_message*), not an integer (400) or above
        ``max_body_bytes`` (413).

        An oversized body is refused without buffering, but the wire is
        *drained* (bounded): closing a socket with unread data makes the
        kernel send RST, which can destroy the 413 response before the
        client reads it.  The bytes are discarded chunk by chunk, never
        held.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            # Without a length the next request's start is unknown.
            self.close_connection = True
            raise ServingError(
                400, f"malformed Content-Length: {declared!r}") from None
        if length <= 0:
            raise ServingError(400, empty_message)
        if self.max_body_bytes and length > self.max_body_bytes:
            self.close_connection = True
            self._discard_body(length)
            self._body_drained = True
            raise ServingError(
                413, f"request body of {length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte limit"
            )
        return length

    #: stop draining a refused body past this; a sender lying about a
    #: colossal Content-Length gets the RST instead of our time
    _DISCARD_LIMIT = 64 * 1024 * 1024

    #: set once ``_admitted_length`` has drained a refused body; the
    #: connection then closes, so the flag never reaches another request
    _body_drained = False

    def _discard_body(self, length: int) -> None:
        remaining = min(length, self._DISCARD_LIMIT)
        try:
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
        except (ConnectionResetError, TimeoutError):
            pass  # sender already gave up; nothing left to protect

    def _reply(self, status: int, payload: dict,
               headers: dict[str, str] | None = None) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json",
                   headers)

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict[str, str] | None = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, TimeoutError) as error:
            # The client hung up before reading its answer.  That is the
            # client's problem, not a server error: swallow it so the
            # handler thread survives instead of dying with a traceback —
            # but count and log it, because a burst of disconnects is a
            # latency or client-timeout story someone needs to see.
            self.close_connection = True
            self.service.record_client_disconnect(
                client=self.client_address[0], method=self.command,
                path=self.path, status=status, error=type(error).__name__)
        span = getattr(self, "_span", None)
        if span is not None:
            span.set("status", status)
        self.service.record_response(status)
        if self.access_log:
            self._log_access(status, len(body))

    def _log_access(self, status: int, n_bytes: int) -> None:
        """One structured ``access`` event per request, via the shared
        logger — same ``time``/``client``/``method``/``path``/``status``
        /``bytes``/``ms`` keys the ad-hoc JSON lines always carried."""
        elapsed = time.monotonic() - getattr(self, "_started", time.monotonic())
        self.service.logger.event(
            "access",
            time=round(time.time(), 3),
            client=self.client_address[0],
            method=self.command,
            path=self.path,
            status=status,
            bytes=n_bytes,
            ms=round(elapsed * 1000, 2),
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)


class PredictionServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` owning a :class:`PredictionService`.

    With ``bind_and_activate=False`` the server is built around a socket
    the caller supplies afterwards (``adopt_socket``) — the pre-fork
    worker pool uses this to serve from a listener bound before the
    fork, or from its own ``SO_REUSEPORT`` socket.
    """

    daemon_threads = True

    def __init__(self, address, handler, service: PredictionService, *,
                 bind_and_activate: bool = True):
        super().__init__(address, handler, bind_and_activate)
        self.service = service

    def adopt_socket(self, sock) -> None:
        """Serve from *sock*, an already-bound listener, instead of the
        placeholder socket ``bind_and_activate=False`` left us with.

        The placeholder is closed, the adopted socket's address becomes
        the server address, and the listener is (re-)activated —
        ``listen`` on an already-listening socket is a no-op.
        """
        self.socket.close()
        self.socket = sock
        self.server_address = sock.getsockname()
        self.server_activate()

    def server_close(self) -> None:
        """Graceful stop: drain in-flight predicts and every batcher
        queue before the listening socket is torn down, so a stop never
        abandons an admitted request."""
        self.service.close()
        super().server_close()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` ephemeral binds)."""
        return self.server_address[1]


def build_service(registry: ModelRegistry | str, *, max_batch: int = 64,
                  max_queue: int = 1024, max_loaded_models: int = 0,
                  compute_policy: ComputePolicy | None = None,
                  tracer=None) -> PredictionService:
    """Build the :class:`PredictionService` ``create_server`` wires up.

    Shared by the single-process server and the pre-fork worker pool
    (each pool worker builds its own service after the fork — shared
    nothing), so the two tiers can never drift in how a service is
    configured.
    """
    if not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    return PredictionService(registry, max_batch=max_batch,
                             max_queue=max_queue,
                             max_loaded_models=max_loaded_models,
                             compute_policy=compute_policy,
                             tracer=tracer)


def create_server(registry: ModelRegistry | str, *, host: str = "127.0.0.1",
                  port: int = 0, max_batch: int = 64, quiet: bool = True,
                  max_queue: int = 1024, max_loaded_models: int = 0,
                  max_body_bytes: int = 10_000_000,
                  access_log: bool = False,
                  compute_policy: ComputePolicy | None = None,
                  tracer=None) -> PredictionServer:
    """Build a ready-to-run prediction server (``port=0`` picks a free one).

    Run it with ``server.serve_forever()`` (blocking) or from a thread;
    ``server.server_close()`` drains in-flight work and shuts down the
    per-model batchers.  The defaults are load-safe: a bounded per-model
    queue (429 on overflow) and a 10 MB body cap (413 above it);
    ``max_loaded_models`` bounds resident models with LRU eviction.
    ``compute_policy`` overrides every model's published policy (e.g.
    ``ComputePolicy("float64")`` to force the bit-pinned reference path);
    ``None`` honours each record's metadata with a float32 default.
    """
    service = build_service(registry, max_batch=max_batch,
                            max_queue=max_queue,
                            max_loaded_models=max_loaded_models,
                            compute_policy=compute_policy, tracer=tracer)
    handler = type("Handler", (_Handler,), {
        "service": service, "quiet": quiet,
        "max_body_bytes": int(max_body_bytes), "access_log": bool(access_log),
    })
    return PredictionServer((host, port), handler, service)
