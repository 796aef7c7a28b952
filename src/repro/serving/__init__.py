"""Model serving: versioned registry, micro-batching engine, HTTP API.

Three layers turn a trained classifier into a prediction service:

* :mod:`repro.serving.registry` — publish/get/list/tag of content-hashed
  ``.npz`` artifacts with fit-time metadata;
* :mod:`repro.serving.batcher` — coalesce single-series requests into
  panels for throughput;
* :mod:`repro.serving.server` — a stdlib ``http.server`` JSON API
  (``/healthz``, ``/metrics``, ``/v1/models``,
  ``/v1/models/<name>/predict``) with bounded-queue backpressure (429),
  body-size admission control (413) and LRU model lifecycle;
* :mod:`repro.serving.metrics` — stdlib Prometheus-format counters and
  histograms behind the ``/metrics`` endpoint;
* :mod:`repro.serving.pool` — the pre-fork, shared-nothing worker pool
  (``repro serve --workers N``): one supervisor, N forked workers each
  owning a full service, kernel-balanced accepts, respawn-with-backoff,
  and pool-wide ``/metrics`` aggregation over a unix-socket side channel.

The CLI front-ends are ``repro train``, ``repro predict`` and
``repro serve``; see the README's Serving section for a quickstart.
:mod:`repro.streaming` builds the window-by-window online-classification
scenario on top of this stack (``repro stream``, NDJSON endpoint).
"""

from .batcher import BatcherStats, MicroBatcher, QueueFullError
from .metrics import Histogram, MetricFamily, merge_expositions, parse_exposition
from .pool import ServingPool
from .registry import ModelRecord, ModelRegistry, model_metadata, validate_reference
from .server import (
    PROTOCOL_PREPROCESSING,
    Prediction,
    PredictionServer,
    PredictionService,
    ServingError,
    StreamStats,
    build_service,
    create_server,
    prepare_panel,
)

__all__ = [
    "BatcherStats",
    "Histogram",
    "MicroBatcher",
    "Prediction",
    "QueueFullError",
    "ModelRecord",
    "ModelRegistry",
    "model_metadata",
    "validate_reference",
    "MetricFamily",
    "merge_expositions",
    "parse_exposition",
    "PredictionServer",
    "PredictionService",
    "ServingError",
    "ServingPool",
    "StreamStats",
    "build_service",
    "create_server",
    "prepare_panel",
    "PROTOCOL_PREPROCESSING",
]
