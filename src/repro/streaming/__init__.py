"""Streaming inference: score a live sample stream window by window.

The batch serving stack (:mod:`repro.serving`) answers "classify this
series"; this package answers the deployment shape that question usually
arrives in — a continuous multivariate stream scored as data flows:

* :mod:`repro.streaming.sources` — the :class:`StreamSource` protocol
  with a dataset-replay source and a generator-driven synthetic source
  (including mid-stream concept shift by prototype swap);
* :mod:`repro.streaming.scorer` — a ring-buffer sliding windower and the
  :class:`StreamScorer`, which pipelines completed windows through the
  serving runtime's micro-batcher so streaming and batch traffic share
  backpressure, metrics and the LRU model lifecycle;
* :mod:`repro.streaming.drift` — a fast-vs-slow EWMA drift monitor
  flagging concept shifts from accuracy (when truth labels ride along)
  and from the model's top-1 confidence (every served window carries
  one);
* :mod:`repro.streaming.session` — durable stream sessions: resume
  tokens, the versioned snapshot/restore codec, and the bounded
  server-side :class:`SessionStore` (the worker pool replicates its
  blobs across processes);
* :mod:`repro.streaming.client` — the stdlib chunked-NDJSON client for
  the server's ``POST /v1/models/<name>/stream`` endpoint, plus the
  auto-resuming :func:`stream_session` wrapper.

:mod:`repro.adaptation` closes the loop on the drift flags this package
raises (retrain → canary → promote).  The CLI front-end is ``repro
stream``; wire format: ``docs/http-api.md``.
"""

from .drift import DriftMonitor, DriftState
from .scorer import SlidingWindower, StreamScorer, WindowResult, expected_windows
from .session import (
    CODEC_VERSION,
    SessionError,
    SessionStore,
    StreamSession,
    rendezvous_slot,
)
from .sources import (
    GapSource,
    LabelNoiseSource,
    RaggedSource,
    ReplaySource,
    StreamSample,
    StreamSource,
    SyntheticSource,
)
from .client import StreamRequestError, stream_session, stream_windows

__all__ = [
    "CODEC_VERSION",
    "DriftMonitor",
    "DriftState",
    "GapSource",
    "LabelNoiseSource",
    "RaggedSource",
    "ReplaySource",
    "SessionError",
    "SessionStore",
    "SlidingWindower",
    "StreamRequestError",
    "StreamSample",
    "StreamScorer",
    "StreamSession",
    "StreamSource",
    "SyntheticSource",
    "WindowResult",
    "expected_windows",
    "rendezvous_slot",
    "stream_session",
    "stream_windows",
]
