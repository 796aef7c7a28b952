"""Tracing: span lifecycle, propagation, flight recorder, and the wire.

Covers the tentpole's tracing half at three levels: the primitives
(spans, context propagation, the disabled fast path), the flight
recorder's retention rules, and the serving stack end to end — an HTTP
request producing a complete ``http.request → serve.predict →
batcher.*`` trace inspectable via ``GET /v1/debug/traces``.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.observability import FlightRecorder, Tracer, get_tracer
from repro.observability.trace import NOOP_SPAN, configure_tracing
from repro.serving import (
    ModelRegistry,
    PredictionService,
    create_server,
    model_metadata,
    prepare_panel,
)

PREDICT_KWARGS = dict(dataset="synthetic", preprocessing="znormalize+impute")


@pytest.fixture(scope="module")
def problem():
    X, y = make_classification_panel(
        n_series=40, n_channels=2, length=32, n_classes=2, difficulty=0.2,
        seed=0)
    return X, y


@pytest.fixture
def registry(tmp_path, problem):
    X, y = problem
    model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, "demo",
                     metadata=model_metadata(model, **PREDICT_KWARGS),
                     tags=("prod",))
    return registry


def tracer_with_recorder(**kwargs):
    """A fresh enabled tracer with its own recorder (test isolation)."""
    recorder = FlightRecorder(**kwargs)
    return Tracer(enabled=True, recorder=recorder), recorder


class TestSpanPrimitives:
    def test_nested_spans_share_a_trace_and_parent_correctly(self):
        tracer, recorder = tracer_with_recorder()
        with tracer.span("root") as root:
            with tracer.span("child", model="m") as child:
                assert child.context.trace_id == root.context.trace_id
        [entry] = recorder.snapshot()
        assert entry["root"] == "root"
        by_name = {s["name"]: s for s in entry["spans"]}
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert "parent_id" not in by_name["root"]
        assert by_name["child"]["attributes"] == {"model": "m"}

    def test_disabled_tracer_hands_out_the_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", model="m")
        assert span is NOOP_SPAN
        assert tracer.begin("other") is NOOP_SPAN
        assert span.context is None
        with span as entered:  # all no-ops, no state installed
            entered.set("key", "value")
            assert tracer.current() is None
        span.end(extra=1)

    def test_end_is_idempotent(self):
        tracer, recorder = tracer_with_recorder()
        handle = tracer.begin("root")
        handle.end()
        handle.end()
        assert recorder.stats()["completed"] == 1

    def test_exception_inside_span_records_error_attribute(self):
        tracer, recorder = tracer_with_recorder()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                raise RuntimeError("boom")
        [entry] = recorder.snapshot()
        assert entry["spans"][0]["attributes"]["error"] == "RuntimeError"

    def test_begin_does_not_install_ambient_context(self):
        tracer, _ = tracer_with_recorder()
        handle = tracer.begin("stream")
        assert tracer.current() is None  # explicit lifetime: no hijack
        handle.end()

    def test_use_context_reparents_and_restores(self):
        tracer, recorder = tracer_with_recorder()
        handle = tracer.begin("stream")
        with tracer.use_context(handle.context):
            assert tracer.current() == handle.context
            with tracer.span("window"):
                pass
        assert tracer.current() is None
        handle.end()
        [entry] = recorder.snapshot()
        by_name = {s["name"]: s for s in entry["spans"]}
        assert by_name["window"]["parent_id"] == by_name["stream"]["span_id"]

    def test_record_span_reconstructs_from_monotonic_stamps(self):
        tracer, recorder = tracer_with_recorder()
        root = tracer.begin("root")
        start = time.monotonic()
        end = start + 0.25
        tracer.record_span("queue", start=start, end=end,
                           parent=root.context, batch_size=4)
        root.end()
        [entry] = recorder.snapshot()
        queue = next(s for s in entry["spans"] if s["name"] == "queue")
        assert queue["duration_ms"] == pytest.approx(250.0, abs=1.0)
        assert queue["parent_id"] == root.context.span_id
        assert queue["attributes"] == {"batch_size": 4}

    def test_context_propagates_across_threads_by_hand(self):
        tracer, recorder = tracer_with_recorder()
        seen = {}

        with tracer.span("root") as root:
            ctx = tracer.current()

            def worker():
                # A raw thread does not inherit the contextvar ...
                seen["inherited"] = tracer.current()
                # ... but the captured context re-parents explicitly.
                now = time.monotonic()
                tracer.record_span("work", start=now - 0.01, end=now,
                                   parent=ctx)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["inherited"] is None
        [entry] = recorder.snapshot()
        by_name = {s["name"]: s for s in entry["spans"]}
        assert by_name["work"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["work"]["trace_id"] == root.context.trace_id

    def test_jsonl_export_writes_one_span_per_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(enabled=True, export_path=path)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tracer.close()
        lines = [json.loads(line)
                 for line in path.read_text().strip().splitlines()]
        assert [line["name"] for line in lines] == ["child", "root"]
        assert len({line["trace_id"] for line in lines}) == 1


class TestFlightRecorder:
    def _trace(self, recorder, tracer, duration):
        handle = tracer.begin("root")
        handle._start_mono -= duration  # backdate: deterministic duration
        handle.end()

    def test_recency_ring_evicts_oldest(self):
        tracer, recorder = tracer_with_recorder(capacity=3, slowest=0)
        for index in range(5):
            with tracer.span("root", index=index):
                pass
        entries = recorder.snapshot()
        assert len(entries) == 3
        # Newest first.
        indices = [e["spans"][0]["attributes"]["index"] for e in entries]
        assert indices == [4, 3, 2]
        assert recorder.stats()["completed"] == 5

    def test_slowest_shelf_outlives_the_ring(self):
        tracer, recorder = tracer_with_recorder(capacity=2, slowest=2)
        self._trace(recorder, tracer, 5.0)  # the spike
        for _ in range(10):
            self._trace(recorder, tracer, 0.001)
        slowest = recorder.snapshot(slowest=True)
        assert slowest[0]["duration_ms"] >= 5000.0
        # ... even though the recency ring has long forgotten it.
        recent = recorder.snapshot()
        assert all(e["duration_ms"] < 5000.0 for e in recent)

    def test_open_trace_cap_drops_oldest_wholesale(self):
        tracer, recorder = tracer_with_recorder(max_open=2)
        handles = [tracer.begin(name) for name in ("a", "b", "c")]
        now = time.monotonic()
        for handle in handles:
            # A child span opens staging state for its (unfinished) trace.
            tracer.record_span("child", start=now - 0.01, end=now,
                               parent=handle.context)
        assert recorder.stats()["open"] == 2  # trace "a" was evicted
        assert recorder.stats()["dropped_open"] == 1
        for handle in handles:
            handle.end()

    def test_snapshot_limit(self):
        tracer, recorder = tracer_with_recorder()
        for _ in range(4):
            with tracer.span("root"):
                pass
        assert len(recorder.snapshot(limit=2)) == 2


class TestConfigureTracing:
    def test_configure_toggles_the_default_in_place(self):
        tracer = get_tracer()
        assert configure_tracing(enabled=True, capacity=4) is tracer
        try:
            assert tracer.enabled
            assert tracer.recorder.capacity == 4
        finally:
            configure_tracing(enabled=False)
        assert not tracer.enabled


class TestServingTraces:
    def test_predict_produces_a_complete_stage_trace(self, registry, problem):
        X, _ = problem
        tracer, recorder = tracer_with_recorder()
        service = PredictionService(registry, tracer=tracer)
        try:
            service.predict("demo", X[:2])
        finally:
            service.close()
        [entry] = [e for e in recorder.snapshot()
                   if e["root"] == "serve.predict"]
        names = {s["name"] for s in entry["spans"]}
        assert {"serve.predict", "model.load", "batcher.queue",
                "batcher.assemble", "batcher.predict"} <= names
        root = next(s for s in entry["spans"]
                    if s["name"] == "serve.predict")
        assert root["attributes"]["model"] == "demo"
        assert root["attributes"]["instances"] == 2
        predict = next(s for s in entry["spans"]
                       if s["name"] == "batcher.predict")
        assert predict["attributes"]["batch_size"] >= 1
        # Every span belongs to the same trace, parented under the root.
        assert {s["trace_id"] for s in entry["spans"]} \
            == {entry["trace_id"]}

    def test_disabled_tracer_records_nothing(self, registry, problem):
        X, _ = problem
        recorder = FlightRecorder()
        service = PredictionService(
            registry, tracer=Tracer(enabled=False, recorder=recorder))
        try:
            service.predict("demo", X[:1])
        finally:
            service.close()
        assert recorder.stats()["completed"] == 0

    def test_debug_traces_endpoint_serves_the_recorder(self, registry,
                                                       problem):
        X, _ = problem
        tracer, recorder = tracer_with_recorder()
        server = create_server(registry, port=0, tracer=tracer)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            body = json.dumps({"series": X[0].tolist()}).encode()
            request = urllib.request.Request(
                f"{base}/v1/models/demo/predict", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
            # The predict's root span ends after its response is written,
            # so the recorder may complete its trace a moment later.
            deadline = time.monotonic() + 2.0
            while recorder.stats()["completed"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            with urllib.request.urlopen(
                    f"{base}/v1/debug/traces?limit=5") as response:
                payload = json.load(response)
            assert payload["enabled"] is True
            assert payload["stats"]["completed"] >= 1
            roots = [t["root"] for t in payload["traces"]]
            assert "http.request" in roots
            http_trace = next(t for t in payload["traces"]
                              if t["root"] == "http.request")
            names = {s["name"] for s in http_trace["spans"]}
            assert {"http.request", "serve.predict", "serialize"} <= names
            # The slowest view answers too.
            with urllib.request.urlopen(
                    f"{base}/v1/debug/traces?limit=1&slowest=1") as response:
                assert len(json.load(response)["traces"]) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_get_requests_are_not_traced(self, registry, problem):
        """Scrapes, health checks and trace polls leave the flight
        recorder to the requests worth tracing, and a GET served after a
        POST on one keep-alive connection leaves the POST's trace as it
        was."""
        X, _ = problem
        tracer, recorder = tracer_with_recorder()
        server = create_server(registry, port=0, tracer=tracer)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)

        def request(method, path, body=None):
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            return response.status

        try:
            for path in ("/metrics", "/healthz", "/v1/models",
                         "/v1/debug/traces"):
                assert request("GET", path) == 200
            assert recorder.stats()["completed"] == 0
            body = json.dumps({"series": X[0].tolist()}).encode()
            assert request("POST", "/v1/models/demo/predict", body) == 200
            # Same connection: the server reads this GET only after the
            # POST's handler, and with it the POST's root span, is done.
            assert request("GET", "/no/such/route") == 404
            assert recorder.stats()["completed"] == 1
            [trace] = recorder.snapshot()
            root = next(span for span in trace["spans"]
                        if span["name"] == "http.request")
            assert root["attributes"]["method"] == "POST"
            assert root["attributes"]["status"] == 200
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_debug_traces_reports_disabled_tracing(self, registry):
        server = create_server(registry, port=0,
                               tracer=Tracer(enabled=False))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.port}/v1/debug/traces"
            with urllib.request.urlopen(url) as response:
                payload = json.load(response)
            assert payload["enabled"] is False
            assert payload["traces"] == []
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_stage_histograms_populate_even_with_tracing_off(self, registry,
                                                             problem):
        """Per-stage latency histograms are service-level metrics, not
        trace artefacts: they must fill while the tracer stays off."""
        X, _ = problem
        service = PredictionService(registry, tracer=Tracer(enabled=False))
        try:
            service.predict("demo", X[:2])
            text = service.metrics_text()
        finally:
            service.close()
        for stage in ("queue_wait", "assemble", "predict"):
            needle = (f'repro_serving_stage_latency_seconds_count'
                      f'{{model="demo",version="1",stage="{stage}"}}')
            assert needle in text, f"missing stage sample: {stage}"
