"""Load-hardening of the serving runtime: backpressure, admission
control, model lifecycle, /metrics and shutdown semantics."""

import io
import json
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import (
    ModelRegistry,
    PredictionService,
    QueueFullError,
    ServingError,
    create_server,
    model_metadata,
    prepare_panel,
)
from repro.serving.server import _Handler

PREDICT_KWARGS = dict(dataset="synthetic", preprocessing="znormalize+impute")


@pytest.fixture(scope="module")
def problem():
    X, y = make_classification_panel(
        n_series=40, n_channels=2, length=32, n_classes=2, difficulty=0.2, seed=0
    )
    return X, y


@pytest.fixture(scope="module")
def fitted(problem):
    X, y = problem
    return RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)


@pytest.fixture
def registry(tmp_path, fitted):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(fitted, "demo",
                     metadata=model_metadata(fitted, **PREDICT_KWARGS))
    return registry


def _serve(request, registry, **kwargs):
    server = create_server(registry, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    request.addfinalizer(stop)
    return server


def _post(server, path, payload, raw: bytes | None = None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=raw if raw is not None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), error.headers


def _get(server, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}") as response:
        return response.status, response.read().decode()


def _sample(metrics_text: str, name: str, **labels) -> float:
    """Extract one sample value from an exposition-format dump."""
    fragment = ",".join(f'{key}="{value}"' for key, value in labels.items())
    pattern = re.compile(rf"^{re.escape(name)}\{{{re.escape(fragment)}\}} (\S+)$",
                         re.MULTILINE)
    match = pattern.search(metrics_text)
    assert match, f"no sample {name}{{{fragment}}} in:\n{metrics_text}"
    return float(match.group(1))


class TestBackpressure:
    def test_full_queue_replies_429_with_retry_after(self, request, registry,
                                                     problem):
        X, _ = problem
        server = _serve(request, registry, max_queue=1, max_batch=1)
        # Preload, then make the model slow so we can hold the queue full.
        _post(server, "/v1/models/demo/predict", {"series": X[0].tolist()})
        _, batcher = server.service._loaded[("demo", 1)]
        real, entered, release = batcher._predict_fn, threading.Event(), threading.Event()

        def gated(panel):
            entered.set()
            release.wait(timeout=10)
            return real(panel)

        batcher._predict_fn = gated
        payload = {"series": X[0].tolist()}
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            # First request occupies the single worker inside predict...
            first = pool.submit(_post, server, "/v1/models/demo/predict", payload)
            assert entered.wait(timeout=10)
            # ...second fills the queue (depth 1 = max_queue)...
            second = pool.submit(_post, server, "/v1/models/demo/predict", payload)
            for _ in range(500):
                if batcher.queue_depth >= 1:
                    break
                time.sleep(0.01)
            assert batcher.queue_depth >= 1
            # ...third must be shed immediately.
            status, body, headers = _post(server, "/v1/models/demo/predict",
                                          payload)
            assert status == 429
            assert "queue is full" in body["error"]
            assert headers["Retry-After"] == "1"
        finally:
            release.set()
            pool.shutdown(wait=True)
        assert first.result(timeout=10)[0] == 200
        assert second.result(timeout=10)[0] == 200
        assert batcher.stats.rejected == 1

    def test_queue_full_error_is_429_at_service_level(self, registry, problem):
        X, _ = problem
        service = PredictionService(registry, max_queue=1, max_batch=1)
        try:
            service.predict("demo", X[:1])
            _, batcher = service._loaded[("demo", 1)]
            real = batcher._predict_fn
            entered, release = threading.Event(), threading.Event()

            def gated(panel):
                entered.set()
                release.wait(timeout=10)
                return real(panel)

            batcher._predict_fn = gated
            with ThreadPoolExecutor(max_workers=2) as pool:
                # One request occupies the worker, one fills the queue —
                # sequenced with events so the overflow is deterministic.
                first = pool.submit(service.predict, "demo", X[:1])
                assert entered.wait(timeout=10)
                second = pool.submit(service.predict, "demo", X[:1])
                for _ in range(500):
                    if batcher.queue_depth >= 1:
                        break
                    time.sleep(0.01)
                assert batcher.queue_depth >= 1
                with pytest.raises(ServingError) as excinfo:
                    service.predict("demo", X[:1])
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after == 1
                release.set()
                first.result(timeout=10)
                second.result(timeout=10)
        finally:
            service.close()

    def test_oversized_body_is_413_before_reading(self, request, registry,
                                                  problem):
        X, _ = problem
        server = _serve(request, registry, max_body_bytes=512)
        status, body, _ = _post(server, "/v1/models/demo/predict", None,
                                raw=b"x" * 2048)
        assert status == 413
        assert "512" in body["error"]
        # The server stays healthy on a fresh connection: a small (if
        # malformed) body is processed normally, not refused.
        status, body, _ = _post(server, "/v1/models/demo/predict",
                                {"series": [[1.0, 2.0]]})
        assert status == 400
        assert "shape" in body["error"]

    def test_oversized_stream_is_413_and_closes_at_once(self, request,
                                                         registry):
        """A stream body past the cap is drained by the admission check
        itself, so its refusal closes the connection at once: a refusal
        that drained the body a second time would wait for bytes that
        never come, and this client, which reads until the server
        closes, would time out."""
        import socket

        server = _serve(request, registry, max_body_bytes=512)
        body = b'{"values": [0.0, 0.0]}\n' * 200
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/models/demo/stream HTTP/1.1\r\n"
                         b"Host: test\r\nContent-Length: %d\r\n\r\n"
                         % len(body) + body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"413", reply
        assert b"connection: close" in head.lower()
        assert "512" in json.loads(payload)["error"]

    @pytest.mark.parametrize("route", ["predict", "stream"])
    def test_malformed_content_length_is_400(self, request, registry, route):
        """A Content-Length that is not an integer is the client's error:
        both body-reading routes answer 400 with the same message."""
        import socket

        server = _serve(request, registry)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(
                f"POST /v1/models/demo/{route} HTTP/1.1\r\n".encode()
                + b"Host: test\r\nConnection: close\r\n"
                b"Content-Length: abc\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", reply
        assert json.loads(body)["error"] == "malformed Content-Length: 'abc'"


class TestModelLifecycle:
    def _two_model_registry(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted, "alpha",
                         metadata=model_metadata(fitted, **PREDICT_KWARGS))
        registry.publish(fitted, "beta",
                         metadata=model_metadata(fitted, **PREDICT_KWARGS))
        return registry

    def test_lru_eviction_keeps_serving_after_reload(self, tmp_path, fitted,
                                                     problem):
        X, _ = problem
        registry = self._two_model_registry(tmp_path, fitted)
        service = PredictionService(registry, max_loaded_models=1)
        try:
            expected = service.predict("alpha", X[:2])["labels"]
            assert set(service._loaded) == {("alpha", 1)}
            service.predict("beta", X[:2])
            assert set(service._loaded) == {("beta", 1)}  # alpha evicted
            evicted_stats = service._stats[("alpha", 1)]
            # The evicted model still serves: it reloads transparently.
            assert service.predict("alpha", X[:2])["labels"] == expected
            assert set(service._loaded) == {("alpha", 1)}
            # Counters survived the eviction/reload cycle.
            assert service._stats[("alpha", 1)] is evicted_stats
            assert evicted_stats.requests == 4
        finally:
            service.close()

    def test_lru_order_is_recency_not_insertion(self, tmp_path, fitted, problem):
        X, _ = problem
        registry = self._two_model_registry(tmp_path, fitted)
        registry.publish(fitted, "gamma",
                         metadata=model_metadata(fitted, **PREDICT_KWARGS))
        service = PredictionService(registry, max_loaded_models=2)
        try:
            service.predict("alpha", X[:1])
            service.predict("beta", X[:1])
            service.predict("alpha", X[:1])  # alpha is now most recent
            service.predict("gamma", X[:1])  # must evict beta, not alpha
            assert set(service._loaded) == {("alpha", 1), ("gamma", 1)}
        finally:
            service.close()

    def test_eviction_mid_request_self_heals(self, registry, problem):
        """A batcher closed between _resolve and submit (the eviction race)
        must answer the request by reloading, never raise bare RuntimeError."""
        X, _ = problem
        service = PredictionService(registry)
        try:
            expected = service.predict("demo", X[:1])["labels"]
            _, batcher = service._loaded[("demo", 1)]
            batcher.close()  # simulate the LRU closing it under us
            result = service.predict("demo", X[:1])
            assert result["labels"] == expected
            assert service._loaded[("demo", 1)][1] is not batcher
        finally:
            service.close()

    def test_close_during_predict_maps_to_503(self, registry, problem):
        """Concurrent close() + predict(): every outcome is a result or a
        ServingError — a bare RuntimeError 500 is the bug this guards."""
        X, _ = problem
        service = PredictionService(registry, drain_timeout=5.0)
        service.predict("demo", X[:1])  # warm the cache
        outcomes = []

        def client():
            try:
                outcomes.append(service.predict("demo", X[:1])["labels"])
            except ServingError as error:
                outcomes.append(error.status)
            except BaseException as error:  # noqa: BLE001 - the regression
                outcomes.append(error)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        service.close()
        for thread in threads:
            thread.join(timeout=10)
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert isinstance(outcome, list) or outcome == 503, outcome

    def test_predict_after_close_is_503(self, registry, problem):
        X, _ = problem
        service = PredictionService(registry)
        service.close()
        with pytest.raises(ServingError) as excinfo:
            service.predict("demo", X[:1])
        assert excinfo.value.status == 503

    def test_close_clears_loading_locks_and_drains(self, registry, problem):
        X, _ = problem
        service = PredictionService(registry)
        service.predict("demo", X[:1])
        assert service._loading
        service.close()
        assert service._loading == {}
        assert service._loaded == {}

    def test_server_close_drains_in_flight_requests(self, request, registry,
                                                    problem):
        X, _ = problem
        server = _serve(request, registry)
        _post(server, "/v1/models/demo/predict", {"series": X[0].tolist()})
        _, batcher = server.service._loaded[("demo", 1)]
        real, entered, release = batcher._predict_fn, threading.Event(), threading.Event()

        def gated(panel):
            entered.set()
            release.wait(timeout=10)
            return real(panel)

        batcher._predict_fn = gated
        with ThreadPoolExecutor(max_workers=1) as pool:
            in_flight = pool.submit(_post, server, "/v1/models/demo/predict",
                                    {"series": X[0].tolist()})
            assert entered.wait(timeout=10)
            closer = threading.Thread(
                target=lambda: (server.shutdown(), server.server_close()))
            closer.start()
            release.set()
            closer.join(timeout=10)
            assert not closer.is_alive()
            status, body, _ = in_flight.result(timeout=10)
        # The admitted request was answered, not abandoned, by shutdown.
        assert status == 200
        assert "label" in body


class TestMetricsEndpoint:
    def test_metrics_after_burst(self, request, registry, problem):
        X, _ = problem
        server = _serve(request, registry)
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(
                lambda series: _post(server, "/v1/models/demo/predict",
                                     {"series": series.tolist()}),
                X[:20]))
        assert all(status == 200 for status, _, _ in replies)
        status, text = _get(server, "/metrics")
        assert status == 200
        labels = dict(model="demo", version="1")
        assert _sample(text, "repro_serving_requests_total", **labels) == 20
        assert _sample(text, "repro_serving_request_latency_seconds_count",
                       **labels) == 20
        assert _sample(text, "repro_serving_batch_size_sum", **labels) == 20
        assert _sample(text, "repro_serving_batch_size_bucket",
                       **labels, le="+Inf") \
            == _sample(text, "repro_serving_batches_total", **labels)
        assert _sample(text, "repro_serving_queue_depth", **labels) == 0
        assert _sample(text, "repro_serving_rejected_total", **labels) == 0
        assert "repro_serving_loaded_models 1" in text
        assert _sample(text, "repro_serving_http_responses_total",
                       status="200") == 20

    def test_metrics_count_rejections(self, request, registry, problem):
        X, _ = problem
        server = _serve(request, registry, max_queue=1, max_batch=1)
        _post(server, "/v1/models/demo/predict", {"series": X[0].tolist()})
        _, batcher = server.service._loaded[("demo", 1)]
        release = threading.Event()
        real = batcher._predict_fn
        batcher._predict_fn = \
            lambda panel: (release.wait(10), real(panel))[1]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_post, server, "/v1/models/demo/predict",
                                   {"series": X[0].tolist()})
                       for _ in range(6)]
            release.set()
            statuses = [future.result(timeout=10)[0] for future in futures]
        rejected = statuses.count(429)
        _, text = _get(server, "/metrics")
        assert _sample(text, "repro_serving_rejected_total",
                       model="demo", version="1") == rejected
        if rejected:
            assert _sample(text, "repro_serving_http_responses_total",
                           status="429") == rejected

    def test_metrics_on_idle_server_is_valid(self, request, registry):
        server = _serve(request, registry)
        status, text = _get(server, "/metrics")
        assert status == 200
        assert "repro_serving_loaded_models 0" in text
        # Families with no series yet simply have no samples.
        assert "repro_serving_requests_total{" not in text


class TestHandlerDisconnects:
    def _fake_handler(self, broken_writer):
        class _Stub:
            disconnects = []

            @staticmethod
            def record_response(status):
                _Stub.last = status

            @staticmethod
            def record_client_disconnect(**info):
                _Stub.disconnects.append(info)

        handler = _Handler.__new__(_Handler)
        handler.service = _Stub
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /v1/models/demo/predict HTTP/1.1"
        handler.client_address = ("127.0.0.1", 9999)
        handler.command = "POST"
        handler.path = "/v1/models/demo/predict"
        handler.close_connection = False
        handler.wfile = broken_writer
        return handler, _Stub

    def test_reply_swallows_broken_pipe(self):
        class BrokenWriter(io.RawIOBase):
            def write(self, data):
                raise BrokenPipeError("client went away")

        handler, stub = self._fake_handler(BrokenWriter())
        handler._reply(200, {"ok": True})  # must not raise
        assert handler.close_connection is True
        assert stub.last == 200  # the response still counts in /metrics
        assert stub.disconnects[-1]["error"] == "BrokenPipeError"
        assert stub.disconnects[-1]["status"] == 200

    def test_reply_swallows_connection_reset(self):
        class ResetWriter(io.RawIOBase):
            def write(self, data):
                raise ConnectionResetError("reset by peer")

        handler, _ = self._fake_handler(ResetWriter())
        handler._reply(500, {"error": "x"})
        assert handler.close_connection is True

    def test_disconnect_mid_request_leaves_server_healthy(self, request,
                                                          registry, problem,
                                                          capfd):
        import socket

        X, _ = problem
        server = _serve(request, registry)
        body = json.dumps({"series": X[0].tolist()}).encode()
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(
                b"POST /v1/models/demo/predict HTTP/1.1\r\n"
                b"Host: test\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
            # Hang up without reading the response.
        status, _, _ = _post(server, "/v1/models/demo/predict",
                             {"series": X[0].tolist()})
        assert status == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_reset_between_requests_is_no_server_error(self, request,
                                                       registry, capfd):
        """A client may reset a keep-alive connection while it idles
        between requests (closing with a reply unread does that).  The
        client has hung up: the connection ends without a traceback,
        and the server keeps serving."""
        import socket
        import struct

        server = _serve(request, registry)
        before = set(threading.enumerate())
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            reply = sock.makefile("rb")
            length = next(int(line.split(b":")[1])
                          for line in iter(reply.readline, b"\r\n")
                          if line.lower().startswith(b"content-length:"))
            reply.read(length)  # whole reply read: the server idles
            reply.close()
            # Linger 0 makes the close a reset.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        for thread in set(threading.enumerate()) - before:
            if "process_request" in thread.name:
                thread.join(timeout=10)
        status, body, _ = _post(server, "/v1/models/demo/predict",
                                {"series": [[1.0, 2.0]]})
        assert status == 400  # answered, not hung
        assert "Traceback" not in capfd.readouterr().err


class TestServeFlags:
    def test_create_server_wires_the_knobs_through(self, registry):
        server = create_server(registry, port=0, max_queue=7,
                               max_loaded_models=3, max_body_bytes=123,
                               access_log=True)
        try:
            assert server.service.max_queue == 7
            assert server.service.max_loaded_models == 3
            assert server.RequestHandlerClass.max_body_bytes == 123
            assert server.RequestHandlerClass.access_log is True
        finally:
            server.server_close()

    def test_queue_full_error_importable_contract(self):
        assert issubclass(QueueFullError, RuntimeError)
