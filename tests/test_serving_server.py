"""The HTTP prediction server, end to end over a real registry."""

import json
import threading
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
    ServingError,
    create_server,
    model_metadata,
    prepare_panel,
)

from conftest import keep_alive_p50_ms

PREDICT_KWARGS = dict(dataset="synthetic", preprocessing="znormalize+impute")


@pytest.fixture(scope="module")
def problem():
    X, y = make_classification_panel(
        n_series=40, n_channels=2, length=32, n_classes=2, difficulty=0.2, seed=0
    )
    return X, y


@pytest.fixture
def registry(tmp_path, problem):
    X, y = problem
    model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, "demo", metadata=model_metadata(model, **PREDICT_KWARGS),
                     tags=("prod",))
    return registry


@pytest.fixture
def server(registry):
    server = create_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(server, path):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}") as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestKeepAliveLatency:
    def test_sequential_predicts_on_one_connection_are_fast(self, server,
                                                            problem):
        """A lone request does not pay the client's delayed ACK (the
        response is two writes; with Nagle on, the body waits ~40 ms for
        the ACK of the headers)."""
        X, _ = problem
        p50 = keep_alive_p50_ms(server.port, "/v1/models/demo/predict",
                                {"series": X[0].tolist()})
        assert p50 < 20.0


class TestRoutes:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": 1}

    def test_healthz_sees_models_published_after_startup(self, server,
                                                         registry, problem):
        """/healthz is served from a memoised directory scan; the memo must
        still invalidate when a new model name appears."""
        X, y = problem
        for _ in range(3):  # repeated probes warm + hit the memo
            assert _get(server, "/healthz")[1]["models"] == 1
        model = RocketClassifier(num_kernels=60, seed=1).fit(prepare_panel(X), y)
        registry.publish(model, "late-arrival",
                         metadata=model_metadata(model, **PREDICT_KWARGS))
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": 2}

    def test_metrics_route_exists(self, server):
        import urllib.request

        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "repro_serving_loaded_models" in response.read().decode()

    def test_models_listing(self, server):
        status, body = _get(server, "/v1/models")
        assert status == 200
        (record,) = body["models"]
        assert record["name"] == "demo"
        assert record["version"] == 1
        assert record["n_versions"] == 1
        assert record["tags"] == ["prod"]
        assert record["metadata"]["input_shape"] == [2, 32]

    def test_unknown_routes_404(self, server):
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/v1/nope", {})[0] == 404
        assert _post(server, "/v1/models/demo/nope", {})[0] == 404

    def test_non_integer_traces_limit_is_400(self, server):
        status, body = _get(server, "/v1/debug/traces?limit=abc")
        assert status == 400
        assert "limit" in body["error"]
        assert _get(server, "/v1/debug/traces?limit=3")[0] == 200


class TestPredict:
    def test_single_series_label_matches_in_process(self, server, registry, problem):
        X, _ = problem
        model, _ = registry.load("demo")
        expected = model.predict(prepare_panel(X[:1]))[0]
        status, body = _post(server, "/v1/models/demo/predict",
                             {"series": X[0].tolist()})
        assert status == 200
        assert body == {"model": "demo", "version": 1, "label": int(expected)}

    def test_instances_match_in_process(self, server, registry, problem):
        X, _ = problem
        model, _ = registry.load("demo")
        expected = model.predict(prepare_panel(X[:6]))
        status, body = _post(server, "/v1/models/demo/predict",
                             {"instances": X[:6].tolist()})
        assert status == 200
        assert body["labels"] == [int(v) for v in expected]

    def test_version_and_tag_selection(self, server, problem):
        X, _ = problem
        for version in (1, "1", "prod"):
            status, body = _post(server, "/v1/models/demo/predict",
                                 {"series": X[0].tolist(), "version": version})
            assert status == 200
            assert body["version"] == 1

    def test_concurrent_clients_are_coalesced(self, server, registry, problem):
        X, _ = problem
        model, _ = registry.load("demo")
        expected = [int(v) for v in model.predict(prepare_panel(X))]

        def client(index):
            return _post(server, "/v1/models/demo/predict",
                         {"series": X[index].tolist()})

        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(client, range(len(X))))
        assert [body["label"] for _, body in replies] == expected
        # Labels must be right whatever batches the scheduler produced; the
        # deterministic coalescing assertions live in test_serving_batcher.
        stats = server.service._loaded[("demo", 1)][1].stats
        assert stats.requests == len(X)
        assert stats.batches <= stats.requests

    def test_unknown_model_404(self, server, problem):
        X, _ = problem
        status, body = _post(server, "/v1/models/ghost/predict",
                             {"series": X[0].tolist()})
        assert status == 404
        assert "ghost" in body["error"]

    def test_bad_requests_400(self, server, problem):
        X, _ = problem
        cases = [
            {},                                             # neither key
            {"series": X[0].tolist(), "instances": []},     # both keys
            {"series": [[[1.0]]]},                          # wrong rank
            {"series": np.ones((3, 32)).tolist()},          # wrong channels
        ]
        for payload in cases:
            status, body = _post(server, "/v1/models/demo/predict", payload)
            assert status == 400, payload
            assert "error" in body

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/models/demo/predict",
            data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestService:
    def test_service_is_usable_without_http(self, registry, problem):
        X, _ = problem
        model, _ = registry.load("demo")
        service = PredictionService(registry)
        try:
            result = service.predict("demo", X[:4])
            assert result["labels"] == [int(v) for v in model.predict(prepare_panel(X[:4]))]
        finally:
            service.close()

    def test_univariate_instances_get_one_label_each(self, tmp_path):
        """A list of flat univariate series is N requests, not one
        misread multivariate series."""
        X, y = make_classification_panel(
            n_series=30, n_channels=1, length=16, n_classes=2, seed=3
        )
        model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
        registry = ModelRegistry(tmp_path / "uni")
        registry.publish(model, "uni",
                         metadata=model_metadata(model, **PREDICT_KWARGS))
        service = PredictionService(registry)
        try:
            result = service.predict("uni", [X[0, 0].tolist(), X[1, 0].tolist()])
            expected = model.predict(prepare_panel(X[:2]))
            assert result["labels"] == [int(v) for v in expected]
            # a single flat series (list or 1-D array) is one request
            for single in (X[0, 0].tolist(), X[0, 0]):
                result = service.predict("uni", single)
                assert result["labels"] == [int(expected[0])]
        finally:
            service.close()

    def test_service_validates_rank(self, registry, problem):
        X, _ = problem
        service = PredictionService(registry)
        try:
            with pytest.raises(ServingError):
                service.predict("demo", X[0, 0])  # 1-D: not a series or panel
        finally:
            service.close()

    def test_stalled_prediction_times_out(self, registry, problem):
        import threading

        from repro.serving import MicroBatcher

        X, _ = problem
        service = PredictionService(registry, predict_timeout=0.1)
        try:
            service.predict("demo", X[:1])  # load the entry
            record, batcher = service._loaded[("demo", 1)]
            stall = threading.Event()

            def slow(panel):
                stall.wait(timeout=10)
                return [0] * len(panel)

            service._loaded[("demo", 1)] = (record, MicroBatcher(slow))
            with pytest.raises(ServingError) as excinfo:
                service.predict("demo", X[:1])
            assert excinfo.value.status == 503
            stall.set()
            batcher.close()
            service._loaded[("demo", 1)][1].close()
        finally:
            service.close()

    def test_models_loaded_once(self, registry, problem):
        X, _ = problem
        service = PredictionService(registry)
        try:
            service.predict("demo", X[:2])
            first = service._loaded[("demo", 1)][1]
            service.predict("demo", X[:2], version="prod")
            assert service._loaded[("demo", 1)][1] is first
            assert len(service._loaded) == 1
        finally:
            service.close()


class TestNaNAdmission:
    def test_nan_series_imputed_for_protocol_models(self, server, problem):
        """A model published with protocol preprocessing imputes NaN, so a
        NaN request must still be served (the archive models missingness)."""
        X, _ = problem
        series = X[0].copy()
        series[0, -4:] = np.nan
        status, body = _post(server, "/v1/models/demo/predict",
                             {"series": np.where(np.isnan(series), None,
                                                 series).tolist()})
        assert status == 200
        assert "label" in body

    def test_inf_series_rejected_with_400(self, server, problem):
        """Imputation cannot fix Inf; it is refused at admission so it can
        never poison a coalesced batch."""
        X, _ = problem
        series = X[0].tolist()
        series[0][0] = 1e400  # json serialises as Infinity
        status, body = _post(server, "/v1/models/demo/predict",
                             {"series": series})
        assert status == 400
        assert "infinite" in body["error"]
