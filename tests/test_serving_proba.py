"""Probabilities on the wire: service fields, futures, HTTP.

The agreement contract (``argmax(predict_proba) == predict``) is swept
per classifier family in ``test_cls_contract.py``; here the serving
layers are checked to *carry* those probabilities faithfully — through
the service's ``return_proba`` reply shape, its submit futures, the HTTP
predict body flag and the NDJSON stream's confidence fields.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import (
    ModelRegistry,
    Prediction,
    PredictionService,
    create_server,
    model_metadata,
    prepare_panel,
)
from repro.streaming import stream_windows

WINDOW = 32


@pytest.fixture(scope="module")
def problem():
    X, y = make_classification_panel(
        n_series=40, n_channels=2, length=WINDOW, n_classes=3,
        difficulty=0.2, seed=0,
    )
    return X, y


@pytest.fixture(scope="module")
def model(problem):
    X, y = problem
    return RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)


@pytest.fixture
def registry(tmp_path, problem, model):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, "demo", metadata=model_metadata(
        model, dataset="synthetic", preprocessing="znormalize+impute"))
    return registry


@pytest.fixture
def service(registry):
    service = PredictionService(registry, max_queue=256)
    yield service
    service.close()


class TestServiceProba:
    def test_predict_return_proba_fields(self, service, problem, model):
        X, _ = problem
        out = service.predict("demo", X[:5], return_proba=True)
        assert out["classes"] == [int(c) for c in model.classes_]
        assert len(out["probas"]) == len(out["labels"]) == 5
        assert len(out["confidences"]) == 5
        for label, proba, confidence in zip(out["labels"], out["probas"],
                                            out["confidences"]):
            assert confidence == pytest.approx(max(proba))
            assert out["classes"][int(np.argmax(proba))] == label
            assert sum(proba) == pytest.approx(1.0)
        # The labels equal the plain path's labels exactly.
        assert out["labels"] == service.predict("demo", X[:5])["labels"]

    def test_plain_predict_is_scored_through_predict_proba(
            self, service, problem, model, monkeypatch):
        """One prediction path: the model's label-only predict is never
        called, and the proba flag changes the reply, not the labels."""
        X, _ = problem

        def refuse(self, panel):
            raise AssertionError("served through model.predict")

        monkeypatch.setattr(type(model), "predict", refuse)
        plain = service.predict("demo", X[:5])
        full = service.predict("demo", X[:5], return_proba=True)
        assert plain["labels"] == full["labels"] == [
            full["classes"][int(np.argmax(p))] for p in full["probas"]]

    def test_submit_return_proba_futures(self, service, problem):
        """A plain submit's futures resolve to Predictions: the label and
        probability row the predict reply carries for the same series."""
        X, _ = problem
        record, futures = service.submit("demo", X[:3])
        results = [future.result(timeout=10) for future in futures]
        assert all(isinstance(result, Prediction) for result in results)
        reply = service.predict("demo", X[:3], return_proba=True)
        assert [result.label for result in results] == reply["labels"]
        assert [list(result.proba) for result in results] == reply["probas"]


class TestHTTPProba:
    @pytest.fixture
    def server(self, registry):
        server = create_server(registry, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def _post(self, server, path, payload):
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

    def test_single_series_proba(self, server, problem):
        X, _ = problem
        status, body = self._post(
            server, "/v1/models/demo/predict",
            {"series": X[0].tolist(), "proba": True})
        assert status == 200
        assert body["confidence"] == pytest.approx(max(body["proba"]))
        assert body["classes"][int(np.argmax(body["proba"]))] == body["label"]
        assert "labels" not in body and "probas" not in body

    def test_instances_probas(self, server, problem):
        X, _ = problem
        status, body = self._post(
            server, "/v1/models/demo/predict",
            {"instances": [series.tolist() for series in X[:3]],
             "proba": True})
        assert status == 200
        assert len(body["probas"]) == len(body["labels"]) == 3
        assert body["confidences"] == [pytest.approx(max(p))
                                       for p in body["probas"]]

    def test_plain_request_has_no_proba_fields(self, server, problem):
        X, _ = problem
        status, body = self._post(server, "/v1/models/demo/predict",
                                  {"series": X[0].tolist()})
        assert status == 200
        assert "proba" not in body and "confidence" not in body

    def test_stream_lines_carry_confidence(self, server, problem):
        X, y = problem

        def samples():
            for series, label in zip(X[:4], y[:4]):
                for step in range(series.shape[1]):
                    yield (series[:, step], int(label))

        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     samples(), window=WINDOW))
        windows = [e for e in events if e["kind"] == "window"]
        assert len(windows) == 4
        assert all(0.0 <= e["confidence"] <= 1.0 for e in windows)
        assert all("proba" not in e for e in windows)  # opt-in only
        assert all("confidence_fast" in e["drift"] for e in windows)

    def test_stream_proba_opt_in_and_metrics(self, server, problem):
        X, y = problem

        def samples():
            for series in X[:3]:
                for step in range(series.shape[1]):
                    yield series[:, step]

        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     samples(), window=WINDOW, proba=True))
        windows = [e for e in events if e["kind"] == "window"]
        assert windows and all(len(e["proba"]) == 3 for e in windows)
        for event in windows:
            assert event["confidence"] == pytest.approx(max(event["proba"]),
                                                        abs=1e-3)
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics") as response:
            text = response.read().decode()
        assert "repro_serving_stream_confidence_bucket" in text
        assert 'repro_serving_stream_confidence_count{model="demo",version="1"}' \
            in text
