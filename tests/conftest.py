"""Shared fixtures: small deterministic panels and datasets."""

import http.client
import json
import time

import numpy as np
import pytest

from repro.data import TimeSeriesDataset, make_classification_panel


def pytest_configure(config):
    """Register the scenario marker (no pytest.ini/pyproject to hold it)."""
    config.addinivalue_line(
        "markers",
        "scenario: end-to-end scenario-world replays through the full "
        "stream -> drift -> canary loop (seconds each; CI runs a smoke "
        "subset with `-m scenario`)",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_panel():
    """Balanced 2-class panel: (24, 3, 40)."""
    X, y = make_classification_panel(
        n_series=24, n_channels=3, length=40, n_classes=2, difficulty=0.3, seed=0
    )
    return X, y


@pytest.fixture
def imbalanced_dataset():
    """Imbalanced 3-class dataset (12/6/3 series)."""
    X, y = make_classification_panel(
        n_series=21, n_channels=2, length=32, n_classes=3,
        class_proportions=[12, 6, 3], seed=1,
    )
    return TimeSeriesDataset(X, y, name="fixture")


@pytest.fixture
def univariate_panel():
    X, y = make_classification_panel(
        n_series=16, n_channels=1, length=30, n_classes=2, seed=2
    )
    return X, y


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. array x (in place)."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = x[index]
        x[index] = original + eps
        f_plus = f()
        x[index] = original - eps
        f_minus = f()
        x[index] = original
        grad[index] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def keep_alive_p50_ms(port, path, payload, n=20):
    """Median round trip in ms of *n* sequential POSTs of *payload* to
    *path*, all on one keep-alive connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    body = json.dumps(payload)
    times = []
    try:
        for _ in range(n):
            start = time.perf_counter()
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            times.append((time.perf_counter() - start) * 1000)
            assert response.status == 200
    finally:
        conn.close()
    return float(np.median(times))
