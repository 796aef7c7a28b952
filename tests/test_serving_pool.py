"""The pre-fork worker pool, end to end: load balancing, cross-worker
metrics aggregation, respawn under load, promotion propagation, graceful
drain, and the stream-client early-close regression."""

import http.client
import json
import os
import signal
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data.generators import MTSGenerator
from repro.serving import (
    ModelRegistry,
    ServingPool,
    merge_expositions,
    model_metadata,
    parse_exposition,
    prepare_panel,
)
from repro.serving.pool import _build_pool_session_store, _scrape, _SideChannel
from repro.streaming import stream_windows
from repro.streaming.session import SessionError, SessionStore

from conftest import keep_alive_p50_ms

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker pool is fork-based")

WINDOW = 32


@pytest.fixture(scope="module")
def generator():
    return MTSGenerator(n_channels=2, length=WINDOW, n_classes=2,
                        difficulty=0.15, seed=0)


@pytest.fixture(scope="module")
def trained(generator):
    X, y = generator.sample(np.array([30, 30]), np.random.default_rng(1))
    model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
    return model, X


@pytest.fixture()
def registry(tmp_path, trained):
    model, _X = trained
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, "demo", metadata=model_metadata(
        model, dataset="synthetic", preprocessing="znormalize+impute"),
        tags=("prod",))
    return registry


@pytest.fixture()
def pool(registry):
    pool = ServingPool(registry.root, workers=2, port=0, drain_timeout=5.0)
    pool.start()
    yield pool
    pool.close()


def _request(port, method, path, body=None, timeout=15.0):
    """One HTTP round trip on a fresh connection; returns
    ``(status, parsed_or_text, worker_header)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"}
                     if payload else {})
        response = conn.getresponse()
        raw = response.read()
        worker = response.getheader("X-Worker")
        content = response.getheader("Content-Type") or ""
        data = json.loads(raw) if content.startswith("application/json") \
            else raw.decode()
        return response.status, data, worker
    finally:
        conn.close()


def _predict(port, series, retries=3):
    """Predict with bounded retry on connection-level failures — the
    client policy the respawn-under-load guarantee is stated for."""
    return _predict_body(port, {"series": series}, retries)


def _predict_body(port, body, retries=3):
    """:func:`_predict` with a full request body (a pinned version)."""
    last = None
    for _ in range(retries):
        try:
            return _request(port, "POST", "/v1/models/demo/predict", body)
        except (OSError, http.client.HTTPException) as error:
            # A SIGKILL can tear a response after its headers
            # (IncompleteRead), which is retried like a reset.
            last = error
            time.sleep(0.05)
    raise last


def _metric_value(text, name, **labels):
    """The value of *name* with exactly *labels* in an exposition dump."""
    for family in parse_exposition(text):
        for sample_name, sample_labels, value in family.samples:
            if sample_name == name and sample_labels == labels:
                return value
    return None


class TestPoolServing:
    def test_requests_spread_and_metrics_sum(self, pool, trained):
        """Counters aggregated over the pool equal the client-side count."""
        _model, X = trained
        series = X[0].tolist()
        workers_seen = set()
        n_requests = 40
        for _ in range(n_requests):
            status, data, worker = _predict(pool.port, series)
            assert status == 200
            assert data["model"] == "demo"
            workers_seen.add(worker)
        assert workers_seen == {"0", "1"}, \
            "kernel load balancing should exercise both workers"
        status, text, _ = _request(pool.port, "GET", "/metrics")
        assert status == 200
        assert _metric_value(text, "repro_serving_requests_total",
                             model="demo", version="1") == n_requests
        # Gauges are per-worker, labelled, never summed.
        for slot in ("0", "1"):
            assert _metric_value(text, "repro_serving_loaded_models",
                                 worker=slot) == 1
            assert _metric_value(text, "repro_pool_worker_up",
                                 worker=slot) == 1
        assert _metric_value(text, "repro_pool_workers") == 2
        assert _metric_value(text, "repro_pool_respawns_total") == 0

    def test_sequential_keep_alive_predicts_are_fast(self, pool, trained):
        """Pool workers inherit the handler's Nagle switch: twenty
        back-to-back predicts on one connection never wait on the
        client's delayed ACK."""
        _model, X = trained
        p50 = keep_alive_p50_ms(pool.port, "/v1/models/demo/predict",
                                {"series": X[0].tolist()})
        assert p50 < 20.0

    def test_healthz_reports_pool_state(self, pool):
        status, payload, worker = _request(pool.port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["worker"] == int(worker)
        assert payload["pool"]["workers"] == 2
        assert payload["pool"]["alive"] == 2
        assert payload["pool"]["degraded"] is False
        assert set(payload["pool"]["slots"]) == {"0", "1"}

    def test_promotion_visible_on_every_worker(self, pool, registry,
                                               trained):
        """A cross-process tag move (canary promotion) is visible to every
        worker on its next resolution — no pool plumbing, no restart."""
        model, X = trained
        body = {"series": X[0].tolist(), "version": "prod"}
        registry.publish(model, "demo", metadata={"note": "canary"})
        status, data, _ = _predict_body(pool.port, body)
        assert status == 200 and data["version"] == 1, \
            "prod still points at v1"
        registry.tag("demo", 2, "prod")  # the promotion
        deadline = time.monotonic() + 2.0
        promoted = set()
        while time.monotonic() < deadline and promoted != {"0", "1"}:
            status, data, worker = _predict_body(pool.port, body)
            assert status == 200
            if data["version"] == 2:
                promoted.add(worker)
        assert promoted == {"0", "1"}, \
            f"promotion not visible on all workers: {promoted}"


class TestRespawnUnderLoad:
    def test_killed_worker_respawns_with_bounded_client_impact(
            self, pool, trained):
        """SIGKILL one worker mid-burst: the retry-once client sees only
        200/429, the supervisor respawns the slot, and the pool reports
        the respawn in /metrics."""
        _model, X = trained
        series = X[0].tolist()
        statuses = []
        failures = []
        stop = threading.Event()

        def _burst():
            while not stop.is_set():
                try:
                    status, _, _ = _predict(pool.port, series)
                    statuses.append(status)
                except (OSError, http.client.HTTPException) as error:
                    failures.append(error)  # pragma: no cover - fails below

        threads = [threading.Thread(target=_burst) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.3)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if pool.respawns >= 1 and pool.alive_workers() == [0, 1] \
                        and pool.worker_pids()[0] != victim:
                    break
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)
        assert not failures, f"requests failed past retries: {failures!r}"
        assert pool.respawns >= 1
        assert pool.alive_workers() == [0, 1]
        assert pool.worker_pids()[0] != victim
        assert statuses, "the burst sent no requests at all"
        assert set(statuses) <= {200, 429}, \
            f"unexpected statuses: {sorted(set(statuses))}"
        # Give the respawned worker a beat to come up, then scrape.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            status, text, _ = _request(pool.port, "GET", "/metrics")
            if status == 200 and _metric_value(
                    text, "repro_pool_respawns_total") >= 1 \
                    and _metric_value(text, "repro_pool_worker_up",
                                      worker="0") == 1:
                break
            time.sleep(0.1)
        assert _metric_value(text, "repro_pool_respawns_total") >= 1
        assert _metric_value(text, "repro_pool_workers_alive") == 2


class TestGracefulStop:
    def test_stop_drains_and_reaps_every_worker(self, registry):
        pool = ServingPool(registry.root, workers=2, port=0,
                           drain_timeout=5.0)
        pool.start()
        try:
            pids = list(pool.worker_pids().values())
            assert len(pids) == 2
            pool.stop()
            assert pool.wait(timeout=10.0), "pool did not drain in time"
            assert pool.alive_workers() == []
            for pid in pids:
                # Reaped by the supervisor, gone from the process table.
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            pool.close()
        assert not os.path.exists(os.path.join(pool.pool_dir or "",
                                               "pool.json"))

    def test_fallback_listener_mode_serves(self, registry, trained):
        """The bind-then-fork strategy (no SO_REUSEPORT) serves requests
        and still aggregates metrics across workers."""
        _model, X = trained
        pool = ServingPool(registry.root, workers=2, port=0,
                           reuse_port=False, drain_timeout=5.0)
        pool.start()
        try:
            for _ in range(10):
                status, data, _ = _predict(pool.port, X[0].tolist())
                assert status == 200
                assert data["model"] == "demo"
            status, text, _ = _request(pool.port, "GET", "/metrics")
            assert status == 200
            assert _metric_value(text, "repro_serving_requests_total",
                                 model="demo", version="1") == 10
            for slot in ("0", "1"):
                assert _metric_value(text, "repro_pool_worker_up",
                                     worker=slot) == 1
        finally:
            pool.close()


class TestStreamClientEarlyClose:
    def test_early_close_returns_quickly(self, pool, generator):
        """Closing the stream generator after one window must not hang
        for the request timeout while the sender pushes a slow stream."""
        rng = np.random.default_rng(5)
        fast = [rng.normal(size=2).tolist() for _ in range(WINDOW + 8)]

        def samples():
            # Enough unpaced samples to resolve the first window fast,
            # then a slow drip a pre-fix client would wait out in
            # sender.join(timeout=<request timeout>).
            yield from iter(fast)
            for _ in range(2000):
                time.sleep(0.05)
                yield rng.normal(size=2).tolist()

        stream = stream_windows("127.0.0.1", pool.port, "demo", samples(),
                                window=WINDOW, hop=WINDOW, timeout=60.0)
        first = next(event for event in stream if event["kind"] == "window")
        assert "label" in first
        started = time.monotonic()
        stream.close()
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, \
            f"early close took {elapsed:.1f}s with a 60s request timeout"


class TestRegistryCrossProcessPublish:
    def test_list_models_sees_same_tick_publish(self, tmp_path, trained):
        """A publish from another process that lands inside the memoised
        mtime tick must still invalidate the name-scan cache."""
        model, _X = trained
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(model, "first")
        models_root = registry.root / "models"
        # Age the directory so the scan memoises despite quiescence.
        stat = os.stat(models_root)
        os.utime(models_root, ns=(stat.st_atime_ns,
                                  stat.st_mtime_ns - 10_000_000_000))
        aged = os.stat(models_root)
        assert registry.list_models() == ["first"]  # memoised now
        # "Another process": a fresh instance with its own cache.
        ModelRegistry(tmp_path / "reg").publish(model, "second")
        # Pin the mtime back to the cached tick — the coarse-granularity
        # worst case.  st_nlink (and usually st_size) still moved.
        os.utime(models_root, ns=(aged.st_atime_ns, aged.st_mtime_ns))
        assert registry.list_models() == ["first", "second"]


class TestMergeExpositions:
    def test_counters_sum_and_gauges_get_worker_labels(self):
        texts = {
            "0": ("# HELP t_total requests\n# TYPE t_total counter\n"
                  't_total{model="m"} 3\n'
                  "# TYPE depth gauge\ndepth 2\n"),
            "1": ("# HELP t_total requests\n# TYPE t_total counter\n"
                  't_total{model="m"} 4\n'
                  "# TYPE depth gauge\ndepth 7\n"),
        }
        merged = merge_expositions(texts)
        assert 't_total{model="m"} 7' in merged
        assert 'depth{worker="0"} 2' in merged
        assert 'depth{worker="1"} 7' in merged

    def test_histograms_sum_per_bucket(self):
        text = ("# TYPE lat histogram\n"
                'lat_bucket{le="1"} 1\nlat_bucket{le="+Inf"} 2\n'
                "lat_sum 1.5\nlat_count 2\n")
        merged = merge_expositions({"0": text, "1": text})
        assert 'lat_bucket{le="1"} 2' in merged
        assert 'lat_bucket{le="+Inf"} 4' in merged
        assert "lat_sum 3" in merged
        assert "lat_count 4" in merged

    def test_unquoted_or_unterminated_label_values_raise_value_error(self):
        for bad in ('t_total{model=demo} 3\n', 't_total{model="demo} 3\n'):
            with pytest.raises(ValueError, match="label value"):
                parse_exposition(bad)


@pytest.fixture(scope="module")
def wide_registry(tmp_path_factory):
    """8-channel models at window 1024 — a session blob past 64 KiB —
    and at window 32, well inside it."""
    registry = ModelRegistry(tmp_path_factory.mktemp("wide"))
    for window in (32, 1024):
        X, y = MTSGenerator(n_channels=8, length=window, n_classes=2,
                            difficulty=0.15, seed=0).sample(
            np.array([6, 6]), np.random.default_rng(2))
        model = RocketClassifier(num_kernels=10, seed=0).fit(
            prepare_panel(X), y)
        registry.publish(model, f"w{window}", metadata=model_metadata(
            model, dataset="synthetic", preprocessing="znormalize+impute"))
    return registry


class TestSessionReplication:
    @pytest.mark.parametrize("window", [1024, 32])
    def test_session_blob_reaches_its_peer(self, wide_registry, window):
        """Every snapshot of a session stream lands on its peer, however
        wide: no replication failure, and after the stream the peer
        holds the blob at the final token."""
        rng = np.random.default_rng(window)
        samples = [(rng.standard_normal(8), 0) for _ in range(2 * window)]
        session = f"wide-{window}"
        with ServingPool(wide_registry.root, workers=2, port=0,
                         drain_timeout=2.0) as pool:
            events = list(stream_windows(
                "127.0.0.1", pool.port, f"w{window}", iter(samples),
                window=window, session=session))
            assert [e["kind"] for e in events].count("window") == 2
            assert events[-1]["kind"] == "summary"
            _, text, _ = _request(pool.port, "GET", "/metrics")
            # The owner retired the session at the clean end; the peer
            # still holds the replicated copy and hands it over.
            blobs = [json.loads(_scrape(
                os.path.join(pool.pool_dir, f"worker-{slot}.sock"),
                {"cmd": "session_take", "id": session, "token": 2}))["blob"]
                for slot in (0, 1)]
        # one snapshot per resolved batch, each replicated to the peer
        assert _metric_value(text, "repro_session_snapshots_total") >= 1
        assert _metric_value(
            text, "repro_session_replication_failures_total") == 0
        held = [blob for blob in blobs if blob is not None]
        assert len(held) == 1 and held[0]["token"] == 2
        put = json.dumps({"cmd": "session_put", "blob": held[0]})
        assert (len(put) > 65536) == (window == 1024)

    def test_unacknowledged_replication_is_counted(self, tmp_path):
        """A replication the peer does not acknowledge — here its socket
        exists but is not listening — is a durability loss the store
        counts."""
        store = _build_pool_session_store(str(tmp_path), slot=0, workers=2)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.bind(str(tmp_path / "worker-1.sock"))
            store.save(store.open("orphan"))
        assert store.snapshots.value == 1
        assert store.replication_failures.value == 1

    def test_failed_resume_fetch_is_counted(self, tmp_path):
        """A resume whose peer socket exists but is not listening finds
        no session (404), and the store counts the failed fetch."""
        store = _build_pool_session_store(str(tmp_path), slot=0, workers=2)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.bind(str(tmp_path / "worker-1.sock"))
            with pytest.raises(SessionError) as refused:
                store.resume("orphan", 1)
        assert refused.value.status == 404
        assert store.fetch_failures.value == 1

    @pytest.mark.parametrize("request_bytes", [
        b'{"cmd": "session_ta',  # half a command line, then a hang-up
        b"[]\n",  # well-formed JSON, but not a command object
    ], ids=["torn", "not-an-object"])
    def test_torn_side_channel_request_is_counted(self, tmp_path,
                                                  request_bytes):
        """A request the worker cannot read or answer is counted, not
        swallowed (nor left to kill its thread); a whole command is not."""
        service = SimpleNamespace(sessions=SessionStore())
        channel = _SideChannel(str(tmp_path / "worker-0.sock"), service, 0)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
                peer.connect(channel.path)
                peer.sendall(request_bytes)
            errors = service.sessions.side_channel_errors
            deadline = time.monotonic() + 10.0
            while errors.value == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert errors.value == 1
            reply = _scrape(channel.path, {"cmd": "session_take",
                                           "id": "orphan", "token": 1})
        finally:
            channel.close()
        assert json.loads(reply) == {"blob": None}
        assert errors.value == 1
