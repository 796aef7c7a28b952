"""The serving workloads: ``predict-lone`` and ``stream``.

Both drive the model of ``bench_perf_streaming.py`` (ROCKET-60,
window 32, 2 channels, 2 classes), fitted and published by the benchmark
before anything is timed.  Inputs come from the workload seed; the
program only sees the generated series and samples.

* ``predict-lone`` — one ``create_server`` process (``lone_server.py``),
  one keep-alive HTTP connection, closed loop, one ``{"series": ...,
  "proba": true}`` request at a time.
* ``stream`` — a 2-worker ``ServingPool`` (``pool_server.py``), one
  NDJSON stream at a time (window 32, hop 4, ``proba=1``), paced streams
  at a fixed sample rate (latency) alternating with unpaced ones
  (capacity).  Its traced run adds ``?session=<id>`` streams for the
  session layer.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common

MODEL = "demo"
WINDOW = 32
HOP = 4
KERNELS = 60
N_CHANNELS = 2
#: series per stream: 160 x 32 samples = 5120 samples, 1273 windows;
#: long streams average out the client/worker scheduling regimes that
#: make short streams' rates bimodal
STREAM_SERIES = 160
#: distinct stream panels generated per run (cycled)
STREAM_PANELS = 3
#: distinct predict-lone series generated per run (cycled)
PREDICT_SERIES = 256
MIN_REQUESTS = 200
MIN_PACED_WINDOWS = 1000
#: client-observed tail (``client.tail_ms``): p95 leaves >= 10 samples
#: beyond it at 200 requests and >= 50 at 1000 paced windows
TAIL_PERCENTILE = 95.0
#: durable streams run on the traced pool, for the session layer
SESSION_STREAMS = 3
#: paced phase: offered samples per second.  At hop 4 a window is due
#: every 10 ms, longer than the batcher's 5 ms straggler wait plus one
#: predict, so every paced window is a batch of its own and p50 does not
#: flip with batch composition.  The server writes a resolved window
#: when the next sample arrives, so latency is quantised to the 2.5 ms
#: sample period; the ~6 ms resolve time sits mid-period, between the
#: samples at 5 and 7.5 ms.
PACED_RATE = 400.0
#: series per paced stream: 40 x 32 samples = 313 windows in 3.2 s
PACED_SERIES = 40
SETUP_REPEATS = 5
PREDICT_PATH = f"/v1/models/{MODEL}/predict"
HEADERS = {"Content-Type": "application/json"}


# --------------------------------------------------------------------- #
# preparation (timed nowhere) and the oracle
# --------------------------------------------------------------------- #


def publish_model(registry_dir: Path) -> None:
    """Fit ROCKET-60 on a fixed training panel and publish it."""
    from repro.classifiers import RocketClassifier
    from repro.data import make_classification_panel
    from repro.serving import ModelRegistry, model_metadata, prepare_panel

    X, y = make_classification_panel(
        n_series=40, n_channels=N_CHANNELS, length=WINDOW, n_classes=2,
        difficulty=0.15, seed=0)
    model = RocketClassifier(num_kernels=KERNELS, seed=0).fit(
        prepare_panel(X), y)
    ModelRegistry(registry_dir).publish(model, MODEL, metadata=model_metadata(
        model, dataset="synthetic", preprocessing="znormalize+impute"))


class Oracle:
    """In-process answers from the registry-loaded serving model.

    The server applies the float32 inference policy to a record without
    a published policy; the oracle loads the same record the same way.
    """

    def __init__(self, registry_dir: Path):
        from repro.backend import INFERENCE_POLICY, apply_inference_policy
        from repro.backend.parity import PROBA_ATOL
        from repro.serving import ModelRegistry, prepare_panel

        model, _ = ModelRegistry(registry_dir).load(MODEL)
        self.model = apply_inference_policy(model, INFERENCE_POLICY)
        self.prepare = prepare_panel
        self.atol = PROBA_ATOL

    def expect(self, panel: np.ndarray) -> tuple[list, np.ndarray]:
        """Labels and probabilities for a raw ``(n, channels, length)`` panel."""
        prepared = self.prepare(panel)
        labels = [int(v) for v in self.model.predict(prepared)]
        return labels, np.asarray(self.model.predict_proba(prepared))

    def matches(self, label, proba, want_label, want_proba) -> bool:
        """Label equal and proba within ``PROBA_ATOL``; a label may differ
        only where the expected top two classes tie within that tolerance."""
        if proba is None or len(proba) != len(want_proba):
            return False
        if np.max(np.abs(np.asarray(proba) - want_proba)) > self.atol:
            return False
        if label == want_label:
            return True
        top = np.sort(want_proba)[-2:]
        return bool(top[1] - top[0] <= self.atol)


def _panel(seed: int, n_series: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.data import make_classification_panel

    return make_classification_panel(
        n_series=n_series, n_channels=N_CHANNELS, length=WINDOW, n_classes=2,
        difficulty=0.15, seed=seed)


# --------------------------------------------------------------------- #
# HTTP helpers
# --------------------------------------------------------------------- #


def _connect(port: int) -> http.client.HTTPConnection:
    """A keep-alive client connection with ``TCP_NODELAY``, as curl sets it,
    so the load generator adds no Nagle delay of its own."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def _post(connection, body: bytes) -> tuple[int, dict, str | None]:
    connection.request("POST", PREDICT_PATH, body, HEADERS)
    response = connection.getresponse()
    data = response.read()
    return response.status, json.loads(data), response.getheader("X-Worker")


def _report(message: str) -> None:
    """Say why an operation failed (stderr; the result line stays last
    on stdout)."""
    print(f"failed op: {message}", file=sys.stderr, flush=True)


def _side_call(sock_path: str, command: dict) -> bytes:
    """One round trip on a pool worker's unix-socket side channel."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.settimeout(5.0)
        client.connect(sock_path)
        client.sendall(json.dumps(command).encode() + b"\n")
        client.shutdown(socket.SHUT_WR)
        chunks = []
        while data := client.recv(65536):
            chunks.append(data)
    return b"".join(chunks)


# --------------------------------------------------------------------- #
# predict-lone
# --------------------------------------------------------------------- #


class _ServerProcess:
    """One server process started from this directory's scripts.

    ``setup_s`` runs from the spawn to the first successful predict: the
    interpreter start, the imports, the listener and the cold model load
    a user waits for.  With ``warm_workers`` the remaining pool workers
    are then made to load the model too (untimed), so every measured
    request finds its worker warm.
    """

    def __init__(self, script: str, args: list[str], first_body: bytes,
                 warm_workers: int = 1):
        command = [sys.executable, str(Path(__file__).with_name(script)),
                   *args]
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     env=common.child_env(), text=True)
        self.connection = None
        self.exit_info: dict = {}
        try:
            self.info = json.loads(self.proc.stdout.readline())
            self.port = self.info["port"]
            self.connection = _connect(self.port)
            status, _, worker = _post(self.connection, first_body)
            if status != 200:
                raise RuntimeError(f"first predict answered {status}")
            self.setup_s = time.perf_counter() - start
            self._warm({worker}, warm_workers, first_body)
        except BaseException:
            self.close()
            raise

    def _warm(self, seen: set, workers: int, body: bytes) -> None:
        for _ in range(400):
            if len(seen) >= workers:
                return
            connection = _connect(self.port)  # a new connection may land
            try:                              # on another worker
                status, _, worker = _post(connection, body)
            finally:
                connection.close()
            if status == 200:
                seen.add(worker)
        raise RuntimeError(f"only workers {sorted(seen)} answered")

    def close(self) -> None:
        """Stop the process (close its stdin) and wait for it to exit."""
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            for line in self.proc.stdout:
                if line.strip():
                    self.exit_info.update(json.loads(line))
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def _lone_server(registry: Path, first_body: bytes,
                 spans_path: Path | None = None) -> _ServerProcess:
    args = ["--registry", str(registry)]
    if spans_path is not None:
        args += ["--spans", str(spans_path)]
    return _ServerProcess("lone_server.py", args, first_body)


def _predict_loop(server: _ServerProcess, bodies, expected, oracle,
                  seconds: float) -> dict:
    """Closed loop on one connection; every answer checked."""
    labels, probas = expected
    clock = common.Clock(seconds)
    rtts, failed, n = [], 0, 0
    while n < MIN_REQUESTS or clock.left() > 0:
        i = n % len(bodies)
        start = time.perf_counter()
        try:
            status, payload, _ = _post(server.connection, bodies[i])
        except (OSError, http.client.HTTPException, ValueError) as error:
            status, payload = repr(error), {}
            server.connection.close()
            server.connection = _connect(server.port)
        rtts.append(time.perf_counter() - start)
        n += 1
        ok = status == 200 and oracle.matches(
            payload.get("label"), payload.get("proba"), labels[i], probas[i])
        if not ok:
            failed += 1
            _report(f"request {n}: status {status}, answer {payload}")
    return {"rtts": rtts, "attempted": n, "failed": failed}


def _lone_inputs(seed: int, oracle: Oracle):
    """Request bodies for the seed's series, and each one's answer."""
    X, _ = _panel(seed + 1, PREDICT_SERIES)
    bodies = [json.dumps({"series": series.tolist(), "proba": True}).encode()
              for series in X]
    # The documented contract: the answer equals an in-process predict of
    # that one series, so the oracle runs one series at a time.
    labels, probas = [], []
    for series in X:
        label, proba = oracle.expect(series[None])
        labels.append(label[0])
        probas.append(proba[0])
    return X, bodies, (labels, probas)


def run_predict_lone(seed: int, seconds: float, trace: bool,
                     work: common.WorkDir) -> tuple[dict, int, int]:
    registry = work / "registry"
    publish_model(registry)
    oracle = Oracle(registry)
    X, bodies, expected = _lone_inputs(seed, oracle)
    if trace:
        metrics, attempted, failed = _predict_lone_traced(
            registry, bodies, expected, oracle, seconds, work)
        metrics.update(_classifier_micro(oracle, X[:32]))
        return metrics, attempted, failed
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = _lone_server(registry, bodies[0])
        setups.append(server.setup_s)
        server.close()
    server = _lone_server(registry, bodies[0])
    setups.append(server.setup_s)
    try:
        loop = _predict_loop(server, bodies, expected, oracle, seconds)
        rss = common.rss_mb(server.proc.pid)
    finally:
        server.close()
    rtts = loop["rtts"]
    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": len(rtts) / sum(rtts),
        "op_p50_ms": 1000.0 * common.median(rtts),
    }
    return metrics, loop["attempted"], loop["failed"]


def _predict_lone_traced(registry, bodies, expected, oracle, seconds,
                         work) -> tuple[dict, int, int]:
    """Untraced half, then a traced half; spans come from the server."""
    half = seconds / 2.0
    server = _lone_server(registry, bodies[0])
    try:
        plain = _predict_loop(server, bodies, expected, oracle, half)
    finally:
        server.close()
    spans_path = work / "lone_spans.json"
    server = _lone_server(registry, bodies[0], spans_path)
    try:
        traced = _predict_loop(server, bodies, expected, oracle, half)
    finally:
        server.close()
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)
    parts = _attribute_requests(spans, traced["rtts"])
    metrics = common.layer_defaults()
    for name, values in parts.items():
        metrics[name] = common.median(values)
    metrics["trace.unattributed_share"] = metrics.pop("unattributed_share")
    metrics.update(_batch_shape(s for s in spans
                                if s["name"] == "batcher.predict"))
    metrics["trace.overhead_pct"] = 100.0 * (
        common.median(traced["rtts"]) / common.median(plain["rtts"]) - 1.0)
    metrics["client.tail_ms"] = 1000.0 * common.percentile(
        plain["rtts"], TAIL_PERCENTILE)
    return (metrics, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"])


def _attribute_requests(spans: list[dict], rtts: list[float]) -> dict:
    """Split each client round trip over the server's spans (ms).

    Requests are matched to ``http.request`` spans by order: one client,
    one connection, closed loop.  The first span belongs to the set-up
    request (cold model load) and is skipped; ``rtts`` holds only the
    measured requests.
    """
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    roots = sorted((s for s in spans if s["name"] == "http.request"),
                   key=lambda s: s["start"])[1:]
    if len(roots) != len(rtts):
        raise RuntimeError(f"{len(roots)} request spans for {len(rtts)} "
                           f"client requests")
    parts = {name: [] for name in (
        "server.wire_ms", "server.ingest_ms", "server.predict_ms",
        "batcher.queue_wait_ms", "batcher.assemble_ms", "batcher.predict_ms",
        "server.serialize_ms", "unattributed_share")}
    for root, rtt in zip(roots, rtts):
        kids = {s["name"]: s for s in children.get(root["span_id"], [])}
        serve = kids["serve.predict"]
        batch = {s["name"]: s for s in children.get(serve["span_id"], [])}
        named = {
            "server.wire_ms": rtt - root["duration"],
            "server.ingest_ms": serve["start"] - root["start"],
            "server.predict_ms": common.self_time(serve, list(batch.values())),
            "batcher.queue_wait_ms": batch["batcher.queue"]["duration"],
            "batcher.assemble_ms": batch["batcher.assemble"]["duration"],
            "batcher.predict_ms": batch["batcher.predict"]["duration"],
            "server.serialize_ms": kids["serialize"]["duration"],
        }
        for name, seconds in named.items():
            parts[name].append(1000.0 * seconds)
        parts["unattributed_share"].append(
            abs(rtt - sum(named.values())) / rtt)
    return parts


def _batch_shape(predict_spans) -> dict:
    """Batches and mean batch size from per-request ``batcher.predict``
    spans: a batch of k contributes k spans, each carrying k."""
    sizes = [s["attributes"]["batch_size"] for s in predict_spans]
    batches = sum(1.0 / k for k in sizes)
    return {"batcher.batches": round(batches),
            "batcher.batch_size_mean": len(sizes) / batches if batches else 0.0}


def _time_calls(call, repeats: int) -> float:
    """Median seconds of ``call()`` over *repeats* calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return common.median(times)


def _classifier_micro(oracle: Oracle, panel: np.ndarray) -> dict:
    """Direct ``predict_proba`` on the registry-loaded float32 model, at
    batch 1 and at the 32 series of *panel*."""
    prepared = oracle.prepare(panel)
    one = prepared[:1]
    model = oracle.model
    return {
        "classifiers.proba_b1_us": 1e6 * _time_calls(
            lambda: model.predict_proba(one), 300),
        "classifiers.proba_b32_us": 1e6 * _time_calls(
            lambda: model.predict_proba(prepared), 100),
    }


# --------------------------------------------------------------------- #
# stream
# --------------------------------------------------------------------- #


class _StreamInputs:
    """Stream panels from the seed, with their windows' oracle answers."""

    def __init__(self, seed: int, oracle: Oracle):
        self.streams = []
        for k in range(STREAM_PANELS):
            X, y = _panel(seed * 1000 + k + 1, STREAM_SERIES)
            samples = np.concatenate(list(X), axis=1)  # (channels, T)
            truth = np.repeat(y, WINDOW)
            lines = [{"values": samples[:, t].tolist(), "label": int(truth[t])}
                     for t in range(samples.shape[1])]
            starts = range(0, samples.shape[1] - WINDOW + 1, HOP)
            windows = np.stack([samples[:, s:s + WINDOW] for s in starts])
            labels, probas = oracle.expect(windows)
            self.streams.append((lines, labels, probas))
        self.samples = self.streams[0][0]


def _paced(lines, rate: float, start: float, lags: list):
    """Yield each sample at its due time, recording how late it went out."""
    for i, line in enumerate(lines):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - due)
        yield line


def _one_stream(port: int, stream, *, paced: bool, session: str | None,
                oracle: Oracle, lags: list) -> dict:
    """Run one NDJSON stream; check every line against the oracle."""
    from repro.streaming import expected_windows, stream_windows

    lines, labels, probas = stream
    n_expected = expected_windows(len(lines), WINDOW, HOP)
    out = {"attempted": n_expected, "failed": 0, "latencies": [],
           "worker": None, "token": 0, "elapsed": 0.0}
    start = time.perf_counter() + 0.002
    source = _paced(lines, PACED_RATE, start, lags) if paced else lines
    received = []  # (receipt time, event): checked after the stream ends,
    # so the oracle's numpy work never slows the reading side
    error = None
    try:
        for event in stream_windows("127.0.0.1", port, MODEL, source,
                                    window=WINDOW, hop=HOP, proba=True,
                                    session=session, timeout=60):
            received.append((time.perf_counter(), event))
        out["elapsed"] = time.perf_counter() - start
    except (OSError, http.client.HTTPException, RuntimeError,
            ValueError) as caught:
        error = caught
    seen, summary = 0, None
    for now, event in received:
        kind = event.get("kind")
        if kind == "session":
            out["worker"] = event.get("worker")
        elif kind == "window":
            index = event.get("index")
            ok = index == seen and index < n_expected and oracle.matches(
                event.get("label"), event.get("proba"), labels[index],
                probas[index])
            if session is not None:
                ok = ok and event.get("token") == index + 1
                out["token"] = event.get("token", out["token"])
            out["failed"] += not ok
            if paced:
                out["latencies"].append(
                    now - (start + event["end"] / PACED_RATE))
            seen += 1
        elif kind == "summary":
            summary = event
        else:
            error = event  # error line: the rest of the stream is lost
            break
    if out["failed"]:
        _report(f"stream {session}: {out['failed']} windows off the oracle")
    out["clean"] = summary is not None and seen == n_expected \
        and summary.get("windows") == n_expected
    if not out["clean"]:
        out["failed"] += max(0, n_expected - seen)
        _report(f"stream {session}: {seen} of {n_expected} windows "
                f"({error!r})")
    return out


class _Pool:
    """A 2-worker pool in a ``pool_server.py`` process."""

    def __init__(self, registry_dir: Path, pool_dir: Path, first_body: bytes,
                 trace_export: Path | None = None):
        args = ["--registry", str(registry_dir), "--pool-dir", str(pool_dir)]
        if trace_export is not None:
            args += ["--trace-export", str(trace_export)]
        self.server = _ServerProcess("pool_server.py", args, first_body,
                                     warm_workers=2)
        self.setup_s = self.server.setup_s
        self.port = self.server.port
        self.pool_dir = pool_dir

    def sock(self, slot: int) -> str:
        return str(self.pool_dir / f"worker-{slot}.sock")

    def rss_mb(self) -> float:
        """Peak resident memory summed over the workers."""
        return sum(common.rss_mb(pid) for pid in self.server.info["pids"])

    def worker_metrics(self, slot: int) -> dict[str, float]:
        """Unlabelled-sum view of one worker's own exposition."""
        from repro.serving import parse_exposition

        text = _side_call(self.sock(slot), {"cmd": "metrics"}).decode()
        totals: dict[str, float] = {}
        for family in parse_exposition(text):
            for sample_name, _, value in family.samples:
                totals[sample_name] = totals.get(sample_name, 0.0) + value
        return totals

    def close(self) -> int:
        """Stop the pool; returns the respawns it saw (a worker died)."""
        self.server.close()
        return int(self.server.exit_info.get("respawns", 0))


def _take_session(pool: _Pool, session: str, worker: int, token: int):
    """Ask the session's rendezvous peer for its replicated blob."""
    from repro.streaming.session import rendezvous_slot

    peer = rendezvous_slot(session, [s for s in range(2) if s != worker])
    raw = _side_call(pool.sock(peer), {"cmd": "session_take", "id": session,
                                       "token": int(token)})
    return json.loads(raw.decode() or "null").get("blob")


def _measure_pool(pool: _Pool, inputs: _StreamInputs, oracle: Oracle,
                  seconds: float) -> dict:
    """Alternate one paced stream with unpaced streams for as long (at
    least one), one stream at a time, so both phases sample the same
    stretch of time.  Throughput is the median of the unpaced streams'
    rates, so a stream the host stalled does not pull the run's figure."""
    result = {"attempted": 0, "failed": 0, "latencies": [], "lags": [],
              "rates": []}
    clock = common.Clock(seconds)
    count = 0
    while clock.left() > 0 or len(result["latencies"]) < MIN_PACED_WINDOWS:
        paced = True
        budget = None
        unpaced = 0
        while paced or not unpaced or budget.left() > 0:
            lines, labels, probas = inputs.streams[count % len(inputs.streams)]
            if paced:
                lines = lines[:PACED_SERIES * WINDOW]
            out = _one_stream(pool.port, (lines, labels, probas),
                              paced=paced, session=None, oracle=oracle,
                              lags=result["lags"])
            count += 1
            result["attempted"] += out["attempted"]
            result["failed"] += out["failed"]
            if paced:
                result["latencies"] += out["latencies"]
                budget = common.Clock(min(out["elapsed"], clock.left()))
                paced = False
            else:
                unpaced += 1
                if out["clean"]:
                    result["rates"].append(out["attempted"] / out["elapsed"])
    return result


def _session_phase(pool: _Pool, inputs: _StreamInputs, oracle: Oracle,
                   streams: int) -> dict:
    """Unpaced ``?session=`` streams, each followed by its durability check."""
    result = {"attempted": 0, "failed": 0, "windows": 0, "durable": 0,
              "last_blob": None}
    for k in range(streams):
        session = f"bench-{k}"
        out = _one_stream(pool.port, inputs.streams[k % len(inputs.streams)],
                          paced=False, session=session, oracle=oracle,
                          lags=[])
        result["attempted"] += out["attempted"] + 1
        result["failed"] += out["failed"]
        result["windows"] += out["attempted"]
        _check_durable(pool, session, out, result)
    return result


def _check_durable(pool: _Pool, session: str, out: dict, result: dict) -> None:
    """After a clean session stream, its peer must hold the final state,
    and the replicated blob must fit the side channel's read cap."""
    blob = None
    if out["clean"] and out["worker"] is not None:
        try:
            blob = _take_session(pool, session, out["worker"], out["token"])
        except (OSError, ValueError) as error:
            _report(f"session {session}: take failed: {error!r}")
    size = 0 if blob is None else len(json.dumps(
        {"cmd": "session_put", "blob": blob}).encode()) + 1
    if blob is not None and blob.get("token") == out["token"] \
            and size < common.SIDE_CHANNEL_CAP:
        result["durable"] += 1
        result["last_blob"] = blob
    else:
        result["failed"] += 1
        _report(f"session {session}: not durable at token {out['token']} "
                f"(peer blob {None if blob is None else blob.get('token')}, "
                f"{size} bytes)")


def run_stream(seed: int, seconds: float, trace: bool,
               work: common.WorkDir) -> tuple[dict, int, int]:
    registry = work / "registry"
    publish_model(registry)
    oracle = Oracle(registry)
    inputs = _StreamInputs(seed, oracle)
    first_body = json.dumps({"series": np.asarray(
        [s["values"] for s in inputs.samples[:WINDOW]]).T.tolist()}).encode()
    if trace:
        return _stream_traced(registry, inputs, oracle, first_body, seconds,
                              work)
    setups = []
    for k in range(SETUP_REPEATS - 1):
        pool = _Pool(registry, work / f"pool{k}", first_body)
        setups.append(pool.setup_s)
        pool.close()
    pool = _Pool(registry, work / "pool", first_body)
    setups.append(pool.setup_s)
    try:
        result = _measure_pool(pool, inputs, oracle, seconds)
        rss = pool.rss_mb()
    finally:
        respawns = pool.close()
    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": common.median(result["rates"]),
        "op_p50_ms": 1000.0 * common.median(result["latencies"]),
    }
    failed = result["failed"] + respawns  # a respawn means a worker died
    return metrics, result["attempted"], failed


def _stream_traced(registry, inputs, oracle, first_body, seconds,
                   work) -> tuple[dict, int, int]:
    """Untraced half, then a traced half with the pool's span export,
    then a few session streams on the traced pool for the session layer."""
    half = seconds / 2.0
    pool = _Pool(registry, work / "pool-plain", first_body)
    try:
        plain = _measure_pool(pool, inputs, oracle, half)
    finally:
        plain_respawns = pool.close()
    export = work / "spans.jsonl"
    pool = _Pool(registry, work / "pool-traced", first_body,
                 trace_export=export)
    try:
        traced = _measure_pool(pool, inputs, oracle, half)
        sessions = _session_phase(pool, inputs, oracle, SESSION_STREAMS)
        snapshots = sum(pool.worker_metrics(slot).get(
            "repro_session_snapshots_total", 0.0) for slot in range(2))
        session_part = _session_micro(pool, sessions["last_blob"])
    finally:
        respawns = pool.close()
    spans_by_worker = [common.load_span_file(work / f"spans.w{slot}.jsonl")
                       for slot in range(2)]
    spans = [s for worker in spans_by_worker for s in worker]
    roots = {s["span_id"] for s in spans if s["name"] == "stream"}
    batch = [s for s in spans if s["parent_id"] in roots
             and s["name"].startswith("batcher.")]
    window_spans = [s for s in spans if s["name"] == "stream.window"]
    windows_per_worker = [sum(1 for s in worker if s["name"] == "stream.window")
                          for worker in spans_by_worker]

    def med_ms(name):
        return 1000.0 * common.median(
            s["duration"] for s in batch if s["name"] == name)

    metrics = common.layer_defaults()
    metrics.update(session_part)
    metrics.update({
        "batcher.queue_wait_ms": med_ms("batcher.queue"),
        "batcher.assemble_ms": med_ms("batcher.assemble"),
        "batcher.predict_ms": med_ms("batcher.predict"),
        # the export rounds spans to whole microseconds: the grouped
        # median interpolates within the 1 us bin instead of snapping to it
        "scorer.window_us": statistics.median_grouped(
            [1e6 * s["duration"] for s in window_spans], interval=1),
        "pool.respawns": respawns,
        "pool.worker_share": max(windows_per_worker)
        / max(1, sum(windows_per_worker)),
        "client.lag_ms": 1000.0 * common.median(traced["lags"]),
        "client.tail_ms": 1000.0 * common.percentile(
            plain["latencies"], TAIL_PERCENTILE),
        "session.durable_ratio": sessions["durable"] / SESSION_STREAMS,
        "session.window_cost_us": (
            session_part["session.encode_us"]
            + 1000.0 * session_part["session.put_ms"])
        * snapshots / max(1, sessions["windows"]),
    })
    metrics.update(_batch_shape(s for s in batch
                                if s["name"] == "batcher.predict"))
    metrics.update(_stream_micro(inputs, oracle))
    samples = np.asarray([line["values"] for line in inputs.samples]).T
    metrics.update(_classifier_micro(oracle, np.stack(
        [samples[:, s:s + WINDOW] for s in range(0, 32 * HOP, HOP)])))
    p50 = 1000.0 * common.median(traced["latencies"])
    covered = sum(metrics[name] for name in (
        "batcher.queue_wait_ms", "batcher.assemble_ms", "batcher.predict_ms"))
    covered += metrics["scorer.window_us"] / 1000.0
    metrics["trace.unattributed_share"] = max(0.0, 1.0 - covered / p50)
    metrics["trace.overhead_pct"] = 100.0 * (
        p50 / (1000.0 * common.median(plain["latencies"])) - 1.0)
    attempted = plain["attempted"] + traced["attempted"] \
        + sessions["attempted"]
    failed = plain["failed"] + traced["failed"] + sessions["failed"] \
        + plain_respawns + respawns
    return metrics, attempted, failed


def _stream_micro(inputs: _StreamInputs, oracle: Oracle) -> dict:
    """Benchmark spans around ``SlidingWindower.push`` and
    ``DriftMonitor.update`` over one stream's samples and answers."""
    from repro.streaming import DriftMonitor, SlidingWindower

    lines, labels, probas = inputs.streams[0]
    spans = common.SpanList()
    windower = SlidingWindower(N_CHANNELS, WINDOW, HOP)
    for line in lines:
        spans.timed("windower.push", windower.push, np.asarray(line["values"]))
    monitor = DriftMonitor()
    for i, (label, proba) in enumerate(zip(labels, probas)):
        truth = lines[i * HOP + WINDOW - 1]["label"]  # the window's last
        spans.timed("drift.update", monitor.update, label, truth,
                    float(proba.max()))
    return {"windower.push_us": 1e6 * common.median(
                spans.durations("windower.push")),
            "drift.update_us": 1e6 * common.median(
                spans.durations("drift.update"))}


def _session_micro(pool: _Pool, blob: dict | None) -> dict:
    """``StreamSession.to_blob`` + JSON encode, and one side-channel
    ``session_put`` round trip with that blob, on the live pool."""
    from repro.streaming.session import StreamSession

    if blob is None:
        return {}
    session = StreamSession.from_blob(blob)
    encode = _time_calls(lambda: json.dumps(session.to_blob()), 50)
    command = {"cmd": "session_put", "blob": dict(blob, id="bench-put")}
    put = _time_calls(lambda: _side_call(pool.sock(0), command), 20)
    return {"session.encode_us": 1e6 * encode, "session.put_ms": 1000.0 * put,
            "session.blob_bytes": len(json.dumps(command).encode()) + 1}
