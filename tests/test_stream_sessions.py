"""Durable stream sessions under injected faults.

The session-fault matrix: every row interrupts a session stream a
different way and demands the resumed run be **bit-identical** — same
labels, same probabilities, contiguous resume tokens, no window lost or
repeated — to the same stream run uninterrupted.

- TCP drops mid-window (the peer sees a FIN), three times per stream,
  injected by a chaos proxy;
- half-open drops (no FIN ever reaches the server — a peer that lost
  power), which only the resume-takeover path can clear;
- worker death mid-stream (SIGKILL) in a serving pool, resumed on a
  peer via the replicated session blob;
- a canary promotion mid-stream, which must reach the open stream as an
  in-place swap — no reconnect, no double-scored or skipped window.
"""

import json
import os
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.backend import ComputePolicy
from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import (
    ModelRegistry,
    ServingPool,
    create_server,
    model_metadata,
    prepare_panel,
)
from repro.streaming import stream_session, stream_windows

WINDOW = 32
HOP = 16
WIDE_WINDOW = 1024
WIDE_HOP = 256


# --------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------- #


class ChaosProxy:
    """TCP proxy that kills live connections on demand.

    ``mode="fin"`` tears both sides down loudly (linger-0 shutdown —
    both peers see the death immediately).  ``mode="halfopen"`` kills
    only the client side and *leaks* the backend socket: the server
    never receives a FIN, exactly like a peer that lost power — only a
    resume takeover can free the session.

    The teardown order matters: ``shutdown()`` first, on both sockets.
    Unlike ``close()``, it wakes a ``recv()`` blocked in another thread
    and sends the FIN immediately (``close()`` defers the kernel-side
    close while any thread is blocked on the fd, which would leave the
    peer hanging forever).
    """

    def __init__(self, backend_port: int, mode: str = "fin"):
        assert mode in ("fin", "halfopen")
        self.mode = mode
        self.backend_port = backend_port
        self.listener = socket.socket()
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.lock = threading.Lock()
        self.conns = []  # live (client_sock, backend_sock) pairs
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            backend = socket.create_connection(
                ("127.0.0.1", self.backend_port))
            with self.lock:
                self.conns.append((client, backend))
            for src, dst in ((client, backend), (backend, client)):
                threading.Thread(target=self._pump, args=(src, dst),
                                 daemon=True).start()

    def _pump(self, src, dst):
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        if self.mode == "fin":
            # One direction died: take the whole pair down cleanly.
            self._kill_pair((src, dst))
        # halfopen: leak the sockets — no FIN ever reaches the server.

    @staticmethod
    def _kill_pair(pair):
        for sock in pair:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for sock in pair:
            try:
                sock.close()
            except OSError:
                pass

    def kill_current(self):
        """Kill every connection that exists right now."""
        with self.lock:
            doomed, self.conns = self.conns, []
        for client, backend in doomed:
            if self.mode == "fin":
                self._kill_pair((client, backend))
            else:
                # The client side dies loudly; the backend socket stays
                # dangling open so the server blocks in its body read.
                try:
                    client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                      struct.pack("ii", 1, 0))
                    client.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self):
        try:
            self.listener.close()
        except OSError:
            pass
        with self.lock:
            doomed, self.conns = self.conns, []
        for pair in doomed:
            self._kill_pair(pair)


# --------------------------------------------------------------------- #
# fixtures and helpers
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def panel():
    return make_classification_panel(n_series=30, n_channels=2,
                                     length=WINDOW, n_classes=2,
                                     difficulty=0.15, seed=7)


@pytest.fixture(scope="module")
def registry(tmp_path_factory, panel):
    X, y = panel
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
    meta = model_metadata(model, dataset="synthetic",
                         preprocessing="znormalize+impute")
    registry.publish(model, "demo", metadata=meta)
    registry.publish(model, "demo32", metadata=dict(meta),
                     compute_policy=ComputePolicy(dtype="float32"),
                     parity_panel=prepare_panel(X))
    return registry


@pytest.fixture(scope="module")
def samples(panel):
    X, y = panel
    flat = np.concatenate(list(X), axis=1)
    labels = np.repeat(y, X.shape[2])
    return [(flat[:, i], int(labels[i])) for i in range(flat.shape[1])]


@pytest.fixture(scope="module")
def wide_samples(registry):
    """Publish "wide", an 8-channel model at window 1024 (its windower
    ring alone is ~87 KB of base64 in every session blob), and return
    21 windows of samples for it."""
    X, y = make_classification_panel(n_series=12, n_channels=8,
                                     length=WIDE_WINDOW, n_classes=2,
                                     difficulty=0.15, seed=3)
    model = RocketClassifier(num_kernels=10, seed=0).fit(prepare_panel(X), y)
    registry.publish(model, "wide", metadata=model_metadata(
        model, dataset="synthetic", preprocessing="znormalize+impute"))
    rng = np.random.default_rng(5)
    return [(rng.standard_normal(8), 0)
            for _ in range(WIDE_WINDOW + 20 * WIDE_HOP)]


@pytest.fixture(scope="module")
def server(registry):
    server = create_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _baseline(port, name, samples, window=WINDOW, hop=HOP, **kw):
    """The uninterrupted run every fault variant is compared against."""
    return [e for e in stream_windows("127.0.0.1", port, name, iter(samples),
                                      window=window, hop=hop, proba=True,
                                      **kw)
            if e["kind"] == "window"]


def _strip(event):
    """Drop the session-only wire fields; everything else must match."""
    return {k: v for k, v in event.items() if k not in ("token", "samples")}


def _throttled(samples, delay=0.002, every=1):
    for i, sample in enumerate(samples):
        if i % every == 0:
            time.sleep(delay)
        yield sample


def _assert_parity(got, baseline):
    assert [e["token"] for e in got] == list(range(1, len(got) + 1)), \
        "resume tokens are not contiguous"
    assert len(got) == len(baseline), (len(got), len(baseline))
    mismatches = [i for i, (a, b) in enumerate(zip(baseline, got))
                  if _strip(a) != _strip(b)]
    assert not mismatches, \
        f"windows {mismatches} differ from the uninterrupted run"


def _chaos_run(proxy, name, samples, kill_at, hop=HOP, delay=0.002, **kw):
    """Session stream through *proxy*, killing it at the given windows."""
    got, summary = [], None
    for event in stream_session("127.0.0.1", proxy.port, name,
                                _throttled(samples, delay), window=WINDOW,
                                hop=hop, proba=True, retry_delay=0.1, **kw):
        if event["kind"] == "window":
            got.append(event)
            if len(got) in kill_at:
                proxy.kill_current()
        elif event["kind"] == "summary":
            summary = event
    return got, summary


# --------------------------------------------------------------------- #
# the fault matrix
# --------------------------------------------------------------------- #


class TestTcpDrops:
    def test_drop_tcp_mid_window_is_bit_identical(self, server, samples):
        """Three FIN-path connection drops mid-stream: the resumed
        session replays nothing and loses nothing."""
        baseline = _baseline(server.port, "demo", samples)
        proxy = ChaosProxy(server.port)
        try:
            got, summary = _chaos_run(proxy, "demo", samples,
                                      kill_at={7, 16, 28})
        finally:
            proxy.close()
        _assert_parity(got, baseline)
        assert summary["windows"] == len(baseline)
        assert summary["samples"] == len(samples)

    def test_half_open_drop_resumes_via_takeover(self, server, samples):
        """No FIN ever reaches the server: the old handler is still
        blocked reading a dead socket when the client resumes.  The
        resume must fence it out (epoch takeover) instead of 409ing
        until the retry budget dies."""
        baseline = _baseline(server.port, "demo", samples)
        before = server.service.sessions.takeovers.value
        proxy = ChaosProxy(server.port, mode="halfopen")
        try:
            got, summary = _chaos_run(proxy, "demo", samples,
                                      kill_at={7, 16, 28})
        finally:
            proxy.close()
        _assert_parity(got, baseline)
        assert summary["windows"] == len(baseline)
        takeovers = server.service.sessions.takeovers.value - before
        assert takeovers >= 1, "the takeover path never fired"

    def test_float32_session_parity(self, server, samples):
        """The fault matrix holds under the float32 compute policy: the
        resumed stream re-scores nothing, so reduced-precision inference
        stays bit-identical across the disconnects too."""
        baseline = _baseline(server.port, "demo32", samples)
        proxy = ChaosProxy(server.port)
        try:
            got, _ = _chaos_run(proxy, "demo32", samples, kill_at={5, 20})
        finally:
            proxy.close()
        _assert_parity(got, baseline)


def _sigkill_run(registry, name, samples, kill_after, *, window=WINDOW,
                 hop=HOP, **throttle):
    """Session stream on a 2-worker pool whose worker is SIGKILLed after
    *kill_after* windows; *throttle* paces the sender (``_throttled``)."""
    with ServingPool(registry, workers=2, drain_timeout=2.0) as pool:
        baseline = _baseline(pool.port, name, samples, window, hop)
        got, workers_seen, killed = [], [], False
        for event in stream_session("127.0.0.1", pool.port, name,
                                    _throttled(samples, **throttle),
                                    window=window, hop=hop, proba=True,
                                    retry_delay=0.2):
            if event["kind"] == "session":
                workers_seen.append(event.get("worker"))
            elif event["kind"] == "window":
                got.append(event)
                if len(got) == kill_after and not killed:
                    killed = True
                    os.kill(pool.worker_pids()[workers_seen[-1]],
                            signal.SIGKILL)
        assert killed
        _assert_parity(got, baseline)
        # The resume genuinely moved: more than one attach, and the
        # stream did not stay pinned to the dead slot throughout.
        assert len(workers_seen) >= 2
        assert len(set(workers_seen)) == 2, workers_seen


class TestPoolWorkerDeath:
    def test_sigkill_worker_resumes_on_peer(self, registry, samples):
        """SIGKILL the worker holding the stream: the client's resume
        lands on a peer, which fetches the replicated session blob over
        the side channel and continues bit-identically."""
        _sigkill_run(registry, "demo", samples, kill_after=10)

    def test_sigkill_wide_session_resumes_on_peer(self, registry,
                                                  wide_samples):
        """A window-1024 x 8-channel session, whose blob is past 64 KiB,
        survives its worker's death just the same."""
        _sigkill_run(registry, "wide", wide_samples, kill_after=5,
                     window=WIDE_WINDOW, hop=WIDE_HOP, delay=0.005,
                     every=64)


class TestPromotionMidStream:
    def test_promotion_reaches_open_stream_in_place(self, registry, server,
                                                    samples, panel):
        """A canary promotion mid-stream swaps the open session's model
        in place — no reconnect, one swap line, and every window scored
        exactly once: pre-swap windows match a version-1 pinned run,
        post-swap windows a version-2 pinned run."""
        X, y = panel
        v1 = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
        meta = model_metadata(v1, dataset="synthetic",
                              preprocessing="znormalize+impute")
        registry.publish(v1, "promo", metadata=meta)
        baseline_v1 = _baseline(server.port, "promo", samples, version=1)

        events, acks = [], 0

        def feed():
            for i, sample in enumerate(_throttled(samples)):
                if i == 12 * HOP:  # mid-stream: the canary gets promoted
                    v2 = RocketClassifier(num_kernels=60, seed=1).fit(
                        prepare_panel(X), y)
                    registry.publish(v2, "promo", metadata=dict(meta),
                                     tags=("stable",))
                yield sample

        for event in stream_session("127.0.0.1", server.port, "promo",
                                    feed(), window=WINDOW, hop=HOP,
                                    proba=True, retry_delay=0.1):
            acks += int(event["kind"] == "session")
            events.append(event)

        swaps = [e for e in events if e["kind"] == "swap"]
        got = [e for e in events if e["kind"] == "window"]
        assert acks == 1, "the promotion forced a reconnect"
        assert len(swaps) == 1 and swaps[0]["version"] == 2
        swapped_at = swaps[0]["window"]
        assert 0 < swapped_at < len(got)

        baseline_v2 = _baseline(server.port, "promo", samples, version=2)
        assert [e["token"] for e in got] == list(range(1, len(got) + 1))
        assert len(got) == len(baseline_v1) == len(baseline_v2)

        def model_only(event):
            # Drift state tracks the *mixed* v1-then-v2 history, which no
            # pinned baseline shares; the per-window model outputs must
            # still match exactly.
            return {k: v for k, v in _strip(event).items() if k != "drift"}

        for i, event in enumerate(got):
            reference = baseline_v1[i] if i < swapped_at else baseline_v2[i]
            assert model_only(event) == model_only(reference), \
                f"window {i + 1} does not match its pinned baseline"
        # Pre-swap the histories are identical, so drift must match too.
        for i in range(swapped_at):
            assert _strip(got[i]) == _strip(baseline_v1[i])


class TestCliResume:
    def test_stream_resume_picks_up_where_it_stopped(self, server, panel,
                                                     tmp_path, capsys):
        """`repro stream --session X --resume` re-attaches a session an
        interrupted process left behind: the cached windows replay, the
        source lines up at the server's ack offset, and the stream
        finishes with every window accounted for exactly once."""
        from repro.cli import main

        X, _ = panel
        flat = np.concatenate(list(X), axis=1)
        unlabelled = [flat[:, i] for i in range(flat.shape[1])]
        total = (flat.shape[1] - WINDOW) // HOP + 1

        # A first client opens the session and dies mid-stream.
        events = stream_windows(
            "127.0.0.1", server.port, "demo",
            _throttled(unlabelled), window=WINDOW, hop=HOP,
            session="cli-resume")
        seen = 0
        for event in events:
            seen += int(event["kind"] == "window")
            if seen == 5:
                events.close()  # abandon: the server suspends the session
                break
        assert 0 < seen < total

        path = tmp_path / "stream.json"
        path.write_text(json.dumps(X.tolist()))
        code = main(["stream", "demo",
                     "--url", f"http://127.0.0.1:{server.port}",
                     "--input", str(path), "--window", str(WINDOW),
                     "--hop", str(HOP),
                     "--session", "cli-resume", "--resume"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        windows = [e for e in lines if e["kind"] == "window"]
        assert [e["token"] for e in windows] == list(range(1, total + 1))
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["windows"] == total

    def test_resume_requires_session(self, capsys):
        from repro.cli import main

        assert main(["stream", "demo", "--url", "http://127.0.0.1:1",
                     "--input", "x.json", "--resume"]) == 2
        assert "--resume requires --session" in capsys.readouterr().err


class TestDriftFreeRegression:
    @pytest.mark.parametrize("with_labels", [True, False],
                             ids=["accuracy-ewma", "confidence-ewma"])
    def test_resumes_never_false_flag_drift(self, server, with_labels):
        """≥500 windows, 10 disconnect/resume cycles, zero drift flags:
        a resume restores the monitor's EWMAs bit-exactly, so it must
        not look like a concept shift to either the accuracy or the
        confidence signal."""
        X, y = make_classification_panel(n_series=126, n_channels=2,
                                         length=WINDOW, n_classes=2,
                                         difficulty=0.1, seed=11)
        flat = np.concatenate(list(X), axis=1)
        labels = np.repeat(y, X.shape[2])
        run = [(flat[:, i], int(labels[i]) if with_labels else None)
               for i in range(flat.shape[1])]
        kill_at = set(range(40, 440, 40))  # 10 cycles, none near the end
        proxy = ChaosProxy(server.port)
        try:
            got, summary = _chaos_run(proxy, "demo", run, kill_at,
                                      hop=8, delay=0.001)
        finally:
            proxy.close()
        expected = (flat.shape[1] - WINDOW) // 8 + 1
        assert expected >= 500
        assert [e["token"] for e in got] == list(range(1, len(got) + 1))
        assert len(got) == expected == summary["windows"]
        flagged = [e["index"] for e in got if e["drift"]["shift"]]
        assert not flagged, \
            f"drift-free stream false-flagged at windows {flagged}"
