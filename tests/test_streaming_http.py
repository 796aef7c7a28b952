"""The NDJSON streaming endpoint and CLI, end to end over HTTP."""

import http.client
import json
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.cli import main
from repro.data.generators import MTSGenerator
from repro.data.scenarios import make_world
from repro.serving import (
    ModelRegistry,
    PredictionService,
    create_server,
    model_metadata,
    prepare_panel,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.server import _Handler, _Inbox
from repro.streaming import (
    StreamRequestError,
    StreamScorer,
    SyntheticSource,
    expected_windows,
    stream_windows,
)

WINDOW = 32
N_SERIES = 40
SHIFT_SERIES = 20  # prototype swap after this many series


@pytest.fixture(scope="module")
def generator():
    return MTSGenerator(n_channels=2, length=WINDOW, n_classes=2,
                        difficulty=0.15, seed=0)


@pytest.fixture(scope="module")
def registry(tmp_path_factory, generator):
    X, y = generator.sample(np.array([30, 30]), np.random.default_rng(1))
    model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.publish(model, "demo", metadata=model_metadata(
        model, dataset="synthetic", preprocessing="znormalize+impute"),
        tags=("prod",))
    return registry


@pytest.fixture(scope="module")
def server(registry):
    server = create_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _shifted_samples(generator, seed=7):
    source = SyntheticSource(generator=generator, n_series=N_SERIES, seed=seed,
                             shift_at=SHIFT_SERIES * WINDOW)
    return ((sample.values, sample.label) for sample in source)


class TestStreamEndpoint:
    def test_end_to_end_with_mid_stream_shift(self, server, generator):
        """The acceptance scenario: a generator source with a prototype
        swap, replayed over NDJSON — the window count matches the plan and
        the drift monitor flags after the shift, never before."""
        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     _shifted_samples(generator),
                                     window=WINDOW))
        summary = events[-1]
        assert summary["kind"] == "summary"
        windows = [e for e in events if e["kind"] == "window"]
        plan = expected_windows(N_SERIES * WINDOW, WINDOW, WINDOW)
        assert len(windows) == summary["windows"] == plan
        assert summary["samples"] == N_SERIES * WINDOW
        assert [w["index"] for w in windows] == list(range(plan))

        shift_sample = SHIFT_SERIES * WINDOW
        pre = [w for w in windows if w["end"] < shift_sample]
        post = [w for w in windows if w["start"] >= shift_sample]
        assert not any(w["drift"]["shift"] for w in pre)
        assert any(w["drift"]["shift"] for w in post)
        assert summary["shifts"] == sum(w["drift"]["shift"] for w in windows)
        # The shift is real: accuracy collapses across the boundary.
        assert np.mean([w["label"] == w["truth"] for w in pre]) >= 0.9
        assert np.mean([w["label"] == w["truth"] for w in post]) <= 0.3

    def test_window_drift_names_two_signals(self, server, generator):
        """Every window line's drift state holds the accuracy and
        confidence views only, and a flag names one of those two."""
        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     _shifted_samples(generator),
                                     window=WINDOW))
        windows = [e for e in events if e["kind"] == "window"]
        keys = {"shift", "signal", "accuracy_fast", "accuracy_slow",
                "confidence_fast", "confidence_slow"}
        assert all(set(w["drift"]) <= keys for w in windows)
        assert all("confidence_fast" in w["drift"] for w in windows)
        flagged = [w for w in windows if w["drift"]["shift"]]
        assert flagged
        assert {w["drift"]["signal"] for w in flagged} \
            <= {"accuracy", "confidence"}

    def test_hop_and_version_tag(self, server, generator):
        source = SyntheticSource(generator=generator, n_series=4, seed=3)
        events = list(stream_windows(
            "127.0.0.1", server.port, "demo",
            ((s.values, s.label) for s in source),
            window=WINDOW, hop=8, version="prod"))
        assert events[-1]["windows"] == expected_windows(4 * WINDOW, WINDOW, 8)
        assert events[-1]["version"] == 1

    def test_unlabelled_stream_omits_accuracy(self, server, generator):
        source = SyntheticSource(generator=generator, n_series=2, seed=3)
        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     ((s.values, None) for s in source),
                                     window=WINDOW))
        windows = [e for e in events if e["kind"] == "window"]
        assert windows
        assert all("truth" not in w for w in windows)
        assert all("accuracy_fast" not in w["drift"] for w in windows)

    def test_unknown_model_is_a_404_before_streaming(self, server):
        with pytest.raises(StreamRequestError) as excinfo:
            list(stream_windows("127.0.0.1", server.port, "missing",
                                iter(()), window=WINDOW))
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("query", ["window=zero", "window=0",
                                       f"window={WINDOW}&hop=-1"])
    def test_bad_parameters_are_a_400(self, server, query):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        try:
            connection.request("POST", f"/v1/models/demo/stream?{query}",
                               body=b'{"values": [0, 0]}\n')
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    @pytest.mark.parametrize("chunked", [False, True],
                             ids=["content-length", "chunked"])
    @pytest.mark.parametrize("path, status", [
        ("/v1/models/demo/stream?window=0", 400),
        ("/v1/models/missing/stream", 404),
        ("/v1/models/demo/stream?session=" + "s" * 65, 400),
        ("/v1/models/demo/stream?resume=3", 400),
    ], ids=["window-0", "unknown-model", "long-session-id",
            "resume-without-session"])
    def test_refused_stream_leaves_its_connection_usable(
            self, server, generator, path, status, chunked):
        """A stream refused before it commits never leaves its unread
        body to be parsed as the next request: a predict sent next
        through the same client connection gets its 200.  A
        ``Content-Length`` refusal keeps the connection alive; a chunked
        one closes it, and says so."""
        lines = [json.dumps({"values": [0.1 * i, -0.1 * i]}).encode()
                 + b"\n" for i in range(3)]
        series, _ = generator.sample(np.array([1, 0]),
                                     np.random.default_rng(2))
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        try:
            connection.request("POST", path, body=iter(lines) if chunked
                               else b"".join(lines))
            sock = connection.sock
            refused = connection.getresponse()
            assert refused.status == status
            refused.read()
            assert refused.getheader("Connection") == (
                "close" if chunked else None)
            connection.request("POST", "/v1/models/demo/predict",
                               body=json.dumps({"series": series[0].tolist()}))
            response = connection.getresponse()
            assert response.status == 200
            assert "label" in json.loads(response.read())
            assert (connection.sock is sock) is not chunked
        finally:
            connection.close()

    @pytest.mark.parametrize("chunked", [False, True],
                             ids=["content-length", "chunked"])
    def test_refused_stream_under_connection_close_drains_its_body(
            self, server, chunked):
        """A client that asks to close still gets its refusal whole: the
        reply says the connection closes, and the body is drained before
        the close.  The body (about 1 MB) outgrows both socket buffers,
        so a server that closed on it unread would reset the connection
        while the client is still sending, and the send would fail."""
        line = json.dumps({"values": [0.5] * 65536}).encode() + b"\n"
        body = line * 3
        if chunked:
            framing = b"Transfer-Encoding: chunked\r\n"
            body = b"%x\r\n%b\r\n0\r\n\r\n" % (len(body), body)
        else:
            framing = b"Content-Length: %d\r\n" % len(body)
        with socket.socket() as sock:
            sock.settimeout(10)
            # A fixed send buffer: the kernel would otherwise grow it.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
            sock.connect(("127.0.0.1", server.port))
            sock.sendall(b"POST /v1/models/demo/stream?window=0 HTTP/1.1\r\n"
                         b"Host: test\r\nConnection: close\r\n" + framing
                         + b"\r\n" + body)
            if chunked:  # a chunked refusal drains until the client hangs up
                sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", reply
        assert b"connection: close" in head.lower()
        assert json.loads(payload)["error"].startswith("bad stream parameters")

    def test_content_length_body_works_too(self, server, generator):
        """A buffered (non-chunked) NDJSON body streams the same results."""
        source = SyntheticSource(generator=generator, n_series=3, seed=5)
        body = b"".join(
            json.dumps({"values": s.values.tolist(), "label": s.label})
            .encode() + b"\n" for s in source
        )
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            connection.request(
                "POST", f"/v1/models/demo/stream?window={WINDOW}", body=body)
            response = connection.getresponse()
            assert response.status == 200
            lines = [json.loads(line) for line in response if line.strip()]
        finally:
            connection.close()
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["windows"] == 3

    def test_malformed_line_reports_in_band_error(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            connection.request("POST", f"/v1/models/demo/stream?window={WINDOW}",
                               body=b'{"values": [0.0, 0.0]}\nnot json\n')
            response = connection.getresponse()
            assert response.status == 200  # already committed: in-band error
            lines = [json.loads(line) for line in response if line.strip()]
        finally:
            connection.close()
        assert lines[-1]["kind"] == "error"

    def test_line_cap_bounds_a_chunk_as_it_arrives(self, server):
        """A chunk declaring 32 MiB is read in slices: once 1 MiB passes
        without a newline the in-band error arrives, without waiting for
        (or buffering) the rest of the declared chunk."""
        import socket

        cap = 1_048_576
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(
                f"POST /v1/models/demo/stream?window={WINDOW} HTTP/1.1\r\n"
                "Host: test\r\nTransfer-Encoding: chunked\r\n\r\n"
                f"{32 * cap:x}\r\n".encode())
            # 17 slices of 64 KiB: exactly what the server reads before
            # the buffered partial line passes the cap, so no unread
            # bytes turn its close into a reset.
            for _ in range(17):
                sock.sendall(b"x" * 65536)
            reply = b""
            while chunk := sock.recv(65536):  # times out at 5 s
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200"), reply[:200]
        assert f"stream line exceeds {cap} bytes".encode() in reply

    def test_truncated_body_drops_its_torn_last_line(self):
        """A connection that dies mid-line leaves a torn line: it is
        dropped, not parsed as a sample."""
        from repro.serving.server import _Handler

        handler = _Handler.__new__(_Handler)
        handler._body_truncated = False

        def chunks():
            yield b'{"values": [1.0]}\n{"values": [2'
            handler._body_truncated = True  # the read came up short

        assert list(handler._iter_lines(chunks())) == [b'{"values": [1.0]}']

    def test_framing_ignores_read_boundaries(self):
        """One 64 KiB read frames into the same lines, blank ones
        dropped, as the same bytes read one at a time."""
        handler = _Handler.__new__(_Handler)
        handler._body_truncated = False
        lines = [b"  " if i % 50 == 49 else
                 b'{"values": [%d.5, -1.25], "t": %d}' % (i, i)
                 for i in range(2000)]
        data = b"\n".join(lines)[:65536]  # ends in an unterminated line
        whole = list(handler._iter_lines(iter([data])))
        bytewise = list(handler._iter_lines(
            data[i:i + 1] for i in range(len(data))))
        assert len(whole) > 1000
        assert bytewise == whole
        assert b"".join(whole) == data.replace(b"\n", b"").replace(b"  ", b"")

    def test_content_length_body_in_one_write(self, server):
        """A 2,000-line ``Content-Length`` body sent in one write is
        framed whole: the summary counts every sample."""
        n_lines = 2000
        body = b"".join(b'{"values": [%d.0, 0.5]}\n' % (i % 7)
                        for i in range(n_lines))
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(
                f"POST /v1/models/demo/stream?window={WINDOW} HTTP/1.1\r\n"
                f"Host: test\r\nContent-Length: {len(body)}\r\n\r\n"
                .encode() + body)
            reply = _read_until(sock, b"0\r\n\r\n")
        summary = json.loads(reply.split(b"\r\n")[-4])
        assert summary["kind"] == "summary"
        assert summary["samples"] == n_lines
        assert summary["windows"] == expected_windows(n_lines, WINDOW, WINDOW)

    def test_wrong_channel_count_reports_in_band_error(self, server):
        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     [([0.0, 0.0, 0.0], None)] * WINDOW,
                                     window=WINDOW))
        assert events[-1]["kind"] == "error"
        assert "shape" in events[-1]["error"]

    def test_concurrent_streams_over_http(self, server, generator):
        failures, summaries = [], []

        def run(seed):
            try:
                source = SyntheticSource(generator=generator, n_series=6,
                                         seed=seed)
                events = list(stream_windows(
                    "127.0.0.1", server.port, "demo",
                    ((s.values, s.label) for s in source), window=WINDOW))
                summaries.append(events[-1])
            except Exception as error:  # noqa: BLE001 - recorded for assert
                failures.append(error)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        assert [s["windows"] for s in summaries] == [6] * 8

    def test_stream_metrics_exported(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        assert "repro_serving_streams_total" in text
        assert "repro_serving_stream_windows_total" in text
        assert 'repro_serving_active_streams{model="demo",version="1"} 0' in text


def _open_raw_stream(port: int, query: str) -> socket.socket:
    """A stream request over a raw socket, chunked body left open."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.sendall(f"POST /v1/models/demo/stream?{query} HTTP/1.1\r\n"
                 "Host: test\r\nTransfer-Encoding: chunked\r\n\r\n"
                 .encode())
    return sock


def _send_samples(sock: socket.socket, samples) -> None:
    for values in samples:
        line = json.dumps({"values": list(map(float, values))}).encode()
        sock.sendall(b"%x\r\n%s\n\r\n" % (len(line) + 1, line))


def _read_until(sock: socket.socket, marker: bytes) -> bytes:
    """Read until *marker* arrives (or the server closes); times out
    with the socket."""
    reply = b""
    while marker not in reply:
        chunk = sock.recv(65536)
        if not chunk:
            break
        reply += chunk
    return reply


def _response_chunks(reply: bytes) -> list[bytes]:
    """The chunk payloads of a raw chunked HTTP response."""
    body = reply.split(b"\r\n\r\n", 1)[1]
    chunks = []
    while True:
        size_line, body = body.split(b"\r\n", 1)
        size = int(size_line, 16)
        if size == 0:
            return chunks
        chunks.append(body[:size])
        body = body[size + 2:]


def _held_first_step(port: int, monkeypatch, lines: list, query: str):
    """Stream request-line dicts *lines* while the loop's first step is
    held until the reader has framed every line, so the rest arrive as
    one block; returns the window count of each
    ``PredictionService.submit`` and the raw response."""
    release = threading.Event()
    framed, submits = [], []
    real_iter_lines = _Handler._iter_lines
    real_parse = _Handler._parse_sample
    real_submit = PredictionService.submit

    def counted_lines(self, chunks):
        for line in real_iter_lines(self, chunks):
            framed.append(line)
            yield line

    def held_parse(line):
        release.wait(10)
        return real_parse(line)

    def counted_submit(self, name, instances, *args, **kwargs):
        submits.append(len(instances))
        return real_submit(self, name, instances, *args, **kwargs)

    monkeypatch.setattr(_Handler, "_iter_lines", counted_lines)
    monkeypatch.setattr(_Handler, "_parse_sample", staticmethod(held_parse))
    monkeypatch.setattr(PredictionService, "submit", counted_submit)
    try:
        with _open_raw_stream(port, query) as sock:
            for line in lines:
                data = json.dumps(line).encode() + b"\n"
                sock.sendall(b"%x\r\n%s\r\n" % (len(data), data))
            sock.sendall(b"0\r\n\r\n")
            deadline = time.monotonic() + 5
            while len(framed) < len(lines) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # the last framed line reaches the queue
            release.set()
            reply = _read_until(sock, b"0\r\n\r\n")
    finally:
        release.set()
    return submits, reply


def _response_events(reply: bytes) -> list[dict]:
    """Every NDJSON line of a raw chunked response, parsed."""
    return [json.loads(line) for chunk in _response_chunks(reply)
            for line in chunk.splitlines()]


def _one_window(generator) -> list:
    X, _ = generator.sample(np.array([1, 0]), np.random.default_rng(3))
    return list(X[0].T)  # WINDOW samples of n_channels values


def _surviving_streams(before: set, timeout: float = 5.0) -> list:
    """Connection-handler and stream-reader threads started since
    *before* that are still alive once *timeout* has passed (an empty
    list as soon as none is)."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [thread for thread in threading.enumerate()
                 if thread not in before and (
                     thread.name == "stream-reader"
                     or "process_request_thread" in thread.name)]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.01)


class TestResolveTiming:
    """Window lines leave when their prediction resolves; the body
    reader is bounded and ends with its connection."""

    def test_window_line_leaves_without_the_next_sample(self, server,
                                                         generator):
        """Exactly one window's samples, then nothing: not another
        sample, not the end of the body.  The window line still
        arrives, because it is written when its prediction resolves."""
        with _open_raw_stream(server.port, f"window={WINDOW}") as sock:
            sock.settimeout(2.0)
            _send_samples(sock, _one_window(generator))
            reply = _read_until(sock, b'"kind": "window"')  # 2 s at most
            assert b'"kind": "window"' in reply, reply[-300:]
            sock.sendall(b"0\r\n\r\n")
            reply += _read_until(sock, b"0\r\n\r\n")
        assert b'"kind": "summary"' in reply

    def test_content_length_window_line_leaves_before_the_body_ends(
            self, server, generator):
        """A ``Content-Length`` body is read as it arrives: one window's
        samples under a length four times theirs get their window line
        while the rest of the body is still owed."""
        lines = b"".join(
            json.dumps({"values": list(map(float, values))}).encode() + b"\n"
            for values in _one_window(generator))
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=2.0) as sock:
            sock.sendall(
                f"POST /v1/models/demo/stream?window={WINDOW} HTTP/1.1\r\n"
                f"Host: test\r\nContent-Length: {4 * len(lines)}\r\n\r\n"
                .encode() + lines)
            reply = _read_until(sock, b'"kind": "window"')  # 2 s at most
            assert b'"kind": "window"' in reply, reply[-300:]
            sock.sendall(b"\n" * (3 * len(lines)))  # blank lines end it
            reply += _read_until(sock, b"0\r\n\r\n")
        summary = json.loads(reply.split(b"\r\n")[-4])
        assert summary["kind"] == "summary" and summary["windows"] == 1

    def test_stalled_handler_reads_at_most_the_bound_ahead(
            self, server, monkeypatch):
        """While the stream loop is stuck in its first block feed, the
        reader frames at most the bound's worth of lines (the block in
        the feed and those queued behind it) plus the one it holds
        ahead of them, and no more; then the stream completes
        normally."""
        release = threading.Event()
        real_feed = StreamScorer.feed_many

        def stalled_feed(self, *args, **kwargs):
            release.wait(10)
            return real_feed(self, *args, **kwargs)

        framed = []
        real_iter_lines = _Handler._iter_lines

        def counted(self, chunks):
            for line in real_iter_lines(self, chunks):
                framed.append(line)
                yield line

        monkeypatch.setattr(StreamScorer, "feed_many", stalled_feed)
        monkeypatch.setattr(_Handler, "_iter_lines", counted)
        bound = _Handler._READ_AHEAD
        n_lines = 4 * bound
        try:
            with _open_raw_stream(server.port, f"window={WINDOW}") as sock:
                _send_samples(sock, [[0.5, -0.5]] * n_lines)
                sock.sendall(b"0\r\n\r\n")
                deadline = time.monotonic() + 5
                while len(framed) <= bound and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # a reader past the bound would show now
                # The block in the feed and the lines queued behind it
                # fill the bound, plus the one line in the reader's hand.
                assert bound + 1 <= len(framed) <= 1 + bound + 1
                release.set()
                reply = _read_until(sock, b"0\r\n\r\n")
        finally:
            release.set()
        assert len(framed) == n_lines
        summary = json.loads(reply.split(b"\r\n")[-4])
        assert summary["kind"] == "summary"
        assert summary["samples"] == n_lines

    def test_one_admission_per_block(self, server, monkeypatch):
        """Lines queued behind a held step are fed as one block: the 9
        windows of a 64-line body (window 32, hop 4) take at most two
        ``submit`` calls, one per step, not one per window."""
        submits, reply = _held_first_step(
            server.port, monkeypatch, [{"values": [0.5, -0.5]}] * 64,
            f"window={WINDOW}&hop=4")
        assert b'"kind": "summary"' in reply
        assert sum(submits) == expected_windows(64, WINDOW, 4) == 9
        assert len(submits) <= 2, submits

    def test_one_chunk_per_step(self, server, monkeypatch):
        """The window lines a step resolves leave together: the 9
        windows admitted together arrive in fewer chunks than lines."""
        _, reply = _held_first_step(
            server.port, monkeypatch, [{"values": [0.5, -0.5]}] * 64,
            f"window={WINDOW}&hop=4")
        chunks = _response_chunks(reply)
        lines = _response_events(reply)
        windows = [line for line in lines if line["kind"] == "window"]
        assert [w["index"] for w in windows] == list(range(9))
        assert lines[-1]["kind"] == "summary"
        window_chunks = [chunk for chunk in chunks
                         if b'"kind": "window"' in chunk]
        assert len(window_chunks) < len(windows), len(window_chunks)

    def test_blocks_keep_the_queue_bound(self, registry, generator,
                                         monkeypatch):
        """On a service whose queue holds 4 windows, no admission
        carries more than 4 (a block is split at the bound), and every
        window still arrives, in order."""
        sizes = []
        real_submit_many = MicroBatcher.submit_many

        def counted(self, series_list, **kwargs):
            sizes.append(len(series_list))
            return real_submit_many(self, series_list, **kwargs)

        monkeypatch.setattr(MicroBatcher, "submit_many", counted)
        source = SyntheticSource(generator=generator, n_series=4, seed=3)
        body = b"".join(
            json.dumps({"values": s.values.tolist()}).encode() + b"\n"
            for s in source)
        bounded = create_server(registry, port=0, max_queue=4)
        thread = threading.Thread(target=bounded.serve_forever, daemon=True)
        thread.start()
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", bounded.port, timeout=30)
            try:
                connection.request(
                    "POST", f"/v1/models/demo/stream?window={WINDOW}&hop=1",
                    body=body)
                response = connection.getresponse()
                lines = [json.loads(line) for line in response
                         if line.strip()]
            finally:
                connection.close()
        finally:
            bounded.shutdown()
            bounded.server_close()
            thread.join(timeout=10)
        plan = expected_windows(4 * WINDOW, WINDOW, 1)
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["windows"] == plan
        assert [line["index"] for line in lines[:-1]] == list(range(plan))
        assert sizes and max(sizes) <= 4, sizes

    def test_bad_sample_mid_block_keeps_the_session_whole(
            self, registry, monkeypatch):
        """A sample refused in the middle of a block still lets out the
        windows the block resolved before it (here through in-flight
        cap waits), so the replay cache covers everything the session
        token claims: a resume from 0 replays exactly the lines sent."""
        capped = create_server(registry, port=0, max_batch=2)  # cap 2
        thread = threading.Thread(target=capped.serve_forever, daemon=True)
        thread.start()
        query = f"window={WINDOW}&hop=4&session=mid-block"
        # 48 lines and the bad one fit the read-ahead bound, so they
        # arrive as one block.
        lines = [{"values": [0.5, -0.5], "t": t} for t in range(48)]
        try:
            _, reply = _held_first_step(
                capped.port, monkeypatch, lines + [lines[-1]], query)
            events = _response_events(reply)
            with _open_raw_stream(capped.port, f"{query}&resume=0") as sock:
                sock.sendall(b"0\r\n\r\n")
                resume_reply = _read_until(sock, b"0\r\n\r\n")
        finally:
            capped.shutdown()
            capped.server_close()
            thread.join(timeout=10)
        # A token past the cached lines would refuse the resume (410).
        assert resume_reply.startswith(b"HTTP/1.1 200"), resume_reply[:300]
        resumed = _response_events(resume_reply)
        assert events[0]["kind"] == "session"
        assert events[-1]["kind"] == "error"
        assert "t must increase" in events[-1]["error"]
        windows = [e for e in events if e["kind"] == "window"]
        assert windows
        assert [w["token"] for w in windows] == list(range(1, len(windows) + 1))
        assert resumed[0]["kind"] == "session"
        assert resumed[0]["token"] == len(windows)
        assert [e for e in resumed if e["kind"] == "window"] == windows

    def test_wake_returns_at_once_with_the_queue_full(self):
        """The resolve wake-up runs on the batcher thread: a full line
        queue (its reader blocked for space) must never hold it up."""
        inbox = _Inbox(4)
        pulled = []

        def lines():
            while True:
                pulled.append(b"line")
                yield b"line"

        reader = threading.Thread(target=inbox.fill, args=(lines(),),
                                  daemon=True)
        reader.start()
        deadline = time.monotonic() + 5
        while len(pulled) < 4 + 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)  # let the reader block on the full queue
        waker = threading.Thread(target=inbox.wake)
        waker.start()
        waker.join(timeout=1)
        assert not waker.is_alive(), "wake() waited on the full queue"
        # Every queued line in one block, ahead of the wake-up: a feed
        # collects the resolved windows too.
        assert inbox.take() == [b"line"] * 4
        inbox.close()
        reader.join(timeout=5)
        assert not reader.is_alive()

    def test_no_line_or_resolve_is_lost_under_thread_churn(self):
        """A reader, a resolving batcher and the stream loop share one
        inbox while the interpreter switches threads as often as it can:
        every line arrives once and in order, and the loop takes an
        event after the last resolve (a lost wake-up would leave it
        blocked in ``take``)."""
        n_lines, n_resolves = 2000, 500
        inbox = _Inbox(8)
        resolved = 0
        body_done = threading.Event()

        def body():
            yield from (b"%d" % i for i in range(n_lines))
            body_done.wait(30)

        def resolve():
            nonlocal resolved
            for _ in range(n_resolves):
                resolved += 1  # the future is done before its callback
                inbox.wake()

        got, seen = [], 0

        def loop():
            nonlocal seen
            while len(got) < n_lines or seen < n_resolves:
                block = inbox.take()
                seen = resolved
                got.extend(int(line) for line in block)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=inbox.fill, args=(body(),)),
                   threading.Thread(target=resolve),
                   threading.Thread(target=loop)]
        try:
            for thread in threads:
                thread.start()
            threads[2].join(timeout=30)
            stuck = threads[2].is_alive()
        finally:
            sys.setswitchinterval(interval)
            body_done.set()
            inbox.wake()  # unblocks a stuck loop so the test can fail
            for thread in threads:
                thread.join(timeout=5)
        assert not stuck, f"loop stuck with {len(got)} lines, {seen} resolves"
        assert got == list(range(n_lines))
        assert inbox.take() == []  # the unblocking wake-up above
        assert inbox.take() is inbox.END

    @pytest.mark.parametrize("ending", ["hangup", "reset", "malformed",
                                        "detach", "takeover"])
    def test_no_reader_outlives_its_stream(self, server, generator, ending):
        """However the stream ends, its handler and reader threads are
        gone with it — including while the reader is blocked in ``recv``
        on a body the client never finished.  A reset still counts as a client
        disconnect, never as an in-band error; a resume that takes the
        session over ends the fenced stream at once, though its
        connection never closed."""
        before = set(threading.enumerate())
        disconnects = server.service._client_disconnects
        query = f"window={WINDOW}"
        if ending in ("detach", "takeover"):
            query += f"&session=reader-{time.monotonic_ns()}"
        try:
            with _open_raw_stream(server.port, query) as sock:
                _send_samples(sock, _one_window(generator))
                _read_until(sock, b'"kind": "window"')
                if ending == "hangup":
                    pass  # the with block closes the socket
                elif ending == "reset":
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                elif ending == "malformed":
                    sock.sendall(b"9\r\nnot json\n\r\n")
                    reply = _read_until(sock, b"0\r\n\r\n")
                    assert b'"kind": "error"' in reply
                elif ending == "detach":
                    server.draining = True
                    _send_samples(sock, _one_window(generator)[:1])
                    reply = _read_until(sock, b"0\r\n\r\n")
                    assert b'"kind": "detach"' in reply
                else:
                    with _open_raw_stream(server.port,
                                          f"{query}&resume=1") as other:
                        reply = _read_until(sock, b"0\r\n\r\n")
                        assert b"taken over" in reply
                        other.sendall(b"0\r\n\r\n")
                        reply = _read_until(other, b"0\r\n\r\n")
                        assert b'"kind": "summary"' in reply
        finally:
            server.__dict__.pop("draining", None)
        assert _surviving_streams(before) == []
        if ending == "reset":
            deadline = time.monotonic() + 5
            while server.service._client_disconnects == disconnects \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.service._client_disconnects == disconnects + 1


class TestStreamClock:
    """The sample clock ``t`` travels with each request line."""

    @pytest.mark.parametrize("world", ["gappy-stream", "ragged-shift"])
    def test_gap_worlds_window_like_in_process(self, registry, server,
                                               world):
        """Served over HTTP, a world whose clock jumps (outages,
        dropouts, truncated series) yields the windows an in-process
        scorer fed the same clock does."""
        scenario = make_world(world, seed=0, n_series=60)
        X, y = scenario.training_panel()
        model = RocketClassifier(num_kernels=40, seed=0).fit(
            prepare_panel(X), y)
        name = f"clock-{world}"
        registry.publish(model, name, metadata=model_metadata(
            model, dataset="synthetic", preprocessing="znormalize+impute"))
        samples = [(s.values, s.label, s.t) for s in scenario.source()]

        with StreamScorer(server.service, name, window=scenario.window,
                          hop=scenario.hop) as scorer:
            local = []
            for values, label, t in samples:
                local += scorer.feed(values, label, t=t)
            local += scorer.finish()
        assert scorer.gaps > 0, "the world should have gaps"

        events = list(stream_windows("127.0.0.1", server.port, name,
                                     samples, window=scenario.window,
                                     hop=scenario.hop))
        served = [e for e in events if e["kind"] == "window"]
        assert events[-1]["kind"] == "summary"
        assert events[-1]["windows"] == len(local)
        assert [(e["index"], e["start"], e["end"]) for e in served] \
            == [(r.index, r.start, r.end) for r in local]

    @pytest.mark.parametrize("clock, message", [
        ((5, 5), "t must increase"),
        ((5, 4), "t must increase"),
        ((1.5,), '"t" must be an integer'),
        (("7",), '"t" must be an integer'),
    ])
    def test_bad_clock_is_an_in_band_error(self, server, clock, message):
        lines = [{"values": [0.0, 0.0], "t": t} for t in clock]
        events = list(stream_windows("127.0.0.1", server.port, "demo",
                                     lines, window=WINDOW))
        assert events[-1]["kind"] == "error"
        assert message in events[-1]["error"]


class TestStreamCLI:
    def test_input_file_replay(self, server, generator, tmp_path, capsys):
        X, _ = generator.sample(np.array([2, 2]), np.random.default_rng(9))
        path = tmp_path / "panel.json"
        path.write_text(json.dumps(X.tolist()))
        code = main(["stream", "demo",
                     "--url", f"http://127.0.0.1:{server.port}",
                     "--input", str(path)])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["windows"] == 4
        assert sum(line["kind"] == "window" for line in lines) == 4

    def test_quiet_prints_only_summary(self, server, generator, tmp_path,
                                       capsys):
        X, _ = generator.sample(np.array([1, 1]), np.random.default_rng(9))
        path = tmp_path / "panel.json"
        path.write_text(json.dumps(X.tolist()))
        code = main(["stream", "demo", "--quiet",
                     "--url", f"http://127.0.0.1:{server.port}",
                     "--input", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "summary"

    def test_unknown_model_fails_cleanly(self, server, tmp_path, capsys):
        path = tmp_path / "panel.json"
        path.write_text(json.dumps(np.zeros((1, 2, WINDOW)).tolist()))
        code = main(["stream", "missing",
                     "--url", f"http://127.0.0.1:{server.port}",
                     "--input", str(path)])
        assert code == 1
        assert "404" in capsys.readouterr().err

    def test_bad_url_rejected(self, capsys):
        code = main(["stream", "demo", "--url", "nonsense",
                     "--dataset", "RacketSports"])
        assert code == 2
        assert "http://host:port" in capsys.readouterr().err
