"""The NDJSON streaming endpoint and CLI, end to end over HTTP."""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.cli import main
from repro.data.generators import MTSGenerator
from repro.serving import ModelRegistry, create_server, model_metadata, prepare_panel
from repro.streaming import (
    StreamRequestError,
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
