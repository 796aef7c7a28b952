"""What a process imports: a server loads only what it serves.

``import repro`` loads no subpackage; each resolves on first attribute
access (PEP 562).  The serving path (registry, server, streaming, the
pre-fork pool and the CLI that starts them) never imports the
experiment stack, the augmenters, the adaptation loop or the taxonomy,
so it runs on numpy alone, without scipy or networkx.  The import
contracts run in fresh interpreters, because this one has long since
imported everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: the subpackages ``repro.__all__`` names
SUBPACKAGES = ("augmentation", "classifiers", "data", "experiments", "nn",
               "serving", "taxonomy")

#: a numpy-only process (any import of scipy or networkx raises
#: ImportError) fits, publishes into ``argv[1]`` and serves
SERVE_ON_NUMPY_ALONE = """
import sys
for name in ("scipy", "networkx"):
    sys.modules[name] = None

import http.client
import json
import threading

import repro.cli
import repro.serving
import repro.streaming
from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import (ModelRegistry, ServingPool, create_server,
                           model_metadata, prepare_panel)
from repro.streaming import stream_windows

X, y = make_classification_panel(n_series=20, n_channels=2, length=32,
                                 n_classes=2, difficulty=0.15, seed=0)
model = RocketClassifier(num_kernels=60, seed=0).fit(prepare_panel(X), y)
root = sys.argv[1]
ModelRegistry(root).publish(model, "demo", metadata=model_metadata(
    model, dataset="synthetic", preprocessing="znormalize+impute"))


def predict(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("POST", "/v1/models/demo/predict",
                 body=json.dumps({"series": X[0].tolist(), "proba": True}))
    response = conn.getresponse()
    reply = json.loads(response.read())
    conn.close()
    assert response.status == 200, (response.status, reply)
    assert abs(sum(reply["proba"]) - 1.0) < 1e-6, reply


server = create_server(root, port=0)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
try:
    predict(server.port)
    samples = [(values, int(label)) for series, label in zip(X[:4], y[:4])
               for values in series.T]
    events = list(stream_windows("127.0.0.1", server.port, "demo", samples,
                                 window=32))
    assert events[-1]["kind"] == "summary", events[-1]
    assert events[-1]["windows"] == 4, events[-1]
finally:
    server.shutdown()
    server.server_close()

with ServingPool(root, workers=2, port=0, drain_timeout=2.0) as pool:
    predict(pool.port)

print(json.dumps(sorted(name for name in (
    "repro.experiments", "repro.augmentation", "repro.adaptation",
    "repro.taxonomy") if name in sys.modules)))
"""


def _python(code: str, *args: str) -> str:
    """Run *code* with *args* in a fresh interpreter on this checkout's
    ``src``; return its stdout, failing with its stderr if it exits
    nonzero."""
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=180)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="the worker pool is fork-based")
def test_serving_runs_on_numpy_alone(tmp_path):
    """Fit, publish, a proba predict, a stream and a 2-worker pool, with
    scipy and networkx unimportable; none of it loads the experiment
    stack, the augmenters, the adaptation loop or the taxonomy."""
    out = _python(SERVE_ON_NUMPY_ALONE, str(tmp_path / "registry"))
    assert out.splitlines()[-1] == "[]"


def test_import_repro_loads_no_subpackage():
    out = _python("""
        import sys
        import repro
        print(sorted(m for m in sys.modules if m.startswith("repro.")))
    """)
    assert out.splitlines()[-1] == "[]"


class TestLazySubpackages:
    def test_every_subpackage_resolves_to_its_module(self):
        assert [name for name in repro.__all__ if name != "__version__"] \
            == list(SUBPACKAGES)
        for name in SUBPACKAGES:
            assert getattr(repro, name) is sys.modules[f"repro.{name}"]
            assert name in dir(repro)

    def test_star_import_binds_all_seven(self):
        namespace = {}
        exec("from repro import *", namespace)
        for name in SUBPACKAGES:
            assert namespace[name] is sys.modules[f"repro.{name}"]
        assert namespace["__version__"] == repro.__version__

    def test_from_import_and_unknown_names(self):
        from repro import serving, taxonomy

        assert serving is repro.serving and taxonomy is repro.taxonomy
        with pytest.raises(AttributeError, match="no_such_subpackage"):
            repro.no_such_subpackage  # noqa: B018 - the access is the test
