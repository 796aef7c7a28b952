"""Backfill-vs-stream parity: replaying a panel equals batch prediction.

The carried-over correctness claim from the streaming subsystem: scoring
a recorded panel *as a stream* (sample by sample through the
``SlidingWindower`` → micro-batcher path) must produce exactly the
results of handing the same windows to ``PredictionService.predict`` in
one batch call.  Any divergence means the stream path preprocesses,
batches or orders differently from the batch path — the bug class this
suite pins down across overlap hops, protocol preprocessing on/off, and
the label and probability halves of each answer.
"""

import numpy as np
import pytest

from repro.backend import PROBA_ATOL, ComputePolicy
from repro.classifiers import RocketClassifier
from repro.data import make_classification_panel
from repro.serving import (
    ModelRegistry,
    PredictionService,
    model_metadata,
    prepare_panel,
)
from repro.streaming import ReplaySource, StreamScorer, expected_windows

WINDOW = 32


@pytest.fixture(scope="module")
def problem():
    return make_classification_panel(
        n_series=30, n_channels=2, length=WINDOW, n_classes=2,
        difficulty=0.15, seed=7,
    )


@pytest.fixture(scope="module")
def registry(tmp_path_factory, problem):
    """Two published models: protocol-preprocessed and raw."""
    X, y = problem
    registry = ModelRegistry(tmp_path_factory.mktemp("parity-registry"))
    protocol = RocketClassifier(num_kernels=60, seed=0).fit(
        prepare_panel(X), y)
    registry.publish(protocol, "protocol", metadata=model_metadata(
        protocol, dataset="synthetic", preprocessing="znormalize+impute"))
    raw = RocketClassifier(num_kernels=60, seed=0).fit(X, y)
    registry.publish(raw, "raw", metadata=model_metadata(
        raw, dataset="synthetic"))
    return registry


@pytest.fixture
def service(registry):
    service = PredictionService(registry, max_queue=256)
    yield service
    service.close()


def _stream_windows(X: np.ndarray, hop: int) -> list[np.ndarray]:
    """The exact panels the windower will assemble from replaying X."""
    flat = np.concatenate(list(X), axis=1)  # (channels, total samples)
    total = flat.shape[1]
    return [flat[:, start:start + WINDOW].copy()
            for start in range(0, total - WINDOW + 1, hop)]


def _replay(service, name, X, y, *, hop):
    source = ReplaySource(X, y)
    with StreamScorer(service, name, window=WINDOW, hop=hop) as scorer:
        results = []
        for sample in source:
            results.extend(scorer.feed(sample.values, sample.label))
        results.extend(scorer.finish())
    return results


def _assert_stream_probas_match_batch(service, problem, name, hop, *,
                                      rtol, atol):
    X, y = problem
    results = _replay(service, name, X[:10], y[:10], hop=hop)
    windows = _stream_windows(X[:10], hop)
    assert len(results) == len(windows)
    batch = service.predict(name, windows, return_proba=True)
    assert [r.label for r in results] == list(batch["labels"])
    stream_probas = np.stack([r.proba for r in results])
    np.testing.assert_allclose(stream_probas, np.asarray(batch["probas"]),
                               rtol=rtol, atol=atol)
    confidences = [r.confidence for r in results]
    np.testing.assert_allclose(confidences, batch["confidences"],
                               rtol=rtol, atol=atol)


class TestBackfillStreamParity:
    @pytest.mark.parametrize("name", ["protocol", "raw"])
    @pytest.mark.parametrize("hop", [WINDOW, 8])
    def test_labels_match_batch_predict(self, service, problem, name, hop):
        """Stream labels == batch labels, window for window."""
        X, y = problem
        results = _replay(service, name, X[:10], y[:10], hop=hop)
        windows = _stream_windows(X[:10], hop)
        assert len(results) == len(windows) \
            == expected_windows(10 * WINDOW, WINDOW, hop)
        batch = service.predict(name, windows)
        assert [r.label for r in results] == list(batch["labels"])

    @pytest.mark.parametrize("name", ["protocol", "raw"])
    @pytest.mark.parametrize("hop", [WINDOW, 8])
    def test_probas_match_batch_predict(self, service, problem, name, hop):
        """Stream probabilities == batch probabilities on the float32
        serving default, bit for bit: the float32 GEMMs are
        batch-invariant, so whichever windows the micro-batcher happens
        to coalesce cannot move a probability."""
        _assert_stream_probas_match_batch(service, problem, name, hop,
                                          rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("name", ["protocol", "raw"])
    @pytest.mark.parametrize("hop", [WINDOW, 8])
    def test_float64_probas_match_batch_predict(self, service_f64, problem,
                                                name, hop):
        """On the float64 path batch composition moves probabilities by a
        few ulps at most: stream probabilities equal batch probabilities
        to 1e-9."""
        _assert_stream_probas_match_batch(service_f64, problem, name, hop,
                                          rtol=1e-9, atol=1e-12)

    def test_window_plan_matches_batch_order(self, service, problem):
        """Window indices/extents line up with the offline plan, so the
        label comparison above compares the windows it thinks it does."""
        X, y = problem
        hop = 8
        results = _replay(service, "protocol", X[:6], y[:6], hop=hop)
        for position, result in enumerate(results):
            assert result.index == position
            assert result.start == position * hop
            assert result.end == position * hop + WINDOW - 1

    def test_protocol_and_raw_models_disagree_on_offset_windows(
            self, service, problem):
        """Sanity guard: the two registry entries are genuinely distinct
        serving paths (same kernels, different preprocessing), so parity
        passing on both is evidence, not coincidence."""
        X, y = problem
        windows = _stream_windows(X[:10], 8)
        protocol = service.predict("protocol", windows)
        raw = service.predict("raw", windows)
        assert protocol["model"] != raw["model"]


@pytest.fixture
def service_f64(registry):
    """Reference service forced onto the bit-pinned float64 numpy path."""
    service = PredictionService(registry, max_queue=256,
                                compute_policy=ComputePolicy("float64"))
    yield service
    service.close()


class TestFloat32BackfillStreamParity:
    """The float32 serving default against the float64 reference.

    The backend contract on the wire: argmax labels are bit-identical
    across policies, probabilities agree within the documented tolerance
    (``repro.backend.PROBA_ATOL``) — for batch calls and for the
    stream path, which shares the policy-applied model via the service.
    """

    @pytest.mark.parametrize("name", ["protocol", "raw"])
    @pytest.mark.parametrize("hop", [WINDOW, 8])
    def test_float32_stream_labels_bit_identical_to_float64(
            self, service, service_f64, problem, name, hop):
        X, y = problem
        f32 = _replay(service, name, X[:10], y[:10], hop=hop)
        f64 = _replay(service_f64, name, X[:10], y[:10], hop=hop)
        assert [r.label for r in f32] == [r.label for r in f64]

    @pytest.mark.parametrize("name", ["protocol", "raw"])
    def test_float32_batch_labels_bit_identical_to_float64(
            self, service, service_f64, problem, name):
        X, y = problem
        windows = _stream_windows(X[:10], 8)
        f32 = service.predict(name, windows)
        f64 = service_f64.predict(name, windows)
        assert list(f32["labels"]) == list(f64["labels"])

    @pytest.mark.parametrize("name", ["protocol", "raw"])
    def test_float32_probas_within_documented_tolerance(
            self, service, service_f64, problem, name):
        X, y = problem
        windows = _stream_windows(X[:10], 8)
        f32 = service.predict(name, windows, return_proba=True)
        f64 = service_f64.predict(name, windows, return_proba=True)
        diff = np.abs(np.asarray(f32["probas"]) - np.asarray(f64["probas"]))
        assert diff.max() <= PROBA_ATOL
        # ...and the tolerance is genuinely needed: the paths are distinct
        # (folded float32 head vs two-step float64 normalisation), so an
        # exactly-zero diff would mean the policy was silently ignored.
        assert diff.max() > 0.0

    def test_float32_stream_probas_match_float32_batch(
            self, service, problem):
        """Within one policy the stream/batch contract stays exact."""
        X, y = problem
        results = _replay(service, "protocol", X[:10], y[:10], hop=8)
        windows = _stream_windows(X[:10], 8)
        batch = service.predict("protocol", windows, return_proba=True)
        np.testing.assert_array_equal(np.stack([r.proba for r in results]),
                                      np.asarray(batch["probas"]))
