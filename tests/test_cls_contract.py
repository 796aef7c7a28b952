"""Registry-wide classifier contract sweep.

Every classifier family exposed by the registry — the list comes from
``available_classifiers()``, never a hardcoded subset — must honour the
``Classifier`` contract:

* fit+predict is deterministic under a fixed seed: two fresh instances
  built identically produce bit-identical predictions;
* relabelling the training classes (an order-preserving permutation of
  the label *values*) permutes the predictions accordingly and leaves
  the accuracy bit-identical;
* predictions are always drawn from the training label set;
* NaN/Inf panels are rejected with ``ValueError`` at fit and predict
  (``Classifier._clean``), as are wrong-rank inputs;
* a predict panel whose channel count or length disagrees with the fit
  panel is rejected with ``ValueError`` (DTW's variable-length support
  is the one documented exception);
* families with serialization support survive save -> load -> predict
  bit-identically; the others refuse ``save_model`` with ``TypeError``;
* every family serves probabilities: ``predict_proba`` returns a
  row-stochastic ``(n_series, n_classes)`` matrix, columns in sorted
  ``classes_`` order, whose row-wise argmax agrees with ``predict``
  exactly — the agreement the serving layer relies on when it derives
  labels from coalesced probability batches;
* under the float32 serving policy a series' probabilities do not
  depend on which other series share its panel (batch invariance).

Neural families run with reduced budgets (same classes, fewer epochs and
filters) so the sweep stays CPU-cheap; the *names* swept are always the
registry's full list.
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import INFERENCE_POLICY, apply_inference_policy
from repro.classifiers import (
    accuracy_score,
    available_classifiers,
    make_classifier,
    save_model,
)
from repro.data import make_classification_panel

N_TRAIN, N_TEST, N_CHANNELS, LENGTH, N_CLASSES = 18, 9, 2, 24, 3

#: budget overrides keep neural families CPU-cheap without leaving the
#: registry: the swept class and name stay the registry's own
FAMILY_KWARGS = {
    "rocket": dict(num_kernels=40, seed=0),
    "minirocket": dict(num_features=84, seed=0),
    "inceptiontime": dict(n_filters=4, depth=2, kernel_sizes=(5, 3),
                          bottleneck=4, ensemble_size=1, max_epochs=3,
                          patience=3, batch_size=8, lr=1e-3, seed=0),
    "fcn": dict(filters=(4, 8, 4), max_epochs=3, patience=3, batch_size=8,
                seed=0),
    "resnet": dict(filters=(4, 8, 8), max_epochs=2, patience=2, batch_size=8,
                   seed=0),
    "knn_euclidean": dict(n_neighbors=1),
    "knn_dtw": dict(n_neighbors=1, window=3),
    "sax_dictionary": dict(word_length=3, alphabet_size=3),
    "interval": dict(n_intervals=20, seed=0),
    "shapelet": dict(n_shapelets=10, seed=0),
}

#: families covered by classifiers.serialization (save_model/load_model)
SERIALIZABLE = ("rocket", "minirocket", "inceptiontime")

#: an order-preserving permutation of the label values {0, 1, 2}: the
#: classes keep their sort order, so every family's internal class
#: indexing is untouched and predictions must map element-for-element
VALUE_MAP = np.array([2, 5, 9])

ALL_NAMES = available_classifiers()


def _problem():
    X, y = make_classification_panel(
        n_series=N_TRAIN + N_TEST, n_channels=N_CHANNELS, length=LENGTH,
        n_classes=N_CLASSES, difficulty=0.15, seed=3,
    )
    return X[:N_TRAIN], y[:N_TRAIN], X[N_TRAIN:], y[N_TRAIN:]


def _instance(name):
    return make_classifier(name, **FAMILY_KWARGS[name])


@functools.lru_cache(maxsize=None)
def _outputs(name: str) -> dict:
    """Fit each family a few ways once; the contract tests share the results."""
    X_tr, y_tr, X_te, _ = _problem()
    first = _instance(name).fit(X_tr, y_tr)
    second = _instance(name).fit(X_tr, y_tr)
    remapped = _instance(name).fit(X_tr, VALUE_MAP[y_tr])
    return {
        "model": first,
        "first": first.predict(X_te),
        "second": second.predict(X_te),
        "remapped": remapped.predict(X_te),
        "proba": first.predict_proba(X_te),
        "proba_second": second.predict_proba(X_te),
        "proba_remapped": remapped.predict_proba(X_te),
    }


def test_sweep_covers_whole_registry():
    """The sweep parametrizes over the live registry, subset-free."""
    assert ALL_NAMES == available_classifiers()
    assert set(FAMILY_KWARGS) == set(ALL_NAMES)
    for paper_family in ("rocket", "inceptiontime"):
        assert paper_family in ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
class TestRegistryContract:
    def test_fixed_seed_determinism(self, name):
        results = _outputs(name)
        np.testing.assert_array_equal(results["first"], results["second"])

    def test_label_value_permutation(self, name):
        """Relabelled classes permute predictions and preserve accuracy."""
        _, _, _, y_te = _problem()
        results = _outputs(name)
        np.testing.assert_array_equal(results["remapped"],
                                      VALUE_MAP[results["first"]])
        assert accuracy_score(VALUE_MAP[y_te], results["remapped"]) == \
            accuracy_score(y_te, results["first"])

    def test_predictions_from_training_label_set(self, name):
        _, y_tr, _, _ = _problem()
        assert set(np.asarray(_outputs(name)["remapped"]).tolist()) \
            <= set(VALUE_MAP[y_tr].tolist())

    def test_nonfinite_fit_rejected(self, name):
        X_tr, y_tr, _, _ = _problem()
        for poison in (np.nan, np.inf):
            X_bad = X_tr.copy()
            X_bad[0, 0, -3:] = poison
            with pytest.raises(ValueError, match="non-finite"):
                _instance(name).fit(X_bad, y_tr)

    def test_nonfinite_predict_rejected(self, name):
        _, _, X_te, _ = _problem()
        X_bad = X_te.copy()
        X_bad[-1, -1, 0] = -np.inf
        with pytest.raises(ValueError, match="non-finite"):
            _outputs(name)["model"].predict(X_bad)

    def test_wrong_rank_rejected(self, name):
        X_tr, y_tr, X_te, _ = _problem()
        model = _outputs(name)["model"]
        with pytest.raises(ValueError):
            model.predict(np.zeros(LENGTH))  # 1-D: not a panel
        with pytest.raises(ValueError):
            model.predict(X_te[:, :, :, None])  # 4-D
        with pytest.raises(ValueError):
            _instance(name).fit(np.zeros((N_TRAIN, 1, 1, LENGTH)), y_tr)

    def test_channel_mismatch_rejected(self, name):
        _, _, X_te, _ = _problem()
        wider = np.concatenate([X_te, X_te[:, :1]], axis=1)
        with pytest.raises(ValueError):
            _outputs(name)["model"].predict(wider)

    def test_length_mismatch(self, name):
        _, y_tr, X_te, _ = _problem()
        truncated = X_te[:, :, : LENGTH - 4]
        model = _outputs(name)["model"]
        if name == "knn_dtw":
            # DTW aligns series of unequal length by design — the one
            # variable-length family; it must still answer from the
            # training label set rather than raise.
            labels = model.predict(truncated)
            assert set(np.asarray(labels).tolist()) <= set(y_tr.tolist())
        else:
            with pytest.raises(ValueError):
                model.predict(truncated)

    def test_proba_is_row_stochastic(self, name):
        """predict_proba is (n, n_classes), non-negative, rows sum to 1."""
        proba = _outputs(name)["proba"]
        assert proba.shape == (N_TEST, N_CLASSES)
        assert (proba >= 0.0).all() and (proba <= 1.0).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_proba_argmax_agrees_with_predict(self, name):
        """The serving layer derives labels from probability batches; that
        only works because argmax(proba) == predict for every family."""
        results = _outputs(name)
        classes = np.asarray(results["model"].classes_)
        np.testing.assert_array_equal(
            classes[results["proba"].argmax(axis=1)], results["first"])

    def test_proba_deterministic(self, name):
        results = _outputs(name)
        np.testing.assert_array_equal(results["proba"],
                                      results["proba_second"])

    def test_classes_are_sorted_training_values(self, name):
        _, y_tr, _, _ = _problem()
        results = _outputs(name)
        np.testing.assert_array_equal(np.asarray(results["model"].classes_),
                                      np.unique(y_tr))

    def test_proba_invariant_under_label_values(self, name):
        """Probabilities depend on the data and class *order*, never on the
        label values: remapping {0,1,2}->{2,5,9} leaves them bit-identical."""
        results = _outputs(name)
        np.testing.assert_array_equal(results["proba_remapped"],
                                      results["proba"])

    def test_save_load_predict_roundtrip(self, name, tmp_path):
        results = _outputs(name)
        if name not in SERIALIZABLE:
            # Serialization exists for ROCKET/MiniRocket/ridge/Inception
            # only; the other families must refuse loudly, not write a
            # half-usable archive.
            with pytest.raises(TypeError):
                save_model(results["model"], tmp_path / "model.npz")
            return
        from repro.classifiers import load_model

        _, _, X_te, _ = _problem()
        path = save_model(results["model"], tmp_path / "model.npz")
        restored = load_model(path)
        np.testing.assert_array_equal(restored.predict(X_te), results["first"])
        # Probabilities survive the round trip too: the restored ridge (or
        # ensemble) state is complete, not just enough for labels.
        np.testing.assert_allclose(restored.predict_proba(X_te),
                                   results["proba"], atol=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestComputePolicySweep:
    """Every family accepts the inference policy without changing answers.

    The backend contract, swept across the whole registry: applying the
    float32 serving default (``repro.backend.INFERENCE_POLICY``) keeps
    argmax labels bit-identical to the float64 fit-time path and holds
    probabilities within the documented tolerance.  Families without a
    float32 execution path (deep, knn, ensembles over them) satisfy this
    trivially — the base implementation records the policy and changes
    nothing — which is exactly the safety property the sweep pins down.
    """

    def test_float32_policy_preserves_answers(self, name):
        from repro.backend import INFERENCE_POLICY, PROBA_ATOL, parity_report

        _, _, X_te, _ = _problem()
        report = parity_report(_outputs(name)["model"], X_te,
                               INFERENCE_POLICY)
        assert report.labels_equal, report.summary()
        assert report.max_proba_diff <= PROBA_ATOL, report.summary()

    def test_policy_application_does_not_mutate_the_model(self, name):
        """parity_report works on a deep copy: the shared cached model
        stays policy-free for every other test in this module."""
        model = _outputs(name)["model"]
        assert getattr(model, "compute_policy", None) is None


#: rows in the batch-invariance panel: enough that plain BLAS GEMMs give
#: its splits and single rows different last bits than the full panel
N_INVARIANCE = 20

#: the deep families compute in float64 through their own network layers
#: under every policy, outside the backend's float32 GEMMs, so they are
#: out of scope for bit-exact invariance: batch size moves their
#: probabilities by a few float64 ulps (measured up to 3.3e-16)
DEEP_FAMILIES = ("fcn", "inceptiontime", "resnet")
DEEP_ATOL = 1e-15


@functools.lru_cache(maxsize=None)
def _served(name: str):
    """A policy-applied copy of the family's model, its invariance panel
    and the panel's full-batch probabilities."""
    model = apply_inference_policy(copy.deepcopy(_outputs(name)["model"]),
                                   INFERENCE_POLICY)
    X, _ = make_classification_panel(
        n_series=N_INVARIANCE, n_channels=N_CHANNELS, length=LENGTH,
        n_classes=N_CLASSES, difficulty=0.15, seed=11,
    )
    return model, X, model.predict_proba(X)


def _assert_batch_invariant(name, got, full):
    if name in DEEP_FAMILIES:
        np.testing.assert_allclose(got, full, rtol=0.0, atol=DEEP_ATOL)
    else:
        np.testing.assert_array_equal(got, full)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestBatchInvariance:
    """The micro-batcher's contract: under ``INFERENCE_POLICY`` a series
    gets the same probabilities bit for bit whichever batch it is scored
    in — split off contiguously or scored alone.  The deep families are
    held to ``DEEP_ATOL`` instead."""

    @settings(max_examples=20, deadline=None)
    @given(cuts=st.lists(st.integers(1, N_INVARIANCE - 1), max_size=4,
                         unique=True))
    def test_contiguous_splits_match_full_panel(self, name, cuts):
        model, X, full = _served(name)
        parts = np.split(X, sorted(cuts))
        got = np.concatenate([model.predict_proba(part) for part in parts])
        _assert_batch_invariant(name, got, full)

    def test_single_rows_match_full_panel(self, name):
        model, X, full = _served(name)
        got = np.concatenate([model.predict_proba(X[i:i + 1])
                              for i in range(len(X))])
        _assert_batch_invariant(name, got, full)
