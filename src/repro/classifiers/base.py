"""Classifier protocol shared by ROCKET, InceptionTime and the baselines.

Every family honours one input contract, enforced here so the
registry-wide sweep (``tests/test_cls_contract.py``) can assert it
uniformly:

* panels are validated with :func:`~repro._validation.check_panel`
  (shape ``(N, M, T)``, 2-D univariate promoted) — wrong-rank input is a
  ``ValueError``;
* non-finite values (NaN/Inf) are **rejected**, never silently
  zero-filled — the protocol imputes before fitting, and a silently
  patched panel would hide a broken upstream pipeline;
* the fit-time panel shape is remembered, and predict refuses a panel
  whose channel count (or, for fixed-length families, length) disagrees
  with it — mismatches fail with a clear ``ValueError`` instead of an
  index error or, worse, silently wrong features;
* every family serves **probabilities**: ``predict_proba`` returns a
  ``(n_series, n_classes)`` row-stochastic matrix whose columns follow
  ``classes_`` (the sorted training label values) and whose row-wise
  argmax agrees with ``predict`` exactly — the serving layer derives
  labels from coalesced probability batches relying on that agreement.
  Families without a native probabilistic output use a documented
  softmax shim over their margin scores (:class:`RidgeFeatureClassifier`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._validation import check_panel, check_panel_labels
from ..backend import ComputePolicy
from ..backend import softmax as _backend_softmax
from ..cache import caching_enabled, digest_array, feature_cache

__all__ = ["Classifier", "ConvolutionalTransform", "RidgeFeatureClassifier",
           "accuracy_score", "softmax"]


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a ``(n_samples, n_classes)`` score matrix.

    Numerically stable (the row maximum is subtracted before
    exponentiation), and strictly order-preserving per row — the argmax
    of the output equals the argmax of the input, which is what lets
    ``predict`` and ``predict_proba`` agree bit-for-bit.  Delegates to
    the backend op (:func:`repro.backend.softmax`) at float64, the
    historical behaviour.
    """
    return _backend_softmax(scores)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot score empty label arrays")
    return float((y_true == y_pred).mean())


class Classifier(ABC):
    """fit/predict interface over ``(N, M, T)`` panels with integer labels."""

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on a labelled panel; returns self."""

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict integer labels for a panel."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a labelled panel."""
        X, y = check_panel_labels(X, y)
        return accuracy_score(y, self.predict(X))

    @staticmethod
    def _clean(X: np.ndarray, *, name: str = "X") -> np.ndarray:
        """Validate a panel and reject non-finite values.

        Classifiers need dense, finite input; a NaN/Inf panel means an
        upstream step (imputation, augmentation) was skipped or broke,
        so it is refused rather than silently zero-filled.
        """
        X = check_panel(X, name=name)
        if not np.isfinite(X).all():
            raise ValueError(
                f"{name} contains non-finite values (NaN/Inf); impute or "
                f"clean the panel before fit/predict"
            )
        return X

    def set_inference_policy(self, policy: "ComputePolicy | None") -> "Classifier":
        """Record the compute policy this model should serve under.

        The base implementation only records it — a family that has not
        opted into policy-aware math keeps computing exactly as before,
        so applying a policy can never change its answers.  Families with
        a fast path (the ridge-backed ones) override this to actually
        switch execution.
        """
        self._compute_policy = policy
        return self

    @property
    def compute_policy(self) -> "ComputePolicy | None":
        """The recorded inference policy (``None`` = fit-time default)."""
        return getattr(self, "_compute_policy", None)

    @property
    def input_shape(self) -> tuple[int, int] | None:
        """``(n_channels, length)`` seen at fit, or ``None`` before fit."""
        shape = getattr(self, "_input_shape_", None)
        return tuple(shape) if shape is not None else None

    def _remember_shape(self, X: np.ndarray) -> None:
        """Record the fit panel's per-series shape for predict-time checks."""
        self._input_shape_ = tuple(X.shape[1:])

    def _check_shape(self, X: np.ndarray, *, variable_length: bool = False) -> None:
        """Refuse a predict panel that disagrees with the fit shape.

        *variable_length* families (elastic distances like DTW) accept any
        series length but still require the fit-time channel count.
        """
        expected = self.input_shape
        if expected is None:
            return
        if X.shape[1] != expected[0]:
            raise ValueError(
                f"panel has {X.shape[1]} channels but the model was fitted "
                f"on {expected[0]}"
            )
        if not variable_length and X.shape[2] != expected[1]:
            raise ValueError(
                f"panel length {X.shape[2]} differs from the fitted length "
                f"{expected[1]}"
            )


class RidgeFeatureClassifier(Classifier):
    """Shared scoring head for feature-matrix + ridge classifier families.

    ROCKET, MiniRocket, the SAX dictionary, the interval and the shapelet
    families all reduce a panel to a feature matrix and hand it to a
    :class:`~repro.classifiers.ridge.RidgeClassifierCV`.  Subclasses
    implement only :meth:`_features` (validation + feature extraction);
    ``predict``, ``decision_function`` and ``predict_proba`` are derived
    here so every ridge-backed family exposes one identical confidence
    surface.

    The probabilities are a **softmax shim over the ridge margins** —
    monotone in the per-class scores, so ``predict_proba(...).argmax``
    always agrees with ``predict``, but not calibrated by a held-out set;
    treat them as confidence ordering, not frequencies.
    """

    #: set by every subclass __init__; annotated for introspection
    ridge: "object"

    def set_inference_policy(self, policy: "ComputePolicy | None") -> "RidgeFeatureClassifier":
        """Switch the whole scoring pipeline to *policy*.

        Propagates to the feature transformer (fused float32 banks where
        supported) and to the ridge head (folded single-precision
        coefficients), so transform and scoring run under one policy —
        mixed-dtype pipelines would pay cast overhead for no accuracy.
        """
        self._compute_policy = policy
        transformer = getattr(self, "transformer", None)
        if transformer is not None and hasattr(transformer, "set_inference_policy"):
            transformer.set_inference_policy(policy)
        if hasattr(self.ridge, "set_inference_policy"):
            self.ridge.set_inference_policy(policy)
        return self

    def _features(self, X: np.ndarray) -> np.ndarray:
        """Validate *X* and return its ``(n_series, n_features)`` matrix.

        Raises
        ------
        RuntimeError
            When called before ``fit``.
        ValueError
            For non-finite values or a panel shape that disagrees with
            the fit-time shape.
        """
        raise NotImplementedError

    @property
    def classes_(self) -> np.ndarray | None:
        """Sorted training label values, or ``None`` before fit."""
        return getattr(self.ridge, "classes_", None)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most-confident class per series (argmax of the ridge margins)."""
        return self.ridge.predict(self._features(X))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class ridge margin scores ``(n_series, n_classes)``.

        Columns follow ``classes_`` order; higher means more confident.
        """
        return self.ridge.decision_function(self._features(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax of the ridge margins: ``(n_series, n_classes)``.

        Row-stochastic, columns in ``classes_`` order, and row-wise
        argmax identical to :meth:`predict` (see the class docstring for
        the calibration caveat).
        """
        return softmax(self.decision_function(X))


class ConvolutionalTransform(ABC):
    """The surface ROCKET and MiniRocket share around their one feature
    path, ``_transform(X, dtype)``: panel validation against
    ``_fit_shape``, the ``_policy`` dtype and the feature cache."""

    #: feature-cache namespace, one per family
    _cache_tag: str

    @abstractmethod
    def _transform(self, X: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The family's features for a validated panel, in *dtype*."""

    def transform(self, X: np.ndarray) -> np.ndarray:
        """``(n_series, n_features)`` features in the active policy's
        dtype (float64 without a policy)."""
        if self.input_shape is None:
            raise RuntimeError(
                f"{type(self).__name__}.transform called before fit")
        X = check_panel(X)
        if X.shape[1:] != self.input_shape:
            raise ValueError(f"panel shape {X.shape[1:]} differs from fit "
                             f"shape {self.input_shape}")
        X = np.nan_to_num(X, nan=0.0)
        policy = self.compute_policy
        dtype = np.dtype(np.float64) if policy is None else policy.np_dtype
        # Transforms restored by serialization predate the fit digest;
        # they simply bypass the cache.
        fit_digest = getattr(self, "_fit_digest", None)
        if not caching_enabled() or fit_digest is None:
            return self._transform(X, dtype)
        key = (self._cache_tag, dtype.name, fit_digest, digest_array(X))
        return feature_cache().get_or_create(
            key, lambda: self._transform(X, dtype))

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def compute_policy(self) -> ComputePolicy | None:
        """The active inference policy (``None`` = historical float64)."""
        return getattr(self, "_policy", None)

    @property
    def input_shape(self) -> tuple[int, int] | None:
        """``(n_channels, length)`` the transform was fitted on, or ``None``
        before fit — the shape every future panel must match."""
        shape = getattr(self, "_fit_shape", None)
        return tuple(shape) if shape is not None else None
