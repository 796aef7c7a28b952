"""ROCKET: RandOm Convolutional KErnel Transform (Dempster et al., 2020).

The paper's non-deep baseline, used "in the default configuration,
utilizing 10,000 kernels" and coupled with a ridge classifier (Table II).
Kernels follow the original recipe: lengths {7, 9, 11}, N(0, 1) weights
(mean-centred), U(-1, 1) bias, exponential dilations, random padding; each
kernel yields two features, PPV (proportion of positive values) and max.
For multivariate input each kernel carries weights for every channel —
the natural multivariate extension used when the channel count is modest.

The transform groups kernels that share (length, dilation, padding) and
convolves each group through the backend compute core
(:func:`repro.backend.grouped_ppv_max` over
:func:`repro.backend.grouped_conv`), which is what makes 10k kernels
tractable in pure numpy.  Under an inference :class:`~repro.backend.ComputePolicy`
(float32 serving) the whole transform instead runs through the fused
one-GEMM :class:`~repro.backend.RocketBank` when the model is small
enough to unroll, falling back to the grouped op at the policy dtype.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .._rng import ensure_rng
from .._validation import check_panel
from ..backend import ComputePolicy, RocketBank, grouped_ppv_max
from ..cache import caching_enabled, digest_rng, feature_cache
from .base import ConvolutionalTransform, RidgeFeatureClassifier
from .ridge import RidgeClassifierCV

__all__ = ["RocketTransform", "RocketClassifier"]

_KERNEL_LENGTHS = (7, 9, 11)


@dataclass
class _KernelGroup:
    """Kernels sharing (length, dilation, padding), convolved together."""

    length: int
    dilation: int
    padding: int
    weights: np.ndarray  # (n_kernels, n_channels, length)
    biases: np.ndarray  # (n_kernels,)


class RocketTransform(ConvolutionalTransform):
    """Random convolutional feature extractor: ``(n_series, 2 *
    num_kernels)`` features, PPV then max.

    Parameters
    ----------
    num_kernels:
        Number of random kernels (the paper uses 10 000; experiments at
        reduced scale may lower this).
    seed:
        Kernel-sampling seed.
    """

    _cache_tag = "rocket-features"

    #: fit() reads only the panel's shape, never its values — fitting on
    #: the real training panel equals fitting on an augmented one, which
    #: the protocol's split path relies on
    fits_on_shape_only = True

    def __init__(self, num_kernels: int = 10_000,
                 seed: int | np.random.Generator | None = None):
        if num_kernels < 1:
            raise ValueError(f"num_kernels must be >= 1; got {num_kernels}")
        self.num_kernels = int(num_kernels)
        self.seed = seed
        self._groups: list[_KernelGroup] | None = None
        self._policy: ComputePolicy | None = None
        self._bank: RocketBank | None = None

    @property
    def n_features(self) -> int:
        """Two features (PPV, max) per kernel."""
        return 2 * self.num_kernels

    def fit(self, X: np.ndarray) -> "RocketTransform":
        """Sample kernels for the panel's channel count and length.

        Kernel sampling depends only on the generator state and the panel
        shape, never on the panel's values, so with caching enabled
        (:func:`repro.cache.caching`) a repeat fit restores the previous
        kernels without redrawing them.  A hit leaves the generator
        unadvanced — enable caching only where the transform owns its
        generator, as the experiment engine does.
        """
        X = check_panel(X)
        _, n_channels, length = X.shape
        self._bank = None  # refitting invalidates any policy-built bank
        rng = ensure_rng(self.seed)
        fit_key = ("rocket-fit", self.num_kernels, n_channels, length, digest_rng(rng))
        self._fit_digest = hashlib.blake2b(repr(fit_key).encode(), digest_size=16).hexdigest()
        cache = feature_cache() if caching_enabled() else None
        if cache is not None:
            cached = cache.get(fit_key)
            if cached is not None:
                self._groups = cached
                self._fit_shape = (n_channels, length)
                return self

        lengths = rng.choice(_KERNEL_LENGTHS, size=self.num_kernels)
        raw: dict[tuple[int, int, int], list[tuple[np.ndarray, float]]] = {}
        for kernel_length in lengths:
            kernel_length = int(min(kernel_length, max(2, length)))
            weights = rng.standard_normal((n_channels, kernel_length))
            weights -= weights.mean(axis=1, keepdims=True)
            bias = float(rng.uniform(-1.0, 1.0))
            max_exponent = np.log2((length - 1) / max(kernel_length - 1, 1))
            max_exponent = max(max_exponent, 0.0)
            dilation = int(2 ** rng.uniform(0.0, max_exponent))
            span = (kernel_length - 1) * dilation
            padding = ((span) // 2) if rng.random() < 0.5 else 0
            if length + 2 * padding - span < 1:
                padding = max(padding, (span - length + 1 + 1) // 2)
            raw.setdefault((kernel_length, dilation, padding), []).append((weights, bias))

        self._groups = []
        for (kernel_length, dilation, padding), members in sorted(raw.items()):
            weights = np.stack([w for w, _ in members])
            biases = np.array([b for _, b in members])
            self._groups.append(_KernelGroup(kernel_length, dilation, padding, weights, biases))
        self._fit_shape = (n_channels, length)
        if cache is not None:
            cache.put(fit_key, self._groups)
        return self

    def set_inference_policy(self, policy: ComputePolicy | None) -> "RocketTransform":
        """Switch the transform's execution to *policy* (``None`` restores
        the historical float64 path).

        Under a float32 policy the fused one-GEMM bank
        (:class:`~repro.backend.RocketBank`) is built eagerly — once per
        (model, policy), costing milliseconds at serving sizes; when the
        model is too large to unroll profitably the bank is ``None`` and
        transform falls back to the grouped op at the policy dtype.
        """
        self._policy = policy
        self._bank = None
        if (policy is not None and self._groups is not None
                and policy.np_dtype == np.float32):
            self._bank = RocketBank.build(self._groups, self._fit_shape,
                                          dtype=policy.np_dtype)
        return self

    def _transform(self, X: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Features in *dtype*: the fused bank when one was built for that
        dtype, the grouped op otherwise — one layout (all PPV, then all
        max) either way.  At float64 the grouped op reproduces the
        historical ROCKET group convolution bit for bit."""
        bank = getattr(self, "_bank", None)
        if bank is not None and bank.dtype == dtype:
            return bank.transform(X)
        return grouped_ppv_max(X, self._groups, dtype)


class RocketClassifier(RidgeFeatureClassifier):
    """ROCKET features + ridge classifier: the paper's 'ROCKET + RR' baseline.

    The scoring surface (``predict`` / ``decision_function`` /
    ``predict_proba``) comes from :class:`RidgeFeatureClassifier`.
    """

    def __init__(self, num_kernels: int = 10_000, *,
                 alphas: np.ndarray | None = None,
                 seed: int | np.random.Generator | None = None):
        self.transformer = RocketTransform(num_kernels, seed=seed)
        self.ridge = RidgeClassifierCV(alphas)

    def fit(self, X, y):
        """Fit the random kernels and the ridge head on a labelled panel."""
        X = self._clean(X)
        self._remember_shape(X)
        features = self.transformer.fit_transform(X)
        self.ridge.fit(features, np.asarray(y))
        return self

    def _features(self, X):
        X = self._clean(X)
        return self.transformer.transform(X)
