"""MiniRocket-style deterministic convolutional transform.

A lighter sibling of ROCKET (Dempster et al., 2021) included as an
extension: fixed two-valued kernels of length 9 (weights in {-1, 2} with
exactly three 2s — the 84 canonical kernels), dilations spread
exponentially, and PPV features computed against bias quantiles drawn from
the training data's convolution output.  Deterministic given the seed used
to assign channels, and several times faster than ROCKET at equal feature
counts — used by the ablation benchmarks.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np

from .._rng import ensure_rng
from .._validation import check_panel
from ..backend import ComputePolicy, MiniRocketBank
from ..cache import caching_enabled, digest_array, digest_rng, feature_cache
from .base import ConvolutionalTransform, RidgeFeatureClassifier
from .ridge import RidgeClassifierCV

__all__ = ["MiniRocketTransform", "MiniRocketClassifier"]

_KERNEL_LENGTH = 9
_N_POSITIONS = 3  # number of +2 weights per kernel -> C(9, 3) = 84 kernels


def _canonical_kernels() -> np.ndarray:
    """The 84 two-valued MiniRocket kernels, shape (84, 9)."""
    rows = []
    for positions in combinations(range(_KERNEL_LENGTH), _N_POSITIONS):
        row = np.full(_KERNEL_LENGTH, -1.0)
        row[list(positions)] = 2.0
        rows.append(row)
    return np.asarray(rows)


class MiniRocketTransform(ConvolutionalTransform):
    """Deterministic PPV features from the 84 canonical kernels, in plan
    order."""

    _cache_tag = "minirocket-features"

    #: the bias quantiles read panel values, so fit depends on the data —
    #: the protocol must fit on exactly the panel it will train on
    fits_on_shape_only = False

    def __init__(self, num_features: int = 2_000,
                 seed: int | np.random.Generator | None = None):
        if num_features < 84:
            raise ValueError(f"num_features must be >= 84; got {num_features}")
        self.num_features = int(num_features)
        self.seed = seed
        self._policy: ComputePolicy | None = None
        self._bank: MiniRocketBank | None = None

    def fit(self, X: np.ndarray) -> "MiniRocketTransform":
        X = check_panel(X)
        X = np.nan_to_num(X, nan=0.0)
        _, n_channels, length = X.shape
        self._bank = None  # refitting invalidates any policy-built bank
        rng = ensure_rng(self.seed)
        # Unlike ROCKET, the bias quantiles depend on the panel's values, so
        # the fit key must include the data digest.  A hit leaves the
        # generator unadvanced (see RocketTransform.fit).
        fit_key = ("minirocket-fit", self.num_features, digest_rng(rng), digest_array(X))
        self._fit_digest = hashlib.blake2b(repr(fit_key).encode(), digest_size=16).hexdigest()
        cache = feature_cache() if caching_enabled() else None
        if cache is not None:
            cached = cache.get(fit_key)
            if cached is not None:
                self._plan, self._fit_shape = cached
                return self
        kernels = _canonical_kernels()

        max_exponent = max(np.log2((length - 1) / (_KERNEL_LENGTH - 1)), 0.0)
        n_dilations = max(1, min(8, int(max_exponent) + 1))
        dilations = np.unique(
            (2 ** np.linspace(0, max_exponent, n_dilations)).astype(int)
        )
        features_per_combo = max(1, self.num_features // (len(kernels) * len(dilations)))

        self._plan = []
        sample = X[rng.choice(len(X), size=min(len(X), 64), replace=False)]
        for dilation in dilations:
            span = (_KERNEL_LENGTH - 1) * int(dilation)
            if span >= length + 2 * (span // 2):
                continue
            padding = span // 2
            channel_choice = rng.integers(0, n_channels, size=len(kernels))
            responses = self._convolve(sample, kernels, int(dilation), padding, channel_choice)
            quantile_levels = rng.uniform(0.1, 0.9, size=(len(kernels), features_per_combo))
            biases = np.stack([
                np.quantile(responses[:, k, :].ravel(), quantile_levels[k])
                for k in range(len(kernels))
            ])  # (k, features_per_combo)
            self._plan.append((int(dilation), padding, channel_choice, biases))
        self._fit_shape = (n_channels, length)
        if cache is not None:
            cache.put(fit_key, (self._plan, self._fit_shape))
        return self

    def set_inference_policy(self, policy: ComputePolicy | None) -> "MiniRocketTransform":
        """Switch the transform's execution to *policy* (``None`` restores
        the historical float64 path).

        Under a float32 policy the fused one-GEMM bank
        (:class:`~repro.backend.MiniRocketBank`) is built eagerly;
        ``None`` (model too large to unroll, or irregular plan) falls
        back to the grouped op at the policy dtype.
        """
        self._policy = policy
        self._bank = None
        if (policy is not None and hasattr(self, "_plan")
                and policy.np_dtype == np.float32):
            self._bank = MiniRocketBank.build(self._plan, _canonical_kernels(),
                                              self._fit_shape,
                                              dtype=policy.np_dtype)
        return self

    def _transform(self, X: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Features in *dtype*: the fused bank when one was built for that
        dtype, the grouped convolution otherwise — plan-order layout
        either way."""
        bank = getattr(self, "_bank", None)
        if bank is not None and bank.dtype == dtype:
            return bank.transform(X)
        kernels = np.asarray(_canonical_kernels(), dtype=dtype)
        X = np.asarray(X, dtype=dtype)
        parts = []
        for dilation, padding, channel_choice, biases in self._plan:
            responses = self._convolve(X, kernels, dilation, padding, channel_choice)
            # PPV against each bias quantile: (n, k, features_per_combo)
            thresholds = np.asarray(biases, dtype=dtype)
            ppv = (responses[:, :, None, :]
                   > thresholds[None, :, :, None]).mean(axis=3, dtype=dtype)
            parts.append(ppv.reshape(len(X), -1))
        return np.concatenate(parts, axis=1)

    @staticmethod
    def _convolve(X: np.ndarray, kernels: np.ndarray, dilation: int, padding: int,
                  channel_choice: np.ndarray) -> np.ndarray:
        n, _, t = X.shape
        if padding:
            X = np.pad(X, ((0, 0), (0, 0), (padding, padding)))
            t = X.shape[2]
        span = (_KERNEL_LENGTH - 1) * dilation + 1
        out_len = t - span + 1
        s_n, s_c, s_t = X.strides
        windows = np.lib.stride_tricks.as_strided(
            X, shape=(n, X.shape[1], _KERNEL_LENGTH, out_len),
            strides=(s_n, s_c, s_t * dilation, s_t), writeable=False,
        )
        picked = windows[:, channel_choice, :, :]  # (n, k, L, out)
        # Contract the kernel-length axis with one batched matmul (kernels
        # as (k, 1, L) row vectors) instead of einsum; see
        # repro.backend.grouped_conv.
        responses = np.matmul(kernels[None, :, None, :], np.ascontiguousarray(picked))
        return responses[:, :, 0, :]


class MiniRocketClassifier(RidgeFeatureClassifier):
    """MiniRocket transform + ridge classifier.

    The scoring surface (``predict`` / ``decision_function`` /
    ``predict_proba``) comes from :class:`RidgeFeatureClassifier`.
    """

    def __init__(self, num_features: int = 2_000, *,
                 alphas: np.ndarray | None = None,
                 seed: int | np.random.Generator | None = None):
        self.transformer = MiniRocketTransform(num_features, seed=seed)
        self.ridge = RidgeClassifierCV(alphas)

    def fit(self, X, y):
        """Fit the PPV feature plan and the ridge head on a labelled panel."""
        X = self._clean(X)
        self._remember_shape(X)
        self.ridge.fit(self.transformer.fit_transform(X), np.asarray(y))
        return self

    def _features(self, X):
        X = self._clean(X)
        return self.transformer.transform(X)
