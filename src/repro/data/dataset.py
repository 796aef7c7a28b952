"""The multivariate-time-series dataset container used across the library.

A :class:`TimeSeriesDataset` bundles a panel ``X`` of shape
``(n_series, n_channels, length)`` with integer labels ``y``.  Missing
values (the paper's ``prop miss`` characteristic) are represented as NaN and
can be imputed before classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._validation import check_panel_labels

__all__ = ["TimeSeriesDataset"]


@dataclass(frozen=True)
class TimeSeriesDataset:
    """An immutable labelled panel of multivariate time series.

    Attributes
    ----------
    X:
        Panel of shape ``(n_series, n_channels, length)``; NaN marks missing
        observations.
    y:
        Integer class labels of shape ``(n_series,)``.
    name:
        Human-readable dataset name (e.g. ``"Epilepsy"``).
    metadata:
        Free-form provenance dictionary (generator parameters, scale, ...).
    """

    X: np.ndarray
    y: np.ndarray
    name: str = "unnamed"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        X, y = check_panel_labels(self.X, self.y)
        y = y.astype(np.int64)
        if (y < 0).any():
            raise ValueError("labels must be non-negative integers")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    # ------------------------------------------------------------------ #
    # basic shape accessors
    # ------------------------------------------------------------------ #

    @property
    def n_series(self) -> int:
        return self.X.shape[0]

    @property
    def n_channels(self) -> int:
        return self.X.shape[1]

    @property
    def length(self) -> int:
        return self.X.shape[2]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if self.n_series else 0

    def __len__(self) -> int:
        return self.n_series

    def __repr__(self) -> str:
        return (
            f"TimeSeriesDataset(name={self.name!r}, n_series={self.n_series}, "
            f"n_channels={self.n_channels}, length={self.length}, "
            f"n_classes={self.n_classes})"
        )

    # ------------------------------------------------------------------ #
    # class structure
    # ------------------------------------------------------------------ #

    def class_counts(self) -> np.ndarray:
        """Series count per class label, indexed ``0..n_classes-1``."""
        return np.bincount(self.y, minlength=self.n_classes)

    def class_proportions(self) -> np.ndarray:
        """Empirical class distribution (sums to 1)."""
        counts = self.class_counts()
        return counts / counts.sum()

    def series_of_class(self, label: int) -> np.ndarray:
        """Return the sub-panel of all series with class *label*."""
        return self.X[self.y == label]

    def is_balanced(self) -> bool:
        """True when every class has the same number of series."""
        counts = self.class_counts()
        return bool((counts == counts[0]).all())

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #

    def subset(self, indices) -> "TimeSeriesDataset":
        """Dataset restricted to *indices* (any numpy fancy index)."""
        indices = np.asarray(indices)
        return replace(self, X=self.X[indices], y=self.y[indices])

    def with_samples(self, X_new: np.ndarray, y_new: np.ndarray) -> "TimeSeriesDataset":
        """Append synthetic samples, e.g. output of an augmenter."""
        X_new = np.asarray(X_new, dtype=np.float64)
        if X_new.ndim == 2:
            X_new = X_new[:, None, :]
        if X_new.shape[1:] != self.X.shape[1:]:
            raise ValueError(
                f"new samples have shape {X_new.shape[1:]}, dataset expects {self.X.shape[1:]}"
            )
        return replace(
            self,
            X=np.concatenate([self.X, X_new], axis=0),
            y=np.concatenate([self.y, np.asarray(y_new, dtype=np.int64)]),
        )

    def impute(self, strategy: str = "forward") -> "TimeSeriesDataset":
        """Replace NaN observations.

        ``"forward"`` carries the last valid value forward (then backward for
        leading NaNs); ``"zero"`` substitutes zeros; ``"mean"`` substitutes
        the per-channel series mean.
        """
        if not np.isnan(self.X).any():
            return self
        X = self.X.copy()
        if strategy == "zero":
            X[np.isnan(X)] = 0.0
        elif strategy == "mean":
            means = np.nanmean(X, axis=2, keepdims=True)
            means = np.nan_to_num(means)
            mask = np.isnan(X)
            X[mask] = np.broadcast_to(means, X.shape)[mask]
        elif strategy == "forward":
            n, m, t = X.shape
            flat = X.reshape(n * m, t)
            mask = np.isnan(flat)
            idx = np.where(~mask, np.arange(t), 0)
            np.maximum.accumulate(idx, axis=1, out=idx)
            flat = flat[np.arange(n * m)[:, None], idx]
            # Leading NaNs (no prior value): fill backward from the first valid.
            still = np.isnan(flat)
            if still.any():
                rev = flat[:, ::-1]
                rmask = np.isnan(rev)
                ridx = np.where(~rmask, np.arange(t), 0)
                np.maximum.accumulate(ridx, axis=1, out=ridx)
                rev = rev[np.arange(n * m)[:, None], ridx]
                flat[still] = rev[:, ::-1][still]
            flat[np.isnan(flat)] = 0.0  # all-NaN rows
            X = flat.reshape(n, m, t)
        else:
            raise ValueError(f"unknown imputation strategy: {strategy!r}")
        return replace(self, X=X)

    def znormalize(self) -> "TimeSeriesDataset":
        """Z-normalise each channel of each series (NaN-aware)."""
        mean = np.nanmean(self.X, axis=2, keepdims=True)
        std = np.nanstd(self.X, axis=2, keepdims=True)
        std[std == 0] = 1.0
        return replace(self, X=(self.X - mean) / std)

    def preprocess(self) -> "TimeSeriesDataset":
        """The classification protocol's preprocessing: per-series z-norm,
        then imputation.

        The one definition: the training protocol prepares its panels
        with it and the server its requests
        (:func:`repro.serving.prepare_panel`), so a served series is
        prepared exactly as a published model's training panel was.
        """
        return self.znormalize().impute()

    def missing_proportion(self) -> float:
        """Fraction of NaN observations — the paper's ``prop miss``."""
        return float(np.isnan(self.X).mean())

    def downsample(self, fraction: float, *, rng=None, stratified: bool = True
                   ) -> "TimeSeriesDataset":
        """Random subset with *fraction* of the series (the paper's
        'downsampled training set' variant of the protocol).

        Stratified by default so every class survives; each class keeps at
        least one series.
        """
        from .._rng import ensure_rng  # local import avoids a cycle

        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]; got {fraction}")
        rng = ensure_rng(rng)
        if not stratified:
            size = max(1, int(round(fraction * self.n_series)))
            return self.subset(rng.choice(self.n_series, size=size, replace=False))
        keep: list[np.ndarray] = []
        for label in range(self.n_classes):
            members = np.flatnonzero(self.y == label)
            if len(members) == 0:
                continue
            size = max(1, int(round(fraction * len(members))))
            keep.append(rng.choice(members, size=size, replace=False))
        return self.subset(np.concatenate(keep))

    def resample(self, length: int) -> "TimeSeriesDataset":
        """Linearly resample every series to a new *length* (NaN-aware).

        Used to bring variable-resolution data to a common grid; NaN tails
        stay NaN so missingness is preserved proportionally.
        """
        if length < 2:
            raise ValueError(f"length must be >= 2; got {length}")
        if length == self.length:
            return self
        old_grid = np.arange(self.length)
        new_grid = np.linspace(0, self.length - 1, length)
        X = np.empty((self.n_series, self.n_channels, length))
        for i in range(self.n_series):
            for channel in range(self.n_channels):
                series = self.X[i, channel]
                valid = ~np.isnan(series)
                if valid.sum() < 2:
                    X[i, channel] = np.nan
                    continue
                X[i, channel] = np.interp(new_grid, old_grid[valid], series[valid])
                # Preserve the trailing-NaN structure proportionally.
                last_valid = np.flatnonzero(valid)[-1]
                cut = int(np.ceil((last_valid + 1) / self.length * length))
                X[i, channel, cut:] = np.nan
        return replace(self, X=X)
