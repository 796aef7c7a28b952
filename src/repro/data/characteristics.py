"""Dataset-characteristic metrics from Section IV-B of the paper.

These implement the exact quantities reported in Table III:

* the multivariate dataset variance of Eqs. (4)–(5),
* the imbalance degree (ID) of Ortigosa-Hernández et al. (2017) with the
  Hellinger distance, as the paper recommends (``Im ratio``),
* the train/test distance (Euclidean distance between the train and test
  mean vectors, ``d train test``),
* the missing-value proportion (``prop miss``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_panel
from .dataset import TimeSeriesDataset

__all__ = [
    "dataset_variance",
    "hellinger_distance",
    "imbalance_degree",
    "train_test_distance",
    "DatasetCharacteristics",
    "characterize",
]


def dataset_variance(X: np.ndarray) -> float:
    """Multivariate dataset variance, Eqs. (4)–(5) of the paper.

    For each (dimension m, time step t) cell the variance across series is
    computed (Eq. 4); the dataset variance is the mean of those cell
    variances over all M x T cells (Eq. 5).  NaN observations are ignored.
    """
    X = check_panel(X)
    per_cell = np.nanvar(X, axis=0)  # (M, T), sigma^2_{mt}
    return float(np.nanmean(per_cell))


def hellinger_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance between two discrete distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distributions differ in shape: {p.shape} vs {q.shape}")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("distributions must be non-negative")
    return float(_hellinger_rows(p.ravel()[None], q.ravel())[0])


def _hellinger_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hellinger distance of each row of *p* ``(rows, K)`` to *q*
    (``(K,)`` or ``(rows, K)``); both are normalised row by row first."""
    p = p / p.sum(axis=-1, keepdims=True)
    q = q / q.sum(axis=-1, keepdims=True)
    return np.sqrt(0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=-1))


def imbalance_degree(class_counts: np.ndarray) -> float:
    """Imbalance degree (ID) with the Hellinger distance.

    Ortigosa-Hernández et al. (2017): with empirical distribution ``zeta``
    over K classes, ``e`` the balanced distribution and ``m`` the number of
    minority classes (probability < 1/K),

        ID = (m - 1) + d(zeta, e) / d(iota_m, e)

    where ``iota_m`` is the distribution at maximal distance from ``e``
    among those with exactly m minority classes (m classes at probability 0,
    K - m - 1 classes at 1/K, one class at (m + 1)/K).  Balanced data gives 0.
    """
    counts = np.asarray(class_counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("class_counts must be a 1-D vector with >= 2 classes")
    if (counts < 0).any() or counts.sum() == 0:
        raise ValueError("class_counts must be non-negative and not all zero")
    return float(_imbalance_degrees(counts[None])[0])


def _imbalance_degrees(class_counts: np.ndarray) -> np.ndarray:
    """:func:`imbalance_degree` of every row of a ``(rows, K)`` count
    matrix in one pass, unvalidated: each row gives the same bits as the
    one-row call."""
    counts = np.asarray(class_counts, dtype=float)
    k = counts.shape[1]
    zeta = counts / counts.sum(axis=1, keepdims=True)
    e = np.full(k, 1.0 / k)
    m = (zeta < 1.0 / k - 1e-12).sum(axis=1)
    iota = np.where(np.arange(k) < m[:, None], 0.0, 1.0 / k)
    iota[:, -1] = (m + 1) / k
    # A balanced row (m = 0) has iota == e, so its ratio is 0/0; the
    # formula's balanced case is 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _hellinger_rows(zeta, e) / _hellinger_rows(iota, e)
    return np.where(m == 0, 0.0, (m - 1) + ratio)


def train_test_distance(X_train: np.ndarray, X_test: np.ndarray) -> float:
    """Euclidean distance between the train and test mean vectors.

    The paper defines ``d train test`` as the distance between the mean
    vector of the training set and that of the test set (variance being a
    separate characteristic); series are flattened over channels and time,
    NaN-aware.
    """
    X_train = check_panel(X_train)
    X_test = check_panel(X_test)
    if X_train.shape[1:] != X_test.shape[1:]:
        raise ValueError(
            f"train and test shapes disagree: {X_train.shape[1:]} vs {X_test.shape[1:]}"
        )
    mean_train = np.nanmean(X_train, axis=0).ravel()
    mean_test = np.nanmean(X_test, axis=0).ravel()
    return float(np.linalg.norm(mean_train - mean_test))


@dataclass(frozen=True)
class DatasetCharacteristics:
    """One row of Table III."""

    name: str
    n_classes: int
    train_size: int
    dim: int
    length: int
    var_train: float
    var_test: float
    im_ratio: float
    d_train_test: float
    prop_miss: float

    def as_row(self) -> list:
        """Values in Table III column order."""
        return [
            self.name, self.n_classes, self.train_size, self.dim, self.length,
            self.var_train, self.var_test, self.im_ratio, self.d_train_test,
            self.prop_miss,
        ]


def characterize(train: TimeSeriesDataset, test: TimeSeriesDataset) -> DatasetCharacteristics:
    """Compute the full Table III row for a train/test pair."""
    total_missing = (
        np.isnan(train.X).sum() + np.isnan(test.X).sum()
    ) / (train.X.size + test.X.size)
    return DatasetCharacteristics(
        name=train.name,
        n_classes=train.n_classes,
        train_size=train.n_series,
        dim=train.n_channels,
        length=train.length,
        var_train=dataset_variance(train.X),
        var_test=dataset_variance(test.X),
        im_ratio=imbalance_degree(train.class_counts()),
        d_train_test=train_test_distance(train.X, test.X),
        prop_miss=float(total_missing),
    )
