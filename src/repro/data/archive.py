"""A simulated UCR/UEA archive: the paper's 13 imbalanced MTS datasets.

The real archive cannot be redistributed here, so each dataset is
regenerated synthetically to match the metadata the paper reports in
Table III: number of classes, training-set size, dimension, length,
dataset variance (Eqs. 4-5), imbalance degree (Hellinger ID), train/test
distance and missing-value proportion.  Class counts are solved by a
geometric-decay search so the Hellinger imbalance degree matches the table;
amplitudes are rescaled to hit the variance target; a constant test-set
offset realises the train/test distance; trailing truncation realises the
missing proportion.  Per-dataset ``difficulty`` encodes the paper's observed
baseline accuracy ordering (e.g. EthanolConcentration is near-chance,
PenDigits is near-perfect).

``scale="small"`` shrinks sizes for CPU experiments while preserving class
structure; ``scale="full"`` reproduces Table III's exact shape metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .._rng import ensure_rng
from .characteristics import _imbalance_degrees
from .dataset import TimeSeriesDataset
from .generators import MTSGenerator

__all__ = ["DatasetSpec", "UEA_IMBALANCED_SPECS", "dataset_generator",
           "load_dataset", "list_datasets", "solve_class_counts"]


@dataclass(frozen=True)
class DatasetSpec:
    """Target metadata for one archive dataset (one row of Table III)."""

    name: str
    n_classes: int
    train_size: int
    test_size: int
    dim: int
    length: int
    var_train: float
    var_test: float
    im_ratio: float
    d_train_test: float
    prop_miss: float
    difficulty: float  # encodes the paper's baseline accuracy ordering
    seed: int


# Table III of the paper, plus the published UEA test-set sizes and a
# difficulty calibrated to the paper's baseline accuracies (Tables IV-V).
# Difficulty values are calibrated so that a CPU-scale ROCKET baseline on the
# small-scale archive tracks the paper's Table IV baseline accuracies (e.g.
# EthanolConcentration near chance, PenDigits near-perfect).
UEA_IMBALANCED_SPECS: tuple[DatasetSpec, ...] = (
    DatasetSpec("CharacterTrajectories", 20, 1422, 1436, 3, 182, 0.15, 0.15, 13.06, 3.35, 0.33, 0.05, 101),
    DatasetSpec("EigenWorms", 5, 128, 131, 6, 17984, 0.18, 0.18, 3.26, 386.95, 0.0, 0.60, 102),
    DatasetSpec("Epilepsy", 4, 137, 138, 3, 206, 0.18, 0.18, 1.05, 6.03, 0.0, 0.35, 103),
    DatasetSpec("EthanolConcentration", 4, 261, 263, 3, 1751, 0.24, 0.23, 2.0, 101616.0, 0.0, 0.95, 104),
    DatasetSpec("FingerMovements", 2, 316, 100, 28, 50, 0.16, 0.18, 0.0, 588.92, 0.0, 0.90, 105),
    DatasetSpec("Handwriting", 26, 150, 850, 3, 152, 0.15, 0.10, 12.23, 4.04, 0.0, 0.50, 106),
    DatasetSpec("Heartbeat", 2, 204, 205, 61, 405, 0.09, 0.09, 0.30, 23.15, 0.0, 0.74, 107),
    DatasetSpec("LSST", 14, 2459, 2466, 6, 36, 0.03, 0.02, 9.49, 2259.42, 0.0, 0.58, 108),
    DatasetSpec("PEMS-SF", 7, 267, 173, 963, 144, 0.17, 0.18, 3.07, 30.79, 0.0, 0.53, 109),
    DatasetSpec("PenDigits", 10, 7494, 3498, 2, 8, 0.30, 0.29, 4.02, 12.53, 0.0, 0.12, 110),
    DatasetSpec("RacketSports", 4, 151, 152, 6, 30, 0.14, 0.14, 1.06, 19.56, 0.0, 0.52, 111),
    DatasetSpec("SelfRegulationSCP1", 2, 268, 293, 6, 896, 0.16, 0.15, 0.0, 3352.33, 0.0, 0.66, 112),
    DatasetSpec("SpokenArabicDigits", 10, 6599, 2199, 13, 93, 0.14, 0.13, 0.0, 38.48, 0.57, 0.05, 113),
)

_SPEC_BY_NAME = {spec.name: spec for spec in UEA_IMBALANCED_SPECS}


def list_datasets() -> list[str]:
    """Names of the 13 imbalanced multivariate datasets, Table III order."""
    return [spec.name for spec in UEA_IMBALANCED_SPECS]


def solve_class_counts(n_classes: int, total: int, target_id: float) -> np.ndarray:
    """Find integer class counts whose Hellinger imbalance degree is closest
    to *target_id*.

    Searches a geometric-decay family ``p_c ~ r^-c`` over the decay rate,
    rounding with the largest-remainder method and a one-sample-per-class
    floor.  Balanced targets (ID = 0) short-circuit to near-uniform counts.
    Every candidate is scored in one vectorised pass, and the first one
    with the smallest error wins.
    """
    if total < n_classes:
        raise ValueError(f"cannot place {n_classes} classes in {total} samples")
    if target_id <= 0:
        base = np.full(n_classes, total // n_classes, dtype=np.int64)
        base[: total % n_classes] += 1
        return base

    k = n_classes
    rates = np.geomspace(1.0005, 50.0, 400)
    proportions = rates[:, None] ** -np.arange(k, dtype=float)
    proportions /= proportions.sum(axis=1, keepdims=True)
    # Largest remainder, row by row: one sample per class is reserved,
    # the rest floored, and the samples left over go to the classes with
    # the largest fractional parts.
    raw = proportions * (total - k)
    geometric = np.floor(raw).astype(np.int64)
    left_over = total - k - geometric.sum(axis=1)
    rank = np.argsort(np.argsort(-(raw - geometric), axis=1), axis=1)
    geometric += 1 + (rank < left_over[:, None])
    # One-majority / equal-minorities family: reaches integer ID plateaus
    # (e.g. EthanolConcentration's ID = 2.0) that geometric decay skips.
    minority = np.arange(1, total // k + 1)
    one_majority = np.repeat(minority[:, None], k, axis=1)
    one_majority[:, 0] = total - (k - 1) * minority

    candidates = np.concatenate([geometric, one_majority])
    errors = np.abs(_imbalance_degrees(candidates) - target_id)
    return candidates[np.argmin(errors)]


def _scaled_spec(spec: DatasetSpec, scale: str) -> DatasetSpec:
    if scale == "full":
        return spec
    if scale != "small":
        raise ValueError(f"scale must be 'full' or 'small'; got {scale!r}")
    train = min(spec.train_size, max(3 * spec.n_classes, 48))
    test = min(spec.test_size, max(2 * spec.n_classes, 36))
    if spec.im_ratio == 0.0:
        # Keep balanced targets exactly balanced at reduced size.
        train = max(spec.n_classes, train - train % spec.n_classes)
        test = max(spec.n_classes, test - test % spec.n_classes)
    return dc_replace(
        spec,
        train_size=train,
        test_size=test,
        dim=min(spec.dim, 6),
        length=min(spec.length, 48),
    )


def dataset_generator(name: str, *, scale: str = "small") -> MTSGenerator:
    """The :class:`MTSGenerator` behind one archive dataset.

    Exactly the generator :func:`load_dataset` samples from (same
    prototypes, same difficulty, at the requested *scale*'s shape) —
    which makes it the right template for streaming scenarios that
    should look like a model's training distribution, e.g. a synthetic
    stream with a mid-stream concept shift replayed against a model
    trained on that dataset.
    """
    if name not in _SPEC_BY_NAME:
        raise KeyError(f"unknown dataset {name!r}; see list_datasets()")
    spec = _scaled_spec(_SPEC_BY_NAME[name], scale)
    return MTSGenerator(
        n_channels=spec.dim, length=spec.length, n_classes=spec.n_classes,
        difficulty=spec.difficulty, seed=spec.seed,
    )


def load_dataset(
    name: str,
    *,
    scale: str = "small",
    seed_offset: int = 0,
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Generate the (train, test) pair for one archive dataset.

    Parameters
    ----------
    name:
        One of :func:`list_datasets`.
    scale:
        ``"full"`` reproduces Table III's shape metadata exactly (large);
        ``"small"`` (default) shrinks sizes for CPU-scale experiments while
        keeping class structure, imbalance, variance, shift and missingness.
    seed_offset:
        Added to the spec seed — lets multi-run protocols regenerate
        statistically-identical but independent archives.
    """
    if name not in _SPEC_BY_NAME:
        raise KeyError(f"unknown dataset {name!r}; see list_datasets()")
    spec = _scaled_spec(_SPEC_BY_NAME[name], scale)
    rng = ensure_rng(spec.seed + seed_offset)

    generator = MTSGenerator(
        n_channels=spec.dim,
        length=spec.length,
        n_classes=spec.n_classes,
        difficulty=spec.difficulty,
        seed=spec.seed,  # prototypes do NOT move with seed_offset
    )
    train_counts = solve_class_counts(spec.n_classes, spec.train_size, spec.im_ratio)
    test_counts = solve_class_counts(spec.n_classes, spec.test_size, spec.im_ratio)

    X_train, y_train = generator.sample(train_counts, rng)
    X_test, y_test = generator.sample(test_counts, rng)

    if spec.prop_miss > 0:
        X_train = _truncate_tails(X_train, spec.prop_miss, rng)
        X_test = _truncate_tails(X_test, spec.prop_miss, rng)
    X_train, X_test = _match_variance(X_train, X_test, spec.var_train)
    X_test = _match_shift(X_train, X_test, spec.d_train_test)

    meta = {"spec": spec, "scale": scale, "seed_offset": seed_offset}
    train = TimeSeriesDataset(X_train, y_train, name=name, metadata=meta)
    test = TimeSeriesDataset(X_test, y_test, name=name, metadata=meta)
    return train, test


def _match_variance(X_train: np.ndarray, X_test: np.ndarray,
                    target: float) -> tuple[np.ndarray, np.ndarray]:
    """Rescale both splits so the train set hits the Table III variance."""
    current = np.nanvar(X_train, axis=0).mean()
    if current <= 0:
        return X_train, X_test
    factor = np.sqrt(target / current)
    return X_train * factor, X_test * factor


def _match_shift(X_train: np.ndarray, X_test: np.ndarray, target: float) -> np.ndarray:
    """Offset the test set so the train/test mean distance hits *target*.

    The offset is constant over time within each channel — a sensor
    baseline shift.  That is how large mean distances arise in the real
    archive (e.g. EthanolConcentration's raw chromatogram baselines), and
    it is what per-series normalisation removes in real pipelines, so the
    characteristic is reproduced without inventing a shape distortion that
    would cripple every classifier.
    """
    _, m, t = X_test.shape
    residual = np.nanmean(X_test, axis=0) - np.nanmean(X_train, axis=0)
    # Cancel the incidental sampling gap, then add the calibrated offset.
    per_channel = np.full(m, target / np.sqrt(m * t))
    return X_test - residual[None] + per_channel[None, :, None]


def _truncate_tails(X: np.ndarray, prop_miss: float, rng: np.random.Generator) -> np.ndarray:
    """NaN-out trailing steps of random series until *prop_miss* is reached.

    Mimics the variable-length UEA datasets (CharacterTrajectories,
    SpokenArabicDigits) whose missingness comes from padding shorter series.
    """
    X = X.copy()
    n, _, t = X.shape
    # A fifth of the series keep full length (they define the panel length,
    # as in the real variable-length UEA datasets); the rest are truncated
    # with a mean cut calibrated so the overall NaN fraction hits the target.
    n_full = max(2, n // 5)
    n_cut = n - n_full
    if n_cut <= 0:
        return X
    cuts = rng.uniform(0.5, 1.5, size=n_cut)
    cuts *= prop_miss * n / (n_cut * cuts.mean())
    keep = np.maximum(2, np.round((1.0 - np.clip(cuts, 0.0, 0.9)) * t).astype(int))
    cut_indices = rng.permutation(n)[:n_cut]
    for i, keep_len in zip(cut_indices, keep):
        X[i, :, keep_len:] = np.nan
    return X
