"""TimeSeriesDataset container semantics."""

import numpy as np
import pytest

from repro.data import TimeSeriesDataset


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 2, 8))
    y = np.array([0] * 6 + [1] * 4)
    return TimeSeriesDataset(X, y, name="toy")


def test_shape_accessors(dataset):
    assert dataset.n_series == 10
    assert dataset.n_channels == 2
    assert dataset.length == 8
    assert dataset.n_classes == 2
    assert len(dataset) == 10


def test_univariate_promotion():
    ds = TimeSeriesDataset(np.zeros((3, 5)), np.zeros(3, dtype=int))
    assert ds.n_channels == 1


def test_rejects_negative_labels():
    with pytest.raises(ValueError, match="non-negative"):
        TimeSeriesDataset(np.zeros((2, 1, 4)), np.array([0, -1]))


def test_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        TimeSeriesDataset(np.zeros((3, 1, 4)), np.array([0, 1]))


def test_class_counts_and_proportions(dataset):
    assert np.array_equal(dataset.class_counts(), [6, 4])
    assert np.allclose(dataset.class_proportions(), [0.6, 0.4])


def test_series_of_class(dataset):
    assert dataset.series_of_class(1).shape == (4, 2, 8)


def test_is_balanced(dataset):
    assert not dataset.is_balanced()
    balanced = dataset.subset(np.arange(8))  # 6 of class 0 + 2 of class 1? no
    X = np.zeros((4, 1, 3))
    assert TimeSeriesDataset(X, np.array([0, 0, 1, 1])).is_balanced()


def test_subset_preserves_metadata(dataset):
    sub = dataset.subset([0, 1, 2])
    assert sub.n_series == 3
    assert sub.name == "toy"


def test_with_samples(dataset):
    extra = np.ones((2, 2, 8))
    grown = dataset.with_samples(extra, [1, 1])
    assert grown.n_series == 12
    assert np.array_equal(grown.class_counts(), [6, 6])
    # original untouched (immutability)
    assert dataset.n_series == 10


def test_with_samples_rejects_wrong_shape(dataset):
    with pytest.raises(ValueError, match="shape"):
        dataset.with_samples(np.ones((1, 2, 9)), [0])


class TestImpute:
    def _with_nans(self):
        X = np.arange(24.0).reshape(2, 2, 6)
        X[0, 0, 4:] = np.nan  # trailing
        X[1, 1, 0] = np.nan  # leading
        return TimeSeriesDataset(X, np.array([0, 1]))

    def test_forward_fill(self):
        ds = self._with_nans().impute("forward")
        assert not np.isnan(ds.X).any()
        assert ds.X[0, 0, 4] == ds.X[0, 0, 3]  # carried forward
        assert ds.X[1, 1, 0] == ds.X[1, 1, 1]  # back-filled leading NaN

    def test_zero_fill(self):
        ds = self._with_nans().impute("zero")
        assert ds.X[0, 0, 4] == 0.0

    def test_mean_fill(self):
        ds = self._with_nans().impute("mean")
        original = self._with_nans().X
        assert np.isclose(ds.X[0, 0, 4], np.nanmean(original[0, 0]))

    def test_noop_without_nans(self):
        X = np.ones((2, 1, 4))
        ds = TimeSeriesDataset(X, np.array([0, 1]))
        assert ds.impute() is ds

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            self._with_nans().impute("bogus")

    def test_all_nan_channel_becomes_zero(self):
        X = np.ones((1, 2, 4))
        X[0, 0] = np.nan
        ds = TimeSeriesDataset(X, np.array([0])).impute("forward")
        assert np.allclose(ds.X[0, 0], 0.0)


def test_znormalize():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 3, 50)) * 7 + 3
    ds = TimeSeriesDataset(X, np.zeros(5, dtype=int)).znormalize()
    assert np.abs(ds.X.mean(axis=2)).max() < 1e-10
    assert np.abs(ds.X.std(axis=2) - 1).max() < 1e-10


def test_znormalize_constant_channel_safe():
    X = np.ones((2, 1, 5))
    ds = TimeSeriesDataset(X, np.array([0, 1])).znormalize()
    assert np.allclose(ds.X, 0.0)


def test_preprocess_is_the_served_preprocessing():
    """z-norm then impute, and the server prepares a raw panel through
    the same definition, bit for bit."""
    from repro.serving import prepare_panel

    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 2, 30)) * 5 + 2
    X[0, 0, :3] = X[1, 1, 10:14] = X[2, 0, -2:] = np.nan
    ds = TimeSeriesDataset(X, np.zeros(4, dtype=int))
    expected = ds.znormalize().impute().X
    assert np.array_equal(ds.preprocess().X, expected)
    assert np.array_equal(prepare_panel(X), expected)


def test_missing_proportion():
    X = np.ones((1, 1, 4))
    X[0, 0, :2] = np.nan
    assert TimeSeriesDataset(X, np.array([0])).missing_proportion() == 0.5
