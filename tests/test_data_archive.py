"""The simulated UEA archive: Table III metadata reproduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    UEA_IMBALANCED_SPECS,
    characterize,
    hellinger_distance,
    imbalance_degree,
    list_datasets,
    load_dataset,
    solve_class_counts,
)
from repro.data import archive
from repro.data.archive import _scaled_spec


def test_thirteen_datasets():
    assert len(list_datasets()) == 13
    assert list_datasets()[0] == "CharacterTrajectories"


def test_unknown_dataset():
    with pytest.raises(KeyError):
        load_dataset("NotADataset")


def test_invalid_scale():
    with pytest.raises(ValueError):
        load_dataset("Epilepsy", scale="huge")


def test_small_scale_shapes_capped():
    train, test = load_dataset("EigenWorms", scale="small")
    assert train.length <= 48
    assert train.n_channels <= 6
    assert train.n_series <= 48


def test_full_scale_matches_table3_shapes():
    spec = next(s for s in UEA_IMBALANCED_SPECS if s.name == "RacketSports")
    train, test = load_dataset("RacketSports", scale="full")
    assert train.n_series == spec.train_size
    assert test.n_series == spec.test_size
    assert train.n_channels == spec.dim
    assert train.length == spec.length
    assert train.n_classes == spec.n_classes


def test_determinism():
    a_train, a_test = load_dataset("Epilepsy")
    b_train, b_test = load_dataset("Epilepsy")
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.y, b_test.y)


def test_seed_offset_changes_samples_not_structure():
    a, _ = load_dataset("Epilepsy", seed_offset=0)
    b, _ = load_dataset("Epilepsy", seed_offset=1)
    assert not np.allclose(a.X, b.X)
    assert np.array_equal(a.class_counts(), b.class_counts())


@pytest.mark.parametrize("name", ["Epilepsy", "Heartbeat", "LSST"])
def test_characteristics_close_to_paper(name):
    spec = next(s for s in UEA_IMBALANCED_SPECS if s.name == name)
    train, test = load_dataset(name, scale="small")
    ch = characterize(train, test)
    assert abs(ch.var_train - spec.var_train) < 0.02
    assert abs(ch.im_ratio - spec.im_ratio) < 0.35
    assert abs(ch.d_train_test - spec.d_train_test) / max(spec.d_train_test, 1) < 0.05


def test_full_scale_imbalance_degree_precision():
    """At full training-set size the Hellinger ID matches the paper closely."""
    for name, paper_value in (("LSST", 9.49), ("PenDigits", 4.02)):
        train, _ = load_dataset(name, scale="full")
        measured = imbalance_degree(train.class_counts())
        assert abs(measured - paper_value) < 0.1, name


def test_balanced_specs_are_balanced():
    for name in ("FingerMovements", "SelfRegulationSCP1", "SpokenArabicDigits"):
        train, _ = load_dataset(name, scale="small")
        assert train.is_balanced(), name


def test_missing_values_injected():
    train, _ = load_dataset("CharacterTrajectories", scale="small")
    assert 0.25 < train.missing_proportion() < 0.42


def test_no_missing_values_elsewhere():
    train, _ = load_dataset("PenDigits", scale="small")
    assert train.missing_proportion() == 0.0


class TestSolveClassCounts:
    def test_balanced_target(self):
        counts = solve_class_counts(4, 20, 0.0)
        assert np.array_equal(counts, [5, 5, 5, 5])

    def test_balanced_with_remainder(self):
        counts = solve_class_counts(3, 10, 0.0)
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_target_id_reached(self):
        counts = solve_class_counts(5, 100, 3.26)
        assert counts.sum() == 100
        assert (counts >= 1).all()
        assert abs(imbalance_degree(counts) - 3.26) < 0.2

    def test_extreme_target(self):
        counts = solve_class_counts(4, 48, 2.0)
        assert abs(imbalance_degree(counts) - 2.0) < 0.15

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            solve_class_counts(10, 5, 1.0)


def test_metadata_records_spec():
    train, _ = load_dataset("Heartbeat")
    assert train.metadata["spec"].name == "Heartbeat"
    assert train.metadata["scale"] == "small"


# --------------------------------------------------------------------- #
# The historical solver, restated: one candidate and one ID at a time.
# --------------------------------------------------------------------- #


def _reference_hellinger(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sqrt(0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum()))


def _reference_imbalance_degree(class_counts) -> float:
    """The historical Hellinger ID formula for one count vector."""
    counts = np.asarray(class_counts, dtype=float)
    k = counts.size
    zeta = counts / counts.sum()
    e = np.full(k, 1.0 / k)
    m = int((zeta < 1.0 / k - 1e-12).sum())
    if m == 0:
        return 0.0
    iota = np.concatenate([np.zeros(m), np.full(k - m - 1, 1.0 / k),
                           [(m + 1) / k]])
    return float((m - 1) + _reference_hellinger(zeta, e)
                 / _reference_hellinger(iota, e))


def _reference_solve_class_counts(n_classes, total, target_id):
    """The historical loop: build every candidate, rounding each with the
    largest-remainder method, then keep the first with the smallest
    error (strict ``<``)."""
    if total < n_classes:
        raise ValueError(f"cannot place {n_classes} classes in {total} samples")
    if target_id <= 0:
        base = np.full(n_classes, total // n_classes, dtype=np.int64)
        base[: total % n_classes] += 1
        return base
    candidates = []
    for rate in np.geomspace(1.0005, 50.0, 400):
        proportions = rate ** -np.arange(n_classes, dtype=float)
        proportions /= proportions.sum()
        k = proportions.size
        raw = proportions * (total - k)
        counts = np.floor(raw).astype(np.int64)
        remainder = total - k - counts.sum()
        order = np.argsort(-(raw - counts))
        counts[order[:remainder]] += 1
        candidates.append(counts + 1)
    for minority in range(1, total // n_classes + 1):
        head = total - (n_classes - 1) * minority
        if head >= minority:
            candidates.append(np.array([head] + [minority] * (n_classes - 1),
                                       dtype=np.int64))
    best_counts, best_error = None, np.inf
    for counts in candidates:
        error = abs(_reference_imbalance_degree(counts) - target_id)
        if error < best_error:
            best_error, best_counts = error, counts
    return best_counts


#: the 52 class-count problems the archive solves: dataset x scale x split
ARCHIVE_INPUTS = [
    pytest.param(scaled.n_classes, size, scaled.im_ratio,
                 id=f"{spec.name}-{scale}-{split}")
    for spec in UEA_IMBALANCED_SPECS
    for scale in ("small", "full")
    for scaled in (_scaled_spec(spec, scale),)
    for split, size in (("train", scaled.train_size),
                        ("test", scaled.test_size))
]


class TestHistoricalSolver:
    @pytest.mark.parametrize("n_classes, total, target", ARCHIVE_INPUTS)
    def test_archive_counts_equal_the_historical_loop(self, n_classes, total,
                                                      target):
        np.testing.assert_array_equal(
            solve_class_counts(n_classes, total, target),
            _reference_solve_class_counts(n_classes, total, target))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_counts_equal_the_historical_loop(self, data):
        n_classes = data.draw(st.integers(2, 30), label="n_classes")
        total = data.draw(st.integers(n_classes, 3000), label="total")
        target = data.draw(st.floats(0.0, n_classes - 1), label="target")
        counts = solve_class_counts(n_classes, total, target)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, _reference_solve_class_counts(n_classes, total, target))

    def test_imbalance_degree_bit_identical_to_the_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = int(rng.integers(2, 31))
            counts = rng.integers(0, int(rng.choice([3, 50, 5000])), size=k)
            counts[rng.integers(k)] += 1  # never all zero
            assert imbalance_degree(counts) \
                == _reference_imbalance_degree(counts), counts.tolist()
            p, q = rng.uniform(0, 1, size=(2, k))
            assert hellinger_distance(p, q) == _reference_hellinger(p, q)

    def test_archive_equal_under_the_historical_solver(self, monkeypatch):
        current = {name: load_dataset(name, scale="small")
                   for name in list_datasets()}
        monkeypatch.setattr(archive, "solve_class_counts",
                            _reference_solve_class_counts)
        for name, splits in current.items():
            for now, then in zip(splits, load_dataset(name, scale="small")):
                np.testing.assert_array_equal(now.X, then.X)
                np.testing.assert_array_equal(now.y, then.y)
