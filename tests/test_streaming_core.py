"""Streaming building blocks: windower, drift monitor, stream sources."""

import numpy as np
import pytest

from repro.data.generators import MTSGenerator
from repro.streaming import (
    DriftMonitor,
    ReplaySource,
    SlidingWindower,
    StreamSource,
    SyntheticSource,
    expected_windows,
)


class TestExpectedWindows:
    def test_plan(self):
        assert expected_windows(0, 4, 2) == 0
        assert expected_windows(3, 4, 2) == 0
        assert expected_windows(4, 4, 2) == 1
        assert expected_windows(10, 4, 2) == 4
        assert expected_windows(10, 4, 4) == 2
        assert expected_windows(10, 4, 1) == 7


class TestSlidingWindower:
    def test_matches_naive_slicing(self):
        """The ring buffer must emit exactly the naive sliding windows."""
        rng = np.random.default_rng(0)
        stream = rng.standard_normal((3, 101))
        for window, hop in ((8, 8), (8, 3), (5, 1), (101, 7)):
            windower = SlidingWindower(3, window, hop)
            emitted = []
            for t in range(stream.shape[1]):
                got = windower.push(stream[:, t])
                if got is not None:
                    emitted.append(got)
            expected = [stream[:, s : s + window]
                        for s in range(0, stream.shape[1] - window + 1, hop)]
            assert len(emitted) == len(expected) \
                == expected_windows(stream.shape[1], window, hop)
            for got, want in zip(emitted, expected):
                np.testing.assert_array_equal(got, want)

    def test_emitted_window_is_a_copy(self):
        windower = SlidingWindower(1, 2, 1)
        windower.push([1.0])
        first = windower.push([2.0])
        windower.push([3.0])  # overwrites the ring slot behind first
        np.testing.assert_array_equal(first, [[1.0, 2.0]])

    def test_rejects_bad_geometry_and_samples(self):
        with pytest.raises(ValueError):
            SlidingWindower(2, 0, 1)
        with pytest.raises(ValueError):
            SlidingWindower(2, 4, 0)
        with pytest.raises(ValueError):
            SlidingWindower(0, 4, 1)
        with pytest.raises(ValueError):
            SlidingWindower(2, 4, 1).push([1.0, 2.0, 3.0])


class TestDriftMonitor:
    def test_accuracy_collapse_flags_after_warmup_only(self):
        monitor = DriftMonitor(warmup=10)
        states = [monitor.update(1, truth=1) for _ in range(30)]
        assert not any(state.shift for state in states)
        collapsed = [monitor.update(1, truth=0) for _ in range(20)]
        assert not collapsed[0].shift  # one miss is not a shift
        assert any(state.shift for state in collapsed)
        assert collapsed[-1].shift and collapsed[-1].signal == "accuracy"

    def test_confidence_erosion_flags_without_truth(self):
        """Unlabelled + probabilities: a sustained confidence drop flags
        with signal "confidence" after ``persistence`` windows."""
        monitor = DriftMonitor(warmup=10, persistence=3)
        states = [monitor.update(i % 2, confidence=0.9) for i in range(40)]
        assert not any(state.shift for state in states)
        eroded = [monitor.update(i % 2, confidence=0.55) for i in range(10)]
        assert any(state.shift for state in eroded)
        flagged = next(state for state in eroded if state.shift)
        assert flagged.signal == "confidence"
        assert flagged.accuracy_fast is None
        assert flagged.confidence_fast < flagged.confidence_slow

    def test_confidence_retires_label_mix_fallback(self):
        """A mix collapse under steady confidence does not flag: the
        predicted-label mix is no drift signal."""
        monitor = DriftMonitor(warmup=10)
        for i in range(60):
            monitor.update(i % 3, confidence=0.9)
        shifted = [monitor.update(0, confidence=0.9) for _ in range(40)]
        assert not any(state.shift for state in shifted)

    def test_confidence_single_dip_does_not_flag(self):
        """One low-confidence window is noise, not drift (persistence)."""
        monitor = DriftMonitor(warmup=5, persistence=5)
        for _ in range(30):
            monitor.update(0, confidence=0.9)
        state = monitor.update(0, confidence=0.1)
        assert not state.shift

    def test_confidence_state_on_the_wire(self):
        monitor = DriftMonitor(warmup=2)
        state = monitor.update(1, confidence=0.8)
        payload = state.as_dict()
        assert payload["confidence_fast"] == 0.8
        assert payload["confidence_slow"] == 0.8
        assert "accuracy_fast" not in payload

    def test_stable_noisy_mix_does_not_flag(self):
        """EWMA wander on a stationary mix must not trip the flag."""
        rng = np.random.default_rng(5)
        monitor = DriftMonitor(warmup=10)
        states = [monitor.update(int(rng.integers(0, 2))) for _ in range(400)]
        assert not any(state.shift for state in states)

    def test_no_flags_during_warmup(self):
        monitor = DriftMonitor(warmup=15, persistence=1)
        for _ in range(15):
            assert not monitor.update(0, truth=1).shift

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(alpha_fast=0.01, alpha_slow=0.5)
        with pytest.raises(ValueError):
            DriftMonitor(threshold=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(warmup=-1)
        with pytest.raises(ValueError):
            DriftMonitor(persistence=0)
        with pytest.raises(ValueError):
            DriftMonitor(confidence_threshold=0.0)


class TestReplaySource:
    def test_replays_panel_in_order_with_labels(self):
        X = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        y = np.array([7, 9])
        source = ReplaySource(X, y)
        assert isinstance(source, StreamSource)
        samples = list(source)
        assert len(samples) == len(source) == 8
        assert [s.t for s in samples] == list(range(8))
        assert [s.label for s in samples] == [7] * 4 + [9] * 4
        np.testing.assert_array_equal(samples[0].values, X[0, :, 0])
        np.testing.assert_array_equal(samples[5].values, X[1, :, 1])

    def test_unlabelled_and_univariate(self):
        source = ReplaySource(np.ones((2, 5)))  # (N, T) promotes to 1 channel
        assert source.n_channels == 1
        assert all(s.label is None for s in source)

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError):
            ReplaySource(np.ones((2, 1, 5)), np.array([1]))


class TestSyntheticSource:
    def test_deterministic_across_iterations(self):
        source = SyntheticSource(n_series=4, length=16, seed=3,
                                 shift_at=2 * 16)
        first = [(s.t, s.label, s.values.copy()) for s in source]
        second = [(s.t, s.label, s.values.copy()) for s in source]
        assert len(first) == len(source) == 4 * 16
        for (t1, l1, v1), (t2, l2, v2) in zip(first, second):
            assert t1 == t2 and l1 == l2
            np.testing.assert_array_equal(v1, v2)

    def test_shift_changes_the_process_not_the_labels(self):
        """Same seed with and without a shift: identical streams until the
        shift boundary, same label sequence, different values after."""
        plain = list(SyntheticSource(n_series=6, length=8, seed=1))
        shifted = list(SyntheticSource(n_series=6, length=8, seed=1,
                                       shift_at=3 * 8))
        assert [s.label for s in plain] == [s.label for s in shifted]
        before = slice(0, 3 * 8)
        np.testing.assert_array_equal(
            np.stack([s.values for s in plain[before]]),
            np.stack([s.values for s in shifted[before]]),
        )
        after_plain = np.stack([s.values for s in plain[3 * 8:]])
        after_shifted = np.stack([s.values for s in shifted[3 * 8:]])
        assert not np.allclose(after_plain, after_shifted)

    def test_template_generator_is_not_mutated(self):
        generator = MTSGenerator(n_channels=2, length=8, n_classes=2,
                                 difficulty=0.2, seed=0)
        prototypes = list(generator.prototypes)
        source = SyntheticSource(generator=generator, n_series=3, seed=0,
                                 shift_at=0)
        list(source)
        assert generator.prototypes == prototypes  # the template is pristine

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SyntheticSource(n_series=0)
        with pytest.raises(ValueError):
            SyntheticSource(shift_at=-1)


class TestSwapPrototypes:
    def test_default_rotation(self):
        generator = MTSGenerator(n_channels=1, length=8, n_classes=3,
                                 difficulty=0.2, seed=0)
        before = list(generator.prototypes)
        generator.swap_prototypes()
        assert generator.prototypes == [before[1], before[2], before[0]]

    def test_explicit_mapping_and_validation(self):
        generator = MTSGenerator(n_channels=1, length=8, n_classes=2,
                                 difficulty=0.2, seed=0)
        before = list(generator.prototypes)
        generator.swap_prototypes([1, 0])
        assert generator.prototypes == [before[1], before[0]]
        with pytest.raises(ValueError):
            generator.swap_prototypes([0, 0])
        with pytest.raises(ValueError):
            generator.swap_prototypes([1, 2])
