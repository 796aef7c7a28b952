"""Scenario worlds: determinism, gap semantics, false-flag regression.

Four layers, cheapest first:

* pathology-wrapper units — ``GapSource`` / ``RaggedSource`` /
  ``LabelNoiseSource`` filter and relabel exactly as documented, and
  iterate bit-identically;
* windower/scorer gap semantics — a clock jump resets the window
  buffer, so no window ever mixes samples from both sides of a gap
  (the satellite fix this PR hardens);
* seed stability — every registered world yields bit-identical
  training panels and streams across two constructions (the property
  the whole regression suite rests on);
* drift-free false-flag regression — the stationary worlds must
  produce **zero** drift flags over 500+ windows in both monitor modes
  (accuracy EWMA with labels, confidence EWMA without);
* ``pytest.mark.scenario`` smoke — three worlds (one per kind)
  replayed end-to-end through the adaptation loop against their
  budgets; CI runs these with ``-m scenario``.
"""

import dataclasses

import numpy as np
import pytest

from repro.classifiers import RocketClassifier
from repro.data import available_worlds, make_classification_panel, make_world
from repro.serving import (
    ModelRegistry,
    PredictionService,
    model_metadata,
    prepare_panel,
)
from repro.streaming import (
    GapSource,
    LabelNoiseSource,
    RaggedSource,
    ReplaySource,
    SlidingWindower,
    StreamScorer,
)

WINDOW = 16

#: worlds whose drift_points tuple is empty — nothing to detect, so any
#: drift flag they raise is by definition false
DRIFT_FREE_WORLDS = ("stationary-kernelsynth", "seasonal-stable")


def _materialize(source):
    return [(s.t, s.values.copy(), s.label) for s in source]


def _streams_equal(a, b):
    return len(a) == len(b) and all(
        ta == tb and la == lb and np.array_equal(va, vb)
        for (ta, va, la), (tb, vb, lb) in zip(a, b))


# --------------------------------------------------------------------- #
# pathology wrapper units
# --------------------------------------------------------------------- #


class TestGapSource:
    def _base(self):
        X, y = make_classification_panel(
            n_series=8, n_channels=2, length=WINDOW, n_classes=2, seed=3)
        return ReplaySource(X, y)

    def test_outage_removes_exact_span_and_keeps_clock(self):
        source = GapSource(self._base(), gaps=((20, 10),))
        ts = [s.t for s in source]
        assert set(range(20, 30)).isdisjoint(ts)
        assert ts == sorted(ts)
        # the clock is the original one: samples after the gap keep their t
        assert 30 in ts and 19 in ts

    def test_dropout_is_seeded_and_deterministic(self):
        source = GapSource(self._base(), drop_probability=0.2, seed=9)
        first, second = _materialize(source), _materialize(source)
        assert _streams_equal(first, second)
        assert len(first) < 8 * WINDOW  # something was actually dropped

    def test_series_remainder_invalidation(self):
        # Losing one sample mid-series discards the rest of that series:
        # the stream resumes at the next series boundary.
        source = GapSource(self._base(), gaps=((WINDOW + 3, 1),),
                           series_length=WINDOW)
        ts = [s.t for s in source]
        lost = set(range(WINDOW + 3, 2 * WINDOW))
        assert lost.isdisjoint(ts)
        assert 2 * WINDOW in ts  # next series starts on its boundary

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GapSource(self._base(), drop_probability=1.0)
        with pytest.raises(ValueError):
            GapSource(self._base(), gaps=((-1, 5),))
        with pytest.raises(ValueError):
            GapSource(self._base(), gaps=((0, 0),))
        with pytest.raises(ValueError):
            GapSource(self._base(), series_length=0)


class TestRaggedSource:
    def test_truncates_tails_and_is_deterministic(self):
        X, y = make_classification_panel(
            n_series=10, n_channels=2, length=WINDOW, n_classes=2, seed=4)
        source = RaggedSource(ReplaySource(X, y), series_length=WINDOW,
                              min_fraction=0.5, seed=5)
        first, second = _materialize(source), _materialize(source)
        assert _streams_equal(first, second)
        kept = len(first)
        assert 10 * WINDOW // 2 <= kept < 10 * WINDOW
        # within each series the surviving prefix is contiguous from 0
        by_series = {}
        for t, _, _ in first:
            by_series.setdefault(t // WINDOW, []).append(t % WINDOW)
        for steps in by_series.values():
            assert steps == list(range(len(steps)))

    def test_min_fraction_one_is_identity(self):
        X, y = make_classification_panel(
            n_series=4, n_channels=2, length=WINDOW, n_classes=2, seed=4)
        plain = _materialize(ReplaySource(X, y))
        ragged = _materialize(RaggedSource(ReplaySource(X, y),
                                           series_length=WINDOW,
                                           min_fraction=1.0, seed=5))
        assert _streams_equal(plain, ragged)


class TestLabelNoiseSource:
    def test_flips_whole_series_consistently(self):
        X, y = make_classification_panel(
            n_series=40, n_channels=2, length=WINDOW, n_classes=3, seed=6)
        source = LabelNoiseSource(ReplaySource(X, y), n_classes=3,
                                  series_length=WINDOW,
                                  flip_probability=0.3, seed=7)
        samples = _materialize(source)
        assert _streams_equal(samples, _materialize(source))
        n_series = len(samples) // WINDOW  # the panel may balance to fewer
        flipped = 0
        for series in range(n_series):
            chunk = samples[series * WINDOW:(series + 1) * WINDOW]
            labels = {label for _, _, label in chunk}
            assert len(labels) == 1  # one label per series, never mixed
            noisy = labels.pop()
            assert 0 <= noisy < 3
            flipped += int(noisy != int(y[series]))
        assert 0 < flipped < n_series  # some flips, not all

    def test_zero_probability_is_identity(self):
        X, y = make_classification_panel(
            n_series=6, n_channels=2, length=WINDOW, n_classes=2, seed=6)
        clean = _materialize(LabelNoiseSource(
            ReplaySource(X, y), n_classes=2, series_length=WINDOW,
            flip_probability=0.0, seed=7))
        assert [label for _, _, label in clean] \
            == [int(v) for v in np.repeat(y, WINDOW)]


# --------------------------------------------------------------------- #
# gap semantics: windower reset + t-aware scorer feed
# --------------------------------------------------------------------- #


class TestWindowerReset:
    def test_reset_requires_fresh_fill(self):
        windower = SlidingWindower(n_channels=1, window=4, hop=4)
        for step in range(3):
            assert windower.push([float(step)]) is None
        windower.reset()
        assert windower.seen == 0
        panels = [windower.push([float(10 + step)]) for step in range(4)]
        assert all(panel is None for panel in panels[:3])
        # the completed window holds only post-reset samples
        np.testing.assert_array_equal(panels[3], [[10.0, 11.0, 12.0, 13.0]])


class TestScorerGapSemantics:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        X, y = make_classification_panel(
            n_series=24, n_channels=2, length=WINDOW, n_classes=2,
            difficulty=0.2, seed=8)
        model = RocketClassifier(num_kernels=40, seed=0).fit(
            prepare_panel(X), y)
        registry = ModelRegistry(tmp_path_factory.mktemp("gap-registry"))
        registry.publish(model, "gapdemo", metadata=model_metadata(
            model, dataset="synthetic", preprocessing="znormalize+impute"))
        service = PredictionService(registry, max_queue=256)
        yield service
        service.close()

    def test_windows_never_straddle_a_gap(self, service):
        X, y = make_classification_panel(
            n_series=12, n_channels=2, length=WINDOW, n_classes=2, seed=8)
        gaps = ((WINDOW + 5, 3), (5 * WINDOW, WINDOW))
        source = GapSource(ReplaySource(X, y), gaps=gaps)
        surviving = {s.t for s in source}
        with StreamScorer(service, "gapdemo", window=WINDOW,
                          hop=WINDOW) as scorer:
            results = []
            for sample in source:
                results.extend(
                    scorer.feed(sample.values, sample.label, t=sample.t))
            results.extend(scorer.finish())
        assert scorer.gaps == len(gaps)
        assert results, "the stream should still produce windows"
        for result in results:
            span = set(range(result.start, result.end + 1))
            assert span <= surviving, (
                f"window [{result.start}, {result.end}] includes samples "
                f"lost to a gap")

    def test_feed_without_t_is_gapless_historical_behavior(self, service):
        X, y = make_classification_panel(
            n_series=4, n_channels=2, length=WINDOW, n_classes=2, seed=8)
        source = ReplaySource(X, y)
        with StreamScorer(service, "gapdemo", window=WINDOW,
                          hop=WINDOW) as scorer:
            results = []
            for sample in source:
                results.extend(scorer.feed(sample.values, sample.label))
            results.extend(scorer.finish())
        assert scorer.gaps == 0
        assert [r.index for r in results] == list(range(4))
        assert [(r.start, r.end) for r in results] \
            == [(i * WINDOW, (i + 1) * WINDOW - 1) for i in range(4)]

    def test_t_must_increase(self, service):
        """A clock that stalls or runs backwards is refused, and the
        refused sample changes nothing."""
        with StreamScorer(service, "gapdemo", window=WINDOW,
                          hop=WINDOW) as scorer:
            scorer.feed([0.0, 0.0], t=3)
            for t in (3, 2):
                with pytest.raises(ValueError, match="t must increase"):
                    scorer.feed([0.0, 0.0], t=t)
            assert (scorer.samples, scorer.gaps) == (1, 0)

    def test_consecutive_t_matches_no_t(self, service):
        """Passing a contiguous clock is bit-identical to passing none."""
        X, y = make_classification_panel(
            n_series=4, n_channels=2, length=WINDOW, n_classes=2, seed=8)

        def run(with_t):
            source = ReplaySource(X, y)
            with StreamScorer(service, "gapdemo", window=WINDOW,
                              hop=WINDOW) as scorer:
                results = []
                for sample in source:
                    t = sample.t if with_t else None
                    results.extend(
                        scorer.feed(sample.values, sample.label, t=t))
                results.extend(scorer.finish())
            return [(r.index, r.start, r.end, r.label, r.truth)
                    for r in results]

        assert run(True) == run(False)


# --------------------------------------------------------------------- #
# seed stability: every world is bit-deterministic
# --------------------------------------------------------------------- #


class TestSeedStability:
    @pytest.mark.parametrize("name", available_worlds())
    def test_same_seed_same_world(self, name):
        first = make_world(name, seed=11, n_series=12)
        second = make_world(name, seed=11, n_series=12)
        X1, y1 = first.training_panel()
        X2, y2 = second.training_panel()
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)
        assert _streams_equal(_materialize(first.source()),
                              _materialize(second.source()))

    @pytest.mark.parametrize("name", available_worlds())
    def test_different_seed_different_stream(self, name):
        first = _materialize(make_world(name, seed=11, n_series=12).source())
        second = _materialize(make_world(name, seed=12, n_series=12).source())
        assert not _streams_equal(first, second)

    def test_unknown_world_raises(self):
        with pytest.raises(KeyError):
            make_world("no-such-world")

    def test_registry_covers_all_kinds(self):
        kinds = {make_world(name).kind for name in available_worlds()}
        assert kinds == {"synthetic", "blend", "pathology"}
        assert len(available_worlds()) >= 8


# --------------------------------------------------------------------- #
# drift-free false-flag regression: 500+ windows, both monitor modes
# --------------------------------------------------------------------- #


class TestDriftFreeFalseFlags:
    @pytest.mark.parametrize("name", DRIFT_FREE_WORLDS)
    @pytest.mark.parametrize("labelled", [True, False],
                             ids=["accuracy-ewma", "confidence-ewma"])
    def test_zero_flags_over_500_windows(self, name, labelled):
        """A stationary world must never flag — in the labelled mode
        (accuracy EWMA) or the unlabelled one (confidence EWMA)."""
        from repro.experiments import run_scenario

        scenario = make_world(name, seed=1, n_series=510)
        if not labelled:
            scenario = dataclasses.replace(scenario, feed_labels=False)
        report = run_scenario(scenario, seed=1, num_kernels=300)
        assert report.windows >= 500
        assert report.false_flags == 0, (
            f"{name} ({'accuracy' if labelled else 'confidence'} mode) "
            f"false-flagged at windows {report.flags}")
        assert report.retrainings == 0


# --------------------------------------------------------------------- #
# end-to-end smoke subset (CI: pytest -m scenario)
# --------------------------------------------------------------------- #


@pytest.mark.scenario
class TestScenarioSmoke:
    """One world per kind through the full loop, against its budget."""

    @pytest.mark.parametrize("name", ["abrupt-prototype-swap",
                                      "mixup-blend-shift",
                                      "gappy-stream"])
    def test_world_within_budget(self, name):
        from repro.experiments import run_scenario

        report = run_scenario(name, seed=0)
        assert report.passed, (
            f"{name} blew its budget: delay_ok={report.delay_ok} "
            f"false_flags={report.false_flags} "
            f"final_accuracy={report.final_accuracy}")

    def test_every_due_late_label_is_counted(self):
        """Each window's truth comes due ``label_delay`` windows later,
        and every due label is delivered or counted as dropped — also
        those whose window a promotion cleared from the replay buffer."""
        from repro.experiments import run_scenario

        scenario = make_world("late-labels", seed=0)
        report = run_scenario(scenario, seed=0)
        assert report.promotions >= 1
        assert report.late_labels_delivered + report.late_labels_dropped \
            == report.windows - scenario.label_delay

    def test_drift_world_detects_and_promotes(self):
        from repro.experiments import run_scenario

        report = run_scenario("abrupt-prototype-swap", seed=0)
        assert report.detected
        assert report.detection_delay is not None \
            and report.detection_delay <= 12
        assert report.promotions >= 1
        assert report.final_accuracy is not None \
            and report.final_accuracy >= 0.55
