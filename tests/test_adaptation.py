"""The drift→retrain→canary loop, end to end and deterministic.

The scenarios run a real PredictionService over a temporary registry, a
real StreamScorer, and a SyntheticSource with a mid-stream prototype
swap — the full serving path, no mocks.  Retraining runs inline
(``background=False``) so every decision is a pure function of the
seeds.
"""

import numpy as np
import pytest

from repro.adaptation import (
    AdaptationController,
    ReplayBuffer,
    adapt_stream,
    family_trainer,
)
from repro.classifiers import RocketClassifier
from repro.data.generators import MTSGenerator
from repro.observability import AuditJournal
from repro.serving import (
    PROTOCOL_PREPROCESSING,
    ModelRegistry,
    PredictionService,
    model_metadata,
    prepare_panel,
)
from repro.streaming import DriftMonitor, StreamScorer, SyntheticSource

WINDOW = 32


def _publish(root, *, tags=("stable",)):
    """Train a rocket on pre-shift generator data and publish it."""
    generator = MTSGenerator(n_channels=2, length=WINDOW, n_classes=2,
                             difficulty=0.2, seed=7)
    X, y = generator.sample([30, 30], np.random.default_rng(0))
    model = RocketClassifier(num_kernels=100, seed=0).fit(prepare_panel(X), y)
    registry = ModelRegistry(root)
    registry.publish(model, "demo", tags=tags, metadata=model_metadata(
        model, dataset="synthetic", technique="baseline",
        preprocessing=PROTOCOL_PREPROCESSING, input_shape=[2, WINDOW]))
    return registry, generator


class _Recorder:
    """Adapter wrapper capturing every (panel, result) the scorer emits."""

    def __init__(self, inner):
        self.inner = inner
        self.panels = {}
        self.results = {}

    def observe(self, panel, result):
        self.panels[result.index] = np.array(panel, copy=True)
        self.results[result.index] = result
        self.inner.observe(panel, result)


def _drive(scorer, source, labels=True):
    results = []
    for sample in source:
        results.extend(scorer.feed(sample.values,
                                   sample.label if labels else None))
    results.extend(scorer.finish())
    return results


class TestReplayBuffer:
    def test_capacity_and_snapshot_order(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(5):
            buffer.add(np.full((1, 4), float(i)), i)
        assert len(buffer) == 3
        X, y = buffer.snapshot()
        np.testing.assert_array_equal(y, [2, 3, 4])  # oldest first, freshest 3
        assert X.shape == (3, 1, 4)

    def test_clear_and_validation(self):
        buffer = ReplayBuffer(capacity=2)
        with pytest.raises(ValueError):
            buffer.snapshot()
        with pytest.raises(ValueError):
            buffer.add(np.zeros(4), 0)  # 1-D is not a window panel
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)
        buffer.add(np.zeros((1, 4)), 1)
        buffer.clear()
        assert len(buffer) == 0

    def test_snapshot_is_a_copy(self):
        buffer = ReplayBuffer(capacity=4)
        buffer.add(np.zeros((1, 3)), 0)
        buffer.add(np.ones((1, 3)), 1)
        X, _ = buffer.snapshot()
        X[:] = 99.0
        X2, _ = buffer.snapshot()
        assert X2.max() == 1.0

    def test_relabel_upgrades_in_place(self):
        buffer = ReplayBuffer(capacity=4)
        for i in range(4):
            buffer.add(np.full((1, 3), float(i)), 0, index=i)
        assert buffer.relabel(2, 7)
        _, y = buffer.snapshot()
        np.testing.assert_array_equal(y, [0, 0, 7, 0])
        assert buffer.label_counts() == {0: 3, 7: 1}

    def test_relabel_misses_evicted_and_unindexed_windows(self):
        buffer = ReplayBuffer(capacity=2)
        buffer.add(np.zeros((1, 3)), 0, index=0)
        buffer.add(np.zeros((1, 3)), 0, index=1)
        buffer.add(np.zeros((1, 3)), 0, index=2)  # evicts index 0
        assert not buffer.relabel(0, 9)  # already gone
        buffer.add(np.zeros((1, 3)), 0)  # no index recorded
        assert not buffer.relabel(99, 9)
        assert buffer.relabel(2, 9)


class TestControllerValidation:
    def test_parameter_validation(self, tmp_path):
        registry, _ = _publish(tmp_path)
        service = PredictionService(registry)
        try:
            for kwargs in (dict(collect_windows=1),
                           dict(shadow_windows=0),
                           dict(cooldown_windows=-1)):
                with pytest.raises(ValueError):
                    AdaptationController(service, "demo", **kwargs)
            with pytest.raises(KeyError):
                AdaptationController(service, "missing")
        finally:
            service.close()


class TestPromotePath:
    @pytest.fixture()
    def outcome(self, tmp_path):
        registry, generator = _publish(tmp_path)
        service = PredictionService(registry, max_queue=256)
        controller = AdaptationController(
            service, "demo", background=False,
            collect_windows=30, shadow_windows=16, cooldown_windows=500,
            trainer=family_trainer("rocket", num_kernels=100),
        )
        recorder = _Recorder(controller)
        source = SyntheticSource(generator=generator, n_series=160, seed=1,
                                 shift_at=40 * WINDOW)
        try:
            with StreamScorer(service, "demo", window=WINDOW,
                              adapter=recorder) as scorer:
                results = _drive(scorer, source)
        finally:
            service.close()
        return registry, service, controller, recorder, results

    def test_drift_triggers_canary_and_promotion(self, outcome):
        registry, service, controller, _, results = outcome
        assert controller.errors == []
        assert len(controller.decisions) == 1
        decision = controller.decisions[0]
        assert decision.action == "promote"
        assert decision.criterion == "accuracy"
        assert decision.trigger_signal == "accuracy"
        assert decision.canary_version == 2
        assert decision.canary_accuracy > decision.stable_accuracy
        # The registry reflects the decision: v2 is both canary and stable.
        assert registry.record("demo", "canary").version == 2
        assert registry.record("demo", "stable").version == 2
        canary = registry.record("demo", 2)
        assert canary.metadata["adapted_from"] == 1
        assert canary.metadata["trained_on_windows"] == 30
        assert canary.metadata["preprocessing"] == PROTOCOL_PREPROCESSING

    def test_decision_visible_in_metrics(self, outcome):
        _, _, controller, _, _ = outcome
        stats = controller.stats
        assert stats.retrainings.value == 1
        assert stats.promotions.value == 1
        assert stats.rollbacks.value == 0
        assert stats.shadow_windows.value == 16

    def test_shadow_scoring_parity(self, outcome):
        """The shadow agreement must equal an independent re-score of the
        same windows with the canary loaded straight from the registry."""
        registry, _, controller, recorder, _ = outcome
        decision = controller.decisions[0]
        assert len(decision.shadow_indices) == 16
        panels = np.stack([recorder.panels[i] for i in decision.shadow_indices])
        stable_labels = [recorder.results[i].label
                         for i in decision.shadow_indices]
        truths = [recorder.results[i].truth for i in decision.shadow_indices]
        canary_model, _ = registry.load("demo", decision.canary_version)
        canary_labels = canary_model.predict(prepare_panel(panels))
        agreement = float(np.mean(
            [c == s for c, s in zip(canary_labels, stable_labels)]))
        assert agreement == pytest.approx(decision.agreement)
        canary_accuracy = float(np.mean(
            [c == t for c, t in zip(canary_labels, truths)]))
        assert canary_accuracy == pytest.approx(decision.canary_accuracy)

    def test_buffer_cleared_after_promotion(self, outcome):
        _, _, controller, _, _ = outcome
        # Post-promotion windows kept arriving (cooldown), so the buffer
        # holds only windows observed after the promotion decision, up to
        # its one training set.
        decision_index = controller.decisions[0].shadow_indices[-1]
        held = controller.buffer.indices()
        assert held and min(held) > decision_index
        assert len(held) == min(30, 160 - (decision_index + 1))


class _SettledService(PredictionService):
    """Answers every submit before returning it, so each shadow batch's
    futures are done by the time the controller next looks at them."""

    def submit(self, *args, **kwargs):
        record, futures = super().submit(*args, **kwargs)
        for future in futures:
            future.result()
        return record, futures


class TestShadowVerdictJournal:
    def test_verdicts_land_with_their_decision(self, tmp_path):
        """However early the canary answers, a canary's shadow verdicts
        are journaled together, in window order, right before its
        decision: the journal does not depend on future timing."""
        registry, generator = _publish(tmp_path)
        service = _SettledService(registry, max_queue=256)
        journal = AuditJournal()
        controller = AdaptationController(
            service, "demo", background=False,
            collect_windows=30, shadow_windows=16, cooldown_windows=500,
            trainer=family_trainer("rocket", num_kernels=100),
            journal=journal,
        )
        source = SyntheticSource(generator=generator, n_series=160, seed=1,
                                 shift_at=40 * WINDOW)
        samples = ((sample.values, sample.label, sample.t)
                   for sample in source)
        try:
            with StreamScorer(service, "demo", window=WINDOW,
                              adapter=controller, journal=journal) as scorer:
                for _ in adapt_stream(scorer, samples):
                    pass
        finally:
            service.close()
        [decision] = controller.decisions
        assert decision.action == "promote"
        events = journal.events()
        kinds = [event["kind"] for event in events]
        start, end = kinds.index("retrain"), kinds.index("promotion")
        shadow = events[start + 1:end]
        verdicts = [e for e in shadow if e["kind"] == "shadow_verdict"]
        assert len(verdicts) == decision.shadow_windows == 16
        assert shadow[-len(verdicts):] == verdicts
        assert [v["window"] for v in verdicts] \
            == list(decision.shadow_indices)


class TestRollbackPath:
    def test_bad_canary_rolls_back(self, tmp_path):
        """A false drift flag retrains on healthy data with a broken
        trainer; shadow accuracy exposes the canary and it rolls back."""
        registry, generator = _publish(tmp_path)
        service = PredictionService(registry, max_queue=256)

        def broken_trainer(X, y):
            # Misaligned labels: the canary is near-chance by construction.
            return RocketClassifier(num_kernels=20, seed=0).fit(X, np.roll(y, 1))

        controller = AdaptationController(
            service, "demo", background=False, collect_windows=20,
            shadow_windows=16, cooldown_windows=500, trainer=broken_trainer,
        )
        # A hair-trigger confidence threshold fires on EWMA noise — the
        # false-positive scenario a canary gate exists for.
        monitor = DriftMonitor(warmup=2, persistence=1,
                               confidence_threshold=1e-6)
        source = SyntheticSource(generator=generator, n_series=120, seed=3)
        try:
            with StreamScorer(service, "demo", window=WINDOW, monitor=monitor,
                              adapter=controller) as scorer:
                _drive(scorer, source)
        finally:
            service.close()
        assert controller.errors == []
        assert len(controller.decisions) == 1
        decision = controller.decisions[0]
        assert decision.action == "rollback"
        assert decision.criterion == "accuracy"
        assert decision.canary_accuracy < decision.stable_accuracy
        # The canary version exists and keeps its tag, but stable stays put.
        assert registry.record("demo", "canary").version == 2
        assert registry.record("demo", "stable").version == 1
        assert controller.stats.rollbacks.value == 1
        assert controller.stats.promotions.value == 0


class TestUnlabelledConfidencePath:
    def test_ood_drift_flags_confidence_and_decides(self, tmp_path):
        """No truth labels anywhere: drift is detected by the confidence
        EWMA, retraining self-trains on predictions, and the decision
        uses the confidence criterion."""
        registry, generator = _publish(tmp_path)
        service = PredictionService(registry, max_queue=256)
        controller = AdaptationController(
            service, "demo", background=False, collect_windows=24,
            shadow_windows=12, cooldown_windows=500,
            trainer=family_trainer("rocket", num_kernels=100),
        )
        rng = np.random.default_rng(11)
        in_dist = SyntheticSource(generator=generator, n_series=40, seed=2)
        try:
            with StreamScorer(service, "demo", window=WINDOW,
                              adapter=controller) as scorer:
                results = []
                for sample in in_dist:
                    results.extend(scorer.feed(sample.values, None))
                # Out-of-distribution regime: the same process drowned in
                # noise.  The model's confidence erodes — the only signal
                # an unlabelled stream has.
                ood = SyntheticSource(generator=generator, n_series=100,
                                      seed=4)
                for sample in ood:
                    noisy = sample.values + rng.normal(0.0, 2.5, size=2)
                    results.extend(scorer.feed(noisy, None))
                results.extend(scorer.finish())
        finally:
            service.close()
        flagged = [r for r in results if r.drift.shift]
        assert flagged, "confidence EWMA never flagged the OOD drift"
        assert all(r.drift.signal == "confidence" for r in flagged)
        assert all(r.truth is None for r in results)
        assert controller.errors == []
        assert len(controller.decisions) == 1
        decision = controller.decisions[0]
        assert decision.trigger_signal == "confidence"
        assert decision.criterion == "confidence"
        assert decision.stable_accuracy is None  # no truth: never claimed
        # The retrained model is more confident on the new regime than the
        # stale one — the promotion this criterion exists to allow.
        assert decision.action == "promote"
        assert decision.canary_confidence > decision.stable_confidence


class TestBackgroundRetraining:
    def test_off_thread_retrain_reaches_a_decision(self, tmp_path):
        registry, generator = _publish(tmp_path)
        service = PredictionService(registry, max_queue=256)
        controller = AdaptationController(
            service, "demo", background=True, collect_windows=20,
            shadow_windows=8, cooldown_windows=500,
            trainer=family_trainer("rocket", num_kernels=60),
        )
        shift_at = 30 * WINDOW
        source = SyntheticSource(generator=generator, n_series=80, seed=1,
                                 shift_at=shift_at)
        samples = list(source)
        try:
            with StreamScorer(service, "demo", window=WINDOW,
                              adapter=controller) as scorer:
                for sample in samples[:65 * WINDOW]:
                    scorer.feed(sample.values, sample.label)
                # Up to max_batch windows are still unresolved, and the
                # controller only sees a window once it resolves.  Drain
                # them so the flag and the collection quorum have reached
                # it: wait() only joins a retrain that has already started.
                scorer.finish()
                assert controller.state in ("retraining", "shadowing"), \
                    (controller.state, controller.errors)
                # Let the off-thread retrain land, then keep streaming so
                # shadow scoring has live windows to compare on.
                assert controller.wait(timeout=60.0)
                for sample in samples[65 * WINDOW:]:
                    scorer.feed(sample.values, sample.label)
                scorer.finish()
        finally:
            service.close()
        assert controller.errors == []
        assert len(controller.decisions) == 1
        assert controller.decisions[0].action == "promote"
        assert registry.record("demo", "stable").version == 2
