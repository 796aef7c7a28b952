"""The full adaptation loop — a drifting stream that heals itself.

Walks every layer of the confidence-aware serving stack in one process:

1. train a ROCKET classifier on series drawn from a synthetic generator,
   publish it to a registry tagged ``stable``;
2. open a :class:`~repro.streaming.StreamScorer` over a
   :class:`~repro.serving.PredictionService` with an
   :class:`~repro.adaptation.AdaptationController` hooked in as the
   scorer's adapter;
3. stream fresh series from the *same* generator with a mid-stream
   prototype swap.  Watch the sequence unfold, window by window:

   * probabilities ride every window (``confidence`` on each result);
   * at the shift, accuracy collapses and the drift monitor flags it;
   * the controller collects a post-flag training set, retrains, and
     publishes the result as the next version tagged ``canary``;
   * live windows are shadow-scored against both versions;
   * the canary wins on accuracy and the ``stable`` tag moves to it;
   * the open stream swaps to the promoted version in place
     (:func:`~repro.adaptation.adapt_stream`), so the adapted model
     scores the rest of the stream;

4. print the decision, the registry state and the controller's own
   adaptation counters (``controller.stats``; the loop runs in process,
   so no server exports them).

The same flow from the shell:

    python -m repro train RacketSports --registry ./registry --tag stable
    python -m repro adapt RacketSports-rocket --registry ./registry \
        --synthetic-like RacketSports --series 150 --shift-at 2000

Run:  python examples/adaptive_serving.py
"""

import tempfile

import numpy as np

from repro.adaptation import AdaptationController, adapt_stream, family_trainer
from repro.classifiers import RocketClassifier
from repro.data.generators import MTSGenerator
from repro.serving import (
    PROTOCOL_PREPROCESSING,
    ModelRecord,
    ModelRegistry,
    PredictionService,
    model_metadata,
    prepare_panel,
)
from repro.streaming import StreamScorer, SyntheticSource, WindowResult

WINDOW = 32
N_SERIES = 160
SHIFT_AT = 40 * WINDOW  # swap prototypes a quarter of the way in


def main() -> None:
    # 1. a generator defines the "world"; train and publish `stable`.
    generator = MTSGenerator(n_channels=2, length=WINDOW, n_classes=2,
                             difficulty=0.2, seed=7)
    X, y = generator.sample(np.array([40, 40]), np.random.default_rng(1))
    model = RocketClassifier(num_kernels=200, seed=0).fit(prepare_panel(X), y)

    registry = ModelRegistry(tempfile.mkdtemp(prefix="registry-"))
    record = registry.publish(model, "demo", tags=("stable",),
                              metadata=model_metadata(
        model, dataset="synthetic", technique="baseline",
        preprocessing=PROTOCOL_PREPROCESSING, input_shape=[2, WINDOW]))
    print(f"published {record.name}:{record.version} tags={record.tags}")

    # 2. a service + scorer with the adaptation controller hooked in.
    service = PredictionService(registry, max_queue=256)
    controller = AdaptationController(
        service, "demo",
        collect_windows=30,     # post-flag windows the canary trains on
        shadow_windows=16,      # live comparisons before the decision
        background=False,       # inline retrain: deterministic demo
        trainer=family_trainer("rocket", num_kernels=200),
    )

    # 3. stream the same world, with a concept shift partway through.
    #    adapt_stream yields each window, each decision, and the record
    #    the stream swaps to in place after a promotion.
    source = SyntheticSource(generator=generator, n_series=N_SERIES,
                             seed=3, shift_at=SHIFT_AT)
    shift_window = SHIFT_AT // WINDOW
    printed_flag = False
    with StreamScorer(service, "demo", window=WINDOW,
                      adapter=controller) as scorer:
        samples = ((s.values, s.label, s.t) for s in source)
        for event in adapt_stream(scorer, samples):
            if isinstance(event, ModelRecord):
                print(f"swapped the open stream to demo:{event.version} "
                      f"after window {scorer.windows - 1}")
                continue
            if not isinstance(event, WindowResult):
                continue  # the decision; printed below
            drift = event.drift
            if event.index in (0, shift_window) \
                    or (drift.shift and not printed_flag):
                marker = " <-- DRIFT FLAG" if drift.shift else ""
                print(f"window {event.index:3d}: label={event.label} "
                      f"truth={event.truth} "
                      f"confidence={event.confidence:.3f} "
                      f"acc_fast={drift.accuracy_fast:.2f}{marker}")
                printed_flag = printed_flag or drift.shift
    service.close()

    # 4. what happened?
    print(f"\nwindows scored: {scorer.windows}, drift-flagged: {scorer.shifts}")
    for decision in controller.decisions:
        print(f"decision: {decision.as_dict()}")
    for version in registry.versions("demo"):
        print(f"registry: demo:{version.version} tags={version.tags} "
              f"adapted_from={version.metadata.get('adapted_from')}")
    stats = controller.stats
    print(f"stats: retrainings={stats.retrainings.value} "
          f"promotions={stats.promotions.value} "
          f"rollbacks={stats.rollbacks.value} "
          f"shadow_windows={stats.shadow_windows.value} "
          f"shadow_agreements={stats.shadow_agreements.value}")

    promoted = registry.record("demo", "stable")
    assert promoted.version == 2, "expected the canary to be promoted"
    assert scorer.record.version == 2, "expected the stream to swap to it"
    print(f"\nthe stream healed itself: 'stable' now points at "
          f"demo:{promoted.version}, which scored the rest of the stream")


if __name__ == "__main__":
    main()
