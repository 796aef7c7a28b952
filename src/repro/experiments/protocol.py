"""The experimental protocol of Sections IV-C and IV-D.

One *evaluation* = train a model on (possibly augmented) training data and
measure test accuracy, repeated over *n_runs* seeds and averaged — the
``acc`` of Eq. (3).  Augmentation follows the balancing protocol; for
InceptionTime the augmented samples enter only the training part of the
2:1 stratified split (handled inside the classifier), matching Sec. IV-D.

:class:`ModelSpec` carries a classifier factory so the same protocol runs
both ROCKET and InceptionTime at either paper scale or CPU scale.

The unit of execution is :func:`run_single` — one run of one
``(dataset, model, technique)`` cell, with two dedicated seed streams:
the *model* stream (kernel sampling, weight init) is keyed by
``(dataset, run)`` only, so the baseline and every technique train the
same model on the same real data and differ *only* in the synthetic
samples (a paired design); the *augmentation* stream is keyed by the
technique as well.  Seeds derive from the job identity, never from
execution order, which is what lets the engine run jobs on a worker pool
with bit-identical results (:mod:`repro.experiments.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from .._rng import derive_seed, resolve_master_seed
from ..augmentation import augment_to_balance, make_augmenter
from ..augmentation.base import Augmenter
from ..cache import caching_enabled, digest_array, feature_cache
from ..classifiers import InceptionTimeClassifier, RocketClassifier
from ..classifiers.base import Classifier
from ..data.dataset import TimeSeriesDataset

__all__ = [
    "ModelSpec",
    "EvaluationResult",
    "evaluate",
    "run_single",
    "cell_seeds",
    "rocket_spec",
    "inceptiontime_spec",
]


@dataclass(frozen=True)
class ModelSpec:
    """A named classifier factory (seed -> fresh classifier)."""

    name: str
    build: Callable[[np.random.Generator], Classifier]
    #: InceptionTime-style models take augmented data via fit(X_extra=...)
    supports_extra: bool = False
    #: hyperparameter signature — distinguishes e.g. rocket(300) from
    #: rocket(500) in checkpoint headers, where the name alone cannot
    config: str = ""


def rocket_spec(num_kernels: int = 500) -> ModelSpec:
    """ROCKET + ridge at the given kernel budget (paper default: 10 000)."""
    return ModelSpec(
        name="rocket",
        build=lambda rng: RocketClassifier(num_kernels=num_kernels, seed=rng),
        config=f"rocket(num_kernels={num_kernels})",
    )


def inceptiontime_spec(*, n_filters: int = 8, depth: int = 3,
                       kernel_sizes: tuple[int, ...] = (9, 5, 3),
                       bottleneck: int = 8, ensemble_size: int = 1,
                       max_epochs: int = 40, patience: int = 15,
                       batch_size: int = 16) -> ModelSpec:
    """InceptionTime at CPU scale by default (paper scale: 32/6/(39,19,9)/5/200)."""
    def build(rng: np.random.Generator) -> InceptionTimeClassifier:
        return InceptionTimeClassifier(
            n_filters=n_filters, depth=depth, kernel_sizes=kernel_sizes,
            bottleneck=bottleneck, ensemble_size=ensemble_size,
            max_epochs=max_epochs, patience=patience, batch_size=batch_size,
            seed=rng,
        )
    config = (f"inceptiontime(n_filters={n_filters}, depth={depth}, "
              f"kernel_sizes={kernel_sizes}, bottleneck={bottleneck}, "
              f"ensemble_size={ensemble_size}, max_epochs={max_epochs}, "
              f"patience={patience}, batch_size={batch_size})")
    return ModelSpec(name="inceptiontime", build=build, supports_extra=True,
                     config=config)


@dataclass
class EvaluationResult:
    """Mean accuracy over runs, with the per-run values kept for analysis."""

    dataset: str
    model: str
    technique: str  # "baseline" or an augmenter name
    accuracies: list[float] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies))


def _prepare_cached(dataset: TimeSeriesDataset) -> TimeSeriesDataset:
    """:meth:`TimeSeriesDataset.preprocess`, memoised by panel content
    when caching is on.

    Both preprocessing steps are per-series, so the prepared panel is a
    pure function of the raw panel — a content key is exact.
    """
    if not caching_enabled():
        return dataset.preprocess()
    key = ("prepared-panel", digest_array(dataset.X))
    X = feature_cache().get_or_create(key, lambda: dataset.preprocess().X)
    return TimeSeriesDataset(X, dataset.y, name=dataset.name, metadata=dataset.metadata)


def cell_seeds(
    master: int, dataset: str, technique_name: str, run: int
) -> tuple[int, int]:
    """The ``(model_seed, aug_seed)`` pair for one run of one cell.

    The model seed ignores the technique: every technique (and the
    baseline) trains the same model per ``(dataset, run)``, so accuracy
    deltas isolate the augmentation effect — and feature transforms of
    the shared real panels can be reused across techniques.
    """
    model_seed = derive_seed(master, "model", dataset, run)
    aug_seed = derive_seed(master, "augment", dataset, technique_name, run)
    return model_seed, aug_seed


def _synthetic_tail(
    train: TimeSeriesDataset, augmented: TimeSeriesDataset
) -> TimeSeriesDataset | None:
    """The synthetic samples appended by the balancing protocol, if any."""
    if augmented.n_series <= train.n_series:
        return None
    return augmented.subset(np.arange(train.n_series, augmented.n_series))


def run_single(
    train: TimeSeriesDataset,
    test: TimeSeriesDataset,
    model_spec: ModelSpec,
    augmenter: Augmenter | None,
    *,
    model_seed: int,
    aug_seed: int,
) -> float:
    """One run of one protocol cell; returns the test accuracy.

    Models built as a feature transform + ridge pair (ROCKET, MiniRocket)
    are fitted through a deterministic split: the transform is fitted on
    the real training panel, and the real and synthetic parts are
    featurised separately.  The split is taken unconditionally — never
    based on cache state — so results are bit-identical whatever was
    cached; its payoff is that the real-panel features are shared across
    the baseline and every technique.  With synthetic samples present,
    the split requires a transform whose fit reads only the panel shape
    (``fits_on_shape_only``, true for ROCKET) so that fitting on the
    real panel equals fitting on the augmented one; a transform whose
    fit reads panel values (MiniRocket's bias quantiles) falls back to
    the protocol's joint fit on the augmented panel.
    """
    return _run_prepared(train, _prepare_cached(train), _prepare_cached(test),
                         model_spec, augmenter,
                         model_seed=model_seed, aug_seed=aug_seed)


def _run_prepared(
    train: TimeSeriesDataset,
    train_ready: TimeSeriesDataset,
    test_ready: TimeSeriesDataset,
    model_spec: ModelSpec,
    augmenter: Augmenter | None,
    *,
    model_seed: int,
    aug_seed: int,
) -> float:
    """:func:`run_single` with the preprocessing already done — callers
    evaluating many runs of one cell prepare the panels once."""
    model_rng = np.random.default_rng(model_seed)
    model = model_spec.build(model_rng)

    synth_ready = None
    if augmenter is not None:
        augmented = augment_to_balance(train, augmenter, rng=np.random.default_rng(aug_seed))
        synth = _synthetic_tail(train, augmented)
        synth_ready = synth.preprocess() if synth is not None else None

    if augmenter is not None and model_spec.supports_extra:
        # Augmented samples go to the training part only (Sec. IV-D).
        model.fit(
            train_ready.X, train_ready.y,
            X_extra=synth_ready.X if synth_ready is not None else None,
            y_extra=synth_ready.y if synth_ready is not None else None,
        )
    else:
        transformer = getattr(model, "transformer", None)
        ridge = getattr(model, "ridge", None)
        split_valid = synth_ready is None or getattr(
            transformer, "fits_on_shape_only", False)
        if transformer is not None and ridge is not None and split_valid:
            X_real = Classifier._clean(train_ready.X)
            transformer.fit(X_real)
            features = transformer.transform(X_real)
            labels = train_ready.y
            if synth_ready is not None:
                X_synth = Classifier._clean(synth_ready.X)
                features = np.vstack([features, transformer.transform(X_synth)])
                labels = np.concatenate([labels, synth_ready.y])
            ridge.fit(features, labels)
        elif synth_ready is not None:
            X_all = np.concatenate([train_ready.X, synth_ready.X], axis=0)
            y_all = np.concatenate([train_ready.y, synth_ready.y])
            model.fit(X_all, y_all)
        else:
            model.fit(train_ready.X, train_ready.y)
    return model.score(test_ready.X, test_ready.y)


def evaluate(
    train: TimeSeriesDataset,
    test: TimeSeriesDataset,
    model_spec: ModelSpec,
    technique: str | Augmenter | None,
    *,
    n_runs: int = 5,
    seed: int | np.random.Generator | None = None,
) -> EvaluationResult:
    """Run the paper's protocol for one (dataset, model, technique) cell.

    *technique* may be ``None`` (baseline), a registered augmenter name, or
    an :class:`Augmenter` instance.  Augmentation operates on the raw
    training data; normalisation and imputation happen afterwards, inside
    the classification pipeline (as in the paper's sktime/tsai stack).

    Per-run seeds derive from ``(seed, train.name, technique, run)``, so a
    standalone ``evaluate`` reproduces exactly the cell a
    :func:`~repro.experiments.runner.run_grid` at the same master seed
    would produce, however many other cells that grid contains.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1; got {n_runs}")
    if isinstance(technique, str):
        augmenter: Augmenter | None = make_augmenter(technique)
        technique_name = technique
    elif technique is None:
        augmenter = None
        technique_name = "baseline"
    else:
        augmenter = technique
        technique_name = technique.name

    master = resolve_master_seed(seed)
    train_ready = _prepare_cached(train)
    test_ready = _prepare_cached(test)
    result = EvaluationResult(train.name, model_spec.name, technique_name)
    for run in range(n_runs):
        model_seed, aug_seed = cell_seeds(master, train.name, technique_name, run)
        result.accuracies.append(
            _run_prepared(train, train_ready, test_ready, model_spec, augmenter,
                          model_seed=model_seed, aug_seed=aug_seed)
        )
    return result
