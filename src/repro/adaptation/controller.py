"""The drift-triggered canary retraining loop.

The controller closes the loop the streaming stack opened: the drift
monitor can *flag* a concept shift, and the registry can *version*
models — this module connects the two so a confirmed shift heals itself:

1. **observe** — every resolved stream window (panel + result) lands in
   a :class:`~repro.adaptation.buffer.ReplayBuffer`, labelled with truth
   when the stream carries it, with the stable model's own prediction
   otherwise (self-training);
2. **collect** — a confirmed drift flag starts a collecting phase: the
   controller waits for ``collect_windows`` further windows, so the
   retrain set is *post-shift* data rather than the pre-shift mixture
   the buffer held at flag time (the flag lags the shift by only the
   monitor's confirmation period);
3. **retrain** — the freshest ``collect_windows`` windows are snapshot
   and the model family refits (off-thread by default, so the stream
   keeps scoring while the new model trains);
4. **canary** — the retrained model is published to the *same registry
   name* as the next version, tagged ``canary``, inheriting the stable
   record's serving metadata (preprocessing, dataset, technique);
5. **shadow** — subsequent live windows are scored against *both*
   versions: the stable label comes from the stream's own result, the
   canary label from a second submit through the shared micro-batcher
   (so shadow traffic obeys the same backpressure and shows up in the
   same ``/metrics``);
6. **decide** — after ``shadow_windows`` comparisons the canary is
   **promoted** (the ``stable`` tag moves to it) or **rolled back**.
   With ground truth in the stream the criterion is accuracy (the
   canary must be at least as accurate); without, mean top-1 confidence
   (the retrained model must be more sure of the post-shift data than
   the stale one).  The shadow agreement ratio is reported alongside,
   but never decides.

Self-training caveat: with no truth labels the buffer learns the stable
model's *beliefs*, so a retrain recovers confidence on drifted inputs
(covariate shift) but cannot fix systematically wrong labels (real
concept flips need truth or human labels).  The decision criteria are
chosen to be honest about exactly that: an unlabelled promotion claims
"more confident", never "more accurate".

Every step is observable in process: the controller's ``stats`` count
retrainings, promotions, rollbacks, shadow windows and shadow
agreements, and its audit journal records each step with its evidence.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..classifiers import make_classifier
from ..observability import get_tracer
from ..serving.metrics import Counter
from ..serving.registry import model_metadata
from ..serving.server import (
    PROTOCOL_PREPROCESSING,
    ServingError,
    _jsonable,
    prepare_panel,
)
from .buffer import ReplayBuffer

__all__ = ["AdaptationController", "AdaptationDecision", "AdaptationStats",
           "adapt_stream", "family_trainer"]

#: panels per shadow ``submit_many``: one coalesced canary predict per
#: batch keeps the shadow phase's per-window overhead low, and
#: comparisons lag live scoring by at most this many windows
_SHADOW_BATCH = 8
#: registry tags a canary is published under and promoted to
_CANARY_TAG, _STABLE_TAG = "canary", "stable"
#: bounded-blocking budget for shadow submits (the scorer's default)
_QUEUE_TIMEOUT = 5.0

#: serving-scale budget per publishable family (a drift response must fit
#: in seconds, not hours).  ``repro train`` builds from the same table, so
#: a default retrain has its stable model's architecture and the shadow
#: comparison is fair; the train flags override the two ROCKET budgets.
_SERVING_BUDGETS = {
    "rocket": {"num_kernels": 500},
    "minirocket": {"num_features": 500},
    "inceptiontime": {
        "n_filters": 8, "depth": 3, "kernel_sizes": (9, 5, 3),
        "bottleneck": 8, "ensemble_size": 1, "max_epochs": 30,
        "patience": 10, "batch_size": 16,
    },
}

#: registry family per published model kind — what the default trainer
#: rebuilds when no explicit trainer is given
_KIND_TO_FAMILY = {
    "RocketClassifier": "rocket",
    "MiniRocketClassifier": "minirocket",
    "InceptionTimeClassifier": "inceptiontime",
}


def family_trainer(family: str, *, seed: int = 0, **overrides):
    """A trainer callable ``(X, y) -> fitted model`` for one registry family.

    Parameters
    ----------
    family:
        A :func:`repro.classifiers.available_classifiers` name.  The
        model must be serializable (``save_model``) to be publishable —
        in practice ``rocket``, ``minirocket`` or ``inceptiontime``.
    seed:
        Model seed; retrains are deterministic given the same buffer.
    overrides:
        Constructor keyword arguments (budgets etc.).

    Returns
    -------
    callable
        ``trainer(X, y)`` fitting a fresh instance per call.
    """

    def trainer(X: np.ndarray, y: np.ndarray):
        return make_classifier(family, seed=seed, **overrides).fit(X, y)

    return trainer


@dataclass(frozen=True)
class AdaptationDecision:
    """The outcome of one canary evaluation."""

    action: str  # "promote" | "rollback"
    canary_version: int
    stable_version: int
    criterion: str  # "accuracy" | "confidence"
    agreement: float  # fraction of shadow windows where the models agreed
    shadow_windows: int  # comparisons the decision is based on
    trigger_signal: str | None  # drift signal that started the retrain
    stable_accuracy: float | None = None  # None without truth labels
    canary_accuracy: float | None = None
    stable_confidence: float | None = None
    canary_confidence: float | None = None
    #: stream indices of the compared windows (tests recompute parity
    #: from these; oldest first)
    shadow_indices: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready form (the ``repro adapt`` decision line)."""
        out = {
            "kind": "decision", "action": self.action,
            "canary_version": self.canary_version,
            "stable_version": self.stable_version,
            "criterion": self.criterion,
            "agreement": round(self.agreement, 4),
            "shadow_windows": self.shadow_windows,
        }
        if self.trigger_signal is not None:
            out["trigger_signal"] = self.trigger_signal
        for key in ("stable_accuracy", "canary_accuracy",
                    "stable_confidence", "canary_confidence"):
            value = getattr(self, key)
            if value is not None:
                out[key] = round(value, 4)
        return out


@dataclass
class AdaptationStats:
    """One controller's running counters, read as ``controller.stats``."""

    retrainings: Counter = field(default_factory=Counter)
    promotions: Counter = field(default_factory=Counter)
    rollbacks: Counter = field(default_factory=Counter)
    shadow_windows: Counter = field(default_factory=Counter)
    shadow_agreements: Counter = field(default_factory=Counter)

    def record_shadow(self, *, agreed: bool) -> None:
        """Count one shadow-scored window (and whether the models agreed)."""
        self.shadow_windows.inc()
        if agreed:
            self.shadow_agreements.inc()


class _ShadowTally:
    """Running comparison of canary vs stable over live windows."""

    def __init__(self):
        self.truths = 0
        self.stable_correct = 0
        self.canary_correct = 0
        self.stable_confidence_sum = 0.0
        self.canary_confidence_sum = 0.0
        #: one ``shadow_verdict`` field set per compared window, in window
        #: order; journaled with the decision
        self.verdicts: list[dict] = []


class AdaptationController:
    """Watch a scored stream, retrain on confirmed drift, canary the result.

    Hook an instance into a :class:`~repro.streaming.StreamScorer` via
    its ``adapter`` argument; everything else is automatic.  The
    controller talks to the *same*
    :class:`~repro.serving.PredictionService` the scorer uses, so canary
    shadow traffic shares batching, backpressure and metrics with live
    traffic.

    Parameters
    ----------
    service:
        The prediction service scoring the stream.
    name:
        Registry model name this controller adapts.
    version:
        The stable version/tag the stream scores against (``None`` =
        latest at construction) — the baseline canaries are judged
        against, and the record whose metadata retrains inherit.
    trainer:
        ``(X, y) -> fitted model``; default rebuilds the stable record's
        model family at serving-scale budget (:func:`family_trainer`).
    collect_windows:
        Windows gathered *after* the trigger flag before retraining —
        the canary's training set, guaranteed post-flag (hence
        post-shift, up to the monitor's confirmation lag).  The replay
        buffer holds exactly this many windows.
    shadow_windows:
        Live-window comparisons a canary must survive before the
        promote/rollback decision.  Shadow panels go to the canary 8
        at a time, each batch in one asynchronous ``submit_many``.
    cooldown_windows:
        Observed windows after a decision (or a failed retrain) during
        which new drift flags are ignored — the monitor's EWMAs need
        time to re-baseline, and decision storms help nobody.
    background:
        Retrain off-thread (production) or inline (deterministic tests,
        benchmarks).  Off-thread, :meth:`wait` joins the retrain.
    journal:
        Optional :class:`~repro.observability.AuditJournal`.  Every
        consequential step — retrain (with the trained-on window indices
        and model digests), skipped/failed retrains, and the final
        promotion or rollback (carrying the full
        :class:`AdaptationDecision` evidence verbatim, preceded by the
        canary's shadow verdicts in window order) — is logged as one
        schema-validated event, so any decision this controller makes is
        reconstructable offline from the journal alone.
    """

    def __init__(self, service, name: str, *, version=None, trainer=None,
                 collect_windows: int = 48, shadow_windows: int = 24,
                 cooldown_windows: int = 50, background: bool = True,
                 journal=None):
        if collect_windows < 2:
            raise ValueError(
                f"collect_windows must be >= 2; got {collect_windows}")
        if shadow_windows < 1:
            raise ValueError(
                f"shadow_windows must be >= 1; got {shadow_windows}")
        if cooldown_windows < 0:
            raise ValueError(
                f"cooldown_windows must be >= 0; got {cooldown_windows}")
        self.service = service
        self.registry = service.registry
        self.name = name
        self.stable = self.registry.record(name, version)
        self.trainer = trainer
        self.buffer = ReplayBuffer(collect_windows)
        self.collect_windows = int(collect_windows)
        self.shadow_windows = int(shadow_windows)
        self.cooldown_windows = int(cooldown_windows)
        self.background = bool(background)
        self.journal = journal
        self.tracer = getattr(service, "tracer", None) or get_tracer()
        self.stats = AdaptationStats()
        #: every promote/rollback, oldest first
        self.decisions: list[AdaptationDecision] = []
        #: retrain/collection failures (stringified), for observability
        self.errors: list[str] = []
        self._state = "idle"  # idle | collecting | retraining | shadowing
        self._cooldown = 0
        self._collected = 0
        self._trigger_signal: str | None = None
        self._canary = None  # ModelRecord once published
        self._tally: _ShadowTally | None = None
        self._pending: deque = deque()  # (future, stable WindowResult)
        self._backlog: list = []  # (panel, result) awaiting one submit_many
        self._dropped_shadows = 0
        self._thread: threading.Thread | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        """``"idle"``, ``"collecting"``, ``"retraining"`` or
        ``"shadowing"``."""
        with self._lock:
            return self._state

    def observe(self, panel: np.ndarray, result) -> None:
        """Feed one resolved stream window (the scorer's adapter hook).

        *panel* is the ``(channels, window)`` input; *result* the
        :class:`~repro.streaming.WindowResult` the stable model produced
        for it.  Buffers the window, advances whichever phase the loop
        is in, and triggers a retrain on a confirmed drift flag.  Never
        raises on shadow-path serving errors (a dropped shadow window is
        counted, not fatal — the *stream* must survive the adaptation
        machinery, not vice versa).
        """
        label = result.truth if result.truth is not None else result.label
        self.buffer.add(panel, label, index=getattr(result, "index", None))
        with self._lock:
            if self._cooldown > 0:
                self._cooldown -= 1
            state = self._state
        if state == "shadowing":
            self._shadow(panel, result)
            self._maybe_decide()
            return
        if state == "collecting":
            self._collect()
            return
        if state != "idle":
            return  # retraining: keep buffering, ignore further flags
        drift = result.drift
        if drift is None or not drift.shift:
            return
        with self._lock:
            if self._cooldown > 0 or self._state != "idle":
                return
            # The flag confirms the shift; the buffer, however, is still
            # dominated by pre-shift windows (the flag lags the shift by
            # the monitor's confirmation period).  Collect a post-flag
            # training set before retraining.
            self._state = "collecting"
            self._collected = 0
            self._trigger_signal = drift.signal

    def deliver_label(self, index: int, truth) -> bool:
        """Deliver a late-arriving ground-truth label for window *index*.

        Labelling pipelines lag streams: a window is scored (and
        buffered with the model's own prediction) long before a human
        or downstream system confirms its truth.  This hook upgrades the
        buffered copy in place, so a retrain that fires after the
        labels land trains on truth instead of on self-training guesses
        — which is what makes unlabelled-stream adaptation sound under
        a real concept flip, not just covariate shift.  Returns ``False``
        when the window has already left the replay buffer, which holds
        the freshest ``collect_windows`` windows (the label arrived too
        late to enter any retrain).
        """
        return self.buffer.relabel(int(index), truth)

    def wait(self, timeout: float | None = None) -> bool:
        """Join an in-flight background retrain; ``True`` when none is
        running (anymore)."""
        with self._lock:
            thread = self._thread
        if thread is None or not thread.is_alive():
            return True
        thread.join(timeout)
        return not thread.is_alive()

    # ------------------------------------------------------------------ #
    # live rebase
    # ------------------------------------------------------------------ #

    def rebase(self, version=None) -> None:
        """Re-point the stable baseline at *version* without rebuilding.

        The in-place counterpart of constructing a fresh controller
        after a promotion: :func:`adapt_stream` swaps the scorer to the
        promoted version (``swap_version``) and rebases the controller
        onto the same record, so future canaries are judged against (and
        inherit metadata from) the model actually serving the stream.
        The replay buffer and cooldown are left as the decision set
        them — ``_decide`` already cleared the buffer on promote.
        """
        with self._lock:
            self.stable = self.registry.record(self.name, version)

    # ------------------------------------------------------------------ #
    # collect -> retrain -> publish canary
    # ------------------------------------------------------------------ #

    def _collect(self) -> None:
        """Count post-flag windows; kick off the retrain at quorum."""
        with self._lock:
            self._collected += 1
            if self._collected < self.collect_windows:
                return
            counts = self.buffer.label_counts()
            if len(counts) < 2:
                # A one-class training set cannot be fitted; stand down
                # and let a later flag (with a more diverse buffer) retry.
                reason = (
                    f"collected {self.collect_windows} windows with a "
                    f"single label {next(iter(counts))}; retrain skipped"
                )
                self.errors.append(reason)
                self._state = "idle"
                self._cooldown = self.cooldown_windows
                if self.journal is not None:
                    self.journal.log(
                        "retrain_skipped", model=self.name, reason=reason,
                        trigger_signal=self._trigger_signal,
                        evidence={"label_counts": {str(k): int(v)
                                                   for k, v in counts.items()}},
                    )
                return
            self._state = "retraining"
        self.stats.retrainings.inc()
        X, y = self.buffer.snapshot()
        indices = self.buffer.indices()
        if self.background:
            self._thread = threading.Thread(
                target=self._retrain, args=(X, y, indices), daemon=True,
                name=f"adapt-{self.name}")
            self._thread.start()
        else:
            self._retrain(X, y, indices)

    def _retrain(self, X: np.ndarray, y: np.ndarray,
                 indices: list | None = None) -> None:
        """Fit on the replay snapshot and publish the canary (worker side)."""
        try:
            with self.tracer.span("adapt.retrain", model=self.name,
                                  windows=int(len(y))):
                preprocessed = self.stable.metadata.get("preprocessing") \
                    == PROTOCOL_PREPROCESSING
                X_fit = prepare_panel(X) if preprocessed else X
                trainer = self.trainer if self.trainer is not None \
                    else self._default_trainer()
                model = trainer(X_fit, y)
                metadata = model_metadata(
                    model,
                    input_shape=list(X.shape[1:]),
                    adapted_from=self.stable.version,
                    trained_on_windows=int(len(y)),
                    trigger_signal=self._trigger_signal,
                    **{key: self.stable.metadata[key]
                       for key in ("dataset", "technique", "preprocessing",
                                   "compute_policy")
                       if key in self.stable.metadata},
                )
                record = self.registry.publish(model, self.name,
                                               metadata=metadata,
                                               tags=(_CANARY_TAG,))
        except Exception as error:  # noqa: BLE001 - the stream must survive
            self.errors.append(f"{type(error).__name__}: {error}")
            with self._lock:
                self._state = "idle"
                self._cooldown = self.cooldown_windows
            if self.journal is not None:
                self.journal.log(
                    "retrain_failed", model=self.name,
                    error=f"{type(error).__name__}: {error}",
                    trigger_signal=self._trigger_signal,
                )
            return
        if self.journal is not None:
            self.journal.log(
                "retrain", model=self.name,
                stable_version=self.stable.version,
                canary_version=record.version,
                stable_digest=self.stable.digest,
                canary_digest=record.digest,
                trigger_signal=self._trigger_signal,
                trained_on_windows=[None if i is None else int(i)
                                    for i in (indices or [])],
            )
        with self._lock:
            self._canary = record
            self._tally = _ShadowTally()
            self._pending.clear()
            self._backlog.clear()
            self._dropped_shadows = 0
            self._state = "shadowing"

    def _default_trainer(self):
        """Rebuild the stable record's family at serving-scale budget."""
        kind = self.stable.metadata.get("model_kind")
        try:
            family = _KIND_TO_FAMILY[kind]
        except KeyError:
            raise RuntimeError(
                f"no default trainer for model kind {kind!r}; pass an "
                f"explicit trainer to AdaptationController"
            ) from None
        seed = int(self.stable.metadata.get("seed") or 0)
        return family_trainer(family, seed=seed, **_SERVING_BUDGETS[family])

    # ------------------------------------------------------------------ #
    # shadow scoring -> decision
    # ------------------------------------------------------------------ #

    def _shadow(self, panel: np.ndarray, result) -> None:
        """Queue *panel* for canary comparison against the stable result.

        Panels accumulate into a shadow micro-batch of
        ``_SHADOW_BATCH`` and go to the canary in one coalesced
        ``submit_many`` — one predict call per batch keeps the
        per-window overhead low.
        """
        flush = False
        with self._lock:
            if self._canary is None or self._tally is None:
                return
            if len(self._tally.verdicts) + len(self._pending) \
                    + len(self._backlog) >= self.shadow_windows:
                return  # the decision quorum is already in flight
            self._backlog.append((panel, result))
            flush = len(self._backlog) >= _SHADOW_BATCH
        if flush:
            self._flush_backlog()
        self._drain(block=False)

    def _flush_backlog(self) -> None:
        """Submit every backlogged panel to the canary in one call."""
        with self._lock:
            backlog, self._backlog = self._backlog, []
            canary = self._canary
        if not backlog or canary is None:
            return
        try:
            _, futures = self.service.submit(
                self.name, [panel for panel, _ in backlog], canary.version,
                queue_timeout=_QUEUE_TIMEOUT,
            )
        except ServingError:
            with self._lock:
                self._dropped_shadows += len(backlog)
            return
        with self._lock:
            self._pending.extend(
                (future, result)
                for future, (_, result) in zip(futures, backlog))

    def _drain(self, block: bool) -> None:
        """Fold resolved canary futures into the tally, in submit order."""
        timeout = getattr(self.service, "predict_timeout", 30.0)
        while True:
            with self._lock:
                if not self._pending:
                    return
                future, stable_result = self._pending[0]
                if not (block or future.done()):
                    return
                self._pending.popleft()
            try:
                outcome = future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - dropped, not fatal
                with self._lock:
                    self._dropped_shadows += 1
                continue
            canary_label = outcome.label
            canary_confidence = float(outcome.proba.max())
            agreed = canary_label == stable_result.label
            self.stats.record_shadow(agreed=agreed)
            with self._lock:
                tally = self._tally
                if tally is None:
                    return
                tally.verdicts.append(dict(
                    window=int(stable_result.index),
                    stable_label=_jsonable(stable_result.label),
                    canary_label=_jsonable(canary_label),
                    agree=bool(agreed),
                    stable_confidence=stable_result.confidence,
                    canary_confidence=canary_confidence,
                ))
                if stable_result.truth is not None:
                    tally.truths += 1
                    tally.stable_correct += \
                        int(stable_result.label == stable_result.truth)
                    tally.canary_correct += \
                        int(canary_label == stable_result.truth)
                tally.canary_confidence_sum += canary_confidence
                tally.stable_confidence_sum += stable_result.confidence

    def _maybe_decide(self) -> None:
        """Finish the shadow phase once the comparison quorum is in."""
        with self._lock:
            tally = self._tally
            if tally is None:
                return
            outstanding = len(self._pending) + len(self._backlog)
        if len(tally.verdicts) + outstanding < self.shadow_windows:
            return
        self._flush_backlog()  # the quorum is queued; get it all in flight
        self._drain(block=True)
        with self._lock:
            tally = self._tally
            if tally is None or len(tally.verdicts) < self.shadow_windows:
                return  # drops shrank the quorum; keep shadowing
            self._tally = None  # claim the decision
        self._decide(tally)

    def _decide(self, tally: _ShadowTally) -> None:
        """Promote or roll back the canary from a complete tally, and
        journal its shadow verdicts, in window order, then the decision."""
        windows = len(tally.verdicts)
        agreements = sum(verdict["agree"] for verdict in tally.verdicts)
        stable_acc = canary_acc = None
        if tally.truths:
            stable_acc = tally.stable_correct / tally.truths
            canary_acc = tally.canary_correct / tally.truths
        stable_conf = tally.stable_confidence_sum / windows
        canary_conf = tally.canary_confidence_sum / windows
        if tally.truths >= max(1, self.shadow_windows // 2):
            promote = canary_acc >= stable_acc
            criterion = "accuracy"
        else:
            promote = canary_conf > stable_conf
            criterion = "confidence"
        decision = AdaptationDecision(
            action="promote" if promote else "rollback",
            canary_version=self._canary.version,
            stable_version=self.stable.version,
            criterion=criterion, agreement=agreements / windows,
            shadow_windows=windows,
            trigger_signal=self._trigger_signal,
            stable_accuracy=stable_acc, canary_accuracy=canary_acc,
            stable_confidence=stable_conf, canary_confidence=canary_conf,
            shadow_indices=tuple(v["window"] for v in tally.verdicts),
        )
        if promote:
            self.registry.tag(self.name, self._canary.version, _STABLE_TAG)
            self.stats.promotions.inc()
            # The stable concept changed: pre-promotion windows are stale
            # training data for any future retrain.
            self.buffer.clear()
        else:
            self.stats.rollbacks.inc()
        if self.journal is not None:
            for verdict in tally.verdicts:
                self.journal.log("shadow_verdict", model=self.name, **verdict)
            self.journal.log(
                "promotion" if promote else "rollback", model=self.name,
                stable_version=self.stable.version,
                canary_version=self._canary.version,
                stable_digest=self.stable.digest,
                canary_digest=self._canary.digest,
                decision=decision.as_dict(),
                evidence={
                    "shadow_windows": windows,
                    "agreements": agreements,
                    "truths": tally.truths,
                    # every shadow window compares confidences
                    "confidences": windows,
                    "dropped_shadows": self._dropped_shadows,
                    "shadow_indices": list(decision.shadow_indices),
                },
            )
        with self._lock:
            self.decisions.append(decision)
            self._canary = None
            self._state = "idle"
            self._cooldown = self.cooldown_windows


def adapt_stream(scorer, samples):
    """Drive *scorer* and its controller over ``(values, label, t)`` samples.

    The one adaptive-stream loop: ``repro adapt``, the scenario harness
    and ``examples/adaptive_serving.py`` all consume it.  *scorer* is an
    open :class:`~repro.streaming.StreamScorer` whose ``adapter`` is an
    :class:`AdaptationController`.  Yields, in order:

    * every :class:`~repro.streaming.WindowResult`;
    * each :class:`AdaptationDecision`, right after the window whose
      observation produced it;
    * after the sample whose window produced a promote decision, the
      :class:`~repro.serving.registry.ModelRecord` the scorer swapped to.

    Each window resolves at the sample that completes it (``feed`` then
    ``finish``), so flags, decisions and swaps land on the same sample
    however fast the batcher answers: with an inline retrain the events
    are a function of the samples alone.  A promotion moves the open
    scorer onto the canary in place (``swap_version``) and rebases the
    controller onto it; the drift monitor, the replay buffer, the
    cooldown and the window counters carry straight through.
    """
    controller = scorer.adapter
    seen = len(controller.decisions)
    for values, label, t in samples:
        promoted = None
        for result in scorer.feed(values, label, t=t) + scorer.finish():
            yield result
            fresh = controller.decisions[seen:]
            seen += len(fresh)
            for decision in fresh:
                yield decision
                if decision.action == "promote":
                    promoted = decision.canary_version
        if promoted is not None:
            record = scorer.swap_version(promoted)
            controller.rebase(record.version)
            yield record
