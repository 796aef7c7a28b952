"""Rolling drift detection over per-window predictions.

The monitor compares a **fast** and a **slow** exponentially weighted
view of the same stream; when the recent past stops looking like the
long-run past, the stream has shifted.  Two signals feed it, used
according to what the stream provides:

* **accuracy** — when ground-truth labels ride along (replayed panels,
  synthetic sources), each window contributes a 0/1 correctness score;
  a shift shows up as the fast accuracy EWMA falling below the slow one
  by more than ``threshold``;
* **confidence** — each window contributes its top-1 probability, which
  every served window carries (serving scores through ``predict_proba``);
  a shift shows up as the fast confidence EWMA falling below the slow
  one by more than ``confidence_threshold``.  This is the unlabelled
  deployment signal of choice: a model scoring data its training
  distribution never produced is *less sure*, even when the labels it
  emits keep the same mix.  Its blind spot is the complement of its
  strength: a shift that swaps inputs among *known* concepts (a clean
  prototype permutation) keeps the model confidently wrong — only the
  accuracy signal can see that one.

A caller that passes neither truth nor confidence feeds no signal, so
its stream never flags.

The slow view *mirrors* the fast view until ``warmup`` windows have
passed — the long-run reference is a snapshot of a genuinely observed
baseline, not a half-initialised average — so both fast-vs-slow drops
start at zero and the ``shift`` flag cannot fire during warmup: a flag
means the stream *changed*, not that the monitor just woke up.  The
confidence signal additionally requires ``persistence`` consecutive
above-threshold windows, because an EWMA of a noisy per-window
statistic wanders past any threshold occasionally; a real change stays
there.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["DriftMonitor", "DriftState"]


@dataclass(frozen=True)
class DriftState:
    """The monitor's view after one window."""

    windows: int  # windows observed so far
    accuracy_fast: float | None  # None until a truth label is seen
    accuracy_slow: float | None
    shift: bool
    signal: str | None  # "accuracy" | "confidence"
    confidence_fast: float | None = None  # None until a confidence is seen
    confidence_slow: float | None = None

    def as_dict(self) -> dict:
        """JSON-ready form for the NDJSON wire format."""
        out = {"shift": self.shift}
        if self.accuracy_fast is not None:
            out["accuracy_fast"] = round(self.accuracy_fast, 4)
            out["accuracy_slow"] = round(self.accuracy_slow, 4)
        if self.confidence_fast is not None:
            out["confidence_fast"] = round(self.confidence_fast, 4)
            out["confidence_slow"] = round(self.confidence_slow, 4)
        if self.signal is not None:
            out["signal"] = self.signal
        return out


class DriftMonitor:
    """Fast-vs-slow EWMA shift detector over window predictions.

    Parameters
    ----------
    alpha_fast / alpha_slow:
        EWMA rates of the recent and long-run views.  The defaults react
        within ~10 windows and remember ~100.
    threshold:
        Flag threshold of the accuracy signal: the fast accuracy EWMA
        falling this far below the slow one.
    confidence_threshold:
        Flag threshold of the confidence signal: the fast mean top-1
        confidence falling this far below the slow one.  Confidence
        erodes more subtly than accuracy collapses (a drifted model is
        often still *fairly* sure of its wrong answers), and the
        fast-vs-slow geometry caps the observable gap at roughly 0.6x
        the true level drop (the slow view decays toward the new level
        while the fast view falls), so the default is much smaller than
        ``threshold``: 0.08 detects sustained erosions of ~0.15 while
        ``persistence`` keeps stationary noise from flagging.
    warmup:
        Windows during which the slow view shadows the fast one and no
        flag may fire.
    persistence:
        Consecutive above-threshold windows the *confidence* signal
        needs before flagging (the accuracy signal flags immediately — a
        genuine accuracy collapse is unambiguous).
    """

    def __init__(self, *, alpha_fast: float = 0.15, alpha_slow: float = 0.02,
                 threshold: float = 0.35, confidence_threshold: float = 0.08,
                 warmup: int = 10, persistence: int = 5):
        if not 0.0 < alpha_slow <= alpha_fast <= 1.0:
            raise ValueError(
                f"need 0 < alpha_slow <= alpha_fast <= 1; "
                f"got {alpha_slow}, {alpha_fast}"
            )
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0; got {threshold}")
        if confidence_threshold <= 0:
            raise ValueError(
                f"confidence_threshold must be > 0; got {confidence_threshold}"
            )
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0; got {warmup}")
        if persistence < 1:
            raise ValueError(f"persistence must be >= 1; got {persistence}")
        self.alpha_fast = float(alpha_fast)
        self.alpha_slow = float(alpha_slow)
        self.threshold = float(threshold)
        self.confidence_threshold = float(confidence_threshold)
        self.warmup = int(warmup)
        self.persistence = int(persistence)
        self._windows = 0
        self._conf_diverging = 0  # consecutive confidence drops past threshold
        self._acc_fast: float | None = None
        self._acc_slow: float | None = None
        self._conf_fast: float | None = None
        self._conf_slow: float | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #

    def config(self) -> dict:
        """The monitor's tuning knobs as a JSON-ready dict.

        Audit-journal evidence: a ``drift_flag`` event that carries the
        thresholds it fired against is reconstructable offline without
        knowing how the monitor was configured at the time.
        """
        return {
            "alpha_fast": self.alpha_fast, "alpha_slow": self.alpha_slow,
            "threshold": self.threshold,
            "confidence_threshold": self.confidence_threshold,
            "warmup": self.warmup, "persistence": self.persistence,
        }

    def snapshot(self) -> dict:
        """The monitor's full mutable state as a JSON-ready dict.

        Part of the stream-session codec
        (:mod:`repro.streaming.session`): scalars stay Python floats
        (``json`` round-trips them bit-exactly via ``repr``).  The
        tuning knobs ride along: a restored monitor must compare
        fast-vs-slow exactly as the one that wrote the snapshot did.
        """
        with self._lock:
            return {
                "config": self.config(),
                "windows": self._windows,
                "conf_diverging": self._conf_diverging,
                "acc_fast": self._acc_fast, "acc_slow": self._acc_slow,
                "conf_fast": self._conf_fast, "conf_slow": self._conf_slow,
            }

    def restore(self, state: dict) -> None:
        """Overwrite this monitor with a :meth:`snapshot`'s state.

        Restores the knobs as well as the EWMAs — resuming a stream
        must continue the *same* detector, so the snapshot's config
        wins over whatever this instance was constructed with.
        """
        config = state["config"]
        with self._lock:
            self.alpha_fast = float(config["alpha_fast"])
            self.alpha_slow = float(config["alpha_slow"])
            self.threshold = float(config["threshold"])
            self.confidence_threshold = float(config["confidence_threshold"])
            self.warmup = int(config["warmup"])
            self.persistence = int(config["persistence"])
            self._windows = int(state["windows"])
            self._conf_diverging = int(state["conf_diverging"])
            self._acc_fast = state["acc_fast"]
            self._acc_slow = state["acc_slow"]
            self._conf_fast = state["conf_fast"]
            self._conf_slow = state["conf_slow"]

    def update(self, predicted, truth=None, confidence=None) -> DriftState:
        """Record one window's prediction (plus truth and top-1
        confidence when known) and return the monitor's updated view.

        Parameters
        ----------
        predicted:
            The window's predicted label; compared with *truth*.
        truth:
            Optional ground-truth label; feeds the accuracy signal.
        confidence:
            Optional top-1 probability of the prediction; feeds the
            confidence signal.

        Returns
        -------
        DriftState
            Frozen snapshot; ``shift`` is ``True`` when any enabled
            signal fired this window.
        """
        with self._lock:
            self._windows += 1
            if truth is not None:
                self._update_accuracy(float(predicted == truth))
            if confidence is not None:
                self._update_confidence(float(confidence))
            if self._windows <= self.warmup:
                # The long-run reference is the state of the observed
                # baseline, not a half-initialised average.
                self._acc_slow = self._acc_fast
                self._conf_slow = self._conf_fast
            drop = 0.0
            if self._acc_fast is not None:
                drop = max(0.0, self._acc_slow - self._acc_fast)
            conf_drop = 0.0
            if self._conf_fast is not None:
                conf_drop = max(0.0, self._conf_slow - self._conf_fast)
            self._conf_diverging = self._conf_diverging + 1 \
                if conf_drop > self.confidence_threshold else 0
            signal = None
            if self._windows > self.warmup:
                if drop > self.threshold:
                    signal = "accuracy"
                elif self._conf_diverging >= self.persistence:
                    signal = "confidence"
            return DriftState(
                windows=self._windows,
                accuracy_fast=self._acc_fast, accuracy_slow=self._acc_slow,
                confidence_fast=self._conf_fast,
                confidence_slow=self._conf_slow,
                shift=signal is not None, signal=signal,
            )

    def _update_accuracy(self, correct: float) -> None:
        if self._acc_fast is None:
            self._acc_fast = self._acc_slow = correct
        else:
            self._acc_fast += self.alpha_fast * (correct - self._acc_fast)
            self._acc_slow += self.alpha_slow * (correct - self._acc_slow)

    def _update_confidence(self, confidence: float) -> None:
        if self._conf_fast is None:
            self._conf_fast = self._conf_slow = confidence
        else:
            self._conf_fast += self.alpha_fast * (confidence - self._conf_fast)
            self._conf_slow += self.alpha_slow * (confidence - self._conf_slow)
