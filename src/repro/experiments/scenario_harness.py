"""Replay scenario worlds through the full adaptation loop and score it.

The scenario library (:mod:`repro.data.scenarios`) supplies deterministic
stream worlds with known ground truth — where drift really happens,
which worlds are drift-free, what accuracy a healthy loop should hold at
the end.  This harness is the measuring instrument: for each world it

1. trains a serving model on the world's pre-drift training panel and
   publishes it to a fresh registry under the serving protocol's
   metadata (so the stream path z-normalises exactly like batch);
2. replays the world's sample stream through ``StreamScorer →
   DriftMonitor → AdaptationController`` with
   :func:`~repro.adaptation.adapt_stream`, the loop ``repro adapt``
   runs — adaptation inline for determinism, one scorer and one
   controller for the whole stream, the scorer swapped in place onto
   every promoted version;
3. scores what happened against the world's own truth:
   **detection delay** (windows from the first drift-affected window to
   the first flag), **false flags** (flags raised while the concept was
   still the training concept), and **accuracy segments** (pre-drift /
   overall / final quarter — the last one is what the budget's
   ``min_final_accuracy`` bounds, because by then adaptation has had
   its chance);
4. compares the measurements to the world's
   :class:`~repro.data.scenarios.ScenarioBudget` and reports pass/fail
   per axis.

Late labels: worlds with ``feed_labels=False`` are scored unlabelled
(drift must be caught by the confidence EWMA) while the harness delivers
each window's truth ``label_delay`` windows later through
:meth:`~repro.adaptation.AdaptationController.deliver_label` — the
replay buffer upgrades in place, so retrains use truth even though the
stream never carried it.  A label whose window the buffer no longer
holds (evicted, or cleared by a promotion) counts as dropped, so every
label that comes due is counted once.

Everything is JSON-serialisable: :func:`run_suite` returns (and
optionally persists) one report per world plus a suite verdict, which is
what ``repro scenarios`` prints and ``benchmarks/bench_scenarios.py``
checks in.  See ``docs/scenarios.md`` for the world taxonomy and budget
tuning guidance.
"""

from __future__ import annotations

import json
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..adaptation import AdaptationController, adapt_stream
from ..classifiers import make_classifier
from ..data.scenarios import Scenario, make_world
from ..observability import AuditJournal
from ..serving import ModelRegistry, PredictionService
from ..serving.registry import model_metadata
from ..serving.server import PROTOCOL_PREPROCESSING, prepare_panel
from ..streaming import StreamScorer, WindowResult

__all__ = ["ScenarioReport", "run_scenario", "run_suite"]


@dataclass(frozen=True)
class ScenarioReport:
    """What one world's replay measured, against its budget.

    ``detection_delay`` is ``None`` when the world is drift-free or the
    shift was never flagged (``detected`` disambiguates); accuracies are
    ``None`` when their segment holds no windows.  The ``*_ok`` fields
    are the per-axis budget verdicts and ``passed`` their conjunction.
    """

    world: str
    kind: str
    seed: int
    windows: int
    gaps: int
    flags: tuple[int, ...]  # global window indices that raised a flag
    first_affected: int | None  # first window holding post-drift samples
    detected: bool | None  # None: drift-free world (nothing to detect)
    detection_delay: int | None
    false_flags: int
    retrainings: int
    promotions: int
    rollbacks: int
    decisions: tuple[dict, ...]  # live promote/rollback dicts, in order
    pre_drift_accuracy: float | None
    overall_accuracy: float | None
    final_accuracy: float | None  # final quarter: post-adaptation regime
    late_labels_delivered: int
    late_labels_dropped: int
    delay_ok: bool
    false_flags_ok: bool
    accuracy_ok: bool
    passed: bool

    def as_dict(self) -> dict:
        """JSON-ready form — one entry of the suite report."""
        out = {
            "world": self.world, "kind": self.kind, "seed": self.seed,
            "windows": self.windows, "gaps": self.gaps,
            "flags": list(self.flags),
            "false_flags": self.false_flags,
            "retrainings": self.retrainings,
            "promotions": self.promotions, "rollbacks": self.rollbacks,
            "decisions": [dict(decision) for decision in self.decisions],
            "late_labels_delivered": self.late_labels_delivered,
            "late_labels_dropped": self.late_labels_dropped,
            "budget": {"delay_ok": self.delay_ok,
                       "false_flags_ok": self.false_flags_ok,
                       "accuracy_ok": self.accuracy_ok},
            "passed": self.passed,
        }
        if self.first_affected is not None:
            out["first_affected"] = self.first_affected
        if self.detected is not None:
            out["detected"] = self.detected
        if self.detection_delay is not None:
            out["detection_delay"] = self.detection_delay
        for key in ("pre_drift_accuracy", "overall_accuracy",
                    "final_accuracy"):
            value = getattr(self, key)
            if value is not None:
                out[key] = round(value, 4)
        return out


def _train_and_publish(scenario: Scenario, registry: ModelRegistry,
                       *, seed: int, num_kernels: int):
    """Fit the serving model on the world's panel and publish it stable."""
    X, y = scenario.training_panel()
    model = make_classifier("rocket", num_kernels=num_kernels,
                            seed=seed).fit(prepare_panel(X), y)
    metadata = model_metadata(
        model, dataset=f"scenario:{scenario.name}",
        preprocessing=PROTOCOL_PREPROCESSING,
        input_shape=[scenario.n_channels, scenario.window], seed=seed,
    )
    return registry.publish(model, f"scenario-{scenario.name}",
                            metadata=metadata, tags=("stable",))


def run_scenario(scenario: Scenario | str, *, seed: int = 0,
                 n_series: int | None = None, num_kernels: int = 300,
                 collect_windows: int = 24, shadow_windows: int = 12,
                 cooldown_windows: int = 30,
                 registry_dir: str | Path | None = None,
                 journal=None) -> ScenarioReport:
    """Replay one world through the adaptation loop and score the outcome.

    Parameters
    ----------
    scenario:
        A :class:`~repro.data.scenarios.Scenario` or a world name
        (resolved via :func:`~repro.data.scenarios.make_world` with
        *seed*/*n_series*).
    seed:
        Master seed — world construction, model fit and retrains all
        derive from it; two runs with the same arguments produce the
        same report.
    n_series:
        Stream length override, forwarded to ``make_world``.
    num_kernels:
        Serving model budget (ROCKET kernels).
    collect_windows / shadow_windows / cooldown_windows:
        Adaptation loop pacing — smaller than the production defaults
        because scenario streams are a few hundred windows long and the
        loop must finish adapting inside them.
    registry_dir:
        Existing directory for the throwaway registry; default is a
        temporary directory cleaned up on return.
    journal:
        Optional decision-audit sink: an
        :class:`~repro.observability.AuditJournal` instance, or a path
        to append JSONL events to (a journal is opened there and closed
        on return).  Every drift flag, retrain, shadow verdict and
        promote/rollback of the replay lands in it with its evidence,
        so the run's decisions are reconstructable offline via
        :func:`repro.observability.replay_decisions`.
    """
    if isinstance(scenario, str):
        scenario = make_world(scenario, seed=seed, n_series=n_series)
    if registry_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_scenario(scenario, seed=seed, n_series=n_series,
                                num_kernels=num_kernels,
                                collect_windows=collect_windows,
                                shadow_windows=shadow_windows,
                                cooldown_windows=cooldown_windows,
                                registry_dir=tmp, journal=journal)
    own_journal = None
    if isinstance(journal, (str, Path)):
        journal = own_journal = AuditJournal(journal)

    registry = ModelRegistry(registry_dir)
    record = _train_and_publish(scenario, registry, seed=seed,
                                num_kernels=num_kernels)
    service = PredictionService(registry, max_queue=1024)
    try:
        return _replay(scenario, service, record.name, seed=seed,
                       collect_windows=collect_windows,
                       shadow_windows=shadow_windows,
                       cooldown_windows=cooldown_windows, journal=journal)
    finally:
        service.close()
        if own_journal is not None:
            own_journal.close()


def _replay(scenario: Scenario, service, name: str, *, seed: int,
            collect_windows: int, shadow_windows: int,
            cooldown_windows: int, journal=None) -> ScenarioReport:
    """The measurement loop proper: stream → score → adapt → tally."""
    first_drift = scenario.drift_points[0] if scenario.drift_points else None
    truths: dict[int, int] = {}  # sample clock -> label (the world's truth)
    flags: list[int] = []
    outcomes: list[tuple[int, int, bool]] = []  # (window, end, correct)
    first_affected: int | None = None
    delivered = dropped = 0
    late: deque[tuple[int, int]] = deque()  # (window, truth) not yet due

    def samples():
        for sample in scenario.source():
            if sample.label is not None:
                truths[sample.t] = int(sample.label)
            label = sample.label if scenario.feed_labels else None
            yield sample.values, label, sample.t

    controller = AdaptationController(
        service, name, collect_windows=collect_windows,
        shadow_windows=shadow_windows, cooldown_windows=cooldown_windows,
        background=False, journal=journal,
    )
    with StreamScorer(service, name, window=scenario.window,
                      hop=scenario.hop, adapter=controller,
                      journal=journal) as scorer:
        for result in adapt_stream(scorer, samples()):
            if not isinstance(result, WindowResult):
                continue
            truth = truths.get(result.end)
            if truth is not None:
                outcomes.append((result.index, result.end,
                                 result.label == truth))
                if scenario.label_delay > 0:
                    late.append((result.index, truth))
            if result.drift is not None and result.drift.shift:
                flags.append(result.index)
            if first_drift is not None and first_affected is None \
                    and result.end >= first_drift:
                first_affected = result.index
            while late and late[0][0] + scenario.label_delay <= result.index:
                if controller.deliver_label(*late.popleft()):
                    delivered += 1
                else:
                    dropped += 1

    stats = controller.stats
    return _score(scenario, seed=seed, windows=scorer.windows,
                  gaps=scorer.gaps, flags=flags, outcomes=outcomes,
                  first_affected=first_affected,
                  retrainings=stats.retrainings.value,
                  promotions=stats.promotions.value,
                  rollbacks=stats.rollbacks.value,
                  decisions=[d.as_dict() for d in controller.decisions],
                  delivered=delivered, dropped=dropped)


def _score(scenario: Scenario, *, seed: int, windows: int, gaps: int,
           flags: list[int], outcomes: list[tuple[int, int, bool]],
           first_affected: int | None, retrainings: int, promotions: int,
           rollbacks: int, decisions: list[dict], delivered: int,
           dropped: int) -> ScenarioReport:
    """Fold the raw replay tallies into budget verdicts."""
    budget = scenario.budget
    drift_free = not scenario.drift_points

    if drift_free:
        detected = None
        delay = None
        false_flags = len(flags)
    else:
        hits = [f for f in flags
                if first_affected is not None and f >= first_affected]
        detected = bool(hits)
        delay = (hits[0] - first_affected) if hits else None
        false_flags = len(flags) - len(hits)

    def accuracy(selector) -> float | None:
        chosen = [correct for index, end, correct in outcomes
                  if selector(index, end)]
        return (sum(chosen) / len(chosen)) if chosen else None

    pre_drift = None
    if first_affected is not None:
        pre_drift = accuracy(lambda index, end: index < first_affected)
    overall = accuracy(lambda index, end: True)
    tail_start = (3 * windows) // 4
    final = accuracy(lambda index, end: index >= tail_start)

    if budget.max_detection_delay is None:
        delay_ok = True  # drift-free: nothing to detect
    else:
        delay_ok = detected is True and delay is not None \
            and delay <= budget.max_detection_delay
    false_flags_ok = false_flags <= budget.max_false_flags
    if budget.min_final_accuracy is None:
        accuracy_ok = True
    else:
        accuracy_ok = final is not None \
            and final >= budget.min_final_accuracy

    return ScenarioReport(
        world=scenario.name, kind=scenario.kind, seed=seed,
        windows=windows, gaps=gaps, flags=tuple(flags),
        first_affected=first_affected, detected=detected,
        detection_delay=delay, false_flags=false_flags,
        retrainings=retrainings, promotions=promotions,
        rollbacks=rollbacks, decisions=tuple(decisions),
        pre_drift_accuracy=pre_drift,
        overall_accuracy=overall, final_accuracy=final,
        late_labels_delivered=delivered, late_labels_dropped=dropped,
        delay_ok=delay_ok, false_flags_ok=false_flags_ok,
        accuracy_ok=accuracy_ok,
        passed=delay_ok and false_flags_ok and accuracy_ok,
    )


def run_suite(worlds: Iterable[str] | None = None, *, seed: int = 0,
              n_series: int | None = None, out_path: str | Path | None = None,
              **overrides) -> dict:
    """Replay a set of worlds and aggregate their reports.

    Parameters
    ----------
    worlds:
        World names (default: every registered world).
    seed / n_series:
        Forwarded to every :func:`run_scenario` call.
    out_path:
        When given, the suite report is written there as JSON.
    overrides:
        Extra :func:`run_scenario` keyword arguments (model budget,
        adaptation pacing).

    Returns
    -------
    dict
        ``{"seed", "worlds": [per-world report dicts], "passed",
        "failures": [world names]}`` — the shape ``repro scenarios``
        prints and the benchmark archives.
    """
    from ..data.scenarios import available_worlds

    names = list(worlds) if worlds is not None else available_worlds()
    reports = [run_scenario(name, seed=seed, n_series=n_series, **overrides)
               for name in names]
    suite = {
        "seed": int(seed),
        "worlds": [report.as_dict() for report in reports],
        "failures": [report.world for report in reports if not report.passed],
        "passed": all(report.passed for report in reports),
    }
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(suite, indent=2) + "\n",
                        encoding="utf-8")
    return suite
