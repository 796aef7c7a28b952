"""Decision-audit journal: every adaptation decision, with its evidence.

When a canary promotes at 3am, this journal says *why*.  Every
consequential event in the drift→retrain→shadow→promote loop is
appended as one JSON object per line, carrying the evidence the
decision was made from — EWMA fast/slow values and thresholds for drift
flags, window indices and trigger signals for retrains, agreement and
confidence statistics plus model digests for verdicts — so any decision
is reconstructable offline from the journal alone, with no access to
the process that made it.  A canary's shadow verdicts are logged
together with its decision, in window order, so an inline run writes
the same journal every time.

Event kinds and their required fields are pinned in
:data:`EVENT_SCHEMA`; :func:`validate_event` enforces them at write and
read time, so a journal that parses is also a journal that replays.
:func:`replay_decisions` is that offline replay: it folds a journal
back into the promote/rollback decision list and the drift/retrain
counts — the scenario harness asserts this reconstruction is
bit-identical to the decisions the live run produced.

Surfaced via ``repro audit`` (summarise / validate a journal file) and
wired into :class:`~repro.streaming.scorer.StreamScorer` (drift flags)
and :class:`~repro.adaptation.controller.AdaptationController`
(everything else).
"""

from __future__ import annotations

import json
import threading
import time as _time

__all__ = ["AuditJournal", "EVENT_SCHEMA", "read_journal",
           "replay_decisions", "validate_event"]

#: required top-level fields per event kind (beyond the envelope's
#: ``kind`` / ``seq`` / ``time``).  ``evidence`` payloads are free-form
#: dicts by design — each signal carries different numbers — but the
#: envelope is strict so replay never guesses.
EVENT_SCHEMA = {
    "drift_flag": ("model", "window", "signal", "evidence"),
    "retrain": ("model", "stable_version", "canary_version",
                "canary_digest", "trigger_signal", "trained_on_windows"),
    "retrain_failed": ("model", "error"),
    "retrain_skipped": ("model", "reason"),
    "shadow_verdict": ("model", "window", "stable_label", "canary_label",
                       "agree"),
    "promotion": ("model", "stable_version", "canary_version", "decision"),
    "rollback": ("model", "stable_version", "canary_version", "decision"),
}

#: the two kinds whose ``decision`` payload is an
#: :class:`~repro.adaptation.controller.AdaptationDecision` ``as_dict()``
DECISION_KINDS = ("promotion", "rollback")


def validate_event(event: dict) -> dict:
    """Check one event against :data:`EVENT_SCHEMA`; return it unchanged.

    Raises ``ValueError`` naming the problem: unknown kind, or the
    sorted list of missing required fields.  Used on both sides of the
    file — the journal validates before writing, readers validate after
    parsing — so schema drift fails loudly at the boundary it crossed.
    """
    kind = event.get("kind")
    if kind not in EVENT_SCHEMA:
        raise ValueError(f"unknown audit event kind: {kind!r}")
    missing = [f for f in EVENT_SCHEMA[kind] if f not in event]
    if missing:
        raise ValueError(
            f"audit event {kind!r} missing fields: {sorted(missing)}")
    return event


class AuditJournal:
    """Append-only journal of adaptation decisions and their evidence.

    Events are validated, stamped with a monotonic ``seq`` and a
    wall-clock ``time``, kept in memory (``events()``) and — when
    *path* is given — appended to a JSONL file, flushed per line so a
    crash loses at most the event being written.

    One journal instance is shared by the scorer (drift flags) and the
    controller (retrain/shadow/promote/rollback) of a serving loop, so
    ``seq`` is a total order over the loop's decision history.

    Parameters
    ----------
    path:
        JSONL file to append to (``None`` = in-memory only, the
        scenario harness's mode).
    logger:
        Optional :class:`~repro.observability.logging.StructuredLogger`
        that mirrors each event as a structured log line (``event:
        "audit"``) for live tailing.
    max_memory:
        Cap on the in-memory event list; once exceeded the oldest
        events are dropped from memory (the file keeps everything).
    """

    def __init__(self, path=None, *, logger=None, max_memory: int = 4096):
        self.path = path
        self.logger = logger
        self.max_memory = int(max_memory)
        self._events: list = []
        self._seq = 0
        self._lock = threading.Lock()
        self._file = None

    def log(self, kind: str, **fields) -> dict:
        """Validate, stamp, store, and (if filed) persist one event.

        Returns the completed event dict.  Raises ``ValueError`` when
        the fields do not satisfy :data:`EVENT_SCHEMA` for *kind* —
        call sites must supply their evidence, not trim it.
        """
        event = {"kind": kind, **fields}
        validate_event(event)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            event.setdefault("time", round(_time.time(), 3))
            self._events.append(event)
            if len(self._events) > self.max_memory:
                del self._events[: len(self._events) - self.max_memory]
            if self.path is not None:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(json.dumps(event) + "\n")
                self._file.flush()
        if self.logger is not None:
            self.logger.event("audit", kind=kind,
                              model=event.get("model"), seq=event["seq"])
        return event

    def events(self, kind: str | None = None) -> list:
        """The in-memory events, optionally filtered to one *kind*;
        returned as copies in ``seq`` order."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        return events

    def close(self) -> None:
        """Flush and close the JSONL file, if one was opened."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def read_journal(path) -> list:
    """Parse and validate a JSONL audit journal file.

    Returns the events in file order.  Raises ``ValueError`` (with the
    1-based line number) on unparseable lines or schema violations —
    a journal must be fully trustworthy or not trusted at all.
    """
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                validate_event(event)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            events.append(event)
    return events


def replay_decisions(events) -> dict:
    """Reconstruct the adaptation history from journal *events* alone.

    The offline half of the audit contract: folding the journal back
    yields the same promote/rollback decisions the live loop produced
    (``decisions`` holds the verbatim
    :class:`~repro.adaptation.controller.AdaptationDecision` dicts, in
    ``seq``/file order), plus the counts a report would summarise.  The
    scenario harness's reconstruction test compares this output
    bit-identically against the live :class:`ScenarioReport`.
    """
    events = list(events)
    decisions = []
    counts = {"drift_flags": 0, "retrainings": 0, "retrain_failures": 0,
              "promotions": 0, "rollbacks": 0, "shadow_windows": 0}
    models = set()
    for event in events:
        validate_event(event)
        kind = event["kind"]
        models.add(event.get("model"))
        if kind == "drift_flag":
            counts["drift_flags"] += 1
        elif kind == "retrain":
            counts["retrainings"] += 1
        elif kind == "retrain_failed":
            counts["retrain_failures"] += 1
        elif kind == "shadow_verdict":
            counts["shadow_windows"] += 1
        elif kind in DECISION_KINDS:
            counts["promotions" if kind == "promotion" else "rollbacks"] += 1
            decisions.append(event["decision"])
    return {"events": len(events),
            "models": sorted(m for m in models if m is not None),
            "decisions": decisions, **counts}
