"""Replay buffer: the recent windows a drift-triggered retrain learns from.

A bounded FIFO of ``(window panel, label)`` pairs, fed by the adaptation
controller with every resolved stream window.  It holds exactly one
training set: when drift is confirmed the controller keeps feeding it
through a *collecting* phase and then trains on everything it holds —
all observed after the flag, so the canary learns the new concept, not
a pre-shift mixture.

Labels are whatever the stream provided: ground truth when it rides
along, the stable model's own predictions otherwise (self-training — see
:class:`~repro.adaptation.AdaptationController` for when that is and is
not sound).  When truth arrives *late* — labelling pipelines lag the
stream in every real deployment — :meth:`ReplayBuffer.relabel` upgrades
a buffered window's label in place by its stream index, so a retrain
that fires after the labels land trains on truth rather than on the
stale model's guesses.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Bounded FIFO of labelled stream windows, snapshot-able as a panel.

    Parameters
    ----------
    capacity:
        Windows retained; the oldest is evicted when a new one arrives
        at capacity.  The controller sizes it to one retrain's training
        set (its ``collect_windows``).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        self.capacity = int(capacity)
        #: (panel, label, stream window index or None)
        self._entries: deque[tuple[np.ndarray, int, int | None]] = deque(
            maxlen=self.capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Windows currently held (≤ ``capacity``)."""
        with self._lock:
            return len(self._entries)

    def add(self, panel: np.ndarray, label, index: int | None = None) -> None:
        """Append one ``(channels, length)`` panel with its label.

        At capacity the oldest window falls off — the buffer always
        holds the freshest ``capacity`` windows of the stream.  *index*
        is the window's position in the stream (the scorer's
        ``WindowResult.index``); recording it is what makes the window
        addressable by :meth:`relabel` when its truth arrives late.
        Raises ``ValueError`` for a non-2-D panel.
        """
        panel = np.asarray(panel, dtype=np.float64)
        if panel.ndim != 2:
            raise ValueError(
                f"a buffered window is one (channels, length) panel; "
                f"got ndim={panel.ndim}"
            )
        with self._lock:
            self._entries.append(
                (panel, int(label), None if index is None else int(index)))

    def relabel(self, index: int, label) -> bool:
        """Replace the label of the buffered window with stream *index*.

        The late-label hook: when ground truth for an already-scored
        window arrives after the fact, the buffered copy is upgraded in
        place so subsequent retrain snapshots train on truth.  Returns
        ``False`` when the window has already been evicted (or was
        buffered without an index) — late labels for long-gone windows
        are simply dropped.
        """
        with self._lock:
            # Late labels chase recent windows; search newest-first.
            for position in range(len(self._entries) - 1, -1, -1):
                panel, _, entry_index = self._entries[position]
                if entry_index == int(index):
                    self._entries[position] = (panel, int(label), entry_index)
                    return True
        return False

    def label_counts(self) -> dict[int, int]:
        """Windows held per label — retrain preconditions (≥ 2 classes)
        read this."""
        with self._lock:
            entries = list(self._entries)
        counts: dict[int, int] = {}
        for _, label, _ in entries:
            counts[label] = counts.get(label, 0) + 1
        return counts

    def indices(self) -> list[int | None]:
        """Stream window indices of the held entries, oldest first.

        Mirrors :meth:`snapshot`, so the controller can record exactly
        which stream windows a retrain trained on in its audit-journal
        event.  Entries buffered without an index appear as ``None``.
        """
        with self._lock:
            return [entry_index for _, _, entry_index in self._entries]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """A stacked copy ``(X (n, channels, length), y (n,))``, oldest
        first.

        The copy is what the retrain thread consumes, so the stream can
        keep appending while training runs.  Raises ``ValueError`` when
        empty.
        """
        with self._lock:
            entries = list(self._entries)
        if not entries:
            raise ValueError("cannot snapshot an empty replay buffer")
        X = np.stack([panel for panel, _, _ in entries])
        y = np.asarray([label for _, label, _ in entries], dtype=np.int64)
        return X, y

    def clear(self) -> None:
        """Drop every buffered window (used after a promotion: the stable
        concept changed, so pre-promotion windows are stale)."""
        with self._lock:
            self._entries.clear()
