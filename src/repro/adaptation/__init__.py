"""Online adaptation: turn drift flags into retrained, canaried models.

The serving stack answers requests, the streaming stack scores windows
and flags concept shifts; this package closes the loop:

* :mod:`repro.adaptation.buffer` — a :class:`ReplayBuffer` holding the
  freshest labelled windows, the one training set a drift response
  learns from;
* :mod:`repro.adaptation.controller` — the
  :class:`AdaptationController`: on a confirmed drift flag it retrains
  the model family off-thread, publishes the result to the versioned
  registry under a ``canary`` tag, shadow-scores the canary on live
  windows alongside the stable version, and promotes (moves the
  ``stable`` tag) or rolls back on a shadow accuracy/confidence
  criterion.

Hook a controller into a :class:`~repro.streaming.StreamScorer` via its
``adapter`` argument and drive both with :func:`adapt_stream`, the one
loop that swaps the stream onto each promoted version in place; from the
terminal, ``repro adapt`` runs it.  The loop runs in process only: every
transition is observable through the controller's ``stats`` counters,
its ``decisions`` list and its audit journal.
"""

from .buffer import ReplayBuffer
from .controller import (
    AdaptationController,
    AdaptationDecision,
    AdaptationStats,
    adapt_stream,
    family_trainer,
)

__all__ = [
    "AdaptationController",
    "AdaptationDecision",
    "AdaptationStats",
    "ReplayBuffer",
    "adapt_stream",
    "family_trainer",
]
