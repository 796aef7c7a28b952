"""Correctness-parity sweep between compute policies.

The backend's contract is that a policy changes *speed*, never
*answers*: argmax labels must be bit-identical across policies, and
probabilities must agree within a documented tolerance
(:data:`PROBA_ATOL`).  This module is the single implementation of that
check, used three ways:

* at publish time, to gate recording a policy into model metadata — a
  model never ships with a policy that disagrees with the float64
  reference;
* by the CI ``backend-parity`` job, sweeping float64-vs-float32 across
  every classifier family;
* by the test suite, as the assertion helper for the stream-parity and
  contract sweeps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import FIT_POLICY, ComputePolicy, apply_inference_policy

__all__ = ["PROBA_ATOL", "ParityReport", "parity_report", "check_parity"]

#: documented probability tolerance between the float64 reference and any
#: other policy (float32 banks, folded ridge heads, fused GEMM ordering).
#: Ridge margins and softmax gaps between classes are orders of magnitude
#: wider in practice; the sweep pins that.
PROBA_ATOL = 1e-3


@dataclass(frozen=True)
class ParityReport:
    """Outcome of comparing one candidate policy against the reference."""

    labels_equal: bool
    max_proba_diff: float
    n_samples: int
    policy: ComputePolicy
    reference: ComputePolicy

    @property
    def ok(self) -> bool:
        """Whether the candidate satisfies the parity contract."""
        return self.labels_equal and self.max_proba_diff <= PROBA_ATOL

    def summary(self) -> str:
        """One-line human-readable verdict (used by CI and the bench)."""
        status = "OK" if self.ok else "FAIL"
        return (f"parity[{self.policy.dtype} vs {self.reference.dtype}] "
                f"{status}: labels_equal={self.labels_equal} "
                f"max_proba_diff={self.max_proba_diff:.3e} "
                f"(atol={PROBA_ATOL:g}, n={self.n_samples})")


def _predict_under(model, X, policy: ComputePolicy):
    """Labels and probabilities from a policy-applied deep copy of *model*.

    Copying keeps the caller's model untouched — policy application
    mutates banks in place, and the sweep must not leave the published
    model running under the candidate policy before it passes.
    """
    candidate = apply_inference_policy(copy.deepcopy(model), policy)
    return (np.asarray(candidate.predict(X)),
            np.asarray(candidate.predict_proba(X)))


def parity_report(model, X, policy: ComputePolicy,
                  reference: ComputePolicy = FIT_POLICY) -> ParityReport:
    """Compare *model* under *policy* against it under *reference* on *X*.

    Labels are compared exactly (the contract is bit-identical argmax);
    probabilities by max absolute difference.
    """
    X = np.asarray(X, dtype=np.float64)
    ref_labels, ref_probas = _predict_under(model, X, reference)
    cand_labels, cand_probas = _predict_under(model, X, policy)
    labels_equal = bool(np.array_equal(ref_labels, cand_labels))
    max_diff = float(np.max(np.abs(
        ref_probas.astype(np.float64) - cand_probas.astype(np.float64))))
    return ParityReport(labels_equal=labels_equal, max_proba_diff=max_diff,
                        n_samples=int(X.shape[0]), policy=policy,
                        reference=reference)


def check_parity(model, X, policy: ComputePolicy,
                 reference: ComputePolicy = FIT_POLICY) -> ParityReport:
    """:func:`parity_report`, raising ``ValueError`` on failure.

    This is the publish gate: recording a policy into model metadata goes
    through here first, so registry artifacts never advertise a policy
    that disagrees with the float64 reference.
    """
    report = parity_report(model, X, policy, reference)
    if not report.ok:
        raise ValueError(f"compute-policy parity failure: {report.summary()}")
    return report
