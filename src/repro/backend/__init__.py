"""repro.backend — the compute core every model-math layer runs on.

One place owns dtype decisions: a :class:`ComputePolicy` names the
dtype, the op set (grouped/fused convolution, ridge margins, softmax)
executes it, and everything above — classifier families, serialization,
the serving registry and prediction service — threads the policy
through instead of hard-coding numpy calls.  Fitting stays
float64 (``FIT_POLICY``, bit-identical to the historical path); serving
defaults to float32 (``INFERENCE_POLICY``) over the fused one-GEMM
banks.  See ``docs/architecture.md`` (Backend layer) for the contract.
"""

from .bank import is_mmap_backed, open_npz
from .core import (
    FIT_POLICY,
    INFERENCE_POLICY,
    ComputePolicy,
    apply_folded_ridge,
    apply_inference_policy,
    batch_invariant_matmul,
    fold_ridge,
    grouped_conv,
    grouped_ppv_max,
    ridge_margins,
    softmax,
)
from .fused import MAX_BANK_BYTES, MAX_FLOP_BLOWUP, MiniRocketBank, RocketBank
from .parity import PROBA_ATOL, ParityReport, check_parity, parity_report

__all__ = [
    "ComputePolicy",
    "FIT_POLICY",
    "INFERENCE_POLICY",
    "MAX_BANK_BYTES",
    "MAX_FLOP_BLOWUP",
    "MiniRocketBank",
    "PROBA_ATOL",
    "ParityReport",
    "RocketBank",
    "apply_folded_ridge",
    "apply_inference_policy",
    "batch_invariant_matmul",
    "check_parity",
    "fold_ridge",
    "grouped_conv",
    "grouped_ppv_max",
    "is_mmap_backed",
    "open_npz",
    "parity_report",
    "ridge_margins",
    "softmax",
]
