"""Compute-core policy and the small op set the classifier families share.

The backend layer makes the serving fast path explicit instead of ad-hoc
per-classifier numpy: a :class:`ComputePolicy` names the dtype a model
should run under, and the ops here are the only places model math
happens — batched grouped convolution (:func:`grouped_conv`), the fused
conv+PPV banks (:mod:`repro.backend.fused`), ridge margin application
(:func:`ridge_margins`, :func:`fold_ridge`), :func:`softmax`, and the
batch-invariant GEMM the float32 serving path runs on
(:func:`batch_invariant_matmul`).

Two policies matter in practice:

* ``FIT_POLICY`` — ``float64``.  Fitting stays in double precision,
  bit-identical to the historical code path; every existing test and
  cached artifact is unchanged.
* ``INFERENCE_POLICY`` — ``float32``.  The serving default: kernel banks
  and ridge heads are cast once at policy-application time, the
  transform runs through the fused one-GEMM bank when the model is
  small enough to unroll, and probabilities come out within a documented
  tolerance of the float64 path (labels bit-identical in practice —
  ridge margins are far wider than float32 noise; the parity suite pins
  this).  The float32 GEMMs of the fused banks and the folded ridge
  head multiply one row at a time, so they give a series the same bits
  whichever batch it is scored in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComputePolicy",
    "FIT_POLICY",
    "INFERENCE_POLICY",
    "apply_folded_ridge",
    "apply_inference_policy",
    "batch_invariant_matmul",
    "fold_ridge",
    "grouped_conv",
    "ridge_margins",
    "softmax",
]

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ComputePolicy:
    """Execution policy for model math: the dtype it computes in.

    Parameters
    ----------
    dtype:
        ``"float64"`` (the fit-time default) or ``"float32"`` (the
        inference default).  Under float32 the classifier families cast
        their kernel banks and ridge heads once, then run every predict
        in single precision.
    """

    dtype: str = "float64"

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise ValueError(
                f"unknown compute dtype {self.dtype!r}; "
                f"expected one of {sorted(_DTYPES)}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype this policy computes in."""
        return np.dtype(_DTYPES[self.dtype])

    def as_dict(self) -> dict:
        """JSON-ready form, as recorded in registry metadata at publish."""
        return {"dtype": self.dtype}

    @classmethod
    def from_dict(cls, data: dict | None) -> "ComputePolicy | None":
        """Rebuild a policy from :meth:`as_dict` output (``None`` passes
        through, so metadata without a policy stays policy-less).  Keys
        other than ``dtype`` are ignored: older manifests also recorded
        an execution engine, which never changed answers."""
        if not data:
            return None
        return cls(dtype=data.get("dtype", "float64"))


#: fitting stays double precision — the historical, bit-pinned path
FIT_POLICY = ComputePolicy("float64")
#: the serving default: float32 banks, fused path
INFERENCE_POLICY = ComputePolicy("float32")


def apply_inference_policy(model, policy: ComputePolicy | None):
    """Apply *policy* to *model* in place (returns the model).

    Families that support policies implement ``set_inference_policy``;
    everything else is left untouched — the policy then simply describes
    the dtype its math already runs in (float64), so applying a policy
    can never break a family that has not opted in.
    """
    if policy is not None:
        setter = getattr(model, "set_inference_policy", None)
        if setter is not None:
            setter(policy)
    return model


# --------------------------------------------------------------------------- #
# ops
# --------------------------------------------------------------------------- #


def softmax(scores: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
    """Row-wise softmax of a ``(n, n_classes)`` score matrix.

    Numerically stable (row max subtracted) and strictly order-preserving
    per row, so the argmax of the output equals the argmax of the input —
    the property ``predict``/``predict_proba`` agreement rests on.  With
    *dtype* ``None`` the historical float64 behaviour is kept exactly;
    float32 computes in single precision end to end.
    """
    scores = np.asarray(scores, dtype=dtype if dtype is not None else np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D; got ndim={scores.ndim}")
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def ridge_margins(features: np.ndarray, mean: np.ndarray, std: np.ndarray,
                  coef: np.ndarray, target_mean: np.ndarray) -> np.ndarray:
    """Ridge margin scores: ``((features - mean) / std) @ coef + target_mean``.

    The float64 reference application, operation-for-operation the
    historical ``RidgeClassifierCV.decision_function`` — kept here so the
    fit-time path and the folded float32 path (:func:`fold_ridge`) are
    two views of one op with a pinned reference.
    """
    features = np.asarray(features, dtype=np.float64)
    features = (features - mean) / std
    return features @ coef + target_mean


def fold_ridge(mean: np.ndarray, std: np.ndarray, coef: np.ndarray,
               target_mean: np.ndarray, dtype=np.float32
               ) -> tuple[np.ndarray, np.ndarray]:
    """Fold feature normalisation into the coefficient matrix.

    ``((f - mean) / std) @ coef + tm  ==  f @ (coef / std) + (tm - (mean
    / std) @ coef)``, so inference needs one GEMM and one add instead of
    two broadcasts and a GEMM.  Returns ``(scale_coef, intercept)`` in
    *dtype*; the fold changes floating-point association, which is why it
    is reserved for the tolerance-documented float32 inference path.
    """
    scale_coef = (coef / std[:, None]).astype(dtype)
    intercept = (target_mean - (mean / std) @ coef).astype(dtype)
    return scale_coef, intercept


def batch_invariant_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D *a* whose every output row depends only on
    the same row of *a*, never on how many rows ride along.

    BLAS picks its kernel and accumulation order by the GEMM's shape, so
    one row multiplied alone and inside a 12-row panel can differ in the
    last bits.  Here every row is its own ``(1, k) @ (k, m)`` product —
    one GEMV of the same shape whatever the panel — so a request's answer
    is the same whichever micro-batch it lands in.
    """
    return np.matmul(a[:, None, :], b)[:, 0]


def apply_folded_ridge(features: np.ndarray, scale_coef: np.ndarray,
                       intercept: np.ndarray) -> np.ndarray:
    """Margins from a :func:`fold_ridge` head: ``features @ scale_coef +
    intercept`` in the head's dtype (one batch-invariant matmul, one
    add)."""
    features = np.asarray(features, dtype=scale_coef.dtype)
    return batch_invariant_matmul(features, scale_coef) + intercept


def grouped_conv(X: np.ndarray, weights: np.ndarray, biases: np.ndarray,
                 dilation: int, padding: int,
                 dtype=np.float64) -> np.ndarray:
    """Batched dilated convolution of one kernel group.

    *X* is a panel ``(n, channels, length)``; *weights* ``(k, channels,
    kernel_length)`` share one ``(dilation, padding)``; the result is
    ``(n, k, out_len)`` responses with *biases* added.  One batched
    matmul per call — ``(1, k, c*l) @ (n, c*l, out)`` over unfolded
    windows — which beats einsum at these shapes (no contraction-path
    search, better BLAS blocking).  ``dtype=float64`` reproduces the
    historical ROCKET group convolution bit for bit; float32 casts the
    operands once and halves the bandwidth.
    """
    X = np.asarray(X)
    if X.dtype != dtype:
        X = X.astype(dtype)
    n, c, t = X.shape
    length = weights.shape[2]
    if padding:
        X = np.pad(X, ((0, 0), (0, 0), (padding, padding)))
        t = X.shape[2]
    span = (length - 1) * dilation + 1
    out_len = t - span + 1
    s_n, s_c, s_t = X.strides
    windows = np.lib.stride_tricks.as_strided(
        X,
        shape=(n, c, length, out_len),
        strides=(s_n, s_c, s_t * dilation, s_t),
        writeable=False,
    )
    if weights.dtype != dtype:
        weights = weights.astype(dtype)
    kernel_matrix = weights.reshape(len(weights), c * length)
    window_matrix = np.ascontiguousarray(windows).reshape(n, c * length, out_len)
    responses = np.matmul(kernel_matrix[None], window_matrix)
    return responses + np.asarray(biases, dtype=dtype)[None, :, None]
