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
    "grouped_ppv_max",
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


def grouped_conv(X: np.ndarray, groups, dtype=np.float64):
    """Batched dilated convolution of a panel with each kernel group in
    turn.

    *X* is a panel ``(n, channels, length)``; each of *groups* carries
    ``weights`` ``(k, channels, kernel_length)``, ``biases`` ``(k,)`` and
    one ``(dilation, padding)``.  Yields each group's ``(n, k, out_len)``
    responses with its biases added, in group order.  One batched matmul
    per group — ``(1, k, c*l) @ (n, c*l, out)`` over unfolded windows —
    which beats einsum at these shapes (no contraction-path search,
    better BLAS blocking).  ``dtype=float64`` reproduces the historical
    ROCKET group convolution bit for bit; float32 casts the operands
    once and halves the bandwidth.

    The memory plan is per call: the panel is cast and zero-padded once,
    to the largest padding, and each group reads an offset view of it;
    one unfold buffer and one response buffer, sized for the largest
    group, serve every group.  A yielded array is a view into the
    response buffer, valid until the next group is drawn.  Nothing
    outlives the call, so concurrent calls share no state.
    """
    X = np.asarray(X)
    n, c, t = X.shape
    pad = max(group.padding for group in groups)
    padded = np.zeros((n, c, t + 2 * pad), dtype)
    padded[:, :, pad:pad + t] = X
    plan = []  # (group, kernel_length, out_len)
    for group in groups:
        length = group.weights.shape[2]
        span = (length - 1) * group.dilation + 1
        plan.append((group, length, t + 2 * group.padding - span + 1))
    unfold = np.empty(n * c * max(length * out_len
                                  for _, length, out_len in plan), dtype)
    responses = np.empty(n * max(len(group.weights) * out_len
                                 for group, _, out_len in plan), dtype)
    s_n, s_c, s_t = padded.strides
    for group, length, out_len in plan:
        k = len(group.weights)
        windows = np.lib.stride_tricks.as_strided(
            padded[:, :, pad - group.padding:],
            shape=(n, c, length, out_len),
            strides=(s_n, s_c, s_t * group.dilation, s_t),
            writeable=False,
        )
        window_matrix = unfold[:windows.size].reshape(windows.shape)
        np.copyto(window_matrix, windows)
        weights = group.weights
        if weights.dtype != dtype:
            weights = weights.astype(dtype)
        out = responses[:n * k * out_len].reshape(n, k, out_len)
        np.matmul(weights.reshape(k, c * length)[None],
                  window_matrix.reshape(n, c * length, out_len), out=out)
        out += np.asarray(group.biases, dtype=dtype)[:, None]
        yield out


def grouped_ppv_max(X: np.ndarray, groups, dtype=np.float64) -> np.ndarray:
    """ROCKET features of a panel through :func:`grouped_conv`: ``(n,
    2K)`` in *dtype*, every group's PPV columns (the share of positive
    responses) in group order, then every group's max columns.

    Both are written straight into the output, one ``reduceat`` over
    each series' ``(k * out_len)`` row of responses, one segment per
    kernel: the max first; then the responses are overwritten in place
    with their positive mask, which is summed in *dtype* (exact: a count
    of ones) and divided by the output length — the historical ``mean``
    bit for bit.  On short series ``reduceat`` beats an ``axis=2``
    reduction, which pays a call per (series, kernel) row.
    """
    n_kernels = sum(len(group.weights) for group in groups)
    features = np.empty((len(X), 2 * n_kernels), dtype)
    start = 0
    for responses in grouped_conv(X, groups, dtype):
        n, k, out_len = responses.shape
        rows = responses.reshape(n, k * out_len)
        segments = np.arange(0, k * out_len, out_len)
        stop = start + k
        np.maximum.reduceat(rows, segments, axis=1,
                            out=features[:, n_kernels + start:
                                         n_kernels + stop])
        ppv = features[:, start:stop]
        np.greater(rows, 0, out=rows)
        np.add.reduceat(rows, segments, axis=1, out=ppv)
        ppv /= out_len
        start = stop
    return features
