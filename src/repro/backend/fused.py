"""Fused dilated-conv + PPV pooling as one matmul-shaped pass.

The historical ROCKET/MiniRocket transforms loop over kernel groups —
pad, unfold, copy, matmul, pool, ~8 numpy dispatches per group, dozens
of groups — which is dispatch-bound at serving shapes (one window at a
time).  The fused path *unrolls the convolution operator*: every kernel
tap of every group at every output position becomes one row of a single
dense matrix ``A``, built once per (model, policy), so the whole
transform collapses to

    responses = X_padded_flat @ A.T          # ONE matmul
    ppv/max   = segment reductions over rows # reduceat

The matmul runs one GEMV per row
(:func:`~repro.backend.core.batch_invariant_matmul`), so a window's
features never depend on which batch it rides in.

The unrolled matrix does not exploit the Toeplitz structure of the
convolution, so it performs roughly ``padded_length / kernel_length``
times more FLOPs than the grouped loop.  That trade is a large win
exactly where serving lives — short windows, small-to-medium kernel
banks, batch sizes the micro-batcher produces — and a loss for long
series or huge banks, so :meth:`RocketBank.build` /
:meth:`MiniRocketBank.build` refuse (return ``None``) when the matrix
would exceed ``max_bytes`` or the FLOP blowup exceeds ``max_blowup``;
callers then fall back to the grouped op at the policy dtype.

Feature ordering is pinned to the historical layout (all PPV columns in
group order, then all max columns for ROCKET; entry-major, kernel,
quantile for MiniRocket) so a fused transform feeds the same ridge head
the grouped transform trained.
"""

from __future__ import annotations

import numpy as np

from .core import batch_invariant_matmul

__all__ = ["MiniRocketBank", "RocketBank"]

#: refuse to unroll past this matrix size — memory, and a proxy for the
#: GEMM being FLOP-bound rather than dispatch-bound
MAX_BANK_BYTES = 32 * 1024 * 1024
#: refuse when the unrolled GEMM would do this many times the grouped
#: loop's FLOPs — measured crossover: fused still wins ~1.5-2x at blowup
#: 20 (short-window serving is dispatch-bound, not FLOP-bound) and only
#: reaches parity at batch-32 around blowup ~32; past that the grouped
#: loop is the better op
MAX_FLOP_BLOWUP = 32.0


def _center_columns(c: int, T: int, pad: int) -> np.ndarray:
    """Column indices of the unpadded samples inside a ``(c, T + 2*pad)``
    flattened layout — the only columns a bank needs to keep."""
    Tp = T + 2 * pad
    return (np.arange(c)[:, None] * Tp + pad + np.arange(T)[None, :]).ravel()


class RocketBank:
    """Unrolled fused conv+PPV/max operator for a fitted ROCKET transform.

    Built once per (fitted transform, policy) by :meth:`build`; applied
    per panel by :meth:`transform`.  Rows of the unrolled matrix are
    ordered ``(group, kernel, output position)`` with per-kernel segments
    contiguous, so PPV and max are single ``reduceat`` calls.
    """

    def __init__(self, matrix_t: np.ndarray, bias: np.ndarray,
                 starts: np.ndarray, seg_len: np.ndarray,
                 n_channels: int, length: int):
        self.matrix_t = matrix_t  # (c*T, R) contiguous, GEMM-ready
        self.bias = bias  # (R,) per-row kernel bias
        self.starts = starts  # (K,) per-kernel segment starts
        self.seg_len = seg_len  # (K,) per-kernel segment lengths
        self.n_channels = n_channels
        self.length = length
        self.dtype = matrix_t.dtype

    @property
    def nbytes(self) -> int:
        """Size of the unrolled matrix (the bank's memory footprint)."""
        return self.matrix_t.nbytes

    @classmethod
    def build(cls, groups, fit_shape: tuple[int, int], dtype=np.float32, *,
              max_bytes: int = MAX_BANK_BYTES,
              max_blowup: float = MAX_FLOP_BLOWUP) -> "RocketBank | None":
        """Unroll *groups* (objects with ``length/dilation/padding/weights/
        biases``) fitted on *fit_shape*; ``None`` when unrolling would be
        bigger than *max_bytes* or slower than the grouped loop
        (FLOP blowup above *max_blowup*)."""
        c, T = fit_shape
        pmax = max(g.padding for g in groups)
        Tp = T + 2 * pmax
        total_rows = 0
        direct_flops = 0
        out_lens = []
        for g in groups:
            out_len = T + 2 * g.padding - (g.length - 1) * g.dilation
            if out_len < 1:
                return None
            out_lens.append(out_len)
            k = len(g.weights)
            total_rows += k * out_len
            direct_flops += k * (c * g.length) * out_len
        # Zero-padding columns of the unrolled matrix only ever multiply
        # zeros, so the stored bank keeps just the center c*T columns —
        # the transform then needs no padding copy and a smaller GEMM.
        cols = c * T
        itemsize = np.dtype(dtype).itemsize
        if total_rows * cols * itemsize > max_bytes:
            return None
        if total_rows * cols > max_blowup * direct_flops:
            return None

        matrix = np.zeros((total_rows, c * Tp), dtype=dtype)
        bias = np.empty(total_rows, dtype=dtype)
        starts: list[int] = []
        row = 0
        for g, out_len in zip(groups, out_lens):
            k = len(g.weights)
            offset = pmax - g.padding
            block = matrix[row:row + k * out_len].reshape(k, out_len, c, Tp)
            s_k, s_o, s_c, s_t = block.strides
            # Writable strided view whose last axis lands on the dilated
            # taps and whose output axis shifts one column per position:
            # one assignment scatters the whole group.
            taps = np.lib.stride_tricks.as_strided(
                block[:, :, :, offset:],
                shape=(k, out_len, c, g.length),
                strides=(s_k, s_o + s_t, s_c, s_t * g.dilation),
            )
            taps[:] = np.asarray(g.weights, dtype=dtype)[:, None, :, :]
            bias[row:row + k * out_len] = np.repeat(
                np.asarray(g.biases, dtype=dtype), out_len)
            starts.extend(row + kk * out_len for kk in range(k))
            row += k * out_len
        starts_arr = np.asarray(starts, dtype=np.intp)
        seg_len = np.diff(np.append(starts_arr, total_rows)).astype(dtype)
        center = _center_columns(c, T, pmax)
        return cls(np.ascontiguousarray(matrix[:, center].T), bias,
                   starts_arr, seg_len, c, T)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Fused features for a panel ``(n, channels, length)``: one GEMM,
        a bias add, and two segment reductions → ``(n, 2 * n_kernels)``
        (PPV columns first, then max, matching the grouped layout)."""
        dtype = self.dtype
        n = X.shape[0]
        flat = np.ascontiguousarray(X, dtype=dtype).reshape(n, -1)
        responses = batch_invariant_matmul(flat, self.matrix_t)  # (n, R)
        responses += self.bias
        positive = (responses > 0).astype(dtype)
        ppv = np.add.reduceat(positive, self.starts, axis=1) / self.seg_len
        maxima = np.maximum.reduceat(responses, self.starts, axis=1)
        return np.concatenate([ppv, maxima], axis=1)


class MiniRocketBank:
    """Unrolled fused conv+PPV operator for a fitted MiniRocket transform.

    MiniRocket's dilations all use ``padding = span // 2`` so every plan
    entry shares one output length; the unrolled responses reshape to
    ``(n, entries, 84, out_len)`` and the quantile-threshold PPV becomes
    a single vectorised comparison over all entries at once.
    """

    def __init__(self, matrix_t: np.ndarray, thresholds: np.ndarray,
                 n_channels: int, length: int,
                 n_entries: int, n_kernels: int, out_len: int):
        self.matrix_t = matrix_t  # (c*T, E*k*out) contiguous
        self.thresholds = thresholds  # (E, k, f) bias quantiles
        self.n_channels = n_channels
        self.length = length
        self.n_entries = n_entries
        self.n_kernels = n_kernels
        self.out_len = out_len
        self.dtype = matrix_t.dtype

    @property
    def nbytes(self) -> int:
        """Size of the unrolled matrix (the bank's memory footprint)."""
        return self.matrix_t.nbytes

    @classmethod
    def build(cls, plan, kernels: np.ndarray, fit_shape: tuple[int, int],
              dtype=np.float32, *, max_bytes: int = MAX_BANK_BYTES,
              max_blowup: float = MAX_FLOP_BLOWUP) -> "MiniRocketBank | None":
        """Unroll a fitted MiniRocket *plan* (``(dilation, padding,
        channel_choice, biases)`` entries over the 84 canonical
        *kernels*); ``None`` under the same size/blowup gates as
        :meth:`RocketBank.build`, or when the entries disagree on output
        length (which the fused reshape requires)."""
        c, T = fit_shape
        n_kernels, kernel_length = kernels.shape
        pmax = max(p for _, p, _, _ in plan)
        Tp = T + 2 * pmax
        out_lens = {T + 2 * p - (kernel_length - 1) * d for d, p, _, _ in plan}
        if len(out_lens) != 1:
            return None
        out_len = out_lens.pop()
        if out_len < 1:
            return None
        feature_counts = {b.shape[1] for _, _, _, b in plan}
        if len(feature_counts) != 1:
            return None
        n_entries = len(plan)
        total_rows = n_entries * n_kernels * out_len
        cols = c * T  # padding columns are dropped, as in RocketBank
        itemsize = np.dtype(dtype).itemsize
        if total_rows * cols * itemsize > max_bytes:
            return None
        direct_flops = n_entries * n_kernels * (kernel_length * out_len)
        if total_rows * cols > max_blowup * direct_flops:
            return None

        matrix = np.zeros((n_entries, n_kernels, out_len, c, Tp), dtype=dtype)
        thresholds = np.empty((n_entries, n_kernels, feature_counts.pop()),
                              dtype=dtype)
        k_idx = np.arange(n_kernels)
        o_idx = np.arange(out_len)
        for e, (dilation, padding, channel_choice, biases) in enumerate(plan):
            offset = pmax - padding
            channels = np.asarray(channel_choice, dtype=np.intp)
            for tap in range(kernel_length):
                cols_at = offset + tap * dilation + o_idx
                matrix[e, k_idx[:, None], o_idx[None, :],
                       channels[:, None], cols_at[None, :]] = \
                    np.asarray(kernels[:, tap], dtype=dtype)[:, None]
            thresholds[e] = np.asarray(biases, dtype=dtype)
        flat = matrix.reshape(total_rows, c * Tp)
        center = _center_columns(c, T, pmax)
        return cls(np.ascontiguousarray(flat[:, center].T), thresholds, c, T,
                   n_entries, n_kernels, out_len)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Fused PPV features for a panel ``(n, channels, length)``: one
        GEMM plus one vectorised quantile comparison →
        ``(n, entries * 84 * features_per_combo)`` in plan order."""
        dtype = self.dtype
        n = X.shape[0]
        flat = np.ascontiguousarray(X, dtype=dtype).reshape(n, -1)
        responses = batch_invariant_matmul(flat, self.matrix_t)
        responses = responses.reshape(n, self.n_entries, self.n_kernels,
                                      self.out_len)
        ppv = (responses[:, :, :, None, :]
               > self.thresholds[None, :, :, :, None]).mean(axis=-1,
                                                            dtype=dtype)
        return ppv.reshape(n, -1)
