"""Checksum encoding and propagation for ABFT-protected GEMMs.

Notation (Section 2.3 of the paper).  For a matrix block ``M`` of shape
``(m, n)`` (possibly with leading batch/head axes):

* the **column checksums** are the two row vectors obtained by multiplying
  from the left with the unweighted and weighted checksum vectors::

      col(M) = [ v1^T M ]      with  v1 = [1, 1, ..., 1]^T        shape (2, n)
               [ v2^T M ]            v2 = [1, 2, ..., m]^T

  Column checksums detect/correct one error *per column* and therefore handle
  0D and 1R patterns.

* the **row checksums** are the two column vectors ``M [v1 v2]`` with weights
  over the ``n`` columns, shape ``(m, 2)``.  They handle 0D and 1C patterns.

The central algebraic fact ABFT exploits is that checksums propagate through
matrix multiplication: for ``C = A B``::

    col(C) = col(A) B          row(C) = A row(B)

so a checksum encoded once on the *input* of a protection section can be
carried ("passed", Section 4.4) through every GEMM of the section with two
extra GEMV-sized multiplications instead of a full re-encode — and, crucially,
the carried checksum describes the *true* output even when the GEMM's computed
output was corrupted by a transient fault.

This module implements encoding, propagation (including bias-add adjustment,
needed because the projections in real transformer layers are affine rather
than linear), and the head split/merge plumbing required because the paper's
GEMMs ``Q K^T`` and ``AP V`` operate per attention head.

Weighted sums are always *accumulated in float64*, whatever the input dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "checksum_weights",
    "stacked_checksum_weights",
    "clear_checksum_weight_cache",
    "encode_column_checksums",
    "encode_row_checksums",
    "recompute_column_sums",
    "recompute_row_sums",
    "update_column_checksums_through_gemm",
    "update_column_checksums_with_appended_rows",
    "adjust_column_checksums_for_bias",
    "split_head_column_checksums",
    "merge_head_column_checksums",
    "encode_per_head_row_checksums_of_weight",
    "ChecksumState",
]


#: (length, dtype-key) -> (v1, v2) — see :func:`checksum_weights`.
#: Guarded by the GIL only: a benign race rebuilds identical vectors.
_WEIGHT_VECTOR_CACHE: Dict[Tuple, Tuple[Any, Any]] = {}

#: Same cache for the stacked ``(2, m)`` / ``(n, 2)`` encoder weight blocks.
_WEIGHT_BLOCK_CACHE: Dict[Tuple, Any] = {}


def checksum_weights(length: int, dtype=np.float64) -> Tuple[Any, Any]:
    """Return the unweighted and weighted checksum vectors ``(v1, v2)``.

    ``v1 = [1, 1, ..., 1]`` and ``v2 = [1, 2, ..., length]`` (1-based), the
    classic Huang–Abraham choice that the paper uses: the ratio of the two
    checksum differences directly yields the (1-based) error index.

    The vectors are **cached** per (length, dtype) — every encode,
    bias-adjust and EEC-ABFT detection pass calls this, and rebuilding two
    ``arange``-derived vectors per call was pure dispatch overhead on the hot
    path.  Callers must treat the returned arrays as read-only.
    """
    if length <= 0:
        raise ValueError(f"checksum length must be positive, got {length}")
    key = (int(length), str(dtype))
    entry = _WEIGHT_VECTOR_CACHE.get(key)
    if entry is not None:
        return entry
    v1 = np.ones(length, dtype=dtype)
    v2 = np.arange(1, length + 1, dtype=dtype)
    _WEIGHT_VECTOR_CACHE[key] = (v1, v2)
    return v1, v2


def stacked_checksum_weights(length: int, axis: int) -> Any:
    """The float64 encoder weight block ``stack([v1, v2], axis=axis)``, cached.

    ``axis=0`` gives the ``(2, length)`` block of the column encoder,
    ``axis=1`` the ``(length, 2)`` block of the row encoder.  Cached for the
    same reason as :func:`checksum_weights`; read-only by contract.
    """
    key = (int(length), int(axis))
    block = _WEIGHT_BLOCK_CACHE.get(key)
    if block is not None:
        return block
    v1, v2 = checksum_weights(length)
    block = np.stack([v1, v2], axis=axis)
    _WEIGHT_BLOCK_CACHE[key] = block
    return block


def clear_checksum_weight_cache() -> None:
    """Drop every cached weight vector/block (test isolation hook)."""
    _WEIGHT_VECTOR_CACHE.clear()
    _WEIGHT_BLOCK_CACHE.clear()


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode_column_checksums(matrix: Any) -> Any:
    """Encode column checksums of ``matrix`` (..., m, n) -> (..., 2, n).

    Row 0 holds the unweighted column sums, row 1 the weighted sums.  This is
    the operation the paper's custom "encoding kernel" implements on GPU
    (Section 4.6, Figure 9); here it is a dense matmul with the 2 x m weight
    block, dispatched to NumPy's BLAS.

    The weighted sums are always *accumulated in float64*, whatever the input
    dtype: encoding an fp16/fp32 matrix in its own precision loses enough of
    the Huang–Abraham weighted sum to round-off that fault-free data fails the
    default detection tolerances.
    """
    matrix = np.asarray(matrix)
    m = matrix.shape[-2]
    weights = stacked_checksum_weights(m, axis=0)  # (2, m), float64
    return np.matmul(weights, matrix.astype(np.float64, copy=False))


def encode_row_checksums(matrix: Any) -> Any:
    """Encode row checksums of ``matrix`` (..., m, n) -> (..., m, 2).

    Accumulates in float64 regardless of input dtype (see
    :func:`encode_column_checksums`).
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[-1]
    weights = stacked_checksum_weights(n, axis=1)  # (n, 2), float64
    return np.matmul(matrix.astype(np.float64, copy=False), weights)


def recompute_column_sums(matrix: Any) -> Tuple[Any, Any]:
    """Recompute (unweighted, weighted) column sums of the *current* data.

    Unlike :func:`encode_column_checksums` this is used on the possibly
    corrupted output at detection time; returning the two components
    separately avoids an extra stack/copy in the hot detection path.
    """
    matrix = np.asarray(matrix)
    m = matrix.shape[-2]
    _, v2 = checksum_weights(m)
    matrix64 = matrix.astype(np.float64, copy=False)
    unweighted = np.sum(matrix, axis=-2, dtype=np.float64)
    weighted = np.einsum("i,...ij->...j", v2, matrix64)
    return unweighted, weighted


def recompute_row_sums(matrix: Any) -> Tuple[Any, Any]:
    """Recompute (unweighted, weighted) row sums of the *current* data.

    Like the encoders, accumulation is always in float64 so low-precision data
    does not produce round-off false positives against float64 checksums.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[-1]
    _, v2 = checksum_weights(n)
    matrix64 = matrix.astype(np.float64, copy=False)
    unweighted = np.sum(matrix, axis=-1, dtype=np.float64)
    weighted = np.einsum("j,...ij->...i", v2, matrix64)
    return unweighted, weighted


# ---------------------------------------------------------------------------
# Propagation through GEMM and bias
# ---------------------------------------------------------------------------

def update_column_checksums_through_gemm(col_checksums_a: Any, b: Any) -> Any:
    """Propagate column checksums through ``C = A B``:  ``col(C) = col(A) B``."""
    return np.matmul(col_checksums_a, b)


def update_column_checksums_with_appended_rows(
    col_checksums: Any, new_rows: Any, first_row_index: int
) -> Any:
    """Fold rows appended to a growing matrix into its column checksums, in place.

    For a matrix that grows along its row axis — the KV-cache view of the
    attention input, one row per decoded token — the Huang–Abraham column
    checksums update incrementally: appending row ``x`` at (0-based) position
    ``p`` shifts the unweighted sums by ``x`` and the weighted sums by
    ``(p + 1) * x``, because ``v2`` weights row ``p`` with ``p + 1``.  The
    update is O(rows appended), independent of how many rows the matrix
    already holds — this is what makes per-token decode protection O(1) in
    the cached sequence length.

    ``col_checksums`` must be a float64 ``(..., 2, n)`` buffer (it is mutated
    in place and returned); ``new_rows`` is ``(..., t, n)`` with
    ``first_row_index`` the 0-based position of its first row in the grown
    matrix.  Accumulation is in float64 like the encoders.
    """
    new64 = np.asarray(new_rows).astype(np.float64, copy=False)
    t = new64.shape[-2]
    if t == 1:
        # Single-token decode hot path: two elementwise AXPYs, no reductions.
        row = new64[..., 0, :]
        col_checksums[..., 0, :] += row
        col_checksums[..., 1, :] += float(first_row_index + 1) * row
        return col_checksums
    unweighted = np.sum(new64, axis=-2, dtype=np.float64)
    _, v2 = checksum_weights(t)
    weighted = np.einsum("i,...ij->...j", v2, new64)
    col_checksums[..., 0, :] += unweighted
    col_checksums[..., 1, :] += weighted + float(first_row_index) * unweighted
    return col_checksums


def adjust_column_checksums_for_bias(
    col_checksums: Any, bias: Any, num_rows: int
) -> Any:
    """Adjust column checksums for an affine output ``C' = C + 1 bias^T``.

    Adding the same bias vector to every one of the ``num_rows`` rows shifts
    the unweighted column sums by ``num_rows * bias`` and the weighted sums by
    ``(1 + 2 + ... + num_rows) * bias``.
    """
    bias = np.asarray(bias).astype(np.float64, copy=False)
    # Copy + float64 accumulation.
    adjusted = np.asarray(col_checksums).astype(np.float64, copy=True)
    adjusted[..., 0, :] = adjusted[..., 0, :] + num_rows * bias
    adjusted[..., 1, :] = adjusted[..., 1, :] + (num_rows * (num_rows + 1) / 2.0) * bias
    return adjusted


# ---------------------------------------------------------------------------
# Head split / merge
# ---------------------------------------------------------------------------

def split_head_column_checksums(col_checksums: Any, num_heads: int) -> Any:
    """Split column checksums of a ``(B, S, D)`` projection into per-head blocks.

    ``(B, 2, D) -> (B, H, 2, D/H)`` — mirrors
    :func:`repro.tensor.autograd.split_heads` applied to the data: because
    head splitting partitions the *columns* (features) and leaves the rows
    (sequence positions) untouched, the column checksums partition the same
    way.
    """
    col_checksums = np.asarray(col_checksums)
    *lead, two, d = col_checksums.shape
    if two != 2:
        raise ValueError(f"expected a checksum axis of size 2, got {two}")
    if d % num_heads:
        raise ValueError(f"feature dim {d} not divisible by num_heads {num_heads}")
    head_dim = d // num_heads
    reshaped = col_checksums.reshape(*lead, 2, num_heads, head_dim)
    # Moving the head axis in front of its neighbour is a swap of the two.
    return reshaped.swapaxes(-2, -3)  # (..., H, 2, head_dim)


def merge_head_column_checksums(per_head: Any) -> Any:
    """Inverse of :func:`split_head_column_checksums`: ``(B, H, 2, dh) -> (B, 2, H*dh)``."""
    per_head = np.asarray(per_head)
    *lead, h, two, dh = per_head.shape
    if two != 2:
        raise ValueError(f"expected a checksum axis of size 2, got {two}")
    moved = per_head.swapaxes(-3, -2)  # (..., 2, H, dh)
    return moved.reshape(*lead, 2, h * dh)


def encode_per_head_row_checksums_of_weight(weight: Any, num_heads: int) -> Any:
    """Row-checksum encode a projection weight per output head.

    For ``W`` of shape ``(D_in, D_out)`` whose output features are split into
    ``num_heads`` heads of ``dh = D_out / H`` columns each, return the block
    of per-head row-checksum weights of shape ``(D_in, H, 2)``: entry
    ``[:, h, 0]`` is ``W[:, h*dh:(h+1)*dh] @ 1`` and ``[:, h, 1]`` the
    ``[1..dh]``-weighted version.  Multiplying ``X (B, S, D_in)`` by this
    block yields per-head row checksums of ``V = X W`` directly — the
    checksum-passing trick of protection section S_CL.
    """
    weight = np.asarray(weight)
    d_in, d_out = weight.shape
    if d_out % num_heads:
        raise ValueError(f"output dim {d_out} not divisible by num_heads {num_heads}")
    dh = d_out // num_heads
    # float64: same dtype-safety rule as the encoders.
    weights = stacked_checksum_weights(dh, axis=1)  # (dh, 2)
    per_head = weight.astype(np.float64, copy=False).reshape(d_in, num_heads, dh)
    return np.einsum("dhk,kw->dhw", per_head, weights)  # (D_in, H, 2)


# ---------------------------------------------------------------------------
# Checksum state container
# ---------------------------------------------------------------------------

@dataclass
class ChecksumState:
    """Column and/or row checksums attached to one protected matrix.

    Either side may be absent (``None``) — e.g. the attention output ``O``
    only carries column checksums (Section 4.4, "Attention Output Protection
    Section").
    """

    col: Optional[Any] = None
    row: Optional[Any] = None

    def has_col(self) -> bool:
        return self.col is not None

    def has_row(self) -> bool:
        return self.row is not None

    @staticmethod
    def encode(matrix: Any, col: bool = True, row: bool = False) -> "ChecksumState":
        """Encode fresh checksums directly from ``matrix``."""
        return ChecksumState(
            col=encode_column_checksums(matrix) if col else None,
            row=encode_row_checksums(matrix) if row else None,
        )

    def verify(self, matrix: Any, rtol: float = 1e-6, atol: float = 1e-6) -> bool:
        """Whether the stored checksums are consistent with ``matrix``."""
        ok = True
        if self.col is not None:
            unweighted, weighted = recompute_column_sums(matrix)
            ok &= bool(np.allclose(self.col[..., 0, :], unweighted, rtol=rtol, atol=atol))
            ok &= bool(np.allclose(self.col[..., 1, :], weighted, rtol=rtol, atol=atol))
        if self.row is not None:
            unweighted, weighted = recompute_row_sums(matrix)
            ok &= bool(np.allclose(self.row[..., 0], unweighted, rtol=rtol, atol=atol))
            ok &= bool(np.allclose(self.row[..., 1], weighted, rtol=rtol, atol=atol))
        return ok
