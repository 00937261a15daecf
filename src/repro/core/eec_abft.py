"""EEC-ABFT: Extreme Error Correcting ABFT (Section 4.2 of the paper).

Classic ABFT locates an error in a vector ``v`` by dividing the weighted
checksum difference by the unweighted one and corrects it by adding the
difference back.  That breaks down for the error classes this paper targets:

* an **INF** error makes both differences INF (index = INF/INF = NaN);
* a **NaN** error poisons both differences;
* a **near-INF** error can overflow the weighted difference and, even when it
  does not, adding the difference back absorbs the healthy elements of the
  vector under round-off, producing a wrong "correction".

EEC-ABFT therefore branches on the *value class* of the checksum differences
(the four cases of Figure 3) and falls back to searching the vector for the
extreme element and to reconstructing the true value from the unweighted
checksum and the healthy elements.

The paper runs one GPU thread per column vector; this reproduction expresses
the same per-vector case analysis as whole-array masks, which keeps the
per-call Python overhead independent of the number of vectors — the
vectorisation guidance of the HPC-Python guides and the analogue of the
paper's divergence-free kernel design.

The public entry points are :func:`check_columns` (column-checksum side,
handles 0D and 1R patterns) and :func:`check_rows` (row-checksum side, 0D and
1C patterns), both operating in place on the protected matrix and returning a
:class:`ColumnCheckReport`.  :func:`columns_match` and :func:`rows_match` run
only their unweighted reduce-and-compare (:func:`_unweighted_check`, the
same function and so the same sums and the same tolerance expression that
decide "mismatch" for EEC-ABFT) and locate or repair nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.checksums import checksum_weights
from repro.core.thresholds import ABFTThresholds, resolve_thresholds

__all__ = ["ColumnCheckReport", "check_columns", "check_rows", "columns_match", "rows_match"]

#: How far ``Δ2/Δ1`` may sit from an integer and still locate an error.  A
#: single error in a vector makes the ratio its 1-based row index, up to the
#: round-off of low-precision data, so the test admits anything that rounds
#: to an index and rejects only ratios within 0.05 of a half-integer, where
#: round-off could tip the rounding to the neighbouring row.  Such a ratio
#: is treated as several propagated numeric errors.
INDEX_RATIO_TOLERANCE = 0.45


@dataclass
class ColumnCheckReport:
    """Outcome of one EEC-ABFT pass over the vectors of a matrix.

    All masks have one entry per checked vector (i.e. per column for
    :func:`check_columns`, per row for :func:`check_rows`), flattened over any
    leading batch/head axes.

    Attributes
    ----------
    detected:
        Vectors whose checksums flagged an inconsistency or that contain
        extreme values.
    corrected:
        Vectors in which exactly one error was located and repaired.
    aborted:
        Vectors where correction was aborted because a 1D propagation (two or
        more errors in the same vector) or a checksum-consistent corruption
        was recognised — case 4 of the paper; the matrix-level logic retries
        with the orthogonal checksum side.
    case1 / case2 / case3:
        Vectors handled through the finite-delta, INF-delta and NaN-delta
        branches respectively.
    corrected_indices:
        Per-vector index of the repaired element (-1 where no repair).
    """

    detected: Any
    corrected: Any
    aborted: Any
    case1: Any
    case2: Any
    case3: Any
    corrected_indices: Any

    @property
    def num_detected(self) -> int:
        return int(self.detected.sum())

    @property
    def num_corrected(self) -> int:
        return int(self.corrected.sum())

    @property
    def num_aborted(self) -> int:
        return int(self.aborted.sum())

    @property
    def clean(self) -> bool:
        """True when no inconsistency of any kind was observed."""
        return self.num_detected == 0


def _empty_report(shape) -> ColumnCheckReport:
    zeros = np.zeros(shape, dtype=np.bool_)
    return ColumnCheckReport(
        detected=zeros.copy(),
        corrected=zeros.copy(),
        aborted=zeros.copy(),
        case1=zeros.copy(),
        case2=zeros.copy(),
        case3=zeros.copy(),
        corrected_indices=np.full(shape, -1, dtype=np.int64),
    )


def _column_blocks(matrix: Any, col_checksums: Any) -> Tuple[Any, Any]:
    """``matrix`` and its column checksums as ``(B, m, n)`` / ``(B, 2, n)`` blocks.

    ``reshape`` copies when ``matrix`` is a non-contiguous view (e.g. the
    transposed view of a row-side check).
    """
    if matrix.shape[:-2] != col_checksums.shape[:-2] or matrix.shape[-1] != col_checksums.shape[-1]:
        raise ValueError(
            f"checksum shape {tuple(col_checksums.shape)} incompatible with "
            f"matrix shape {tuple(matrix.shape)}"
        )
    if col_checksums.shape[-2] != 2:
        raise ValueError("column checksums must have two rows (unweighted, weighted)")
    m, n = matrix.shape[-2:]
    return matrix.reshape(-1, m, n), col_checksums.reshape(-1, 2, n)


def _unweighted_check(flat: Any, cs: Any, thresholds: ABFTThresholds) -> Tuple[Any, Any, Any]:
    """EEC-ABFT's mismatch test on ``(B, m, n)`` blocks: ``|Δ1| ≤ E`` per column.

    Returns the recomputed unweighted column sums, ``Δ1`` (maintained minus
    recomputed) and the ``(B, n)`` mask of columns within tolerance, which
    is False for a mismatch and for a non-finite ``Δ1``.  A non-finite
    maintained checksum fails too: its ``Δ1`` is INF or NaN, and its ``E``
    may be INF (see :meth:`ABFTThresholds.detection_tolerance`).  On finite
    data the arithmetic raises no floating-point flag; on non-finite data
    the caller holds the error state.
    """
    # Accumulate in float64 regardless of the data dtype: summing a low
    # precision (fp16/fp32) matrix in its own dtype loses enough precision to
    # trigger false positives at the default thresholds.  The array method
    # is the same reduction as ``np.sum`` without its dispatch wrapper.
    recomputed0 = flat.sum(1, dtype=np.float64)                # (B, n)
    maintained0 = cs[:, 0, :]
    delta1 = maintained0 - recomputed0
    tolerance = thresholds.detection_tolerance(maintained0)
    within = (np.abs(delta1) <= tolerance) & np.isfinite(maintained0)
    return recomputed0, delta1, within


def columns_match(
    matrix: Any,
    col_checksums: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> bool:
    """Whether every column of ``matrix`` passes :func:`check_columns`' mismatch test.

    The reduce-and-compare half of EEC-ABFT's detection, on the same
    reshaped blocks: True exactly when no column's unweighted checksum
    differs beyond the tolerance ``E``.  Extreme values are not scanned for
    here (see :meth:`ABFTThresholds.any_extreme`), and nothing is located or
    repaired.  Run on finite data (after the extreme scan), the test raises
    no floating-point flag, so it holds no error state of its own.
    """
    thresholds = resolve_thresholds(thresholds, matrix.dtype)
    flat, cs = _column_blocks(matrix, col_checksums)
    return bool(_unweighted_check(flat, cs, thresholds)[2].all())


def rows_match(
    matrix: Any,
    row_checksums: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> bool:
    """:func:`columns_match` for the row side, on the transposed view that
    :func:`check_rows` hands to :func:`check_columns`."""
    return columns_match(matrix.swapaxes(-1, -2), row_checksums.swapaxes(-1, -2), thresholds)


def check_columns(
    matrix: Any,
    col_checksums: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> ColumnCheckReport:
    """Run EEC-ABFT on every column of ``matrix`` using its column checksums.

    Parameters
    ----------
    matrix:
        Protected data of shape ``(..., m, n)``; **modified in place** when
        corrections are applied.
    col_checksums:
        Maintained (true) column checksums of shape ``(..., 2, n)`` — row 0
        unweighted, row 1 weighted with ``[1..m]``.
    thresholds:
        Numerical thresholds; ``None`` takes those of the matrix's precision
        (:func:`repro.core.thresholds.resolve_thresholds`).

    Returns
    -------
    ColumnCheckReport
        Per-column masks describing what was detected, corrected or aborted.
    """
    matrix = np.asarray(matrix)
    col_checksums = np.asarray(col_checksums)
    thresholds = resolve_thresholds(thresholds, matrix.dtype)
    *lead, m, n = matrix.shape
    flat, cs = _column_blocks(matrix, col_checksums)
    # Remember whether the reshape copied (a non-contiguous view such as the
    # transposed one of :func:`check_rows`): corrections are then written
    # back at the end.
    flat_is_view = np.shares_memory(flat, matrix)
    batch = flat.shape[0]

    report = _empty_report((batch, n))

    _, v2 = checksum_weights(m)

    # --- recompute checksums of the (possibly corrupted) data ----------------
    flat64 = flat.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore", over="ignore"):
        recomputed0, delta1, within = _unweighted_check(flat, cs, thresholds)
        recomputed1 = np.einsum("i,bij->bj", v2, flat64)       # (B, n)
        delta2 = cs[:, 1, :] - recomputed1

        extreme = thresholds.is_extreme(flat)                  # (B, m, n)
        # Integer count of a boolean mask, not a checksum accumulation.
        # reprolint: disable=DT001
        n_extreme = np.sum(extreme, axis=1)                    # (B, n)

        finite_d1 = np.isfinite(delta1)
        numeric_mismatch = finite_d1 & ~within
        # ``within`` is False for a non-finite delta1, so this is "mismatch,
        # non-finite delta1 or an extreme element".
        detected = ~within | (n_extreme > 0)

        report.detected[:] = detected
        if not bool(detected.any()):
            return _reshape_report(report, lead, n)

        # --- classify the cases of Figure 3 ----------------------------------
        nan_d1 = np.isnan(delta1)
        inf_d1 = np.isinf(delta1)
        case1 = detected & finite_d1
        case2 = detected & inf_d1
        case3 = detected & nan_d1
        report.case1[:] = case1
        report.case2[:] = case2
        report.case3[:] = case3

        # Case 4 (abort): more than one extreme error in the same vector, or a
        # corruption that is *consistent* with the maintained checksums (this
        # happens when the checksums themselves were derived from the corrupted
        # operand — the nondeterministic-pattern scenario of Section 4.3).
        consistent_corruption = (n_extreme > 0) & within
        aborted = (n_extreme > 1) | consistent_corruption

        # --- locate single errors ---------------------------------------------
        # Index from the checksum ratio (1-based in the paper, 0-based here).
        safe_d1 = np.where(np.abs(delta1) > 0, delta1, 1.0)
        ratio = delta2 / safe_d1
        ratio_valid = np.isfinite(ratio)
        nearest = np.rint(ratio)
        ratio_is_integer = ratio_valid & (np.abs(ratio - nearest) <= INDEX_RATIO_TOLERANCE)
        idx_from_checksum = np.clip(nearest.astype(np.int64, copy=False) - 1, 0, m - 1)
        in_range = ratio_valid & (nearest >= 1) & (nearest <= m)

        # Index from searching the vector for the extreme / non-finite element
        # (cases 2 and 3, and case-1 overflow of delta2).
        idx_from_search = np.argmax(extreme, axis=1)           # (B, n), 0 when none

        # --- pure numeric single error (classic ABFT path) --------------------
        numeric_single = case1 & numeric_mismatch & (n_extreme == 0)
        numeric_locatable = numeric_single & in_range & ratio_is_integer
        # A numeric mismatch whose index cannot be located indicates multiple
        # accumulated (propagated) numeric errors -> treat as propagation.
        aborted = aborted | (numeric_single & ~(in_range & ratio_is_integer))

        # --- single extreme error ----------------------------------------------
        extreme_single = detected & (n_extreme == 1) & ~consistent_corruption
        # Prefer the checksum-located index when delta2 survived (case 1 with
        # finite delta2); otherwise use the searched index, as the paper does.
        use_checksum_idx = extreme_single & case1 & np.isfinite(delta2) & in_range & ratio_is_integer
        idx_extreme = np.where(use_checksum_idx, idx_from_checksum, idx_from_search)

        batch_idx, col_idx = np.nonzero(numeric_locatable & ~aborted)
        if batch_idx.shape[0]:
            rows = idx_from_checksum[batch_idx, col_idx]
            corrupted = flat[batch_idx, rows, col_idx]
            addition = delta1[batch_idx, col_idx]
            # T_correct rule: large corrupted values are reconstructed from
            # the checksum and the healthy elements instead of delta-added.
            large = np.abs(corrupted) > thresholds.correct
            sum_others = recomputed0[batch_idx, col_idx] - corrupted
            reconstructed = cs[batch_idx, 0, col_idx] - sum_others
            # Repairs are computed in float64; cast down to the data's
            # dtype explicitly.
            flat[batch_idx, rows, col_idx] = np.where(
                large, reconstructed, corrupted + addition
            ).astype(flat.dtype, copy=False)
            report.corrected[batch_idx, col_idx] = True
            report.corrected_indices[batch_idx, col_idx] = rows

        batch_idx, col_idx = np.nonzero(extreme_single & ~aborted)
        if batch_idx.shape[0]:
            rows = idx_extreme[batch_idx, col_idx]
            # Reconstruct: true value = checksum - sum of healthy elements,
            # accumulated in float64 like every other checksum-side sum (a
            # low-precision healthy sum degrades the reconstructed value).
            healthy = np.where(extreme, 0.0, flat.astype(np.float64, copy=False))
            sum_others = np.sum(healthy, axis=1, dtype=np.float64)[
                batch_idx, col_idx
            ] - np.where(
                thresholds.is_extreme(flat[batch_idx, rows, col_idx]),
                0.0,
                flat[batch_idx, rows, col_idx],
            )
            reconstructed = cs[batch_idx, 0, col_idx] - sum_others
            flat[batch_idx, rows, col_idx] = reconstructed.astype(flat.dtype, copy=False)
            report.corrected[batch_idx, col_idx] = True
            report.corrected_indices[batch_idx, col_idx] = rows

        report.aborted[:] = aborted

    if not flat_is_view:
        matrix[...] = flat.reshape(matrix.shape)
    return _reshape_report(report, lead, n)


def check_rows(
    matrix: Any,
    row_checksums: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> ColumnCheckReport:
    """Run EEC-ABFT on every row of ``matrix`` using its row checksums.

    Implemented by viewing the transposed matrix through
    :func:`check_columns`: the row checksums of ``M`` are exactly the column
    checksums of ``M^T``.  The transposed array is a zero-copy view, so
    in-place corrections propagate back to ``matrix``.
    """
    matrix = np.asarray(matrix)
    row_checksums = np.asarray(row_checksums)
    transposed = np.swapaxes(matrix, -1, -2)
    cs_t = np.swapaxes(row_checksums, -1, -2)
    return check_columns(transposed, cs_t, thresholds=thresholds)


def _reshape_report(report: ColumnCheckReport, lead, n) -> ColumnCheckReport:
    """Reshape the flat (batch, n) masks back to the caller's leading axes."""
    shape = tuple(lead) + (n,)
    return ColumnCheckReport(
        detected=report.detected.reshape(shape),
        corrected=report.corrected.reshape(shape),
        aborted=report.aborted.reshape(shape),
        case1=report.case1.reshape(shape),
        case2=report.case2.reshape(shape),
        case3=report.case3.reshape(shape),
        corrected_indices=report.corrected_indices.reshape(shape),
    )
