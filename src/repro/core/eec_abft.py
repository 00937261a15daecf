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

Backend-generic contract
------------------------
Both entry points dispatch through the array namespace of the backend that
owns the protected matrix (:func:`repro.backend.namespace_of`): detection,
case classification, location and in-place correction all run inside the
owning array library, so device-resident data is verified and repaired
without a host round-trip.  The report masks belong to the same backend as
the matrix; their scalar summaries (``num_detected`` etc.) are plain Python
ints on every backend.  On NumPy this module executes the exact historical
operation sequence — the equivalence tests compare every other backend's
decisions against it, byte for byte.

The public entry points are :func:`check_columns` (column-checksum side,
handles 0D and 1R patterns) and :func:`check_rows` (row-checksum side, 0D and
1C patterns), both operating in place on the protected matrix and returning a
:class:`ColumnCheckReport`.  :func:`columns_match` and :func:`rows_match` run
only their unweighted reduce-and-compare, the test that decides "mismatch"
for EEC-ABFT, and locate or repair nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.backend import backend_of, namespace_of
from repro.core.checksums import checksum_weights
from repro.core.thresholds import ABFTThresholds

__all__ = ["ColumnCheckReport", "check_columns", "check_rows", "columns_match", "rows_match"]


@dataclass
class ColumnCheckReport:
    """Outcome of one EEC-ABFT pass over the vectors of a matrix.

    All masks have one entry per checked vector (i.e. per column for
    :func:`check_columns`, per row for :func:`check_rows`), flattened over any
    leading batch/head axes, and live on the backend that owns the checked
    matrix.

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


def _empty_report(shape, xp) -> ColumnCheckReport:
    zeros = xp.zeros(shape, dtype=xp.bool_)
    return ColumnCheckReport(
        detected=xp.copy(zeros),
        corrected=xp.copy(zeros),
        aborted=xp.copy(zeros),
        case1=xp.copy(zeros),
        case2=xp.copy(zeros),
        case3=xp.copy(zeros),
        corrected_indices=xp.full(shape, -1, dtype=xp.int64),
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


def _unweighted_check(
    flat: Any, cs: Any, thresholds: ABFTThresholds, xp: Any
) -> Tuple[Any, Any, Any]:
    """EEC-ABFT's mismatch test on ``(B, m, n)`` blocks: ``|Δ1| ≤ E`` per column.

    Returns the recomputed unweighted column sums, ``Δ1`` (maintained minus
    recomputed) and the ``(B, n)`` mask of columns within tolerance, which
    is False for a mismatch and for a non-finite ``Δ1``.  The caller holds
    the floating-point error state.
    """
    # Accumulate in float64 regardless of the data dtype: summing a low
    # precision (fp16/fp32) matrix in its own dtype loses enough precision to
    # trigger false positives at the default thresholds.
    recomputed0 = xp.sum(flat, axis=1, dtype=xp.float64)       # (B, n)
    delta1 = cs[:, 0, :] - recomputed0
    within = xp.abs(delta1) <= thresholds.detection_tolerance(cs[:, 0, :])
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
    here (see :meth:`ABFTThresholds.any_extreme`); nothing is located or
    repaired.
    """
    thresholds = thresholds or ABFTThresholds()
    xp = namespace_of(matrix)
    flat, cs = _column_blocks(xp.asarray(matrix), xp.asarray(col_checksums))
    with xp.errstate(invalid="ignore", over="ignore"):
        return bool(xp.all(_unweighted_check(flat, cs, thresholds, xp)[2]))


def rows_match(
    matrix: Any,
    row_checksums: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> bool:
    """:func:`columns_match` for the row side, on the transposed view that
    :func:`check_rows` hands to :func:`check_columns`."""
    xp = namespace_of(matrix)
    return columns_match(
        xp.swapaxes(xp.asarray(matrix), -1, -2),
        xp.swapaxes(xp.asarray(row_checksums), -1, -2),
        thresholds,
    )


def check_columns(
    matrix: Any,
    col_checksums: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> ColumnCheckReport:
    """Run EEC-ABFT on every column of ``matrix`` using its column checksums.

    Parameters
    ----------
    matrix:
        Protected data of shape ``(..., m, n)``, in any registered backend's
        array type; **modified in place** when corrections are applied.
    col_checksums:
        Maintained (true) column checksums of shape ``(..., 2, n)`` — row 0
        unweighted, row 1 weighted with ``[1..m]`` — on the same backend.
    thresholds:
        Numerical thresholds; defaults to the paper's values.

    Returns
    -------
    ColumnCheckReport
        Per-column masks describing what was detected, corrected or aborted.
    """
    thresholds = thresholds or ABFTThresholds()
    backend = backend_of(matrix)
    xp = backend.xp
    matrix = xp.asarray(matrix)
    col_checksums = xp.asarray(col_checksums)
    *lead, m, n = matrix.shape
    flat, cs = _column_blocks(matrix, col_checksums)
    # Remember whether the reshape copied (a non-contiguous view such as the
    # transposed one of :func:`check_rows`): corrections are then written
    # back at the end.
    flat_is_view = backend.shares_memory(flat, matrix)
    batch = flat.shape[0]

    report = _empty_report((batch, n), xp)

    _, v2 = checksum_weights(m, xp=xp)

    # --- recompute checksums of the (possibly corrupted) data ----------------
    flat64 = xp.astype(flat, xp.float64, copy=False)
    with xp.errstate(invalid="ignore", over="ignore"):
        recomputed0, delta1, within = _unweighted_check(flat, cs, thresholds, xp)
        recomputed1 = xp.einsum("i,bij->bj", v2, flat64)       # (B, n)
        delta2 = cs[:, 1, :] - recomputed1

        extreme = thresholds.is_extreme(flat)                  # (B, m, n)
        # Integer count of a boolean mask, not a checksum accumulation.
        # reprolint: disable=DT001
        n_extreme = xp.sum(extreme, axis=1)                    # (B, n)

        finite_d1 = xp.isfinite(delta1)
        numeric_mismatch = finite_d1 & ~within
        # ``within`` is False for a non-finite delta1, so this is "mismatch,
        # non-finite delta1 or an extreme element".
        detected = ~within | (n_extreme > 0)

        report.detected[:] = detected
        if not bool(detected.any()):
            return _reshape_report(report, lead, n)

        # --- classify the cases of Figure 3 ----------------------------------
        nan_d1 = xp.isnan(delta1)
        inf_d1 = xp.isinf(delta1)
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
        safe_d1 = xp.where(xp.abs(delta1) > 0, delta1, 1.0)
        ratio = delta2 / safe_d1
        ratio_valid = xp.isfinite(ratio)
        nearest = xp.rint(ratio)
        ratio_is_integer = ratio_valid & (xp.abs(ratio - nearest) <= 0.45)
        idx_from_checksum = xp.clip(xp.astype(nearest, xp.int64, copy=False) - 1, 0, m - 1)
        in_range = ratio_valid & (nearest >= 1) & (nearest <= m)

        # Index from searching the vector for the extreme / non-finite element
        # (cases 2 and 3, and case-1 overflow of delta2).
        idx_from_search = xp.argmax(extreme, axis=1)           # (B, n), 0 when none

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
        use_checksum_idx = extreme_single & case1 & xp.isfinite(delta2) & in_range & ratio_is_integer
        idx_extreme = xp.where(use_checksum_idx, idx_from_checksum, idx_from_search)

        batch_idx, col_idx = xp.nonzero(numeric_locatable & ~aborted)
        if batch_idx.shape[0]:
            rows = idx_from_checksum[batch_idx, col_idx]
            corrupted = flat[batch_idx, rows, col_idx]
            addition = delta1[batch_idx, col_idx]
            # T_correct rule: large corrupted values are reconstructed from
            # the checksum and the healthy elements instead of delta-added.
            large = xp.abs(corrupted) > thresholds.correct
            sum_others = recomputed0[batch_idx, col_idx] - corrupted
            reconstructed = cs[batch_idx, 0, col_idx] - sum_others
            # Repairs are computed in float64; cast down to the data's
            # dtype explicitly (NumPy assignment would cast silently,
            # Torch index assignment requires matching dtypes).
            flat[batch_idx, rows, col_idx] = xp.astype(
                xp.where(large, reconstructed, corrupted + addition),
                flat.dtype, copy=False,
            )
            report.corrected[batch_idx, col_idx] = True
            report.corrected_indices[batch_idx, col_idx] = rows

        batch_idx, col_idx = xp.nonzero(extreme_single & ~aborted)
        if batch_idx.shape[0]:
            rows = idx_extreme[batch_idx, col_idx]
            # Reconstruct: true value = checksum - sum of healthy elements,
            # accumulated in float64 like every other checksum-side sum (a
            # low-precision healthy sum degrades the reconstructed value).
            healthy = xp.where(
                extreme, 0.0, xp.astype(flat, xp.float64, copy=False)
            )
            sum_others = xp.sum(healthy, axis=1, dtype=xp.float64)[
                batch_idx, col_idx
            ] - xp.where(
                thresholds.is_extreme(flat[batch_idx, rows, col_idx]),
                0.0,
                flat[batch_idx, rows, col_idx],
            )
            reconstructed = cs[batch_idx, 0, col_idx] - sum_others
            flat[batch_idx, rows, col_idx] = xp.astype(
                reconstructed, flat.dtype, copy=False
            )
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
    checksums of ``M^T``.  The transposed array is a zero-copy view in every
    supported backend, so in-place corrections propagate back to ``matrix``.
    """
    xp = namespace_of(matrix)
    matrix = xp.asarray(matrix)
    row_checksums = xp.asarray(row_checksums)
    transposed = xp.swapaxes(matrix, -1, -2)
    cs_t = xp.swapaxes(row_checksums, -1, -2)
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
