"""Matrix-level correction strategies (Section 4.3 of the paper).

:mod:`repro.core.eec_abft` repairs one error per protected vector.  This
module decides *which* checksum side to use and how to combine the two sides,
implementing the three propagation-handling strategies of the paper:

* **Deterministic patterns** — only one pattern can occur, so only one
  checksum side is maintained and a single EEC-ABFT pass suffices (e.g. the
  output matrix ``O`` can only see 0D/1R, handled by column checksums).

* **Nondeterministic patterns** — the pattern may be 1R *or* 1C depending on
  where the originating fault struck (e.g. ``AS``).  Both checksum sides are
  maintained.  The column side is tried first; vectors it aborts on (1D
  propagation, or corruption consistent with checksums because the checksums
  were derived from the corrupted operand) are then repaired by the row side,
  after which the column checksums of the repaired columns are re-derived.

* **Mixed-type patterns** — handled inside EEC-ABFT itself by counting all
  candidate error classes before concluding (Section 4.3, last paragraph);
  at this level they simply show up as vectors corrected through different
  cases.

Before any of that, :func:`correct_matrix` screens the matrix: one scan for
extreme values (the largest magnitude, judged in the data's dtype), then one
pass per checksum side: the unweighted reduce-and-compare that EEC-ABFT
detects mismatches with, which is the same function, so it sums the same
view the same way and compares against the same tolerance expression.  A
clean matrix costs only that, a handful of array calls per side; the case
analysis above runs only after the screen flags something, which is where
the paper (Section 4.2) needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.checksums import ChecksumState, encode_column_checksums
from repro.core.eec_abft import (
    ColumnCheckReport,
    check_columns,
    check_rows,
    columns_match,
    rows_match,
)
from repro.core.thresholds import ABFTThresholds, resolve_thresholds

__all__ = ["MatrixCorrectionReport", "correct_matrix"]


@dataclass
class MatrixCorrectionReport:
    """Aggregate outcome of correcting one protected matrix.

    Attributes
    ----------
    detected / corrected / aborted:
        Total vector counts across every pass that ran.
    used_column_side / used_row_side:
        Which checksum sides participated.
    column_report / row_report:
        The underlying per-pass reports (``None`` when a side did not run;
        both are ``None`` when the screen found the matrix clean).
    residual_extreme:
        Number of extreme (INF/NaN/near-INF) elements remaining after all
        correction attempts — zero for every fault the scheme covers.
    checksums_recomputed:
        Whether corrupted column checksums were rebuilt from the repaired data
        (the last step of the nondeterministic-pattern procedure).
    """

    detected: int = 0
    corrected: int = 0
    aborted: int = 0
    used_column_side: bool = False
    used_row_side: bool = False
    column_report: Optional[ColumnCheckReport] = None
    row_report: Optional[ColumnCheckReport] = None
    residual_extreme: int = 0
    checksums_recomputed: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing was detected anywhere."""
        return self.detected == 0

    @property
    def fully_corrected(self) -> bool:
        """True when no extreme values survived correction."""
        return self.residual_extreme == 0


def correct_matrix(
    matrix: Any,
    checksums: ChecksumState,
    thresholds: Optional[ABFTThresholds] = None,
) -> MatrixCorrectionReport:
    """Detect and correct errors in ``matrix`` using the available checksums.

    A screen runs first: :meth:`ABFTThresholds.any_extreme` scans for INF,
    NaN and near-INF elements, then :func:`columns_match` /
    :func:`rows_match` compare the unweighted checksums of each side
    present, with the same test EEC-ABFT detects with.  The compare runs
    only on data the scan passed, so it raises no floating-point flag and
    holds no error state.  The screen finds the matrix clean exactly when
    every pass below would detect nothing, non-finite maintained checksums
    included, and then returns a *clean report*: no sub-reports
    (``column_report`` and ``row_report`` are ``None``, ``used_*_side``
    False), every count zero, nothing modified, and
    :func:`repro.core.engine.request_dirty_from_report` returns ``None`` for
    it.  No sub-reports means clean.

    Anything the screen flags is detected and corrected in place.  The
    strategy is chosen from which checksum sides are present:

    * column only  -> deterministic handling via :func:`check_columns`;
    * row only     -> deterministic handling via :func:`check_rows`;
    * both         -> nondeterministic handling: column first, row side for
      whatever the column side could not fix, then rebuild ``checksums.col``
      from the repaired data when the row side repaired anything, so
      downstream sections receive consistent checksums.

    ``thresholds=None`` takes the thresholds of the matrix's precision
    (:func:`repro.core.thresholds.resolve_thresholds`).
    """
    thresholds = resolve_thresholds(thresholds, matrix.dtype)
    report = MatrixCorrectionReport()

    if not checksums.has_col() and not checksums.has_row():
        raise ValueError("correct_matrix needs at least one checksum side")
    if (
        not thresholds.any_extreme(matrix)
        and (not checksums.has_col() or columns_match(matrix, checksums.col, thresholds))
        and (not checksums.has_row() or rows_match(matrix, checksums.row, thresholds))
    ):
        return report

    col_report: Optional[ColumnCheckReport] = None
    row_report: Optional[ColumnCheckReport] = None

    if checksums.has_col():
        col_report = check_columns(matrix, checksums.col, thresholds=thresholds)
        report.used_column_side = True
        report.column_report = col_report
        report.detected += col_report.num_detected
        report.corrected += col_report.num_corrected
        report.aborted += col_report.num_aborted

    # When both sides are maintained the pattern is nondeterministic (1R or 1C
    # depending on the fault origin, Section 4.3).  The column side runs
    # first.  If it corrected everything (the 1R / 0D case), we stop there:
    # the row checksums may themselves derive from the corrupted operand
    # (e.g. row(AS) = Q row(K^T) with a faulty Q), so consulting them after a
    # successful column-side repair would re-corrupt the data.  Otherwise —
    # the column side found nothing (possible 1C false negative, because
    # col(AS) = col(Q) K^T is consistent with a faulty K), aborted on a
    # propagated pattern, or left extreme values behind — the row side, whose
    # checksums are uncorrupted in exactly those scenarios, performs the
    # repair.
    needs_row_side = False
    if checksums.has_row():
        if not checksums.has_col():
            needs_row_side = True
        else:
            residual = bool(thresholds.is_extreme(matrix).any())
            column_fixed_everything = (
                col_report is not None
                and col_report.num_corrected > 0
                and col_report.num_aborted == 0
                and not residual
            )
            needs_row_side = not column_fixed_everything

    if needs_row_side:
        row_report = check_rows(matrix, checksums.row, thresholds=thresholds)
        report.used_row_side = True
        report.row_report = row_report
        report.detected += row_report.num_detected
        report.corrected += row_report.num_corrected
        report.aborted += row_report.num_aborted

        if checksums.has_col() and row_report.num_corrected > 0:
            # The column checksums were consistent with the corrupted data, so
            # they are now inconsistent with the repaired data: rebuild them
            # (the paper re-computes only the affected columns; re-encoding the
            # block is the vectorised equivalent).
            checksums.col = encode_column_checksums(matrix)
            report.checksums_recomputed = True

    report.residual_extreme = int(thresholds.is_extreme(matrix).sum())
    return report
