"""Error-pattern and error-type classification.

The paper classifies how a fault manifests in a matrix (Section 2.2):

* ``0D`` — a single standalone erroneous element,
* ``1R`` — errors confined to (part of) one row,
* ``1C`` — errors confined to (part of) one column,
* ``2D`` — errors spanning more than one row *and* more than one column,

and tracks which value classes appear (INF, NaN, near-INF or a mixture —
Table 2 uses the symbols ∞, Θ, N and M).  This module provides the shared
classification used by both the fault-propagation study
(:mod:`repro.faults.propagation`) and the ABFT correction logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.thresholds import ABFTThresholds

__all__ = [
    "ErrorPattern",
    "ErrorTypeSet",
    "error_mask",
    "classify_error_pattern",
    "classify_error_types",
    "describe_corruption",
]


class ErrorPattern(str, enum.Enum):
    """Spatial propagation pattern of errors inside one matrix block."""

    NONE = "none"
    ZERO_D = "0D"
    ONE_ROW = "1R"
    ONE_COL = "1C"
    TWO_D = "2D"


@dataclass(frozen=True)
class ErrorTypeSet:
    """Which extreme value classes are present in the erroneous elements."""

    has_inf: bool = False
    has_nan: bool = False
    has_near_inf: bool = False
    has_numeric: bool = False

    @property
    def empty(self) -> bool:
        return not (self.has_inf or self.has_nan or self.has_near_inf or self.has_numeric)

    @property
    def mixed(self) -> bool:
        """More than one class present (the paper's 'M' label)."""
        return sum([self.has_inf, self.has_nan, self.has_near_inf, self.has_numeric]) > 1

    def label(self) -> str:
        """Short label in the paper's Table-2 notation."""
        if self.empty:
            return "-"
        if self.mixed:
            return "M"
        if self.has_inf:
            return "INF"
        if self.has_nan:
            return "NaN"
        if self.has_near_inf:
            return "nINF"
        return "num"


def error_mask(
    observed: Any,
    reference: Optional[Any] = None,
    thresholds: Optional[ABFTThresholds] = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
) -> Any:
    """Boolean mask of erroneous elements.

    With a ``reference`` (fault-free) matrix the mask marks every element that
    differs beyond tolerance or differs in finiteness; without one it falls
    back to marking extreme values only.
    """
    thresholds = thresholds or ABFTThresholds()
    observed = np.asarray(observed)
    if reference is None:
        return thresholds.is_extreme(observed)
    reference = np.asarray(reference)
    if reference.shape != observed.shape:
        raise ValueError(
            f"reference shape {reference.shape} does not match observed shape {observed.shape}"
        )
    with np.errstate(invalid="ignore"):
        both_nan = np.isnan(observed) & np.isnan(reference)
        # Element-wise isclose spelled out (equal_nan=False): a tolerance
        # band on finite references, exact equality covering matching
        # infinities.
        close = (
            (np.abs(observed - reference) <= atol + rtol * np.abs(reference))
            & np.isfinite(reference)
        ) | (observed == reference)
    return ~(close | both_nan)


def classify_error_pattern(mask: Any) -> ErrorPattern:
    """Classify the 2-D spatial pattern of ``mask`` (last two axes are the matrix).

    Leading batch/head axes are collapsed: the classification looks at the
    union footprint across blocks, matching how the paper reports one pattern
    per matrix.
    """
    mask = np.asarray(mask).astype(np.bool_, copy=False)
    if mask.ndim < 2:
        raise ValueError("mask must have at least two dimensions")
    blocks = mask.reshape(-1, mask.shape[-2], mask.shape[-1])
    collapsed = np.sum(blocks, axis=0) > 0
    total = int(np.sum(collapsed))
    if total == 0:
        return ErrorPattern.NONE
    if total == 1:
        return ErrorPattern.ZERO_D
    n_rows = int(np.sum(np.sum(collapsed, axis=1) > 0))
    n_cols = int(np.sum(np.sum(collapsed, axis=0) > 0))
    if n_rows == 1:
        return ErrorPattern.ONE_ROW
    if n_cols == 1:
        return ErrorPattern.ONE_COL
    return ErrorPattern.TWO_D


def classify_error_types(
    observed: Any,
    mask: Any,
    thresholds: Optional[ABFTThresholds] = None,
) -> ErrorTypeSet:
    """Determine which value classes occur among the erroneous elements."""
    thresholds = thresholds or ABFTThresholds()
    observed = np.asarray(observed)
    mask = np.asarray(mask).astype(np.bool_, copy=False)
    if not mask.any():
        return ErrorTypeSet()
    values = observed[mask]
    has_nan = bool(np.isnan(values).any())
    has_inf = bool(np.isinf(values).any())
    finite = values[np.isfinite(values)]
    has_values = int(finite.shape[0]) > 0
    has_near = bool((np.abs(finite) > thresholds.near_inf).any()) if has_values else False
    has_numeric = bool((np.abs(finite) <= thresholds.near_inf).any()) if has_values else False
    return ErrorTypeSet(has_inf=has_inf, has_nan=has_nan, has_near_inf=has_near, has_numeric=has_numeric)


def describe_corruption(
    observed: Any,
    reference: Optional[Any] = None,
    thresholds: Optional[ABFTThresholds] = None,
) -> str:
    """One-token description like ``"1R-NaN"`` / ``"2D-M"`` / ``"-"``.

    This is the cell format of the paper's Table 2.
    """
    thresholds = thresholds or ABFTThresholds()
    mask = error_mask(observed, reference, thresholds=thresholds)
    pattern = classify_error_pattern(mask) if mask.any() else ErrorPattern.NONE
    if pattern is ErrorPattern.NONE:
        return "-"
    types = classify_error_types(observed, mask, thresholds=thresholds)
    return f"{pattern.value}-{types.label()}"
