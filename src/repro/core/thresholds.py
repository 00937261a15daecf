"""Numerical thresholds used by EEC-ABFT.

The paper (Section 4.2) uses two empirical thresholds:

* ``T_near-INF = 1e10`` — values larger than this are treated as near-INF
  (extreme) errors;
* ``T_correct  = 1e5``  — corrupted values larger than this are repaired by
  *reconstruction* from the checksum and the healthy elements instead of by
  adding the checksum difference, because the difference would absorb the
  smaller elements of the vector under floating-point round-off.

Detection additionally needs a round-off tolerance ``E`` ("close enough"
comparison of recalculated and maintained checksums).  We express it as a
relative + absolute tolerance pair, scaled per comparison by the magnitude of
the checksums involved — the standard practice for ABFT on floating point.

Each test is one expression, because a clean verification runs them at
every section boundary and its cost is the number of array calls:
``E = rtol·|reference| + atol`` (:meth:`ABFTThresholds.detection_tolerance`)
and "extreme" is "not ``|x| <= limit``" (:meth:`ABFTThresholds.is_extreme`,
:meth:`ABFTThresholds.any_extreme`), which NaN fails as well as ±INF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

import numpy as np

from repro.utils.floatbits import largest_finite

__all__ = ["ABFTThresholds", "resolve_thresholds"]


@lru_cache(maxsize=None)
def _magnitude_limit(near_inf: float, dtype: Any) -> float:
    """Largest magnitude that is not extreme in ``dtype``.

    ``near_inf`` itself, unless it reaches the largest finite value of
    ``dtype`` (float16 tops out at 65504): then no finite element can pass
    it, and that largest finite value bounds the finite elements instead.
    Either way the limit is representable in ``dtype``, so comparing in the
    data's dtype casts nothing that overflows.
    """
    return min(near_inf, largest_finite(dtype))


#: Detection tolerances ``(rtol, atol)`` per compute precision (see
#: :meth:`ABFTThresholds.for_precision`).
_TOLERANCES = {
    "float64": (1e-7, 1e-9),
    "float32": (1e-4, 1e-6),
    "tf32": (5e-4, 1e-5),
    "bfloat16": (2e-2, 1e-4),
    "float16": (2e-2, 1e-4),
}


@dataclass(frozen=True)
class ABFTThresholds:
    """Threshold bundle for detection and correction.

    Attributes
    ----------
    near_inf:
        ``T_near-INF`` of the paper: magnitude above which a value counts as
        an extreme (near-INF) error.
    correct:
        ``T_correct`` of the paper: magnitude above which correction must use
        reconstruction rather than delta addition.
    detect_rtol / detect_atol:
        Relative / absolute round-off tolerance for checksum comparison (the
        paper's ``E``).  The defaults are generous enough that fault-free
        float64 GEMMs of the sizes used in the experiments never trigger a
        false positive, yet tight enough that any injected fault large enough
        to matter is detected (the vulnerability study shows benign faults
        need no correction anyway).
    """

    near_inf: float = 1e10
    correct: float = 1e5
    detect_rtol: float = 1e-7
    detect_atol: float = 1e-9

    def __post_init__(self) -> None:
        if self.near_inf <= self.correct:
            raise ValueError("near_inf threshold must exceed the correction threshold")
        if self.detect_rtol <= 0 or self.detect_atol <= 0:
            raise ValueError("detection tolerances must be positive")

    @classmethod
    def for_precision(cls, precision: str, **overrides) -> "ABFTThresholds":
        """Thresholds matched to the numerical precision of the protected GEMMs.

        The detection tolerance ``E`` must absorb the round-off of the compute
        precision: float64 kernels need ~1e-7 relative, float32 (the paper's
        training precision, or the :class:`repro.faults.PrecisionSimulationHooks`
        mode of this package) needs ~1e-4, and half precision ~1e-2.  The
        near-INF / correction thresholds are precision-independent.
        """
        if precision not in _TOLERANCES:
            raise KeyError(
                f"unknown precision {precision!r}; expected one of {sorted(_TOLERANCES)}"
            )
        rtol, atol = _TOLERANCES[precision]
        params = {"detect_rtol": rtol, "detect_atol": atol}
        params.update(overrides)
        return cls(**params)

    def detection_tolerance(self, reference) -> Any:
        """Per-comparison tolerance ``E = rtol·|reference| + atol``, in float64.

        A non-finite reference makes ``E`` non-finite too.  EEC-ABFT's
        mismatch test (:func:`repro.core.eec_abft._unweighted_check`)
        therefore also requires a finite reference: the difference against
        a non-finite checksum is itself INF or NaN, which ``|Δ| <= E`` would
        accept when ``E`` is INF.
        """
        ref = np.asarray(reference).astype(np.float64, copy=False)
        return self.detect_rtol * np.abs(ref) + self.detect_atol

    def is_extreme(self, values) -> Any:
        """Mask of INF / NaN / near-INF elements: not ``|x| <= limit``.

        The limit is ``near_inf``, compared in the data's dtype; when
        ``near_inf`` exceeds the largest finite value of that dtype, no
        finite element can pass it, and the test is the non-finite test
        (see :func:`_magnitude_limit`).  NaN fails every comparison, so it
        is extreme without a separate finiteness test.
        """
        values = np.asarray(values)
        return ~(np.abs(values) <= _magnitude_limit(self.near_inf, values.dtype))

    def any_extreme(self, values) -> bool:
        """Whether any element is INF, NaN or near-INF, from one magnitude scan.

        The largest magnitude decides: the max reduction propagates a NaN
        element, and the maximum is INF or above the limit exactly when
        some element is.  So this equals ``is_extreme(values).any()``,
        compared in the same dtype.
        """
        values = np.abs(values)
        if 0 in values.shape:
            return False  # no element, and no maximum to take
        return not values.max() <= _magnitude_limit(self.near_inf, values.dtype)


@lru_cache(maxsize=None)
def _dtype_thresholds(dtype: Any) -> ABFTThresholds:
    name = np.dtype(dtype).name
    return ABFTThresholds.for_precision(name) if name in _TOLERANCES else ABFTThresholds()


def resolve_thresholds(thresholds: Optional[ABFTThresholds], dtype: Any) -> ABFTThresholds:
    """``thresholds``, or when ``None`` the thresholds of ``dtype``'s precision.

    The checks call this with the checked matrix's dtype, so a checker built
    without thresholds judges float32 data with float32 tolerances.  A dtype
    :meth:`ABFTThresholds.for_precision` does not know gets the defaults,
    which are also what float64 resolves to.  Cached per dtype.
    """
    return thresholds if thresholds is not None else _dtype_thresholds(dtype)
