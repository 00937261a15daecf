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

The array-consuming methods (:meth:`ABFTThresholds.detection_tolerance`,
:meth:`ABFTThresholds.is_extreme` and :meth:`ABFTThresholds.any_extreme`)
are backend-generic: they dispatch through the namespace of whatever array
library owns their input, so thresholding runs on-device for CuPy/Torch
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.backend import namespace_of

__all__ = ["ABFTThresholds"]


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
    index_rtol:
        Tolerance on how far ``delta2/delta1`` may sit from an integer before
        the located index is considered unreliable (multiple numeric errors).
    """

    near_inf: float = 1e10
    correct: float = 1e5
    detect_rtol: float = 1e-7
    detect_atol: float = 1e-9
    index_rtol: float = 0.05

    def __post_init__(self) -> None:
        if self.near_inf <= self.correct:
            raise ValueError("near_inf threshold must exceed the correction threshold")
        if self.detect_rtol <= 0 or self.detect_atol <= 0:
            raise ValueError("detection tolerances must be positive")
        if not 0 < self.index_rtol < 0.5:
            raise ValueError("index_rtol must lie in (0, 0.5)")

    @classmethod
    def for_precision(cls, precision: str, **overrides) -> "ABFTThresholds":
        """Thresholds matched to the numerical precision of the protected GEMMs.

        The detection tolerance ``E`` must absorb the round-off of the compute
        precision: float64 kernels need ~1e-7 relative, float32 (the paper's
        training precision, or the :class:`repro.faults.PrecisionSimulationHooks`
        mode of this package) needs ~1e-4, and half precision ~1e-2.  The
        near-INF / correction thresholds are precision-independent.
        """
        tolerances = {
            "float64": (1e-7, 1e-9),
            "float32": (1e-4, 1e-6),
            "tf32": (5e-4, 1e-5),
            "bfloat16": (2e-2, 1e-4),
            "float16": (2e-2, 1e-4),
        }
        if precision not in tolerances:
            raise KeyError(
                f"unknown precision {precision!r}; expected one of {sorted(tolerances)}"
            )
        rtol, atol = tolerances[precision]
        params = {"detect_rtol": rtol, "detect_atol": atol}
        params.update(overrides)
        return cls(**params)

    def detection_tolerance(self, reference) -> Any:
        """Per-comparison tolerance ``E`` scaled by the reference magnitude."""
        xp = namespace_of(reference)
        ref = xp.abs(xp.astype(xp.asarray(reference), xp.float64, copy=False))
        ref = xp.where(xp.isfinite(ref), ref, 0.0)
        return self.detect_rtol * ref + self.detect_atol

    def is_extreme(self, values) -> Any:
        """Mask of INF / NaN / near-INF elements."""
        xp = namespace_of(values)
        values = xp.asarray(values)
        return ~xp.isfinite(values) | (xp.abs(values) > self.near_inf)

    def any_extreme(self, values) -> bool:
        """Whether any element is INF, NaN or near-INF, from one magnitude scan.

        The largest magnitude decides: the max reduction propagates a NaN
        element, and the maximum is INF or above ``near_inf`` exactly when
        some element is.  So :meth:`is_extreme` of it equals
        ``is_extreme(values).any()``, compared in the same dtype.
        """
        xp = namespace_of(values)
        values = xp.asarray(values)
        if 0 in values.shape:
            return False  # no element, and no maximum to take
        return bool(self.is_extreme(xp.max(xp.abs(values))))
