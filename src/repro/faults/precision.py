"""Training-precision simulation.

The paper trains in single precision on GPUs; this reproduction computes in
float64 (NumPy's native GEMM precision).  The extra exponent headroom of
float64 changes one behaviour that matters for the fault studies: a near-INF
value produced by an exponent-bit flip sits orders of magnitude further from
the overflow threshold, so it is far less likely to turn into INF/NaN as it
propagates (see EXPERIMENTS.md, Table 4 notes).

:class:`PrecisionSimulationHooks` closes that gap without rewriting the
substrate: it rounds the output of every attention GEMM (and the observed AP)
through a reduced-precision format — float32 by default, or bfloat16-like /
fp16-like ranges — reproducing both the quantisation and, crucially, the
*overflow semantics* of the paper's training precision.  Register it **before**
the fault injector and the checker::

    hooks = ComposedHooks([PrecisionSimulationHooks(), injector, checker])

so the injected fault and the ABFT checksums all see the same reduced-precision
values, exactly as they would inside an fp32 CUDA kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn.attention import AttentionHooks, GemmContext

__all__ = [
    "PRECISION_FORMATS",
    "PrecisionFormat",
    "PrecisionSimulationHooks",
    "precision_value_dtype",
    "simulate_precision",
]


@dataclass(frozen=True)
class PrecisionFormat:
    """Reduced-precision format description.

    Attributes
    ----------
    name:
        Human-readable name.
    max_value:
        Largest finite magnitude; values beyond it overflow to +/-inf, as they
        would in the real format.
    round_dtype:
        NumPy dtype used to quantise the mantissa (``None`` keeps float64
        mantissas and only applies the overflow threshold, which is how
        bfloat16/fp16 ranges are approximated without a native dtype).
    """

    name: str
    max_value: float
    round_dtype: Optional[np.dtype] = None


PRECISION_FORMATS: Dict[str, PrecisionFormat] = {
    "float32": PrecisionFormat("float32", float(np.finfo(np.float32).max), np.dtype(np.float32)),
    "tf32": PrecisionFormat("tf32", float(np.finfo(np.float32).max), np.dtype(np.float32)),
    "float16": PrecisionFormat("float16", 65504.0, np.dtype(np.float16)),
    "bfloat16": PrecisionFormat("bfloat16", 3.39e38, np.dtype(np.float32)),
    "float64": PrecisionFormat("float64", float(np.finfo(np.float64).max), None),
}


def simulate_precision(values: np.ndarray, fmt: PrecisionFormat) -> np.ndarray:
    """Round ``values`` through the reduced-precision format, in place.

    Finite values larger than the format's maximum overflow to signed
    infinity; NaN propagates unchanged.  The array keeps its float64 dtype so
    downstream NumPy kernels are unaffected.
    """
    if fmt.round_dtype is not None and fmt.round_dtype != values.dtype:
        with np.errstate(over="ignore", invalid="ignore"):
            rounded = values.astype(fmt.round_dtype).astype(values.dtype)
    else:
        rounded = values.copy()
    with np.errstate(invalid="ignore"):
        overflow = np.isfinite(values) & (np.abs(values) > fmt.max_value)
    if overflow.any():
        rounded = np.where(overflow, np.sign(values) * np.inf, rounded)
    values[...] = rounded
    return values


def precision_value_dtype(precision: Optional[str]):
    """NumPy dtype whose exponent layout matches a simulated precision name
    (the injector's value dtype; ``None`` keeps the output's own dtype)."""
    if precision is None:
        return None
    return {"float16": np.float16}.get(precision, np.float32)


class PrecisionSimulationHooks(AttentionHooks):
    """Round every attention GEMM output through a reduced-precision format."""

    def __init__(self, format_name: str = "float32") -> None:
        if format_name not in PRECISION_FORMATS:
            raise KeyError(
                f"unknown precision format {format_name!r}; available: {sorted(PRECISION_FORMATS)}"
            )
        self.format = PRECISION_FORMATS[format_name]
        self.gemm_outputs_processed = 0

    def on_gemm_output(self, ctx: GemmContext, out: np.ndarray) -> np.ndarray:
        self.gemm_outputs_processed += 1
        if self.format.round_dtype is None and self.format.max_value >= float(np.finfo(np.float64).max):
            return out  # float64 passthrough
        return simulate_precision(out, self.format)
