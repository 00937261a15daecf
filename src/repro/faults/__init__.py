"""Fault injection and error-propagation study (Section 3 of the paper).

``injector``
    Hooks that corrupt attention GEMM outputs with INF, NaN, near-INF
    (exponent-MSB bit flip) or plain numeric errors, at controlled or random
    positions — the paper's fault model of transient compute faults.
``precision``
    Rounds every GEMM output through a reduced training precision, so faults
    see the fp32 overflow semantics of the paper's training runs.
``harness``
    One fault trial in one of four configurations and one loop over (matrix,
    error type) cells: Section 5.2's detection/correction campaign (checker
    attached), Table 2's propagation patterns (recorder attached) and
    Table 4's non-trainable-state probabilities (unprotected training).
"""

from repro.faults.injector import (
    ERROR_TYPES,
    FLIP_KINDS,
    CollectiveFaultInjector,
    CollectiveFaultSpec,
    CollectiveInjectionRecord,
    FaultInjector,
    FaultSpec,
    InjectionRecord,
    TARGET_MATRICES,
    corrupt_scalar,
)
from repro.faults.precision import PRECISION_FORMATS, PrecisionFormat, PrecisionSimulationHooks
from repro.faults.harness import (
    DOWNSTREAM_ORDER,
    CellResult,
    FaultHarness,
    Trial,
    all_corrected,
)

__all__ = [
    "ERROR_TYPES",
    "FLIP_KINDS",
    "TARGET_MATRICES",
    "FaultSpec",
    "FaultInjector",
    "InjectionRecord",
    "corrupt_scalar",
    "CollectiveFaultSpec",
    "CollectiveFaultInjector",
    "CollectiveInjectionRecord",
    "PRECISION_FORMATS",
    "PrecisionFormat",
    "PrecisionSimulationHooks",
    "DOWNSTREAM_ORDER",
    "FaultHarness",
    "Trial",
    "CellResult",
    "all_corrected",
]
