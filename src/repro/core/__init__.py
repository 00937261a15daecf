"""ATTNChecker core: ABFT for the attention mechanism.

This package is the reproduction of the paper's primary contribution:

``thresholds``
    Numerical thresholds (T_near-INF, T_correct, detection tolerances).
``checksums``
    Checksum encoding (unweighted + weighted), propagation of checksums
    through GEMMs and bias additions, head split/merge of checksum blocks.
``eec_abft``
    The Extreme Error Correcting ABFT of Section 4.2 — per-vector detection,
    case analysis (finite / INF / NaN deltas), location and correction of
    INF, NaN and near-INF errors, vectorised over whole matrices.
``hooks``
    The block instrumentation protocol (:class:`AttentionHooks`,
    :class:`GemmContext`, :class:`SectionContext`, the one section-boundary
    op map) — defined here, at the bottom of the stack, and re-exported by
    :mod:`repro.nn.attention`, so checkers are importable without the model
    layers.
``patterns``
    Error-pattern classification (0D / 1R / 1C / 2D) and error-type mixes,
    shared with the fault-propagation study.
``correction``
    Matrix-level correction strategies for deterministic, nondeterministic
    and mixed-type patterns (Section 4.3).
``sections``
    The protection-section registry: the paper's three attention sections
    S_AS, S_CL, S_O with checksum passing (Section 4.4), the whole-model
    extension covering the FFN GEMMs (``FF1`` / ``FF2``), the protection
    scopes (``attention`` / ``attention+ffn``) and the cost accounting for
    all of them.
``engine``
    :class:`ProtectionEngine` — the fused section-level checksum-passing
    mechanics: encode once per section, carry through every member GEMM, and
    verify and correct at the section boundary, inside the forward pass.
``attention_checker``
    :class:`ATTNChecker` — the attention hook that ties everything together
    and plugs into :class:`repro.nn.MultiHeadAttention`.  A thin policy layer
    (adaptive frequencies, thresholds, statistics) over a selectable backend:
    the fused ``engine`` (default) or the reference per-GEMM implementation
    (``ATTNCheckerConfig(backend="per_gemm")``), the oracle the engine is
    compared against.
``adaptive``
    Adaptive ABFT detection frequencies (Section 4.5): Poisson error model,
    fault coverage (FC), fault-coverage efficiency (FCE) and the greedy
    frequency optimiser of Algorithm 1.
"""

from repro.core.thresholds import ABFTThresholds
from repro.core.hooks import (
    SECTION_BOUNDARY_OPS,
    AttentionHooks,
    AttentionOp,
    FeedForwardOp,
    GemmContext,
    SectionContext,
)
from repro.core.checksums import (
    ChecksumState,
    checksum_weights,
    clear_checksum_weight_cache,
    encode_column_checksums,
    encode_row_checksums,
    merge_head_column_checksums,
    split_head_column_checksums,
    stacked_checksum_weights,
    update_column_checksums_through_gemm,
)
from repro.core.eec_abft import ColumnCheckReport, check_columns, check_rows
from repro.core.patterns import ErrorPattern, classify_error_pattern, classify_error_types
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.sections import (
    PROTECT_SCOPES,
    PROTECTION_SECTIONS,
    SECTION_REGISTRY,
    ProtectionSection,
    SectionCostModel,
    sections_for_scope,
)
from repro.core.engine import ProtectionEngine, SectionOutcome, WeightEncodingCache
from repro.core.attention_checker import (
    CHECKER_BACKENDS,
    ATTNChecker,
    ATTNCheckerConfig,
    CheckerStats,
)
from repro.core.adaptive import (
    AdaptiveFrequencyOptimizer,
    ErrorRates,
    OperationVulnerability,
    SectionReliabilityModel,
    optimize_abft_frequencies,
)

__all__ = [
    "ABFTThresholds",
    "AttentionHooks",
    "AttentionOp",
    "FeedForwardOp",
    "GemmContext",
    "SectionContext",
    "SECTION_BOUNDARY_OPS",
    "ChecksumState",
    "checksum_weights",
    "stacked_checksum_weights",
    "clear_checksum_weight_cache",
    "WeightEncodingCache",
    "encode_column_checksums",
    "encode_row_checksums",
    "update_column_checksums_through_gemm",
    "split_head_column_checksums",
    "merge_head_column_checksums",
    "check_columns",
    "check_rows",
    "ColumnCheckReport",
    "ErrorPattern",
    "classify_error_pattern",
    "classify_error_types",
    "correct_matrix",
    "MatrixCorrectionReport",
    "ProtectionSection",
    "PROTECTION_SECTIONS",
    "SECTION_REGISTRY",
    "PROTECT_SCOPES",
    "sections_for_scope",
    "SectionCostModel",
    "ProtectionEngine",
    "SectionOutcome",
    "ATTNChecker",
    "ATTNCheckerConfig",
    "CheckerStats",
    "CHECKER_BACKENDS",
    "ErrorRates",
    "OperationVulnerability",
    "SectionReliabilityModel",
    "AdaptiveFrequencyOptimizer",
    "optimize_abft_frequencies",
]
