"""Neural-network building blocks on top of :mod:`repro.tensor`.

This package provides the PyTorch-like module system the model zoo is built
from, and — most importantly for this reproduction — the instrumented
multi-head attention whose six GEMMs (Figure 1 of the paper) expose an
operation-boundary hook interface used by both the fault injector
(:mod:`repro.faults`) and ATTNChecker (:mod:`repro.core`).
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import Dropout, Embedding, GELUActivation, LayerNorm, Linear, TanhActivation
from repro.nn.attention import (
    SECTION_BOUNDARY_OPS,
    AttentionHooks,
    AttentionOp,
    ComposedHooks,
    GemmContext,
    MultiHeadAttention,
    RecordingHooks,
    SectionContext,
)
from repro.nn.transformer import FeedForward, TransformerLayer
from repro.nn.losses import CrossEntropyLoss

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "GELUActivation",
    "TanhActivation",
    "MultiHeadAttention",
    "AttentionHooks",
    "AttentionOp",
    "GemmContext",
    "SectionContext",
    "SECTION_BOUNDARY_OPS",
    "ComposedHooks",
    "RecordingHooks",
    "TransformerLayer",
    "FeedForward",
    "CrossEntropyLoss",
]
