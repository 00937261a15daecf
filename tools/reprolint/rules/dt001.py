"""DT001 — float64 accumulation in checksum reductions.

The PR 1 fp16/fp32 false-positive fix: encoding or recomputing a
Huang–Abraham weighted sum in the data's own (low) precision loses enough of
the sum to round-off that *fault-free* data trips the detection tolerances.
Every ``sum``-family reduction inside the checksum encode/update/detect
functions must therefore pass an explicit float64 accumulation dtype.  A
reduction that deliberately counts mask elements (integer semantics) carries
an inline suppression explaining itself.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from reprolint.engine import FileContext, Finding, ScopedVisitor
from reprolint.rules.base import PathScopedRule, keyword_arg, unparse_short

__all__ = ["Float64AccumulationRule"]

_REDUCTIONS = ("sum", "mean")


class Float64AccumulationRule(PathScopedRule):
    id = "DT001"
    name = "float64-accumulation"
    invariant = (
        "Checksum encode/update/detect reductions must accumulate in float64 "
        "(pass dtype=np.float64)."
    )
    rationale = (
        "Summing an fp16/fp32 matrix in its own precision loses enough of the "
        "weighted checksum to round-off that fault-free data exceeds the "
        "detection tolerances — coverage silently degrades into false "
        "positives (the PR 1 regression class)."
    )
    example = (
        "src/repro/core/eec_abft.py:315: DT001 reduction 'np.sum(healthy, axis=1)' "
        "must pass dtype=np.float64 [check_columns]"
    )

    scope_files = (
        "src/repro/core/checksums.py",
        "src/repro/core/eec_abft.py",
    )
    #: Functions whose reductions feed checksum comparison: the encoders,
    #: the propagation/bias adjusters, and the EEC-ABFT detection passes.
    function_prefixes: Tuple[str, ...] = ("encode_", "recompute_", "adjust_")
    function_names: Tuple[str, ...] = ("check_columns", "check_rows")

    def _in_scope(self, function: str) -> bool:
        return function in self.function_names or any(
            function.startswith(p) for p in self.function_prefixes
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(_ReductionVisitor(self, ctx).collect())


class _ReductionVisitor(ScopedVisitor):
    def __init__(self, rule: Float64AccumulationRule, ctx: FileContext) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.findings: list = []

    def collect(self) -> list:
        self.visit(self.ctx.tree)
        return self.findings

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _REDUCTIONS
            and self.rule._in_scope(self.function_name())
        ):
            dtype = keyword_arg(node, "dtype")
            if dtype is None or "float64" not in ast.unparse(dtype):
                self.findings.append(
                    self.rule.finding(
                        self.ctx, node,
                        f"reduction '{unparse_short(node)}' must pass "
                        "dtype=np.float64 (checksum accumulation contract)",
                        detail=f"call:{func.attr}",
                        symbol=self.symbol(),
                    )
                )
        self.generic_visit(node)
