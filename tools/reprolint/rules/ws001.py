"""WS001 — workspace ``out=`` contract on the engine hot path.

The PR 5 zero-allocation checksum workspace exists because per-step array
allocation dominated the protection overhead at small sequence lengths.  The
engine's hot path must therefore route matmul through the ``matmul_into``
helper, which reuses workspace-owned output buffers; stack and einsum have
no such helper (einsum's ``out=`` form is ~4x slower in NumPy and absent in
Torch), so every raw stack or einsum is flagged too and must justify its
allocation.  A raw ``xp.matmul(...)`` added to
``engine.py`` reintroduces a per-step allocation that no functional test can
see — only the overhead benchmark drifts.  The contract is section-generic:
since the whole-model refactor the same engine hot path verifies every
*registered* section (attention's AS/CL/O and the FFN's FF1/FF2 alike), so a
handler added for a future block inherits the ``out=`` obligation
automatically — the rule keys on the file, not on section names.  Deliberate
exceptions (the workspace-off fallback; the allocating einsums) carry inline
suppressions explaining themselves.  The
per-GEMM reference backend (``attention_checker.py``) is deliberately out of
scope: it exists to be the simple, allocation-per-call baseline the fused
engine is benchmarked against.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from reprolint.engine import FileContext, Finding, ScopedVisitor
from reprolint.rules.base import PathScopedRule, unparse_short

__all__ = ["WorkspaceContractRule"]


class WorkspaceContractRule(PathScopedRule):
    id = "WS001"
    name = "workspace-contract"
    invariant = (
        "Engine hot-path matmul goes through the workspace matmul_into "
        "helper (out= reuse), not a raw namespace call; a raw stack or "
        "einsum carries a suppression justifying its allocation."
    )
    rationale = (
        "The zero-allocation workspace (PR 5) is what keeps protection "
        "overhead flat at small sequence lengths; a raw xp.matmul on the hot "
        "path reintroduces per-step allocations that only show up as "
        "benchmark drift, never as a test failure."
    )
    example = (
        "src/repro/core/engine.py:798: WS001 raw 'xp.matmul(...)' on the "
        "engine hot path — use matmul_into (workspace out= contract)"
    )

    scope_files = ("src/repro/core/engine.py",)
    #: Allocating namespace calls; only ``matmul`` has a workspace helper.
    managed_calls: Tuple[str, ...] = ("matmul", "stack", "einsum")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(_WorkspaceVisitor(self, ctx).collect())


class _WorkspaceVisitor(ScopedVisitor):
    def __init__(self, rule: WorkspaceContractRule, ctx: FileContext) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.findings: list = []

    def collect(self) -> list:
        self.visit(self.ctx.tree)
        return self.findings

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.rule.managed_calls:
            remedy = (
                "use matmul_into"
                if func.attr == "matmul"
                else "suppress it with the reason it must allocate"
            )
            self.findings.append(
                self.rule.finding(
                    self.ctx, node,
                    f"raw '{unparse_short(node)}' on the engine hot path — "
                    f"{remedy} (workspace out= contract)",
                    detail=f"call:{func.attr}",
                    symbol=self.symbol(),
                )
            )
        self.generic_visit(node)
