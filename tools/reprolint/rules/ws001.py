"""WS001 — workspace ``out=`` contract on the engine hot path.

The PR 5 zero-allocation checksum workspace exists because per-step array
allocation dominated the protection overhead at small sequence lengths.  The
engine's hot path must therefore pass every matmul a workspace-owned output
buffer through ``out=``; stack and einsum get no buffer (einsum's ``out=``
form is ~4x slower in NumPy), so every raw stack or einsum is flagged too and
must justify its allocation.  A plain ``np.matmul(a, b)`` added to
``engine.py`` reintroduces a per-step allocation that no functional test can
see — only the overhead benchmark drifts.  The contract is section-generic:
since the whole-model refactor the same engine hot path verifies every
*registered* section (attention's AS/CL/O and the FFN's FF1/FF2 alike), so a
handler added for a future block inherits the ``out=`` obligation
automatically — the rule keys on the file, not on section names.  Deliberate
exceptions (the allocating einsums) carry inline suppressions explaining
themselves.  The per-GEMM reference backend (``attention_checker.py``) is
deliberately out of scope: it exists to be the simple, allocation-per-call
baseline the fused engine is benchmarked against.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from reprolint.engine import FileContext, Finding, ScopedVisitor
from reprolint.rules.base import PathScopedRule, keyword_arg, unparse_short

__all__ = ["WorkspaceContractRule"]


class WorkspaceContractRule(PathScopedRule):
    id = "WS001"
    name = "workspace-contract"
    invariant = (
        "Engine hot-path matmul writes into a workspace buffer (out=), not a "
        "fresh allocation; a raw stack or einsum carries a suppression "
        "justifying its allocation."
    )
    rationale = (
        "The zero-allocation workspace (PR 5) is what keeps protection "
        "overhead flat at small sequence lengths; an allocating matmul on the "
        "hot path reintroduces per-step allocations that only show up as "
        "benchmark drift, never as a test failure."
    )
    example = (
        "src/repro/core/engine.py:798: WS001 allocating 'np.matmul(...)' on the "
        "engine hot path — pass a workspace buffer as out= (workspace contract)"
    )

    scope_files = ("src/repro/core/engine.py",)
    #: Allocating calls; only ``matmul`` fills a workspace buffer.
    managed_calls: Tuple[str, ...] = ("matmul", "stack", "einsum")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(_WorkspaceVisitor(self, ctx).collect())


def _writes_into_buffer(node: ast.Call) -> bool:
    out = keyword_arg(node, "out")
    return out is not None and not (isinstance(out, ast.Constant) and out.value is None)


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
            if func.attr != "matmul" or not _writes_into_buffer(node):
                remedy = (
                    "pass a workspace buffer as out="
                    if func.attr == "matmul"
                    else "suppress it with the reason it must allocate"
                )
                self.findings.append(
                    self.rule.finding(
                        self.ctx, node,
                        f"allocating '{unparse_short(node)}' on the engine hot path — "
                        f"{remedy} (workspace contract)",
                        detail=f"call:{func.attr}",
                        symbol=self.symbol(),
                    )
                )
        self.generic_visit(node)
