"""BK001 — xp-genericity: no direct NumPy in ``repro.core``.

The PR 3/4 device-resident path dispatches every kernel through the
namespace of the backend that owns its arrays (``xp = namespace_of(x)``).
A direct ``import numpy`` call inside ``src/repro/core/`` silently pins that
code to host memory: a CuPy/Torch tensor flowing through it either errors or
— worse — round-trips through host NumPy, costing a hidden PCIe transfer
outside the ``xfer/*``-timed checkpoint seam and invalidating the
zero-host-round-trip claim the counting-backend tests pin on the *tested*
paths only.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from reprolint.engine import FileContext, Finding, ScopedVisitor
from reprolint.rules.base import PathScopedRule

__all__ = ["XpGenericityRule"]


class XpGenericityRule(PathScopedRule):
    id = "BK001"
    name = "xp-genericity"
    invariant = (
        "src/repro/core/ must not call NumPy directly; kernels dispatch "
        "through the owning backend's namespace (namespace_of/backend_of)."
    )
    rationale = (
        "Direct numpy calls in core silently pin device-resident data to host "
        "memory (hidden d2h/h2d round-trips outside the xfer/*-timed "
        "checkpoint seam), "
        "degrading the device-resident protection path without failing any "
        "functional test."
    )
    example = (
        "src/repro/core/patterns.py:93: BK001 direct NumPy use 'np.asarray' "
        "in xp-generic core code"
    )

    scope_prefixes = ("src/repro/core/",)
    #: Relpaths allowed to import numpy (host-side seam files).  Empty after
    #: the PR-6 cleanup: every core module is xp-generic; deliberate host
    #: work belongs behind the backend seam or in an explicitly baselined
    #: entry with a reason.
    exclude_files: Tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases: Set[str] = set()
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        aliases.add((alias.asname or alias.name).split(".")[0])
                        findings.append(
                            self.finding(
                                ctx, node,
                                f"direct NumPy import '{alias.name}' in xp-generic "
                                "core code — dispatch through namespace_of()/"
                                "backend_of() instead",
                                detail=f"import:{alias.name}",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "numpy" or module.startswith("numpy."):
                    findings.append(
                        self.finding(
                            ctx, node,
                            f"direct NumPy import 'from {module} import ...' in "
                            "xp-generic core code",
                            detail=f"import-from:{module}",
                        )
                    )
        if aliases:
            findings.extend(_AliasUseVisitor(self, ctx, aliases).collect())
        return iter(findings)


class _AliasUseVisitor(ScopedVisitor):
    """Flag every load of a numpy alias, with the enclosing symbol attached."""

    def __init__(self, rule: XpGenericityRule, ctx: FileContext, aliases: Set[str]) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.aliases = aliases
        self.findings: list = []

    def collect(self) -> list:
        self.visit(self.ctx.tree)
        return self.findings

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.aliases:
            self.findings.append(
                self.rule.finding(
                    self.ctx, node,
                    f"direct NumPy use '{node.value.id}.{node.attr}' in xp-generic "
                    "core code",
                    detail=f"use:{node.value.id}.{node.attr}",
                    symbol=self.symbol(),
                )
            )
        self.generic_visit(node)
