"""XF001 — host-transfer leak: device→host exports only inside the seam.

The device-resident substrate (PR 3/4) guarantees a protected training step
performs **zero** host round-trips on the native path — the counting-backend
tests pin it, and the ``xfer/h2d``/``xfer/d2h`` timer keys account for every
deliberate copy at the checkpoint seam.  An untimed ``.cpu()`` /
``.numpy()`` / zero-arg ``.get()`` / ``to_numpy(...)`` anywhere else is a
synchronizing PCIe transfer the accounting never sees: it erodes the
measured overhead claims without failing a single functional test.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from reprolint.engine import FileContext, Finding, ScopedVisitor
from reprolint.rules.base import PathScopedRule, unparse_short

__all__ = ["HostTransferRule"]

#: Zero-argument method names that read as "export this array to host".
#: ``.get()`` is CuPy's device→host export; requiring zero args keeps
#: ``dict.get(key)`` out of scope.
_EXPORT_METHODS = ("cpu", "numpy", "tolist", "get")


class HostTransferRule(PathScopedRule):
    id = "XF001"
    name = "host-transfer-leak"
    invariant = (
        "Device->host exports (.cpu()/.numpy()/.get()/to_numpy) only inside "
        "the checkpoint seam, timed under xfer/*."
    )
    rationale = (
        "An untimed host export is a synchronizing PCIe copy invisible to the "
        "xfer/* accounting: the zero-host-round-trip property the counting-"
        "backend tests pin holds only for the paths those tests run, so a "
        "leak elsewhere silently invalidates the measured overhead claims."
    )
    example = (
        "src/repro/training/trainer.py:507: XF001 host export "
        "'backend_of(logits).to_numpy(predictions)' outside the xfer-timed seam "
        "[Trainer.evaluate]"
    )

    scope_prefixes = ("src/repro/",)
    #: The checkpoint seam: backend adapters implement the exports, and the
    #: checkpoint manager's save/load path is the documented, timed bulk
    #: d2h/h2d boundary.
    exclude_prefixes = ("src/repro/backend/",)
    exclude_files = ("src/repro/training/checkpoint.py",)
    #: file -> function names allowed to export (the in-file seam):
    #: ``Tensor.numpy``/``Tensor.item`` are the documented host-export API.
    seam_functions: Dict[str, Tuple[str, ...]] = {
        "src/repro/tensor/autograd.py": ("numpy", "item"),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(_TransferVisitor(self, ctx).collect())


class _TransferVisitor(ScopedVisitor):
    def __init__(self, rule: HostTransferRule, ctx: FileContext) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.seam = rule.seam_functions.get(ctx.relpath, ())
        self.findings: list = []

    def collect(self) -> list:
        self.visit(self.ctx.tree)
        return self.findings

    def _flag(self, node: ast.Call, what: str) -> None:
        if self.function_name() in self.seam:
            return
        self.findings.append(
            self.rule.finding(
                self.ctx, node,
                f"host export '{unparse_short(node)}' outside the xfer-timed "
                "seam — route through the backend seam or time it under xfer/*",
                detail=f"export:{what}",
                symbol=self.symbol(),
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _EXPORT_METHODS and not node.args and not node.keywords:
                self._flag(node, func.attr)
            elif func.attr == "to_numpy":
                self._flag(node, "to_numpy")
        self.generic_visit(node)
