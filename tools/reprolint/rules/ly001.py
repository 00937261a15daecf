"""LY001 — layering: core is the bottom of the model stack, utils below it.

``repro.core`` (checksum math, the protection engine) must be importable
without pulling in the model zoo, the nn layer, or training — that is what
lets the ABFT kernels be tested and reused standalone, and what keeps the
dependency graph acyclic when nn/models/training all import core.
``repro.utils`` sits below everything: bit views, timers and the weights
version must not know about checksums or models.  ``repro.comm`` sits
beside core just above utils: the collectives move arrays and checksum
them, so they may import ``repro.utils`` but nothing of the model stack —
that is what lets the protected all-reduce be reused under any trainer.

The whole-model refactor (PR 9) raised the stakes on this contract: the
boundary maps of ``core/hooks.py`` and the section registry of
``core/sections.py`` are the seam that *every* instrumented block —
attention and FFN alike — declares itself through, and
``repro.nn.attention`` re-exports those types downward-only.
The forbidden maps therefore also name the newer upper layers (``faults``,
``serving``, ``analysis``): a block-specific import sneaking into the
registry would re-specialize the seam the refactor just generalized.
Annotation-only dependencies are fine when gated behind
``if TYPE_CHECKING:`` (they vanish at runtime).

The gradient bucketer (PR 10, ``comm/bucketing.py``) lives under the same
``src/repro/comm/`` prefix and inherits the contract automatically: it
partitions and flattens raw arrays, so it may import ``repro.utils`` but not
``repro.tensor`` (autograd) or the trainer that drives it — the readiness
hooks are wired up in ``repro.training``, above the seam.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from reprolint.engine import FileContext, Finding
from reprolint.rules.base import PathScopedRule

__all__ = ["LayeringRule"]


class LayeringRule(PathScopedRule):
    id = "LY001"
    name = "layering"
    invariant = (
        "core/ must not import nn/models/training/data/cli; comm/ must not "
        "import core or the model stack; utils/ must not import any repro "
        "layer above it (TYPE_CHECKING-gated imports are exempt)."
    )
    rationale = (
        "Upward imports make the checksum kernels untestable standalone and "
        "create import cycles the moment a higher layer grows a core "
        "dependency; the layering is the contract that keeps core reusable."
    )
    example = (
        "src/repro/core/attention_checker.py:89: LY001 upward import "
        "'repro.nn.attention' from layer core"
    )

    scope_prefixes = ("src/repro/core/", "src/repro/utils/", "src/repro/comm/")
    #: layer prefix -> forbidden import prefixes (dotted module names).
    forbidden: Dict[str, Tuple[str, ...]] = {
        "src/repro/core/": (
            "repro.nn",
            "repro.models",
            "repro.training",
            "repro.data",
            "repro.cli",
            "repro.faults",
            "repro.serving",
            "repro.analysis",
        ),
        "src/repro/comm/": (
            "repro.core",
            "repro.nn",
            "repro.models",
            "repro.training",
            "repro.data",
            "repro.cli",
            "repro.tensor",
            "repro.faults",
            "repro.serving",
            "repro.analysis",
        ),
        "src/repro/utils/": (
            "repro.core",
            "repro.comm",
            "repro.nn",
            "repro.models",
            "repro.training",
            "repro.data",
            "repro.cli",
            "repro.tensor",
            "repro.faults",
            "repro.serving",
            "repro.analysis",
            "repro.perfmodel",
        ),
    }

    def _forbidden_for(self, relpath: str) -> Tuple[str, ...]:
        for prefix, banned in self.forbidden.items():
            if relpath.startswith(prefix):
                return banned
        return ()

    @staticmethod
    def _matches(module: str, banned: Tuple[str, ...]) -> bool:
        return any(module == b or module.startswith(b + ".") for b in banned)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        banned = self._forbidden_for(ctx.relpath)
        if not banned:
            return iter(())
        layer = ctx.relpath.split("/")[2] if ctx.relpath.count("/") >= 2 else "?"
        findings = []
        type_checking_spans = _type_checking_linenos(ctx.tree)
        for node in ast.walk(ctx.tree):
            modules = ()
            if isinstance(node, ast.Import):
                modules = tuple(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = (node.module,)
            for module in modules:
                if self._matches(module, banned) and node.lineno not in type_checking_spans:
                    findings.append(
                        self.finding(
                            ctx, node,
                            f"upward import '{module}' from layer {layer} — "
                            "move the shared type down or gate it behind "
                            "`if TYPE_CHECKING:`",
                            detail=f"import:{module}",
                        )
                    )
        return iter(findings)


def _type_checking_linenos(tree: ast.AST) -> set:
    """Line numbers lexically inside ``if TYPE_CHECKING:`` bodies."""
    lines: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for child in node.body:
                end = getattr(child, "end_lineno", child.lineno)
                lines.update(range(child.lineno, end + 1))
    return lines


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False
