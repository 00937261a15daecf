"""DC002 — unused import: every name a module imports is used.

An import nothing reads is dead code with a cost: it keeps a dependency
edge alive (and with it import order, cycles and start-up time), and it
hides which module really needs what.  CI's ruff rule set checks only
error-class rules, so unused imports pile up unseen.  This rule flags an
imported name that the importing module never uses, in the package
(``src/repro/``) and in the benchmark harnesses, the lint tooling, the
examples and the test suite (``benchmarks/``, ``tools/``, ``examples/``,
``tests/``).

A name counts as used when any of these holds:

* an ``ast.Name`` node names it — this covers the root of an attribute
  chain (``np`` in ``np.linalg.norm``);
* it is listed in the module's ``__all__`` (a deliberate re-export);
* it appears inside a string annotation (``Optional["FeedForward"]``).

``from __future__`` imports and star imports are skipped, and so are
package ``__init__`` modules, whose imports are the package's re-exports.
The check is per module and by name, so an import used anywhere in the
module — in any function — counts as used.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from reprolint.engine import FileContext, Finding
from reprolint.rules.base import PathScopedRule

__all__ = ["UnusedImportRule"]


class UnusedImportRule(PathScopedRule):
    id = "DC002"
    name = "unused-import"
    invariant = (
        "Every name imported by a non-__init__ module under src/repro/, "
        "benchmarks/, tools/, examples/ or tests/ is used in that module: by "
        "name, in its __all__, or in a string annotation."
    )
    rationale = (
        "CI's ruff rule set checks error classes only, so an import nothing "
        "reads survives every test and review, keeping a dead dependency "
        "edge and misstating what the module needs."
    )
    example = (
        "src/repro/cli.py:12: DC002 'List' is imported but never used — "
        "delete the import"
    )

    scope_prefixes = ("src/repro/", "benchmarks/", "tools/", "examples/", "tests/")

    def applies_to(self, relpath: str) -> bool:
        return super().applies_to(relpath) and not relpath.endswith("/__init__.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        used = _used_names(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound in used:
                    continue
                findings.append(self.finding(
                    ctx, node,
                    f"'{bound}' is imported but never used — delete the import",
                    detail=f"unused-import:{bound}",
                ))
        return iter(findings)


def _used_names(tree: ast.Module) -> Set[str]:
    """Names a module reads: ``Name`` nodes, ``__all__`` entries and names
    inside string annotations."""
    used: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(_strings(node.value))
    for annotation in annotations:
        for text in _strings(annotation):
            try:
                parsed = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def _strings(node) -> Iterator[str]:
    """Every string constant inside ``node`` (``None`` yields nothing)."""
    if node is None:
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value
