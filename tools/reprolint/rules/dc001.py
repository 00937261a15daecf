"""DC001 — dead public symbol: every public def in ``src/`` has a caller.

The repo's design goal is "each idea has one implementation": a helper that
only its own unit tests call is a second implementation nobody runs, and it
still costs review, refactoring and reading time.  This rule flags a
module-level public function or class under ``src/repro/`` whose name is
never *used* by production code — ``src/``, ``benchmarks/`` and
``examples/`` under the lint root.

A use is an ``ast.Name`` or ``ast.Attribute`` node carrying the symbol's
name.  Docstrings, comments and ``__all__`` strings are not names, and an
``__init__`` re-export is an import alias, not a name, so none of them keep
a symbol alive; neither do ``tests/`` (not scanned) nor the symbol's own
definition (recursion, a classmethod building its own class).  The check is
by bare name, so two symbols sharing a name keep each other alive — a
deliberate bias towards silence.  Methods are out of scope: their names
collide too often for a name-based check.

This is the one project-wide rule: :meth:`DeadPublicSymbolRule.prepare`
indexes every name use under the root once per run, and :meth:`check` then
reads that index per file, so the finding, fingerprint, baseline and
suppression machinery is the same as for the per-file rules.  Deliberate
public API without a production caller (test seams, the curated
``repro.__all__``) is baselined with a reviewed reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from reprolint.engine import FileContext, Finding
from reprolint.rules.base import PathScopedRule

__all__ = ["DeadPublicSymbolRule"]

#: name -> every (relpath, line) where the name is used.
NameUses = Dict[str, List[Tuple[str, int]]]


class DeadPublicSymbolRule(PathScopedRule):
    id = "DC001"
    name = "dead-public-symbol"
    invariant = (
        "Every module-level public function or class in src/repro/ is used "
        "by name somewhere in src/, benchmarks/ or examples/ outside its own "
        "definition (tests, docstrings, __all__ and __init__ re-exports do "
        "not count)."
    )
    rationale = (
        "Code only tests reach is a second implementation nobody runs: it "
        "drifts from the live path, and the src/ line count creeps back up "
        "one unreferenced helper at a time."
    )
    example = (
        "src/repro/utils/rng.py:34: DC001 public function 'spawn_rngs' is "
        "never used in src/, benchmarks/ or examples/ — delete it or "
        "baseline it with a reason"
    )

    scope_prefixes = ("src/repro/",)
    #: Directories under the lint root whose code counts as a caller.
    caller_dirs: Tuple[str, ...] = ("src", "benchmarks", "examples")

    def __init__(self) -> None:
        self.uses: NameUses = {}

    def prepare(self, root: Path) -> None:
        self.uses = _index_name_uses(Path(root), self.caller_dirs)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings = []
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            start, end = node.lineno, node.end_lineno or node.lineno
            used = any(
                path != ctx.relpath or not start <= line <= end
                for path, line in self.uses.get(node.name, ())
            )
            if used:
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            findings.append(
                self.finding(
                    ctx, node,
                    f"public {kind} '{node.name}' is never used in src/, "
                    "benchmarks/ or examples/ — delete it or baseline it "
                    "with a reason",
                    detail=f"dead:{node.name}",
                    symbol=node.name,
                )
            )
        return iter(findings)


def _index_name_uses(root: Path, dirs: Tuple[str, ...]) -> NameUses:
    """Every ``Name``/``Attribute`` use under ``root/<dir>`` for ``dirs``.

    Files that do not parse are skipped here; the runner reports them as
    ``RL999`` when they are in the linted set.
    """
    uses: NameUses = {}
    for directory in dirs:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            relpath = path.relative_to(root).as_posix()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                uses.setdefault(name, []).append((relpath, node.lineno))
    return uses
