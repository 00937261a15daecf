"""Shared helpers for reprolint rules."""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from reprolint.engine import Rule

__all__ = [
    "PathScopedRule",
    "attr_chain_root",
    "call_attr_name",
    "keyword_arg",
    "unparse_short",
]


class PathScopedRule(Rule):
    """Rule whose file scope is prefix/exact-path class configuration.

    ``scope_prefixes`` select directories (posix, relative to the lint
    root), ``scope_files`` individual files; ``exclude_prefixes`` /
    ``exclude_files`` carve allowlisted seams back out.  Tests point
    subclasses at fixture trees by overriding these class attributes.
    """

    scope_prefixes: Tuple[str, ...] = ()
    scope_files: Tuple[str, ...] = ()
    exclude_prefixes: Tuple[str, ...] = ()
    exclude_files: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if relpath in self.exclude_files:
            return False
        if any(relpath.startswith(prefix) for prefix in self.exclude_prefixes):
            return False
        if relpath in self.scope_files:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope_prefixes)


def attr_chain_root(node: ast.AST) -> Optional[str]:
    """Name at the root of an attribute chain (``np`` for ``np.linalg.norm``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def call_attr_name(node: ast.Call) -> Optional[str]:
    """Attribute name of an ``obj.method(...)`` call, else None."""
    return node.func.attr if isinstance(node.func, ast.Attribute) else None


def keyword_arg(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def unparse_short(node: ast.AST, limit: int = 40) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."
