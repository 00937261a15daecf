"""TH001 — lock discipline on worker-shared state.

The data-parallel trainer runs its ranks on a pool of worker threads, and
they meet in shared objects: the thread collective's rendezvous state
(entries / results / fetch counters / deposit-copy counter / failure /
closed, guarded by ``_cv``), the protected collective's dispatch accounting
and verdict cache (guarded by ``_lock``) and :class:`BucketAccounting`'s
launch/retry counters and overlap timing accumulators (guarded by
``_lock``), bumped from every rank's thread mid-backward and read by the
coordinator between steps.  Python's GIL makes single attribute reads
atomic, which is exactly why an unlocked access *passes every test* while
still being a data race in composition (check-then-act on a rendezvous
slot, a fetch count paired with the result it releases).  This rule makes
the convention mechanical: a shared attribute may only be touched inside a
``with self._cv``/``with self._lock`` block, a ``*_locked`` method (whose
callers hold the lock by naming convention), or ``__init__`` (before any
worker can see the object).  Shared attributes are declared per file in
:attr:`LockDisciplineRule.file_shared_attrs`.

The section seam (the boundary maps of ``core/hooks.py``, the registry of
``core/sections.py``) holds immutable declarations, and the protection
engine verifies inside the forward pass on the thread that runs it, so
``core/`` holds no worker-shared state and is out of the map.  The bucketer
and per-rank readiness trackers stay immutable / single-threaded by design
and are deliberately out of the map too.  Code that grows a cross-thread
counter belongs under a lock, and its attribute belongs in this map.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from reprolint.engine import FileContext, Finding
from reprolint.rules.base import PathScopedRule

__all__ = ["LockDisciplineRule"]


class LockDisciplineRule(PathScopedRule):
    id = "TH001"
    name = "lock-discipline"
    invariant = (
        "Attributes shared across worker threads (collective rendezvous, "
        "protected-collective and bucket accounting) are touched only under "
        "`with self._cv` (or `self._lock`) or inside *_locked methods."
    )
    rationale = (
        "GIL atomicity makes unlocked accesses pass every test while still "
        "racing in composition (check-then-act on a rendezvous slot, a fetch "
        "count paired with the result it releases); the collective's "
        "reduction and failure propagation depend on these invariants "
        "holding under the condition variable."
    )
    example = (
        "src/repro/comm/collective.py:253: TH001 worker-shared attribute "
        "'self._entries' accessed outside the lock [ThreadCollective.finish]"
    )

    scope_files = (
        "src/repro/comm/collective.py",
        "src/repro/comm/protected.py",
        "src/repro/comm/bucketing.py",
    )
    #: Lock / condition-variable attribute names that establish a guarded region.
    lock_attrs: Tuple[str, ...] = ("_cv", "_lock")
    #: Worker-shared state per scoped file (the "guarded by _cv"/"_lock"
    #: blocks in each class's __init__).
    file_shared_attrs: Dict[str, Tuple[str, ...]] = {
        "src/repro/comm/collective.py": (
            "_entries",
            "_results",
            "_fetched",
            "_deposit_copies",
            "_failure",
            "_closed",
        ),
        "src/repro/comm/protected.py": (
            "_checksum_encodes",
            "_checksum_verifies",
            "_mismatches",
            "_verify_seconds",
            "_allreduce_seconds",
            "_verdicts",
            "_verdict_fetches",
        ),
        "src/repro/comm/bucketing.py": (
            "_launches",
            "_overlapped_launches",
            "_retries",
            "_bucket_seconds",
            "_overlap_seconds",
            "_drain_seconds",
        ),
    }
    #: Methods that may touch shared state unlocked: construction happens
    #: before any worker thread can observe the object.
    exempt_methods: Tuple[str, ...] = ("__init__",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        shared = self.file_shared_attrs.get(ctx.relpath, ())
        if not shared:
            return iter(())
        visitor = _LockVisitor(self, ctx, shared)
        visitor.visit(ctx.tree)
        return iter(visitor.findings)


class _LockVisitor(ast.NodeVisitor):
    """Tracks lexical lock context; a nested def resets it (the closure runs
    later, not under the lock held at definition time)."""

    def __init__(
        self, rule: LockDisciplineRule, ctx: FileContext, shared: Tuple[str, ...]
    ) -> None:
        self.rule = rule
        self.ctx = ctx
        self.shared = shared
        self.findings: list = []
        self.scope: list = []
        self.lock_depth = 0
        self.current_function = ""

    def symbol(self) -> str:
        return ".".join(self.scope)

    def _is_lock_item(self, item: ast.withitem) -> bool:
        expr = item.context_expr
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self.rule.lock_attrs
        )

    def visit_With(self, node: ast.With) -> None:
        locked = any(self._is_lock_item(item) for item in node.items)
        self.lock_depth += 1 if locked else 0
        self.generic_visit(node)
        self.lock_depth -= 1 if locked else 0

    def _visit_function(self, node) -> None:
        self.scope.append(node.name)
        saved_depth, saved_fn = self.lock_depth, self.current_function
        self.lock_depth, self.current_function = 0, node.name
        try:
            self.generic_visit(node)
        finally:
            self.lock_depth, self.current_function = saved_depth, saved_fn
            self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self.scope.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.shared
            and self.lock_depth == 0
            and not self.current_function.endswith("_locked")
            and self.current_function not in self.rule.exempt_methods
        ):
            self.findings.append(
                self.rule.finding(
                    self.ctx, node,
                    f"worker-shared attribute 'self.{node.attr}' accessed outside "
                    "`with self._cv` / a *_locked method",
                    detail=f"attr:{node.attr}",
                    symbol=self.symbol(),
                )
            )
        self.generic_visit(node)
