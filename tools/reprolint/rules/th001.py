"""TH001 — lock discipline on worker-shared state.

The async verification worker (PR 2) shares a handful of
:class:`ProtectionEngine` attributes with the submitting thread — the inbox
deque, completion list, in-flight/epoch counters, failure slot and shutdown
flags — all documented as "guarded by ``_cv``".  Python's GIL makes single
attribute reads atomic, which is exactly why an unlocked access *passes every
test* while still being a data race in composition (check-then-act on
``_inflight``, pairing of ``_shutdown``/``_discard_on_shutdown``).  This rule
makes the convention mechanical: a shared attribute may only be touched
inside a ``with self._cv``/``with self._lock`` block, a ``*_locked`` method
(whose callers hold the lock by naming convention), or ``__init__`` (before
the worker can exist).

PR 8 extended the scope to ``repro/comm/``: the thread collective's
rendezvous state (entries / results / fetch counters / failure / closed,
guarded by ``_cv``) and the protected collective's dispatch accounting and
verdict cache (guarded by ``_lock``) are shared across every worker thread of
the data-parallel trainer, under the same discipline.  Shared attributes are
declared per file in :attr:`LockDisciplineRule.file_shared_attrs`.

The whole-model refactor (PR 9) routes the FFN sections through the same
async worker and the same inbox/epoch/staleness accounting, so the engine's
shared-attribute list is unchanged — deliberately: the section seam (the
boundary maps of ``core/hooks.py``, the registry of ``core/sections.py``)
holds immutable declarations and must stay free of worker-shared mutable
state.  A section handler that grows
its own cross-thread counter belongs in ``engine.py`` under ``_cv``, and its
attribute belongs in this map.

The overlapped trainer (PR 10) added ``repro/comm/bucketing.py`` to the
scope: :class:`BucketAccounting`'s launch/retry counters and overlap timing
accumulators are bumped from every rank's worker thread mid-backward and read
by the coordinator between steps, guarded by ``_lock``.  The thread
collective also grew a ``_deposit_copies`` counter (copy-on-deposit elision
accounting) under ``_cv``.  The bucketer and per-rank readiness trackers
stay immutable / single-threaded by design and deliberately out of the map.
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
        "Attributes shared across worker threads (verification engine, "
        "collective rendezvous, protected-collective accounting) are touched "
        "only under `with self._cv` (or `self._lock`) or inside *_locked "
        "methods."
    )
    rationale = (
        "GIL atomicity makes unlocked accesses pass every test while still "
        "racing in composition (check-then-act on _inflight, paired shutdown "
        "flags); the engine's staleness accounting and failure propagation "
        "depend on these invariants holding under the condition variable."
    )
    example = (
        "src/repro/core/engine.py:1068: TH001 worker-shared attribute "
        "'self._shutdown' accessed outside the lock [ProtectionEngine._join_worker]"
    )

    scope_files = (
        "src/repro/core/engine.py",
        "src/repro/comm/collective.py",
        "src/repro/comm/protected.py",
        "src/repro/comm/bucketing.py",
    )
    #: Lock / condition-variable attribute names that establish a guarded region.
    lock_attrs: Tuple[str, ...] = ("_cv", "_lock")
    #: Worker-shared state per scoped file (the "guarded by _cv"/"_lock"
    #: blocks in each class's __init__).
    file_shared_attrs: Dict[str, Tuple[str, ...]] = {
        "src/repro/core/engine.py": (
            "_inbox",
            "_completed",
            "_inflight",
            "_epoch",
            "_failure",
            "_shutdown",
            "_discard_on_shutdown",
        ),
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
