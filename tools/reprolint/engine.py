"""Core machinery of reprolint: findings, rules, suppressions, the runner.

Design
------
A :class:`Rule` owns one invariant (``DT001`` float64 accumulation, ``TH001``
lock discipline, ...).  The :class:`LintRunner` walks the requested paths, parses
each Python file once, hands every applicable rule a :class:`FileContext`
(source + AST + repo-relative path) and collects :class:`Finding` objects.
Before the first file, every rule's :meth:`Rule.prepare` runs once with the
lint root — the hook a project-wide rule (``DC001``) builds its cross-file
index in.

Findings carry a **fingerprint** that deliberately excludes line numbers —
``sha256(rule | path | symbol | detail | occurrence)`` — so a committed
baseline survives unrelated edits to the same file.  ``symbol`` is the dotted
chain of enclosing class/function names and ``detail`` a rule-chosen stable
token (e.g. ``"call:sum"``); ``occurrence`` disambiguates repeats of the same
token inside the same symbol, in source order.

Suppressions are inline comments::

    something_flagged()  # reprolint: disable=DT001
    # reprolint: disable=LY001,DT001   <- standalone: applies to the next line
    # reprolint: disable-file=TH001    <- anywhere: applies to the whole file

A suppression on the first line of a multi-line statement covers findings
anchored at that statement.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ScopedVisitor",
    "LintRunner",
    "LintResult",
    "parse_suppressions",
]

RULE_ID_RE = re.compile(r"[A-Z]{2}\d{3}")
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable(?P<file>-file)?\s*=\s*"
    r"(?P<rules>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
)

#: Pseudo-rule id used for files the parser rejects; never baselinable.
PARSE_ERROR_RULE = "RL999"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix path relative to the lint root
    line: int
    col: int
    message: str
    symbol: str = ""  # dotted enclosing class/function chain ("Engine._join_worker")
    detail: str = ""  # rule-chosen stable token for fingerprinting
    fingerprint: str = ""  # filled by the runner (needs the occurrence index)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        scope = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.location()}: {self.rule} {self.message}{scope}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "detail": self.detail,
            "fingerprint": self.fingerprint,
        }


@dataclass
class FileContext:
    """Everything a rule gets to look at for one file."""

    relpath: str  # posix, relative to the lint root
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, relpath: str, source: str) -> "FileContext":
        return cls(
            relpath=relpath,
            source=source,
            tree=ast.parse(source),
            lines=source.splitlines(),
        )


class Rule:
    """Base class: one machine-checked invariant.

    Subclasses set the catalog metadata (``id``/``name``/``invariant``/
    ``rationale``/``example``), decide which files they apply to via
    :meth:`applies_to`, and yield findings from :meth:`check`.  Scope
    attributes are plain class attributes so tests can subclass a rule onto
    fixture paths without touching the shipped configuration.
    """

    id: str = "RL000"
    name: str = "base-rule"
    #: One-line statement of the enforced invariant (README catalog).
    invariant: str = ""
    #: Why the invariant matters for the fault-tolerance guarantees.
    rationale: str = ""
    #: Example finding message (README catalog).
    example: str = ""

    def applies_to(self, relpath: str) -> bool:
        raise NotImplementedError

    def prepare(self, root: Path) -> None:
        """Called once per run, before any file is checked.

        Per-file rules need nothing here; a project-wide rule builds its
        cross-file index from the lint root.
        """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        detail: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
            detail=detail,
        )


class ScopedVisitor(ast.NodeVisitor):
    """AST visitor that tracks the dotted enclosing class/function chain.

    Rules subclass this and read :attr:`scope` (``["Engine", "_verify"]``)
    or :meth:`symbol` (``"Engine._verify"``) while visiting.
    """

    def __init__(self) -> None:
        self.scope: List[str] = []

    def symbol(self) -> str:
        return ".".join(self.scope)

    def function_name(self) -> str:
        """Innermost enclosing *function* name, or "" at module/class level."""
        return self._innermost_function or ""

    _innermost_function: Optional[str] = None
    _function_stack: List[str]

    def _visit_scoped(self, node: ast.AST, is_function: bool) -> None:
        self.scope.append(node.name)  # type: ignore[attr-defined]
        previous = self._innermost_function
        if is_function:
            self._innermost_function = node.name  # type: ignore[attr-defined]
        try:
            self.generic_visit(node)
        finally:
            self.scope.pop()
            self._innermost_function = previous

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, is_function=False)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, is_function=True)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, is_function=True)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def parse_suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """Extract ``# reprolint: disable[-file]=...`` comments.

    Returns ``(file_disabled, line_disabled)`` where ``line_disabled`` maps a
    1-based line number to the rule ids suppressed on it.  A *standalone*
    comment line extends its suppression to the following line, so the
    idiomatic form::

        # reprolint: disable=DT001 -- counts mask elements, not checksums
        flagged = np.sum(mask)

    works without packing the justification onto the code line.
    """
    file_disabled: Set[str] = set()
    line_disabled: Dict[int, Set[str]] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",")}
        if match.group("file"):
            file_disabled |= rules
            continue
        line_disabled.setdefault(lineno, set()).update(rules)
        if text.lstrip().startswith("#"):  # standalone comment: cover next line
            line_disabled.setdefault(lineno + 1, set()).update(rules)
    return file_disabled, line_disabled


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class LintResult:
    """Outcome of one runner invocation, split against the baseline."""

    new: List[Finding]
    baselined: List[Finding]
    suppressed: int
    stale_fingerprints: List[str]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.new


class LintRunner:
    """Walk files, run every applicable rule, fingerprint and filter findings."""

    def __init__(self, root: Path, rules: Sequence[Rule]) -> None:
        self.root = Path(root)
        self.rules = list(rules)

    # -- discovery --------------------------------------------------------------

    def collect_files(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            path = path if path.is_absolute() else self.root / path
            if path.is_dir():
                files.extend(
                    p for p in sorted(path.rglob("*.py")) if "__pycache__" not in p.parts
                )
            elif path.suffix == ".py":
                files.append(path)
        return files

    def relpath(self, path: Path) -> str:
        return path.resolve().relative_to(self.root.resolve()).as_posix()

    # -- checking ---------------------------------------------------------------

    def check_file(self, path: Path) -> List[Finding]:
        relpath = self.relpath(path)
        applicable = [rule for rule in self.rules if rule.applies_to(relpath)]
        if not applicable:
            return []
        source = path.read_text(encoding="utf-8")
        try:
            ctx = FileContext.parse(relpath, source)
        except SyntaxError as exc:
            return [
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                    detail="parse-error",
                )
            ]
        file_disabled, line_disabled = parse_suppressions(source)
        findings: List[Finding] = []
        suppressed = 0
        for rule in applicable:
            for finding in rule.check(ctx):
                if finding.rule in file_disabled or finding.rule in line_disabled.get(
                    finding.line, ()
                ):
                    suppressed += 1
                    continue
                findings.append(finding)
        self._last_suppressed = suppressed
        return self._fingerprint(findings)

    _last_suppressed: int = 0

    @staticmethod
    def _fingerprint(findings: List[Finding]) -> List[Finding]:
        # Occurrence index disambiguates identical (rule, path, symbol,
        # detail) tuples in source order, keeping fingerprints stable under
        # line-number drift but unique within a file.
        findings = sorted(findings, key=lambda f: (f.line, f.col, f.rule))
        counts: Dict[Tuple[str, str, str, str], int] = {}
        out: List[Finding] = []
        for f in findings:
            key = (f.rule, f.path, f.symbol, f.detail)
            idx = counts.get(key, 0)
            counts[key] = idx + 1
            digest = hashlib.sha256(
                "|".join([f.rule, f.path, f.symbol, f.detail, str(idx)]).encode()
            ).hexdigest()[:16]
            out.append(replace(f, fingerprint=digest))
        return out

    def run(
        self,
        paths: Sequence[Path],
        baseline_entries: Optional[Dict[str, str]] = None,
    ) -> LintResult:
        """Lint ``paths``; split findings against ``baseline_entries``.

        ``baseline_entries`` maps fingerprint -> repo-relative path.  A
        baseline entry only counts as *stale* when its file was actually
        scanned this run — linting a single file must not declare the rest of
        the baseline dead.
        """
        known = dict(baseline_entries or {})
        for rule in self.rules:
            rule.prepare(self.root)
        files = self.collect_files(paths)
        scanned = {self.relpath(path) for path in files}
        new: List[Finding] = []
        baselined: List[Finding] = []
        suppressed = 0
        seen: Set[str] = set()
        for path in files:
            findings = self.check_file(path)
            suppressed += self._last_suppressed
            for finding in findings:
                seen.add(finding.fingerprint)
                if finding.fingerprint in known and finding.rule != PARSE_ERROR_RULE:
                    baselined.append(finding)
                else:
                    new.append(finding)
        stale = sorted(
            fp for fp, path in known.items() if path in scanned and fp not in seen
        )
        return LintResult(
            new=new,
            baselined=baselined,
            suppressed=suppressed,
            stale_fingerprints=stale,
            files_checked=len(files),
        )
