"""reprolint command-line interface.

Exit codes: 0 clean (no new findings, no stale baseline entries), 1 new
findings or stale baseline entries, 2 usage error.  ``make lint`` and the CI
``static-analysis`` job both call this entry point, so local and CI runs are
the same invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from reprolint.baselines import Baseline
from reprolint.engine import LintResult, LintRunner
from reprolint.rules import all_rules

__all__ = ["main"]

DEFAULT_BASELINE = "tools/reprolint/baseline.json"
DEFAULT_PATHS = ("src/repro",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based invariant checker for the ATTNChecker reproduction: "
            "machine-enforces the float64-accumulation, lock-discipline, "
            "layering, no-dead-public-symbol and no-unused-import contracts."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root that relative paths and baseline paths resolve "
        "against (default: current directory)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to cover current findings (new entries get "
        "a TODO reason to be reviewed) and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list findings covered by the baseline (with their reasons)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_catalog() -> str:
    lines = ["reprolint rule catalog", ""]
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    invariant: {rule.invariant}")
        lines.append(f"    rationale: {rule.rationale}")
        if rule.example:
            lines.append(f"    example:   {rule.example}")
        lines.append("")
    return "\n".join(lines)


def _render_human(result: LintResult, baseline: Baseline, show_baselined: bool) -> str:
    lines: List[str] = []
    for finding in result.new:
        lines.append(finding.render())
    if show_baselined and result.baselined:
        lines.append("")
        lines.append(f"baselined findings ({len(result.baselined)}):")
        for finding in result.baselined:
            reason = baseline.reason_for(finding.fingerprint) or ""
            suffix = f"  (reason: {reason})" if reason else ""
            lines.append(f"  {finding.render()}{suffix}")
    if result.stale_fingerprints:
        lines.append("")
        lines.append(
            f"stale baseline entries ({len(result.stale_fingerprints)}) — the "
            "finding no longer fires; remove them from the baseline:"
        )
        for fingerprint in result.stale_fingerprints:
            entry_path = baseline.fingerprint_paths().get(fingerprint, "?")
            lines.append(f"  {fingerprint}  ({entry_path})")
    lines.append("")
    verdict = "clean" if (result.clean and not result.stale_fingerprints) else "FAILED"
    lines.append(
        f"reprolint: {verdict} — {result.files_checked} files, "
        f"{len(result.new)} new, {len(result.baselined)} baselined, "
        f"{result.suppressed} suppressed, {len(result.stale_fingerprints)} stale"
    )
    return "\n".join(lines) + "\n"


def _render_json(result: LintResult, baseline: Baseline) -> str:
    payload = {
        "files_checked": result.files_checked,
        "new": [f.to_json() for f in result.new],
        "baselined": [
            {**f.to_json(), "reason": baseline.reason_for(f.fingerprint)}
            for f in result.baselined
        ],
        "suppressed": result.suppressed,
        "stale_fingerprints": result.stale_fingerprints,
        "clean": result.clean and not result.stale_fingerprints,
    }
    return json.dumps(payload, indent=2) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _emit(_render_catalog(), args.output)
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        parser.error(f"--root {args.root!r} is not a directory")  # exits 2

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    baseline = Baseline()
    if not args.no_baseline and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            parser.error(f"cannot load baseline {baseline_path}: {exc}")

    paths = [Path(p) for p in (args.paths or DEFAULT_PATHS)]
    runner = LintRunner(root, all_rules())
    missing = [
        str(p) for p in paths if not (p if p.is_absolute() else root / p).exists()
    ]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    result = runner.run(paths, baseline.fingerprint_paths())

    if args.write_baseline:
        updated = Baseline.from_findings(result.new + result.baselined, baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        updated.save(baseline_path)
        todo = sum(1 for e in updated.entries if e.reason.startswith("TODO"))
        sys.stdout.write(
            f"reprolint: wrote {len(updated.entries)} entries to "
            f"{baseline_path} ({todo} need a reviewed reason)\n"
        )
        return 0

    if args.format == "json":
        _emit(_render_json(result, baseline), args.output)
    else:
        _emit(_render_human(result, baseline, args.show_baselined), args.output)

    return 0 if (result.clean and not result.stale_fingerprints) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
