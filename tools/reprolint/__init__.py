"""reprolint — AST-based invariant checker for the ATTNChecker reproduction.

The fault-tolerance guarantees of this codebase rest on conventions that a
functional test suite cannot see regressing: checksum reductions must
accumulate in float64, worker-shared engine state must only be touched
under its lock, the layering between ``utils``/``core``/``comm``/``nn``
must not invert, every public ``src/`` symbol must have a production
caller, and no module may keep an import it does not use.  ``reprolint``
machine-enforces those contracts at CI time, on every diff.

Usage (repo root)::

    PYTHONPATH=tools:src python -m reprolint src/repro benchmarks tools examples tests \
        --baseline tools/reprolint/baseline.json

or ``make reprolint``.  See ``reprolint --list-rules`` for the rule catalog
and the README "Static analysis" section for suppression / baseline
workflows.
"""

from reprolint.engine import Finding, FileContext, LintRunner, Rule, ScopedVisitor
from reprolint.baselines import Baseline
from reprolint.rules import all_rules

__version__ = "1.0.0"

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintRunner",
    "Rule",
    "ScopedVisitor",
    "all_rules",
    "__version__",
]
