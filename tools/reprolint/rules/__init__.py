"""reprolint rule registry.

``all_rules()`` returns one instance of every built-in rule in a
deterministic catalog order; the CLI and tests both go through it so the
registry is the single source of truth.
"""

from __future__ import annotations

from typing import List

from reprolint.engine import Rule
from reprolint.rules.base import PathScopedRule
from reprolint.rules.dc001 import DeadPublicSymbolRule
from reprolint.rules.dc002 import UnusedImportRule
from reprolint.rules.dt001 import Float64AccumulationRule
from reprolint.rules.th001 import LockDisciplineRule
from reprolint.rules.ly001 import LayeringRule

__all__ = [
    "PathScopedRule",
    "Float64AccumulationRule",
    "LockDisciplineRule",
    "LayeringRule",
    "DeadPublicSymbolRule",
    "UnusedImportRule",
    "all_rules",
]

_RULE_CLASSES = (
    Float64AccumulationRule,
    LockDisciplineRule,
    LayeringRule,
    DeadPublicSymbolRule,
    UnusedImportRule,
)


def all_rules() -> List[Rule]:
    """Fresh instances of every built-in rule, in catalog (ID) order."""
    return [cls() for cls in _RULE_CLASSES]
