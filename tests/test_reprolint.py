"""Tests for reprolint, the AST-based invariant checker (tools/reprolint).

Every rule gets a positive fixture (the invariant violated → the rule fires)
and a negative fixture (compliant code → silence), exercised on synthetic
trees that mirror the real repo layout.  The engine-level behaviours —
inline suppressions, line-number-free fingerprints, the committed-baseline
round trip and stale-entry detection — are covered separately, and a final
gate test runs the real tool over ``src/repro`` against the committed
baseline, which is exactly the CI ``static-analysis`` job.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from reprolint.baselines import Baseline, BaselineEntry  # noqa: E402
from reprolint.cli import main as reprolint_main  # noqa: E402
from reprolint.engine import (  # noqa: E402
    PARSE_ERROR_RULE,
    LintRunner,
    parse_suppressions,
)
from reprolint.rules import (  # noqa: E402
    DeadPublicSymbolRule,
    UnusedImportRule,
    all_rules,
)


def write_tree(root: Path, files: dict) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def per_file_rules():
    """Every rule except the dead-code rules DC001 and DC002.

    A fixture tree's lone defs have no callers and its imports are often
    left unused, so DC001 and DC002 would fire on the fixtures of every
    other rule; they get fixtures of their own below.
    """
    return [rule for rule in all_rules() if rule.id not in ("DC001", "DC002")]


def lint(root: Path, files: dict, baseline=None, rules=None):
    write_tree(root, files)
    runner = LintRunner(root, per_file_rules() if rules is None else rules)
    return runner.run([Path("src/repro")], baseline)


def rules_fired(result):
    return sorted({f.rule for f in result.new})


# ---------------------------------------------------------------------------
# rule registry / catalog
# ---------------------------------------------------------------------------


def test_registry_ids_and_catalog_metadata():
    rules = all_rules()
    assert [r.id for r in rules] == [
        "DT001", "TH001", "LY001", "DC001", "DC002",
    ]
    for rule in rules:
        assert rule.invariant, rule.id
        assert rule.rationale, rule.id
        assert rule.example, rule.id


# ---------------------------------------------------------------------------
# DT001 — float64 accumulation
# ---------------------------------------------------------------------------


def test_dt001_flags_reduction_without_float64(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                return xp.sum(x, axis=0)
        """,
    })
    assert rules_fired(result) == ["DT001"]
    assert result.new[0].detail == "call:sum"


def test_dt001_silent_with_float64_dtype_or_outside_scope(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                return xp.sum(x, axis=0, dtype=xp.float64)

            def some_helper(x, xp):
                return xp.sum(x, axis=0)  # not a checksum encode/detect function
        """,
        # sum without dtype in a non-checksum core file is out of DT001 scope
        "src/repro/core/other.py": """
            def encode_thing(x, xp):
                return xp.mean(x)
        """,
    })
    assert result.new == []


def test_dt001_flags_eec_abft_check_functions(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/eec_abft.py": """
            def check_columns(flat, xp):
                return xp.sum(flat, axis=1)
        """,
    })
    assert rules_fired(result) == ["DT001"]


# ---------------------------------------------------------------------------
# TH001 — lock discipline
# ---------------------------------------------------------------------------


def test_th001_flags_unlocked_shared_attribute_access(tmp_path):
    result = lint(tmp_path, {
        "src/repro/comm/collective.py": """
            class ThreadCollective:
                def close(self):
                    self._closed = True
        """,
    })
    assert rules_fired(result) == ["TH001"]
    assert result.new[0].symbol == "ThreadCollective.close"


def test_th001_silent_under_lock_in_locked_methods_and_init(tmp_path):
    result = lint(tmp_path, {
        "src/repro/comm/collective.py": """
            class ThreadCollective:
                def __init__(self):
                    self._closed = False
                    self._failure = None

                def close(self):
                    with self._cv:
                        self._closed = True

                def _take_result_locked(self, key):
                    return self._results[key]
        """,
    })
    assert result.new == []


def test_th001_nested_function_resets_lock_context(tmp_path):
    # A closure defined under the lock runs later, without it.
    result = lint(tmp_path, {
        "src/repro/comm/collective.py": """
            class ThreadCollective:
                def finish(self):
                    with self._cv:
                        def callback():
                            return self._fetched
                        return callback
        """,
    })
    assert rules_fired(result) == ["TH001"]


def test_th001_covers_comm_collective_rendezvous_state(tmp_path):
    result = lint(tmp_path, {
        "src/repro/comm/collective.py": """
            class ThreadCollective:
                def contribute(self):
                    self._entries["k"] = []

                def finish(self):
                    with self._cv:
                        return self._results["k"]
        """,
    })
    assert rules_fired(result) == ["TH001"]
    assert result.new[0].detail == "attr:_entries"


def test_th001_covers_protected_collective_accounting(tmp_path):
    result = lint(tmp_path, {
        "src/repro/comm/protected.py": """
            class ProtectedCollective:
                def __init__(self):
                    self._mismatches = 0

                def counters(self):
                    return self._checksum_encodes

                def fold_timers(self):
                    with self._lock:
                        self._verify_seconds = 0.0
        """,
    })
    assert rules_fired(result) == ["TH001"]
    assert result.new[0].detail == "attr:_checksum_encodes"


def test_th001_shared_attrs_are_per_file(tmp_path):
    # One file's shared attr names are not shared state in another scoped
    # file — the rule scopes its attribute sets per file — and a file outside
    # the map (the protection engine, which holds no worker-shared state)
    # is not checked at all.
    result = lint(tmp_path, {
        "src/repro/comm/collective.py": """
            class ThreadCollective:
                def poke(self):
                    self._launches = 0
        """,
        "src/repro/comm/bucketing.py": """
            class BucketAccounting:
                def poke(self):
                    self._entries = {}
        """,
        "src/repro/core/engine.py": """
            class ProtectionEngine:
                def poke(self):
                    self._entries = {}
        """,
    })
    assert result.new == []


def test_th001_covers_bucket_accounting(tmp_path):
    # BucketAccounting's launch counters and overlap timing accumulators are
    # bumped from every rank's worker thread mid-backward; unlocked access is
    # a finding, locked access and __init__ are clean.
    result = lint(tmp_path, {
        "src/repro/comm/bucketing.py": """
            class BucketAccounting:
                def __init__(self):
                    self._launches = 0

                def record_launch(self):
                    self._overlapped_launches += 1

                def counters(self):
                    with self._lock:
                        return self._retries
        """,
    })
    assert rules_fired(result) == ["TH001"]
    assert result.new[0].detail == "attr:_overlapped_launches"


def test_th001_covers_deposit_copy_counter(tmp_path):
    # The copy-on-deposit elision counter is rendezvous state like the
    # entries map: reads outside _cv are findings too.
    result = lint(tmp_path, {
        "src/repro/comm/collective.py": """
            class ThreadCollective:
                def deposit_copies(self):
                    return self._deposit_copies
        """,
    })
    assert rules_fired(result) == ["TH001"]
    assert result.new[0].detail == "attr:_deposit_copies"


def test_th001_registry_seam_files_hold_no_shared_state(tmp_path):
    # The op/section registries are immutable declarations: hooks.py and
    # sections.py carry no worker-shared attribute set, so even a collective
    # attr name touched there is out of scope.  Cross-thread state, should a
    # section handler ever grow some, belongs under a lock and in the rule's
    # map.
    result = lint(tmp_path, {
        "src/repro/core/hooks.py": """
            class OpRegistry:
                def poke(self):
                    self._entries = {}
        """,
        "src/repro/core/sections.py": """
            class SectionRegistry:
                def poke(self):
                    self._failure = None
        """,
    })
    assert result.new == []


# ---------------------------------------------------------------------------
# LY001 — layering
# ---------------------------------------------------------------------------


def test_ly001_flags_upward_imports(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checker.py": "from repro.nn.attention import AttentionHooks\n",
        "src/repro/utils/helper.py": "import repro.core.checksums\n",
    })
    ly = [f for f in result.new if f.rule == "LY001"]
    assert {f.detail for f in ly} == {
        "import:repro.nn.attention",
        "import:repro.core.checksums",
    }


def test_ly001_allows_type_checking_gated_and_downward_imports(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/adaptive.py": """
            from typing import TYPE_CHECKING

            from repro.utils.floatbits import largest_finite

            if TYPE_CHECKING:
                from repro.models.config import ModelConfig
        """,
        # nn importing core is the sanctioned direction
        "src/repro/nn/attention.py": "from repro.core.hooks import AttentionHooks\n",
    })
    assert result.new == []


def test_ly001_comm_layer_sits_beside_core_above_utils(tmp_path):
    result = lint(tmp_path, {
        # comm may import utils...
        "src/repro/comm/collective.py": """
            from repro.utils.timing import TimingRegistry
        """,
        # ...but not core or the model stack.
        "src/repro/comm/protected.py": """
            from repro.core.checksums import encode_column_checksums
            from repro.training.trainer import Trainer
        """,
    })
    ly = [f for f in result.new if f.rule == "LY001"]
    assert {f.detail for f in ly} == {
        "import:repro.core.checksums",
        "import:repro.training.trainer",
    }


def test_ly001_registry_seam_must_not_import_newer_upper_layers(tmp_path):
    # The op/section registries are the seam every instrumented block declares
    # itself through; the forbidden maps also cover the layers that postdate
    # the original rule (faults / serving / analysis), so a block-specific
    # import cannot re-specialize the generalized seam.
    result = lint(tmp_path, {
        "src/repro/core/hooks.py": "from repro.faults.injector import FaultSpec\n",
        "src/repro/core/sections.py": "import repro.serving.engine\n",
        "src/repro/comm/collective.py": "from repro.analysis import reporting\n",
    })
    ly = [f for f in result.new if f.rule == "LY001"]
    assert {f.detail for f in ly} == {
        "import:repro.faults.injector",
        "import:repro.serving.engine",
        "import:repro.analysis",
    }


def test_ly001_bucketing_inherits_the_comm_contract(tmp_path):
    # comm/bucketing.py operates on raw arrays; importing the autograd
    # tensor layer (where the readiness hooks live) or the trainer that
    # drives it would invert the seam.
    result = lint(tmp_path, {
        "src/repro/comm/bucketing.py": """
            from repro.utils.timing import TimingRegistry
            from repro.tensor.autograd import Tensor
            from repro.training.parallel import DataParallelTrainer
        """,
    })
    ly = [f for f in result.new if f.rule == "LY001"]
    assert {f.detail for f in ly} == {
        "import:repro.tensor.autograd",
        "import:repro.training.parallel",
    }


def test_ly001_nn_reexport_of_registry_types_is_downward(tmp_path):
    # repro.nn.attention re-exporting the registry enums (FeedForwardOp,
    # SECTION_BOUNDARY_OPS) is the sanctioned direction: nn -> core.
    result = lint(tmp_path, {
        "src/repro/nn/attention.py": """
            from repro.core.hooks import (
                SECTION_BOUNDARY_OPS,
                AttentionOp,
                FeedForwardOp,
            )
        """,
    })
    assert result.new == []


# ---------------------------------------------------------------------------
# DC001 — dead public symbol (project-wide)
# ---------------------------------------------------------------------------


def lint_dc001(root: Path, files: dict):
    return lint(root, files, rules=[DeadPublicSymbolRule()])


def dead_symbols(result):
    return sorted(f.symbol for f in result.new if f.rule == "DC001")


def test_dc001_flags_unreferenced_function_and_class(tmp_path):
    result = lint_dc001(tmp_path, {
        "src/repro/utils/helpers.py": """
            def unused_helper(x):
                return x

            class UnusedThing:
                pass
        """,
    })
    assert dead_symbols(result) == ["UnusedThing", "unused_helper"]
    finding = result.new[0]
    assert finding.detail == f"dead:{finding.symbol}"
    assert finding.path == "src/repro/utils/helpers.py"


def test_dc001_silent_when_used_from_src_benchmarks_or_examples(tmp_path):
    result = lint_dc001(tmp_path, {
        "src/repro/utils/helpers.py": """
            def used_in_src(x):
                return x

            def used_in_benchmark(x):
                return x

            class UsedInExample:
                pass
        """,
        "src/repro/core/engine.py": """
            from repro.utils.helpers import used_in_src

            def _protect(x):
                return used_in_src(x)
        """,
        "benchmarks/bench_helpers.py": """
            from repro.utils import helpers

            def _run():
                return helpers.used_in_benchmark(1)
        """,
        "examples/demo.py": """
            from repro.utils.helpers import UsedInExample

            UsedInExample()
        """,
    })
    assert dead_symbols(result) == []


def test_dc001_ignores_private_names_and_methods(tmp_path):
    result = lint_dc001(tmp_path, {
        "src/repro/utils/helpers.py": """
            def _private_helper():
                return 1

            class _Private:
                def public_method(self):
                    return 2
        """,
    })
    assert dead_symbols(result) == []


def test_dc001_references_that_do_not_count(tmp_path):
    # A docstring, a comment, __all__, an __init__ re-export, the symbol's
    # own body and tests/ do not keep a symbol alive.
    result = lint_dc001(tmp_path, {
        "src/repro/utils/helpers.py": """
            \"\"\"Helpers: see :func:`in_docstring`.\"\"\"

            __all__ = ["in_all", "in_docstring", "in_comment"]

            def in_docstring():
                return 1

            def in_comment():  # in_comment is referenced here only
                return 2

            def in_all():
                return 3

            def reexported():
                return 4

            def recursive(n):
                return recursive(n - 1) if n else 0

            class SelfBuilding:
                @classmethod
                def make(cls):
                    return SelfBuilding()

            def in_tests():
                return 5
        """,
        "src/repro/utils/__init__.py": """
            from repro.utils.helpers import reexported, in_all

            __all__ = ["reexported", "in_all"]
        """,
        "tests/test_helpers.py": """
            from repro.utils.helpers import in_tests

            def test_it():
                assert in_tests() == 5
        """,
    })
    assert dead_symbols(result) == [
        "SelfBuilding", "in_all", "in_comment", "in_docstring", "in_tests",
        "recursive", "reexported",
    ]


def test_dc001_index_covers_the_root_when_linting_one_file(tmp_path):
    write_tree(tmp_path, {
        "src/repro/utils/helpers.py": "def used_elsewhere():\n    return 1\n",
        "src/repro/core/engine.py": (
            "from repro.utils.helpers import used_elsewhere\n"
            "VALUE = used_elsewhere()\n"
        ),
    })
    runner = LintRunner(tmp_path, [DeadPublicSymbolRule()])
    result = runner.run([Path("src/repro/utils/helpers.py")])
    assert result.files_checked == 1
    assert result.new == []


def test_dc001_suppression_and_baseline(tmp_path):
    files = {
        "src/repro/utils/helpers.py": """
            def kept_on_purpose():  # reprolint: disable=DC001
                return 1

            def baselined():
                return 2
        """,
    }
    result = lint_dc001(tmp_path, files)
    assert dead_symbols(result) == ["baselined"]
    assert result.suppressed == 1
    gated = lint(
        tmp_path, files, baseline=Baseline.from_findings(result.new).fingerprint_paths(),
        rules=[DeadPublicSymbolRule()],
    )
    assert gated.clean and len(gated.baselined) == 1


# ---------------------------------------------------------------------------
# DC002 — unused import
# ---------------------------------------------------------------------------


def unused_imports(result):
    return sorted(f.detail for f in result.new if f.rule == "DC002")


def test_dc002_flags_unused_imports(tmp_path):
    result = lint(tmp_path, {
        "src/repro/utils/helpers.py": """
            import os
            import os.path as osp
            import xml.dom
            from typing import Dict, List
            from repro.core import hooks as core_hooks

            def sizes(items: List[int]) -> int:
                return len(items)
        """,
    }, rules=[UnusedImportRule()])
    assert unused_imports(result) == [
        "unused-import:Dict", "unused-import:core_hooks", "unused-import:os",
        "unused-import:osp", "unused-import:xml",
    ]
    assert {f.path for f in result.new} == {"src/repro/utils/helpers.py"}


def test_dc002_silent_on_uses_all_string_annotations_and_init(tmp_path):
    result = lint(tmp_path, {
        "src/repro/utils/helpers.py": """
            from __future__ import annotations

            import numpy as np
            from typing import TYPE_CHECKING, Optional
            from repro.core.hooks import AttentionOp, GemmContext

            if TYPE_CHECKING:
                from repro.nn.transformer import FeedForward

            __all__ = ["AttentionOp", "first"]

            def first(ctx: "GemmContext", ffn: Optional["FeedForward"]) -> float:
                return float(np.linalg.norm(ctx.a))
        """,
        "src/repro/utils/__init__.py": """
            from repro.utils.helpers import first
        """,
    }, rules=[UnusedImportRule()])
    assert result.new == []


def test_dc002_flags_unused_imports_in_benchmarks_tools_and_examples(tmp_path):
    write_tree(tmp_path, {
        "benchmarks/bench_helpers.py": """
            import json
            import os

            def dump(obj):
                return json.dumps(obj)
        """,
        "tools/reprolint/rules/helpers.py": """
            from typing import Dict, List

            def count(items: List[str]) -> int:
                return len(items)
        """,
        "examples/walkthrough.py": """
            import numpy as np
        """,
        "tests/test_helpers.py": """
            import os
        """,
    })
    runner = LintRunner(tmp_path, [UnusedImportRule()])
    result = runner.run([Path(p) for p in ("benchmarks", "tools", "examples", "tests")])
    assert sorted((f.path, f.detail) for f in result.new) == [
        ("benchmarks/bench_helpers.py", "unused-import:os"),
        ("examples/walkthrough.py", "unused-import:np"),
        ("tests/test_helpers.py", "unused-import:os"),
        ("tools/reprolint/rules/helpers.py", "unused-import:Dict"),
    ]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_inline_suppression_silences_one_line(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                first = xp.sum(x, axis=0)  # reprolint: disable=DT001
                second = xp.sum(x, axis=0)
                return first, second
        """,
    })
    assert len([f for f in result.new if f.rule == "DT001"]) == 1
    assert result.suppressed == 1


def test_standalone_suppression_comment_covers_next_line(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                # reprolint: disable=DT001
                return xp.sum(x, axis=0)
        """,
    })
    assert result.new == []
    assert result.suppressed == 1


def test_file_level_suppression_and_multi_rule_syntax(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checksums.py": """
            # reprolint: disable-file=DT001,LY001
            from repro.nn.attention import AttentionHooks

            def encode_column_checksums(x, xp):
                return xp.sum(x, axis=0)
        """,
    })
    assert result.new == []
    assert result.suppressed == 2


def test_parse_suppressions_shapes():
    file_disabled, line_disabled = parse_suppressions(
        "x = 1  # reprolint: disable=DT001,LY001\n"
        "# reprolint: disable-file=TH001\n"
    )
    assert file_disabled == {"TH001"}
    assert line_disabled[1] == {"DT001", "LY001"}


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprints_survive_line_number_drift(tmp_path):
    source = """
        def encode_column_checksums(x, xp):
            return xp.sum(x, axis=0)
    """
    first = lint(tmp_path / "a", {"src/repro/core/checksums.py": source})
    shifted = "\n\n\n# a comment\n" + textwrap.dedent(source)
    second = lint(tmp_path / "b", {"src/repro/core/checksums.py": shifted})
    assert first.new[0].fingerprint == second.new[0].fingerprint
    assert first.new[0].line != second.new[0].line


def test_fingerprints_distinguish_repeated_identical_findings(tmp_path):
    result = lint(tmp_path, {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                return xp.sum(x, axis=0) + xp.sum(x, axis=0)
        """,
    })
    prints = [f.fingerprint for f in result.new]
    assert len(prints) == 2
    assert len(set(prints)) == 2


# ---------------------------------------------------------------------------
# baseline round trip
# ---------------------------------------------------------------------------


def test_baseline_round_trip_and_gating(tmp_path):
    files = {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                return xp.sum(x, axis=0)
        """,
    }
    result = lint(tmp_path, files)
    assert len(result.new) == 1

    baseline = Baseline.from_findings(result.new)
    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.fingerprint_paths() == baseline.fingerprint_paths()
    assert loaded.entries[0].reason.startswith("TODO")

    gated = lint(tmp_path, files, baseline=loaded.fingerprint_paths())
    assert gated.new == []
    assert len(gated.baselined) == 1
    assert gated.clean


def test_baseline_preserves_curated_reasons_on_rewrite(tmp_path):
    files = {
        "src/repro/core/checksums.py": """
            def encode_column_checksums(x, xp):
                return xp.sum(x, axis=0)
        """,
    }
    result = lint(tmp_path, files)
    first = Baseline.from_findings(result.new)
    curated = Baseline(entries=[
        BaselineEntry(**{**e.to_json(), "reason": "reviewed: deliberate"})
        for e in first.entries
    ])
    rewritten = Baseline.from_findings(result.new, previous=curated)
    assert rewritten.entries[0].reason == "reviewed: deliberate"


def test_stale_baseline_entries_scoped_to_scanned_files(tmp_path):
    files = {
        "src/repro/core/engine.py": "def _protect(xp):\n    return xp\n",
    }
    stale_entry = {"deadbeefdeadbeef": "src/repro/core/engine.py"}
    result = lint(tmp_path, files, baseline=stale_entry)
    assert result.stale_fingerprints == ["deadbeefdeadbeef"]
    assert not result.clean or result.stale_fingerprints  # CLI treats stale as failure

    unscanned_entry = {"deadbeefdeadbeef": "src/repro/training/trainer.py"}
    result = lint(tmp_path / "other", files, baseline=unscanned_entry)
    assert result.stale_fingerprints == []


def test_parse_error_reports_rl999_and_is_never_baselined(tmp_path):
    files = {"src/repro/core/broken.py": "def broken(:\n"}
    result = lint(tmp_path, files)
    assert [f.rule for f in result.new] == [PARSE_ERROR_RULE]
    fingerprint = result.new[0].fingerprint
    gated = lint(
        tmp_path, files, baseline={fingerprint: "src/repro/core/broken.py"}
    )
    assert [f.rule for f in gated.new] == [PARSE_ERROR_RULE]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli_tree(tmp_path: Path) -> Path:
    # An upward import is the one finding: the CLI runs every rule, and a
    # public function here would draw DC001 as well.
    write_tree(tmp_path, {
        "src/repro/core/engine.py": """
            from repro.nn.attention import AttentionHooks

            _BASE = AttentionHooks
        """,
    })
    return tmp_path


def test_cli_exit_codes_and_json_output(tmp_path, capsys):
    root = _cli_tree(tmp_path)
    code = reprolint_main(["--root", str(root), "--format", "json", "src/repro"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["clean"] is False
    assert [f["rule"] for f in payload["new"]] == ["LY001"]

    code = reprolint_main(["--root", str(root), "--write-baseline", "src/repro"])
    capsys.readouterr()
    assert code == 0
    assert (root / "tools/reprolint/baseline.json").is_file()

    code = reprolint_main(["--root", str(root), "src/repro"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out


def test_cli_output_file_and_list_rules(tmp_path, capsys):
    root = _cli_tree(tmp_path)
    report = root / "report.json"
    code = reprolint_main([
        "--root", str(root), "--format", "json", "--output", str(report),
        "src/repro",
    ])
    assert code == 1
    assert json.loads(report.read_text())["new"]

    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DT001", "TH001", "LY001", "DC001", "DC002"):
        assert rule_id in out


def test_cli_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        reprolint_main(["--root", str(tmp_path / "missing"), "src/repro"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        reprolint_main(["--root", str(tmp_path), "no/such/path"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# the real repo stays clean — the CI gate, as a test
# ---------------------------------------------------------------------------


def test_repo_is_clean_against_committed_baseline(capsys):
    code = reprolint_main(
        ["--root", str(REPO_ROOT), "src/repro", "benchmarks", "tools", "examples", "tests"]
    )
    out = capsys.readouterr().out
    assert code == 0, f"reprolint found new findings or stale entries:\n{out}"


def test_committed_baseline_reasons_are_reviewed():
    baseline = Baseline.load(REPO_ROOT / "tools/reprolint/baseline.json")
    for entry in baseline.entries:
        assert entry.reason and not entry.reason.startswith("TODO"), entry
