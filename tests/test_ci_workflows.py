"""The CI workflows and the tool config load, and point at things that exist.

A workflow file that is not valid YAML is not run at all — GitHub reports
the file, not a failing job — and a step that names a deleted test file,
benchmark, example, source path or CLI experiment or flag fails only once
CI reaches it.  All of that is checked here, locally:

* every ``.github/workflows/*.yml`` parses with ``yaml.safe_load``;
* every ``tests/``, ``benchmarks/``, ``examples/``, ``src/`` or ``tools/``
  path named in a ``run:`` block, or in a Makefile recipe, exists;
* every ``python -m repro <experiment>`` names a registered experiment, and
  its whole command line parses with :func:`repro.cli.build_parser`;
* every ``["key"]`` a gate script reads from a ``BENCH_*.json`` it loads is
  written somewhere: it appears as a quoted string in the
  ``benchmarks/bench_*.py`` that names that artifact or in ``src/repro/``.
  A gate that reads a key no harness writes fails only on CI, with a
  ``KeyError``.

The YAML checks skip without PyYAML.  One more check reads
``pyproject.toml`` with :mod:`tomllib` (so it skips on Python 3.10): every
module a ``[[tool.mypy.overrides]]`` table names exists under ``src/``.
mypy, run without ``warn_unused_configs``, ignores an override for a
deleted module silently.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml"))

PATH_PATTERN = re.compile(r"(?<![\w/.])((?:tests|benchmarks|examples|src|tools)/[\w./-]+)")
EXPERIMENT_PATTERN = re.compile(r"python -m repro\s+([\w-]+)")
#: A ``python -m repro`` command line, up to a pipe, list operator or redirect.
COMMAND_PATTERN = re.compile(r"python -m repro\b([^\n|;&>]*)")
#: A gate script loading a benchmark artifact: ``json.load(open("BENCH_x.json"))``.
ARTIFACT_PATTERN = re.compile(r"""json\.load\(open\(["'](BENCH_\w+\.json)["']\)\)""")
#: A subscript by a string literal, ``["key"]`` or ``['key']``.
KEY_PATTERN = re.compile(r"""\[\s*["'](\w+)["']\s*\]""")
#: Any quoted identifier-like string.
QUOTED_PATTERN = re.compile(r"""["'](\w+)["']""")


def run_blocks(workflow):
    """``(job, step name, run script)`` for every step with a ``run:`` key."""
    for job_name, job in (workflow.get("jobs") or {}).items():
        for step in job.get("steps") or []:
            if "run" in step:
                yield job_name, step.get("name", "<unnamed>"), step["run"]


def missing_paths(text):
    """Repository paths named in ``text`` that do not exist."""
    return [
        match.rstrip(".")
        for match in PATH_PATTERN.findall(text)
        if not (REPO_ROOT / match.rstrip(".")).exists()
    ]


def load(path):
    yaml = pytest.importorskip("yaml")
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_is_valid_yaml(path):
    workflow = load(path)
    assert isinstance(workflow, dict) and workflow.get("jobs")


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_run_steps_name_existing_paths(path):
    missing = [
        (job, step, gone)
        for job, step, script in run_blocks(load(path))
        for gone in missing_paths(script)
    ]
    assert missing == []


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_run_steps_name_registered_experiments(path):
    unknown = [
        (job, step, name)
        for job, step, script in run_blocks(load(path))
        for name in EXPERIMENT_PATTERN.findall(script)
        if name not in EXPERIMENTS
    ]
    assert unknown == []


def test_makefile_recipes_name_existing_paths():
    lines = (REPO_ROOT / "Makefile").read_text(encoding="utf-8").splitlines()
    recipes = [line for line in lines if line.startswith("\t") or ":=" in line]
    assert recipes
    assert [path for line in recipes for path in missing_paths(line)] == []


def workflow_run_blocks():
    """``(workflow, job, run script)`` of every step of every workflow with a
    ``run:`` key; empty without PyYAML."""
    try:
        import yaml
    except ImportError:
        return []
    blocks = []
    for path in WORKFLOWS:
        with open(path, encoding="utf-8") as fh:
            workflow = yaml.safe_load(fh)
        blocks += [(path.name, job, script) for job, _step, script in run_blocks(workflow)]
    return blocks


RUN_BLOCKS = workflow_run_blocks()
#: ``(workflow, job, argv)`` of every ``python -m repro`` command line.
REPRO_COMMANDS = [
    (name, job, shlex.split(args))
    for name, job, script in RUN_BLOCKS
    for args in COMMAND_PATTERN.findall(script)
]


def test_workflows_run_repro_commands():
    pytest.importorskip("yaml")
    assert REPRO_COMMANDS


@pytest.mark.parametrize(
    "argv", [argv for *_, argv in REPRO_COMMANDS],
    ids=[f"{job}:{' '.join(argv)}" for _, job, argv in REPRO_COMMANDS],
)
def test_repro_command_lines_parse(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"python -m repro {' '.join(argv)} does not parse (exit {exc.code})")


def module_exists(module):
    """Whether ``module`` (``pkg.*`` for a package's modules) is under ``src/``."""
    path = REPO_ROOT / "src" / module.removesuffix(".*").replace(".", "/")
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def test_mypy_overrides_name_existing_modules():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        overrides = tomllib.load(fh)["tool"]["mypy"]["overrides"]
    modules = [
        module
        for override in overrides
        for module in (
            [override["module"]] if isinstance(override["module"], str) else override["module"]
        )
    ]
    assert modules
    assert [m for m in modules if not module_exists(m)] == []


def quoted_strings(paths):
    """Every quoted identifier-like string in the files at ``paths``."""
    return {
        literal
        for path in paths
        for literal in QUOTED_PATTERN.findall(path.read_text(encoding="utf-8"))
    }


#: ``(workflow, job, artifacts, keys)`` of every gate script that loads a
#: ``BENCH_*.json``: the artifacts it loads and the keys it reads.
ARTIFACT_GATES = [
    (name, job, ARTIFACT_PATTERN.findall(script), sorted(set(KEY_PATTERN.findall(script))))
    for name, job, script in RUN_BLOCKS
    if ARTIFACT_PATTERN.search(script)
]


def test_workflows_gate_bench_artifacts():
    pytest.importorskip("yaml")
    assert ARTIFACT_GATES
    assert all(keys for *_, keys in ARTIFACT_GATES)


@pytest.mark.parametrize(
    "artifacts,keys", [(artifacts, keys) for *_, artifacts, keys in ARTIFACT_GATES],
    ids=[f"{job}:{'+'.join(artifacts)}" for _, job, artifacts, _ in ARTIFACT_GATES],
)
def test_artifact_gates_read_only_written_keys(artifacts, keys):
    assert unwritten_keys(artifacts, keys) == []


def unwritten_keys(artifacts, keys):
    """The ``keys`` that neither a ``benchmarks/bench_*.py`` naming one of
    ``artifacts`` nor ``src/repro/`` quotes."""
    benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    writers = [
        bench for bench in benches
        if any(artifact in bench.read_text(encoding="utf-8") for artifact in artifacts)
    ]
    assert writers, f"no benchmarks/bench_*.py names {artifacts}"
    written = quoted_strings(writers + sorted((REPO_ROOT / "src" / "repro").rglob("*.py")))
    return [key for key in keys if key not in written]


def test_gate_reading_a_field_no_harness_writes_is_reported():
    # The fig7 harness no longer writes the checksum-workspace counters; a
    # gate still reading them would fail on CI with a ``KeyError``.
    script = 'fused = json.load(open("BENCH_fig7.json"))["kernel_schedule"]["fused"]["workspace"]\n'
    artifacts = ARTIFACT_PATTERN.findall(script)
    keys = sorted(set(KEY_PATTERN.findall(script)))
    assert artifacts == ["BENCH_fig7.json"]
    assert keys == ["fused", "kernel_schedule", "workspace"]
    assert unwritten_keys(artifacts, keys) == ["workspace"]
