"""The CI workflows and the tool config load, and point at things that exist.

A workflow file that is not valid YAML is not run at all — GitHub reports
the file, not a failing job — and a step that names a deleted test file,
benchmark, example, source path or CLI experiment or flag fails only once
CI reaches it.  All of that is checked here, locally:

* every ``.github/workflows/*.yml`` parses with ``yaml.safe_load``;
* every ``tests/``, ``benchmarks/``, ``examples/``, ``src/`` or ``tools/``
  path named in a ``run:`` block, or in a Makefile recipe, exists;
* every ``python -m repro <experiment>`` names a registered experiment, and
  its whole command line parses with :func:`repro.cli.build_parser`.

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


def repro_command_lines():
    """``(workflow, job, argv)`` of every ``python -m repro`` command line in
    a workflow ``run:`` block; empty without PyYAML."""
    try:
        import yaml
    except ImportError:
        return []
    commands = []
    for path in WORKFLOWS:
        with open(path, encoding="utf-8") as fh:
            workflow = yaml.safe_load(fh)
        for job, _step, script in run_blocks(workflow):
            for args in COMMAND_PATTERN.findall(script):
                commands.append((path.name, job, shlex.split(args)))
    return commands


REPRO_COMMANDS = repro_command_lines()


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
