# Local developer entry points.  CI's static-analysis job runs the exact
# same commands, so a green `make lint` locally is a green gate in CI.

PYTHONPATH := tools:src
LINT_PATHS := src/repro benchmarks tools examples tests

.PHONY: test lint reprolint ruff mypy baseline bench

test:
	PYTHONPATH=src python -m pytest -x -q

# Run every benchmarks/bench_*.py harness and merge their BENCH_*.json
# artifacts into BENCH_summary.json (run_all.py sets the subprocess paths).
bench:
	python benchmarks/run_all.py

# Full static-analysis gate: project invariants first, generic lint after.
# ruff/mypy are optional locally (CI pins ruff==0.6.9, mypy==1.11.2); the
# reprolint gate always runs.
lint: reprolint
	@command -v ruff >/dev/null 2>&1 && ruff check src tools || echo "ruff not installed locally; CI runs ruff==0.6.9"
	@command -v mypy >/dev/null 2>&1 && mypy src/repro/utils || echo "mypy not installed locally; CI runs mypy==1.11.2"

reprolint:
	PYTHONPATH=$(PYTHONPATH) python -m reprolint $(LINT_PATHS)

ruff:
	ruff check src tools

mypy:
	mypy src/repro/utils

# Regenerate the committed baseline (new entries get a TODO reason that must
# be replaced with a reviewed justification before committing).
baseline:
	PYTHONPATH=$(PYTHONPATH) python -m reprolint --write-baseline $(LINT_PATHS)
