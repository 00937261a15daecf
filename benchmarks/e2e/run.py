"""Run the end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N] [--trace [0|1]]

Runs each workload (all of ``BENCHMARK.json``'s when none is named) in its
own subprocess, one after another, for ``run_seconds`` of measurement.
``--seconds S`` is accepted only when it equals ``run_seconds``: the run
length is set by the benchmark and is the same on every commit.  Every
subprocess is pinned to one BLAS / OpenMP thread, so no workload runs more
compute threads than it has ranks.
The command prints every metric by name and unit, writes all run records to
``BENCH_e2e.json`` and, as its last line, one JSON object::

    {"correct": true, "attempted": 1600, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes ``BENCH_trace_<workload>.json`` for Perfetto).  The exit
code is non-zero when any output check fails or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Environment of every workload subprocess: one BLAS / OpenMP thread, and
#: one malloc arena shared by all threads, so the two-rank workload's peak
#: RSS depends less on which rank thread allocates (over ten runs its
#: quartile distance fell from 19-23% to 14-20% of the median).
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
}
#: Wall-clock cap of one workload subprocess, set-up and checks included.
CHILD_TIMEOUT_S = 170
#: Run records of the last invocation, in the working directory.
RECORDS_FILE = "BENCH_e2e.json"


def git_sha() -> str:
    """HEAD of the checkout, read without running git ("unknown" outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (data, requests, faults)")
    parser.add_argument("--seconds", type=float, help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this (pinned) process and print its record."""
    sys.path.insert(0, str(HERE))
    import workloads

    record = workloads.run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace), trace_dir=os.getcwd(),
    )
    print(json.dumps(record))
    return 0


def run_child(name: str, args: argparse.Namespace, seconds: float) -> Optional[Dict[str, Any]]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    seconds = float(bench["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        print(f"--seconds {args.seconds:g} differs from run_seconds {seconds:g}", file=sys.stderr)
        return 2
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    section = "per_layer" if args.trace else "end_to_end"

    records = []
    for name in names:
        record = run_child(name, args, seconds)
        if record is None:
            return 1
        records.append(record)

    complete = True
    metrics: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = record["workload"]
        print(f"== {name} (seed {record['seed']}, {record['ops']} ops, "
              f"{record['attempted']} attempted, {record['failed']} failed)")
        for spec in specs:
            value = record.get(section, {}).get(spec["name"])
            if value is None:
                print(f"   {spec['name']:<32} MISSING")
                complete = False
                continue
            print(f"   {spec['name']:<32} {value:>14.6g} {spec['unit']}")
            key = spec["name"] if len(records) == 1 else f"{name}/{spec['name']}"
            metrics[key] = {"value": value, "unit": spec["unit"]}
        if not args.trace:
            for extra, value in record["extras"].items():
                print(f"   {extra:<32} {value:>14.6g} (not gated)")
        for check in record["checks"]:
            status = "ok  " if check["ok"] else "FAIL"
            print(f"   [{status}] {check['name']}: {check['detail']}")

    sha = git_sha()
    for record in records:
        record["fingerprint"]["git_sha"] = sha
    fingerprint = dict(records[0]["fingerprint"], seed=args.seed, seconds=seconds)
    Path(RECORDS_FILE).write_text(json.dumps({"fingerprint": fingerprint, "runs": records}, indent=1))
    correct = complete and all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
