"""A/B comparison of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --collect DIR_A DIR_B [--first-seed N] [--workload W ...]

``A`` is the parent, ``B`` the change.  Each file holds run records as
``run.py`` writes them (``{"fingerprint": ..., "runs": [...]}``); runs of one
workload pair up by seed.  ``--collect`` produces the two files itself: for
each of 10 pairs (seeds ``N`` to ``N + 9``) it runs every workload once in
each checkout with the same seed, alternating which side goes first, and
writes ``BENCH_compare_A.json`` / ``BENCH_compare_B.json``.

For every workload and end-to-end metric the report gives each side's
median and quartiles, B's win share over the pairs (ties count for neither)
and a verdict, using the bounds and directions in ``BENCHMARK.json``:

* ``better``     -- B wins at least 9 of 10 pairs and its median is better
  than A's by more than A's quartile distance;
* ``unresolved`` -- otherwise, when either side's quartile distance exceeds
  the bound, unless every B run reads better than every A run;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unchanged``  -- otherwise.

The comparison is refused (exit 2) when the runs' host fingerprints differ,
when a workload has fewer than 10 pairs, or when a run failed its checks.
The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
#: Where ``--collect`` writes each side's run records.
OUT_FILES = {"A": "BENCH_compare_A.json", "B": "BENCH_compare_B.json"}
#: Fingerprint fields that must match for two runs to be comparable.
HOST_KEYS = ("nproc", "python", "numpy", "blas", "blas_version", "pinned_env")


def host_key(record: Dict[str, Any]) -> Tuple:
    fingerprint = record["fingerprint"]
    return tuple(json.dumps(fingerprint.get(k), sort_keys=True) for k in HOST_KEYS) + (
        record["seconds"],
    )


def pair_runs(a_runs: List[dict], b_runs: List[dict]) -> Dict[str, List[Tuple[dict, dict]]]:
    """``{workload: [(a, b), ...]}``, pairing the runs of a workload by seed."""
    pairs: Dict[str, List[Tuple[dict, dict]]] = {}
    for workload in sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs}):
        b_by_seed = {}
        for run in b_runs:
            if run["workload"] == workload:
                b_by_seed.setdefault(run["seed"], []).append(run)
        matched = []
        for run in a_runs:
            if run["workload"] == workload and b_by_seed.get(run["seed"]):
                matched.append((run, b_by_seed[run["seed"]].pop(0)))
        pairs[workload] = matched
    return pairs


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, Any]:
    """Median/quartiles of both sides, B's win share and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    qa = statistics.quantiles(a, n=4)
    qb = statistics.quantiles(b, n=4)
    med_a, med_b = qa[1], qb[1]
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    win_share = wins / len(a)
    iqr_a = qa[2] - qa[0]
    spread = max(iqr_a / abs(med_a), (qb[2] - qb[0]) / abs(med_b))
    worse_by = sign * (med_a - med_b) / abs(med_a)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if win_share >= 0.9 and sign * (med_b - med_a) > iqr_a:
        result = "better"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "unchanged"
    return {
        "a": qa, "b": qb, "change": (med_b - med_a) / abs(med_a), "win_share": win_share,
        "spread": spread, "verdict": result,
    }


def compare(a_doc: dict, b_doc: dict, bench: dict) -> Tuple[int, List[str]]:
    """Exit code and report lines for two run files."""
    runs = a_doc["runs"] + b_doc["runs"]
    keys = {host_key(r) for r in runs}
    if len(keys) > 1:
        return 2, ["refusing to compare: host fingerprints differ:"] + [f"  {k}" for k in sorted(keys)]
    broken = [f"{r['workload']} seed {r['seed']}" for r in runs if not r["correct"]]
    if broken:
        return 2, ["refusing to compare: runs failed their checks: " + ", ".join(broken)]
    pairs = pair_runs(a_doc["runs"], b_doc["runs"])
    short = {w: len(p) for w, p in pairs.items() if len(p) < MIN_PAIRS}
    if not pairs or short:
        return 2, [f"refusing to compare: need >= {MIN_PAIRS} pairs per workload, got {short or 'none'}"]
    lines = []
    worse = False
    for workload, matched in pairs.items():
        failed_a = sum(a["failed"] for a, _ in matched)
        failed_b = sum(b["failed"] for _, b in matched)
        lines.append(f"== {workload}: {len(matched)} pairs, failed ops A {failed_a} / B {failed_b}")
        lines.append(f"   {'metric':<22} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
                     f"{'change':>8} {'B wins':>7} {'spread':>7}  verdict")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = [pa["end_to_end"][name] for pa, _ in matched]
            b = [pb["end_to_end"][name] for _, pb in matched]
            v = verdict(a, b, spec["better"], spec["bound"])
            worse = worse or v["verdict"] == "worse"
            side = "{:.4g} [{:.4g}, {:.4g}]"
            lines.append(
                f"   {name:<22} {side.format(v['a'][1], v['a'][0], v['a'][2]):>30} "
                f"{side.format(v['b'][1], v['b'][0], v['b'][2]):>30} {v['change']:>+8.2%} "
                f"{v['win_share']:>7.0%} {v['spread']:>7.2%}  {v['verdict']} "
                f"(bound {spec['bound']:.0%})"
            )
    return (1 if worse else 0), lines


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``run.py`` invocation in ``checkout``; returns its run record."""
    out = checkout / "BENCH_e2e.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(out.read_text())["runs"][0]


def collect(args: argparse.Namespace, bench: dict) -> Tuple[dict, dict]:
    dirs = {"A": Path(args.files[0]).resolve(), "B": Path(args.files[1]).resolve()}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    docs: Dict[str, dict] = {"A": {"runs": []}, "B": {"runs": []}}
    for index in range(MIN_PAIRS):
        seed = args.first_seed + index
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for workload in names:
            for side in order:
                record = run_once(dirs[side], workload, seed)
                docs[side]["runs"].append(record)
                print(f"pair {index + 1}/{MIN_PAIRS} {workload} {side} seed {seed}: "
                      f"correct={record['correct']}", flush=True)
    for side, path in OUT_FILES.items():
        docs[side]["fingerprint"] = dict(docs[side]["runs"][0]["fingerprint"], checkout=str(dirs[side]))
        Path(path).write_text(json.dumps(docs[side], indent=1))
    return docs["A"], docs["B"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs=2, help="A.json B.json, or two checkouts with --collect")
    parser.add_argument("--collect", action="store_true", help="run the pairs first")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.collect:
        a_doc, b_doc = collect(args, bench)
    else:
        a_doc, b_doc = (json.loads(Path(p).read_text()) for p in args.files)
    code, lines = compare(a_doc, b_doc, bench)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
