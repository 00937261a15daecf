"""Smoke test of the end-to-end benchmark: every workload, in-process, a few ops.

Checks that the benchmark definition in ``BENCHMARK.json`` is well formed,
that each workload emits exactly the metrics it declares and passes its own
output checks, that traced self times plus the unattributed remainder sum to
each op, and that the Chrome trace loads.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {
        name: workloads.run_workload(
            name, seed=0, seconds=0, trace=True, lengths=workloads.SMOKE, trace_dir=str(out),
        )
        for name in NAMES
    }


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert BENCH["command"][0] == "python3"
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = NAMES + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(UNIT_RE.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_declared_metrics_match_the_code():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert declared == workloads.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_workload_emits_its_metrics_and_passes_checks(traced_runs, name):
    record = traced_runs[name]
    failed = [c for c in record["checks"] if not c["ok"]]
    assert record["correct"] and not failed, failed
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert list(record["end_to_end"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert list(record["per_layer"]) == [m["name"] for m in BENCH["per_layer"]]
    values = list(record["end_to_end"].values()) + list(record["per_layer"].values())
    assert all(math.isfinite(v) for v in values)
    assert all(v > 0 for v in record["end_to_end"].values())


def test_faulted_step_is_traced_and_corrected(traced_runs):
    layers = traced_runs["train-dp-faults"]["per_layer"]
    assert layers["faults.injected"] == layers["faults.detected_steps"] == 1
    assert layers["core.corrected_per_detected"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_shares_sum_to_the_op(traced_runs, name):
    layers = traced_runs[name]["per_layer"]
    assert sum(layers[key] for key in workloads.ADDITIVE_SHARES) == pytest.approx(1.0, abs=0.05)
    assert 0.0 <= layers["trace.unattributed_frac"] < 0.1


@pytest.mark.parametrize("name", NAMES)
def test_chrome_trace_loads(traced_runs, name):
    with open(traced_runs[name]["trace_path"]) as handle:
        trace = json.load(handle)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 and "tid" in e for e in spans)
    roots = {"training.step", "serving.run"} & {e["name"] for e in spans}
    assert len(roots) == 1


def test_traced_runs_leave_no_wrapper_behind(traced_runs):
    for owner, attr, _ in workloads.TENSOR_TARGETS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_tracer_nests_attributes_and_restores():
    class Box:
        def work(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n

    box, inner = Box(), Box.__dict__["inner"]
    tracer = tracing.Tracer()
    tracer.install([
        (box, "work", "outer.work", None),
        (Box, "inner", "inner.call", lambda args, kwargs: {"layer": args[1]}),
    ])
    tracer.begin_op(step=0)
    with tracer.span("root"):
        assert box.work(3) == 4
    attribution = tracer.end_op("root")
    tracer.uninstall()
    assert "work" not in box.__dict__ and Box.__dict__["inner"] is inner
    assert attribution.calls == {("outer.work", None, None): 1, ("inner.call", 3, None): 1}
    assert attribution.lanes == 1 and attribution.residual_frac() == 0.0
    spans = {e["name"]: e for e in tracer.chrome_trace()["traceEvents"] if e["ph"] == "X"}
    assert spans["inner.call"]["args"]["parent"] == spans["outer.work"]["args"]["id"]
    assert spans["outer.work"]["args"]["parent"] == spans["root"]["args"]["id"]


STEADY = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]


@pytest.mark.parametrize("b, expected", [
    ([x - 10 for x in STEADY], "better"),
    ([x + 1 for x in STEADY], "unchanged"),
    ([x + 20 for x in STEADY], "worse"),
    # Every B run is worse, the median by less than the bound, but B's
    # quartile distance (18%) exceeds the bound: not "unchanged".
    ([101, 105, 108, 109, 110, 110, 112, 125, 135, 140], "unresolved"),
])
def test_verdict(b, expected):
    assert compare.verdict(STEADY, b, "lower", 0.15)["verdict"] == expected


def test_verdict_needs_the_medians_apart_by_more_than_the_parent_spread():
    # Every B run beats every A run, but B's median is ahead of A's by less
    # than A's own quartile distance: no gain can be claimed, and the wide
    # A spread does not make it unresolved either.
    a = [80, 81, 82, 98, 99, 100, 101, 118, 119, 120]
    b = [121.0 + i / 10 for i in range(10)]
    v = compare.verdict(a, b, "higher", 0.1)
    assert v["win_share"] == 1.0 and v["verdict"] == "unchanged"


def test_untraced_run_reports_end_to_end_only():
    record = workloads.run_workload("serve-plain", 0, 0, False, workloads.SMOKE)
    assert record["correct"] and "per_layer" not in record
    assert list(record["end_to_end"]) == list(workloads.END_TO_END_UNITS)
    assert all(v > 0 for v in record["extras"].values())
