"""The end-to-end benchmark: five workloads, their metrics and output checks.

Every workload is a closed loop over one model, ``gpt2-bench`` (the tiny
GPT-2 widened to hidden 64 / 4 layers / 4 heads / FFN 256, so GEMMs and GELU
matter and not only Python dispatch).  The model-init seed is fixed; the
``seed`` argument drives only the generated inputs (``SyntheticMRPC``
batches, ``RequestGenerator`` streams and the fault schedule).

A workload's *op* is one closed-loop call into the system -- a
``train_step`` or one ``ServingEngine.run`` over a batch of requests -- and
its *results* are what the caller sees come back: the loss for a training
step, the tokens of a serving batch.  The end-to-end metrics are the same on
every workload:

* ``first_result_ms_p50`` -- op start to its first result: the forward pass
  that yields the loss of a step, or the prefill that yields a batch's first
  token (time to first token);
* ``result_gap_ms_p50`` -- time between consecutive results: the step time
  of a training loop, the gap between decode iterations of a serving batch;
* ``items_per_s`` -- training samples or generated tokens per second the
  system spent in ops;
* ``setup_s``.

The run record also carries, ungated, the p90s of both latencies, the peak
RSS and the process CPU time per op (see :func:`observed_extras`): on a
shared host they do not repeat between identical runs closely enough to
bound a regression.

All times come from wall-clock stamps taken when the model's entry points
return (see :data:`clock`), the only instrumentation of an untraced run.
``--trace`` runs alternate untraced and traced blocks of ops; the traced ops
give the per-layer breakdown (see :mod:`tracing`) and the untraced ones the
tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import warnings
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

import repro.training.parallel as parallel_module
import repro.training.trainer as trainer_module
from repro.core import ATTNChecker, ATTNCheckerConfig, SectionCostModel
from repro.data import DataLoader, SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.serving import RequestGenerator, ServingConfig, ServingEngine
from repro.tensor import ops
from repro.tensor.autograd import Tensor
from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec, Trainer

from tracing import OpAttribution, Tracer

#: Clock of every end-to-end time: wall time, so that waiting (a straggling
#: rank, lost overlap, lock waits) counts as it does for a caller.
clock = time.perf_counter_ns

MODEL_NAME = "gpt2"
MODEL_OVERRIDES = {"hidden_size": 64, "num_layers": 4, "num_heads": 4, "intermediate_size": 256}
NUM_LAYERS = MODEL_OVERRIDES["num_layers"]
INIT_SEED = 0
TRAIN_SEQ_LEN = 32
SERVE_SEQ_LEN = 64
TRAIN_BATCH = 8
DP_WORKERS = 2
DP_GLOBAL_BATCH = 16
SERVE_BATCH = 8
PROMPT_LEN_RANGE = (8, 40)
NEW_TOKENS_RANGE = (8, 24)
FAULT_MATRICES = ("Q", "K", "V", "AS", "CL", "O", "H", "FO")
FAULT_TYPES = ("inf", "nan", "near_inf")
SECTIONS = ("AS", "CL", "O", "FF1", "FF2")
CHECKER_PHASES = ("encode", "update", "detect", "correct")
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MALLOC_ARENA_MAX")

#: End-to-end metrics (reported with tracing off) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "first_result_ms_p50": "ms",
    "result_gap_ms_p50": "ms",
}

#: Per-layer metrics (from the traced run) and their units.  Every ``*_frac``
#: of a span is its self time as a share of the traced op budget; those in
#: :data:`ADDITIVE_SHARES` sum to 1.  ``core.{encode,update,detect,correct}``
#: break ``core.self_frac`` down by checker timer, and ``comm.drain`` /
#: ``comm.bucket`` are trainer timers that overlap the comm and tensor spans.
PER_LAYER_UNITS = {
    "trace.op_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
    "trace.spans_per_op": "count",
    "tensor.backward_frac": "fraction",
    "tensor.matmul_frac": "fraction",
    "tensor.gelu_frac": "fraction",
    "tensor.softmax_frac": "fraction",
    "tensor.layer_norm_frac": "fraction",
    "tensor.op_calls_per_op": "count",
    "nn.forward_frac": "fraction",
    "nn.prefill_frac": "fraction",
    "nn.decode_step_frac": "fraction",
    "nn.lm_logits_frac": "fraction",
    "core.self_frac": "fraction",
    **{f"core.{s}_frac": "fraction" for s in SECTIONS},
    **{f"core.L{i}.{s}_frac": "fraction" for i in range(NUM_LAYERS) for s in SECTIONS},
    **{f"core.{p}_frac": "fraction" for p in CHECKER_PHASES},
    "core.gemm_dispatches_per_op": "count",
    "core.detect_dispatches_per_op": "count",
    "core.workspace_allocations_per_op": "count",
    "core.weight_cache_hit_frac": "fraction",
    "core.corrected_per_detected": "fraction",
    "training.optimizer_frac": "fraction",
    "training.clip_frac": "fraction",
    "comm.contribute_frac": "fraction",
    "comm.finish_frac": "fraction",
    "comm.drain_frac": "fraction",
    "comm.bucket_frac": "fraction",
    "comm.overlap_efficiency": "fraction",
    "comm.calls_per_op": "count",
    "comm.bytes_per_op": "B",
    "comm.checksum_encodes_per_op": "count",
    "comm.checksum_verifies_per_op": "count",
    "comm.mismatches": "count",
    "comm.bucket_retries": "count",
    "serving.schedule_frac": "fraction",
    "serving.verify_frac": "fraction",
    "serving.decode_steps_per_op": "count",
    "serving.live_slot_frac": "fraction",
    "serving.evicted": "count",
    "faults.injected": "count",
    "faults.detected_steps": "count",
    "faults.detect_frac": "fraction",
}

#: The per-layer shares that partition a traced op's budget.
ADDITIVE_SHARES = (
    "tensor.backward_frac", "tensor.matmul_frac", "tensor.gelu_frac", "tensor.softmax_frac",
    "tensor.layer_norm_frac", "nn.forward_frac", "nn.prefill_frac", "nn.decode_step_frac",
    "nn.lm_logits_frac", "core.self_frac", "training.optimizer_frac", "training.clip_frac",
    "comm.contribute_frac", "comm.finish_frac", "serving.schedule_frac", "serving.verify_frac",
    "trace.unattributed_frac",
)

#: Wrapped layer entry points every workload shares: the autograd kernels
#: resolved through ``repro.tensor.ops`` at call time, and ``Tensor.backward``.
TENSOR_TARGETS = [
    (ops, "batched_matmul", "tensor.matmul"),
    (ops, "matmul_backward", "tensor.matmul"),
    (ops, "gelu", "tensor.gelu"),
    (ops, "gelu_backward", "tensor.gelu"),
    (ops, "softmax", "tensor.softmax"),
    (ops, "softmax_backward", "tensor.softmax"),
    (ops, "layer_norm", "tensor.layer_norm"),
    (ops, "layer_norm_backward", "tensor.layer_norm"),
    (Tensor, "backward", "tensor.backward"),
]
TENSOR_OP_SPANS = ("tensor.matmul", "tensor.gelu", "tensor.softmax", "tensor.layer_norm")


@dataclass(frozen=True)
class Lengths:
    """How much work one run does.  ``None`` op caps mean time-bounded."""

    setup_reps: int = 3
    train_warmup: int = 5
    dp_warmup: int = 3
    max_train_ops: Optional[int] = None
    max_serve_ops: Optional[int] = None
    fault_every: int = 8
    reference_steps: int = 3
    reference_batches: int = 2
    #: Traced and untraced ops alternate in blocks of this many.  Not a
    #: divisor of fault_every, so faulted steps land in both kinds of block.
    trace_block: int = 5
    train_examples: int = 512


FULL = Lengths()
#: In-process smoke lengths: 3 steps / 2 request batches, every op path once
#: (the third, traced, step of train-dp-faults is faulted).
SMOKE = Lengths(
    setup_reps=1, train_warmup=1, dp_warmup=1, max_train_ops=3, max_serve_ops=2,
    fault_every=3, reference_steps=2, reference_batches=1, trace_block=1,
    train_examples=64,
)


@dataclass
class OpResult:
    """What one op's caller observed; times in nanoseconds of :data:`clock`."""

    duration_ns: int
    first_ns: int
    gaps_ns: List[int]
    items: int
    attempted: int
    failed: int


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# -- shared helpers ------------------------------------------------------------------


def build_bench_model(seq_len: int):
    return build_model(
        MODEL_NAME, size="tiny", rng=np.random.default_rng(INIT_SEED),
        max_seq_len=seq_len, **MODEL_OVERRIDES,
    )


def training_batches(seed: int, batch_size: int, lengths: Lengths) -> List[Dict[str, np.ndarray]]:
    data = SyntheticMRPC(
        num_examples=lengths.train_examples, max_seq_len=TRAIN_SEQ_LEN,
        vocab_size=512, seed=seed,
    )
    return DataLoader(data, batch_size=batch_size, shuffle=True, seed=seed).batches()


def return_stamps(fn: Callable, stamps: List[int]) -> Callable:
    """``fn`` appending its return time to ``stamps`` (the end-to-end shim)."""

    def stamped(*args: Any, **kwargs: Any) -> Any:
        out = fn(*args, **kwargs)
        stamps.append(clock())
        return out

    return stamped


def weights_digest(model) -> str:
    h = hashlib.sha256()
    for name, param in model.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(param.data).tobytes())
    return h.hexdigest()


def weights_finite(model) -> bool:
    return all(bool(np.isfinite(p.data).all()) for p in model.parameters())


def section_attrs(rank: Optional[int] = None) -> Callable[[tuple, dict], Dict[str, Any]]:
    def attrs(args: tuple, kwargs: dict) -> Dict[str, Any]:
        ctx = args[0]
        out = {"section": ctx.section, "layer": ctx.layer_index}
        if rank is not None:
            out["rank"] = rank
        return out

    return attrs


def checker_counters(checkers: List[ATTNChecker]) -> Dict[str, float]:
    """Cumulative counters and phase timers of the attached checkers."""
    c: Dict[str, float] = defaultdict(float)
    for checker in checkers:
        dispatch = checker.dispatch_counts
        c["core.gemm"] += dispatch.get("gemm", 0)
        c["core.detect"] += dispatch.get("detect", 0)
        c["core.ws_alloc"] += checker.workspace_stats()["allocations"]
        cache = checker.weight_cache_stats()
        c["core.cache_hits"] += cache["hits"]
        c["core.cache_misses"] += cache["misses"]
        c["core.detections"] += checker.stats.total_detections
        c["core.corrections"] += checker.stats.total_corrections
        for key, seconds in checker.timers.as_dict().items():
            phase = key.rsplit("/", 1)[-1]
            if phase in CHECKER_PHASES:
                c[f"core.t.{phase}"] += seconds
    return c


def cost_model_check(name: str, measured: float, expected: float) -> Check:
    return Check(name, measured == expected, f"measured {measured:g}, SectionCostModel {expected:g}")


# -- workloads -----------------------------------------------------------------------


class Workload:
    """One closed-loop workload; constructing it is its set-up (build + warm-up)."""

    name = ""
    root = ""
    op_label = ""
    #: Timers (counter keys, seconds) that explain part of the root span's
    #: own time, so they are not counted as unattributed.
    explained_timers: Tuple[str, ...] = ()

    def __init__(self, seed: int, lengths: Lengths) -> None:
        self.lengths = lengths
        self.checkers: List[ATTNChecker] = []
        self.stamps: List[int] = []

    @property
    def max_ops(self) -> Optional[int]:
        raise NotImplementedError

    def op(self, index: int, root: Callable[[], ContextManager]) -> OpResult:
        raise NotImplementedError

    def trace_targets(self) -> List[tuple]:
        return [(owner, attr, span, None) for owner, attr, span in TENSOR_TARGETS]

    def counters(self) -> Dict[str, float]:
        return checker_counters(self.checkers)

    def fault_counts(self) -> Dict[str, int]:
        return {"injected": 0, "faulted_steps": 0, "detected_steps": 0}

    def checks(self, ops_run: int) -> List[Check]:
        return []

    def close(self) -> None:
        for checker in self.checkers:
            checker.close()


class TrainWorkload(Workload):
    """Single-worker ``Trainer`` steps, with or without ``ATTNChecker()``."""

    root = "training.step"
    op_label = "step"
    protected = False

    def __init__(self, seed: int, lengths: Lengths) -> None:
        super().__init__(seed, lengths)
        self.model = build_bench_model(TRAIN_SEQ_LEN)
        self.checker = ATTNChecker() if self.protected else None
        self.checkers = [self.checker] if self.checker is not None else []
        self.trainer = Trainer(self.model, checker=self.checker)
        self.batches = training_batches(seed, TRAIN_BATCH, lengths)
        self.model.forward = return_stamps(self.model.forward, self.stamps)
        # Losses of the warm-up and the first reference_steps timed steps,
        # and the weights digest after them, for the plain/protected replay.
        self.losses: List[float] = []
        self.digest: Optional[str] = None
        for index in range(lengths.train_warmup):
            self.losses.append(self.trainer.train_step(self.batch(index)).loss)
        self.gemm_start = checker_counters(self.checkers)["core.gemm"]

    @property
    def max_ops(self) -> Optional[int]:
        return self.lengths.max_train_ops

    def batch(self, index: int) -> Dict[str, np.ndarray]:
        return self.batches[index % len(self.batches)]

    def op(self, index: int, root: Callable[[], ContextManager]) -> OpResult:
        batch = self.batch(self.lengths.train_warmup + index)
        self.stamps.clear()
        with root():
            start = clock()
            result = self.trainer.train_step(batch)
            end = clock()
        if index < self.lengths.reference_steps:
            self.losses.append(result.loss)
            if index == self.lengths.reference_steps - 1:
                self.digest = weights_digest(self.model)
        return OpResult(
            duration_ns=end - start,
            first_ns=self.stamps[0] - start,
            gaps_ns=[end - start],
            items=len(batch["labels"]),
            attempted=1,
            failed=0 if math.isfinite(result.loss) else 1,
        )

    def trace_targets(self) -> List[tuple]:
        targets = super().trace_targets() + [
            (self.model, "forward", "nn.forward", None),
            (self.trainer.optimizer, "step", "training.optimizer", None),
            (trainer_module, "clip_gradients", "training.clip", None),
        ]
        if self.checker is not None:
            targets.append((self.checker, "on_section_output", "core.section", section_attrs()))
        return targets

    def checks(self, ops_run: int) -> List[Check]:
        out = [Check("weights_finite", weights_finite(self.model))]
        # Replay warm-up + the first timed steps from the same init with the
        # other protection setting: a fault-free checker observes, it must
        # not perturb a single bit of the losses or the weights.
        other = None if self.protected else ATTNChecker()
        replay = Trainer(build_bench_model(TRAIN_SEQ_LEN), checker=other)
        losses = [replay.train_step(self.batch(i)).loss for i in range(len(self.losses))]
        label = "plain" if self.protected else "protected"
        out.append(Check(
            f"losses_identical_to_{label}", losses == self.losses,
            f"{len(losses)} steps compared",
        ))
        if self.digest is not None:
            out.append(Check(
                f"weights_identical_to_{label}", weights_digest(replay.model) == self.digest,
            ))
        if other is not None:
            other.close()
        if self.checker is not None:
            per_layer = SectionCostModel.checksum_gemm_dispatches_per_layer(
                "fused", steady_state=False, scope=self.checker.config.protect_scope,
            )
            expected = sum(per_layer.values()) * NUM_LAYERS * ops_run
            measured = checker_counters(self.checkers)["core.gemm"] - self.gemm_start
            out.append(cost_model_check("checksum_gemm_dispatches", measured, expected))
            out.append(Check(
                "no_false_detections", self.checker.stats.total_detections == 0,
                f"{self.checker.stats.total_detections} detections",
            ))
        return out


class TrainPlain(TrainWorkload):
    name = "train-plain"


class TrainProtected(TrainWorkload):
    name = "train-protected"
    protected = True


class TrainDataParallelFaults(Workload):
    """Two thread ranks, overlapped protected all-reduce, a fault every few steps."""

    name = "train-dp-faults"
    root = "training.step"
    op_label = "step"
    scope = "attention+ffn"

    def __init__(self, seed: int, lengths: Lengths) -> None:
        super().__init__(seed, lengths)
        spec = ReplicaSpec(
            MODEL_NAME, "tiny", seed=INIT_SEED,
            overrides={"max_seq_len": TRAIN_SEQ_LEN, **MODEL_OVERRIDES},
        )
        config = DataParallelConfig(
            workers=DP_WORKERS, shards=DP_WORKERS, executor="thread",
            overlap_grad_reduce=True, bucket_cap_mb=0.25,
            protection=ATTNCheckerConfig(protect_scope=self.scope),
        )
        self.trainer = DataParallelTrainer(
            model_spec=spec, config=config,
            injector=FaultInjector([], seed=seed, enabled=False),
        )
        self.checkers = [runner.checker for runner in self.trainer.runners]
        for runner in self.trainer.runners:
            runner.model.forward = return_stamps(runner.model.forward, self.stamps)
        self.batches = training_batches(seed, DP_GLOBAL_BATCH, lengths)
        self.fault_rng = np.random.default_rng(seed)
        combos = list(product(FAULT_MATRICES, FAULT_TYPES))
        self.fault_plan = [combos[i] for i in self.fault_rng.permutation(len(combos))]
        self.injected = self.faulted_steps = self.detected_steps = 0
        self.bucket_count = 0
        self.comm_bytes = [0] * DP_WORKERS  # one slot per rank: one writer each
        for index in range(lengths.dp_warmup):
            self.trainer.train_step(self.batch(index))
        self.start = self.counters()

    @property
    def max_ops(self) -> Optional[int]:
        return self.lengths.max_train_ops

    def batch(self, index: int) -> Dict[str, np.ndarray]:
        return self.batches[index % len(self.batches)]

    def arm_fault(self) -> FaultInjector:
        matrix, error_type = self.fault_plan[self.faulted_steps % len(self.fault_plan)]
        layer = int(self.fault_rng.integers(0, NUM_LAYERS))
        injector = self.trainer.runners[self.faulted_steps % DP_WORKERS].injector
        injector.specs = [FaultSpec(matrix, error_type, layer_index=layer)]
        injector.arm()
        return injector

    def op(self, index: int, root: Callable[[], ContextManager]) -> OpResult:
        batch = self.batch(self.lengths.dp_warmup + index)
        injector = None
        if (index + 1) % self.lengths.fault_every == 0:
            injector = self.arm_fault()
            before = injector.num_injections
        self.stamps.clear()
        with root():
            start = clock()
            result = self.trainer.train_step(batch)
            end = clock()
        if injector is not None:
            injector.disarm()
            self.injected += injector.num_injections - before
            self.faulted_steps += 1
            self.detected_steps += int(result.detections > 0)
        self.bucket_count = result.buckets
        return OpResult(
            duration_ns=end - start,
            first_ns=min(self.stamps) - start,
            gaps_ns=[end - start],
            items=len(batch["labels"]),
            attempted=1,
            failed=0 if math.isfinite(result.loss) else 1,
        )

    def contribute_attrs(self, args: tuple, kwargs: dict) -> Dict[str, Any]:
        _, rank, arrays = args
        self.comm_bytes[rank] += sum(int(a.nbytes) for a in arrays)
        return {"rank": rank}

    def trace_targets(self) -> List[tuple]:
        targets = super().trace_targets() + [
            (parallel_module, "clip_gradients", "training.clip", None),
            (self.trainer.collective, "contribute", "comm.contribute", self.contribute_attrs),
            (self.trainer.collective, "finish", "comm.finish", lambda a, k: {"rank": a[1]}),
        ]
        for runner in self.trainer.runners:
            rank_attrs = (lambda r: lambda a, k: {"rank": r})(runner.rank)
            targets += [
                (runner.model, "forward", "nn.forward", rank_attrs),
                (runner.optimizer, "step", "training.optimizer", rank_attrs),
                (runner.checker, "on_section_output", "core.section", section_attrs(runner.rank)),
            ]
        return targets

    def counters(self) -> Dict[str, float]:
        c = checker_counters(self.checkers)
        comm = self.trainer.collective_counters()
        c["comm.encodes"] = comm["checksum_encodes"]
        c["comm.verifies"] = comm["checksum_verifies"]
        c["comm.mismatches"] = comm["mismatches"]
        c["comm.retries"] = sum(self.trainer.bucket_counters()["bucket_retries"].values())
        c["comm.bytes"] = sum(self.comm_bytes)
        timers = self.trainer.timers
        for key in ("drain", "overlap", "bucket"):
            c[f"comm.t.{key}"] = timers.elapsed(f"comm/{key}")
        return c

    def fault_counts(self) -> Dict[str, int]:
        return {
            "injected": self.injected,
            "faulted_steps": self.faulted_steps,
            "detected_steps": self.detected_steps,
        }

    def checks(self, ops_run: int) -> List[Check]:
        delta = {k: v - self.start.get(k, 0) for k, v in self.counters().items()}
        out = [
            Check("weights_finite", all(weights_finite(r.model) for r in self.trainer.runners)),
            Check(
                "every_armed_fault_injected", self.injected == self.faulted_steps,
                f"{self.injected} injected over {self.faulted_steps} faulted steps",
            ),
            Check("no_collective_mismatches", delta["comm.mismatches"] == 0),
        ]
        params = len(self.trainer.runners[0].model.parameters())
        per_step = SectionCostModel.collective_checksum_dispatches_per_step(
            params + 1, DP_WORKERS, num_buckets=self.bucket_count,
        )
        out.append(cost_model_check(
            "collective_checksum_encodes", delta["comm.encodes"], per_step["encode"] * ops_run,
        ))
        out.append(cost_model_check(
            "collective_checksum_verifies", delta["comm.verifies"], per_step["verify"] * ops_run,
        ))
        per_layer = SectionCostModel.checksum_gemm_dispatches_per_layer(
            "fused", steady_state=False, scope=self.scope,
        )
        out.append(cost_model_check(
            "checksum_gemm_dispatches", delta["core.gemm"],
            sum(per_layer.values()) * NUM_LAYERS * DP_WORKERS * ops_run,
        ))
        return out

    def close(self) -> None:
        self.trainer.close()


class ServeWorkload(Workload):
    """``ServingEngine`` over batches of 8 seeded requests."""

    root = "serving.run"
    op_label = "batch"
    explained_timers = ("serving.t.schedule", "serving.t.verify")
    protected = False
    scope = "attention+ffn"

    def __init__(self, seed: int, lengths: Lengths) -> None:
        super().__init__(seed, lengths)
        self.model = build_bench_model(SERVE_SEQ_LEN)
        self.checker = (
            ATTNChecker(ATTNCheckerConfig(protect_scope=self.scope)) if self.protected else None
        )
        self.engine = self.make_engine(self.model, self.checker)
        self.checkers = [self.checker] if self.checker is not None else []
        self.requests = RequestGenerator(
            self.model.config.vocab_size, PROMPT_LEN_RANGE, NEW_TOKENS_RANGE, seed=seed,
        )
        for method in ("prefill", "decode_step"):
            setattr(self.model, method, return_stamps(getattr(self.model, method), self.stamps))
        self.totals: Dict[str, float] = defaultdict(float)
        #: (requests, token streams) of the first timed batches.
        self.reference: List[Tuple[list, List[List[int]]]] = []
        self.dispatch_mismatches: List[str] = []
        self.engine.run(self.requests.generate(SERVE_BATCH))

    @staticmethod
    def make_engine(model, checker: Optional[ATTNChecker]) -> ServingEngine:
        if checker is not None:
            model.set_attention_hooks(checker)
        return ServingEngine(model, checker=checker, config=ServingConfig(max_batch_size=SERVE_BATCH))

    @property
    def max_ops(self) -> Optional[int]:
        return self.lengths.max_serve_ops

    def expected_gemm(self, decode_steps: int) -> int:
        prefill = SectionCostModel.checksum_gemm_dispatches_per_layer(
            "fused", steady_state=True, scope=self.scope,
        )
        decode = SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
            True, scope=self.scope,
        )
        return NUM_LAYERS * (sum(prefill.values()) + decode_steps * sum(decode.values()))

    def op(self, index: int, root: Callable[[], ContextManager]) -> OpResult:
        requests = self.requests.generate(SERVE_BATCH)
        gemm_before = self.checker.dispatch_counts["gemm"] if self.checker else 0
        self.stamps.clear()
        with root():
            start = clock()
            report = self.engine.run(requests)
            end = clock()
        if self.checker is not None:
            measured = self.checker.dispatch_counts["gemm"] - gemm_before
            expected = self.expected_gemm(report.decode_steps)
            if measured != expected:
                self.dispatch_mismatches.append(f"batch {index}: {measured} != {expected}")
        streams = [r.tokens for r in report.results]
        if len(self.reference) < self.lengths.reference_batches:
            self.reference.append((requests, streams))
        totals = self.totals
        totals["serving.tokens"] += report.total_new_tokens
        totals["serving.requests"] += len(requests)
        totals["serving.decode_steps"] += report.decode_steps
        totals["serving.slot_steps"] += report.decode_slot_steps
        totals["serving.evicted"] += report.num_evicted
        stamps = self.stamps
        return OpResult(
            duration_ns=end - start,
            first_ns=stamps[0] - start,
            gaps_ns=[b - a for a, b in zip(stamps, stamps[1:])],
            items=report.total_new_tokens,
            attempted=len(requests),
            failed=report.num_evicted,
        )

    def trace_targets(self) -> List[tuple]:
        targets = super().trace_targets() + [
            (self.model, "prefill", "nn.prefill", None),
            (self.model, "decode_step", "nn.decode_step", None),
            (self.model, "lm_logits", "nn.lm_logits", None),
        ]
        if self.checker is not None:
            targets.append((self.checker, "on_section_output", "core.section", section_attrs()))
        return targets

    def counters(self) -> Dict[str, float]:
        c = checker_counters(self.checkers)
        c.update(self.totals)
        # ServingEngine.run keeps accumulating its timers across runs (the
        # warm-up batch included), so only differences of them are used.
        c["serving.t.schedule"] = self.engine.timers.elapsed("serve/schedule")
        c["serving.t.verify"] = self.engine.timers.elapsed("serve/verify")
        return c

    def checks(self, ops_run: int) -> List[Check]:
        out: List[Check] = []
        other = (
            None if self.protected
            else ATTNChecker(ATTNCheckerConfig(protect_scope=self.scope))
        )
        replay = self.make_engine(build_bench_model(SERVE_SEQ_LEN), other)
        same = all(
            [r.tokens for r in replay.run(requests).results] == streams
            for requests, streams in self.reference
        )
        label = "plain" if self.protected else "protected"
        out.append(Check(
            f"tokens_identical_to_{label}", same,
            f"{len(self.reference)} batches compared",
        ))
        if other is not None:
            other.close()
        if self.checker is not None:
            out.append(Check(
                "checksum_gemm_dispatches", not self.dispatch_mismatches,
                "; ".join(self.dispatch_mismatches[:3]) or
                f"every batch matched SectionCostModel ({ops_run} batches)",
            ))
            out.append(Check(
                "no_false_detections", self.checker.stats.total_detections == 0,
                f"{self.checker.stats.total_detections} detections",
            ))
        return out


class ServePlain(ServeWorkload):
    name = "serve-plain"


class ServeProtected(ServeWorkload):
    name = "serve-protected"
    protected = True


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (TrainPlain, TrainProtected, TrainDataParallelFaults, ServePlain, ServeProtected)
}


# -- running one workload -------------------------------------------------------------


def percentile_ms(values_ns: List[int], q: float) -> float:
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e6


def host_fingerprint() -> Dict[str, Any]:
    """What a result's numbers depend on besides the code and the seed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy without the dict form of show_config
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def end_to_end_metrics(results: List[OpResult], setup_ns: List[int]) -> Dict[str, float]:
    busy_s = sum(r.duration_ns for r in results) / 1e9
    return {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "items_per_s": sum(r.items for r in results) / busy_s,
        "first_result_ms_p50": percentile_ms([r.first_ns for r in results], 50),
        "result_gap_ms_p50": percentile_ms([g for r in results for g in r.gaps_ns], 50),
    }


def observed_extras(results: List[OpResult], cpu_ns: List[int]) -> Dict[str, float]:
    """Ungated observations of the untraced ops, recorded beside the metrics."""
    return {
        "first_result_ms_p90": percentile_ms([r.first_ns for r in results], 90),
        "result_gap_ms_p90": percentile_ms([g for r in results for g in r.gaps_ns], 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_cpu_ms_p50": percentile_ms(cpu_ns, 50),
    }


def per_layer_metrics(
    workload: Workload,
    attributions: List[OpAttribution],
    counters: Dict[str, float],
    traced: List[OpResult],
    untraced: List[OpResult],
) -> Dict[str, float]:
    n = len(attributions)
    budget = sum(a.budget_ns for a in attributions)
    by_name: Dict[str, int] = defaultdict(int)
    by_section: Dict[str, int] = defaultdict(int)
    by_layer_section: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for a in attributions:
        for (name, layer, section), ns in a.self_ns.items():
            by_name[name] += ns
            if section is not None:
                by_section[section] += ns
                by_layer_section[f"L{layer}.{section}"] += ns
        for (name, _, _), count in a.calls.items():
            calls[name] += count

    def frac(ns: float) -> float:
        return ns / budget

    def timer_frac(key: str) -> float:
        return frac(counters.get(key, 0.0) * 1e9)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    explained = sum(counters.get(key, 0.0) for key in workload.explained_timers) * 1e9
    unattributed = sum(a.unattributed_ns for a in attributions) - explained
    gap_traced = statistics.median(g for r in traced for g in r.gaps_ns)
    gap_untraced = statistics.median(g for r in untraced for g in r.gaps_ns)
    overlap, drain = counters.get("comm.t.overlap", 0.0), counters.get("comm.t.drain", 0.0)
    faults = workload.fault_counts()
    m: Dict[str, float] = {
        "trace.op_ms": statistics.median(a.root_ns for a in attributions) / 1e6,
        "trace.overhead_frac": gap_traced / gap_untraced - 1.0,
        "trace.unattributed_frac": frac(unattributed),
        "trace.spans_per_op": sum(calls.values()) / n,
        "tensor.backward_frac": frac(by_name["tensor.backward"]),
        "tensor.op_calls_per_op": sum(calls[name] for name in TENSOR_OP_SPANS) / n,
        "core.self_frac": frac(by_name["core.section"]),
        "core.gemm_dispatches_per_op": counters.get("core.gemm", 0.0) / n,
        "core.detect_dispatches_per_op": counters.get("core.detect", 0.0) / n,
        "core.workspace_allocations_per_op": counters.get("core.ws_alloc", 0.0) / n,
        "core.weight_cache_hit_frac": ratio(
            counters.get("core.cache_hits", 0.0),
            counters.get("core.cache_hits", 0.0) + counters.get("core.cache_misses", 0.0),
        ),
        "core.corrected_per_detected": ratio(
            counters.get("core.corrections", 0.0), counters.get("core.detections", 0.0),
        ),
        "training.optimizer_frac": frac(by_name["training.optimizer"]),
        "training.clip_frac": frac(by_name["training.clip"]),
        "comm.contribute_frac": frac(by_name["comm.contribute"]),
        "comm.finish_frac": frac(by_name["comm.finish"]),
        "comm.drain_frac": timer_frac("comm.t.drain"),
        "comm.bucket_frac": timer_frac("comm.t.bucket"),
        "comm.overlap_efficiency": ratio(overlap, overlap + drain),
        "comm.calls_per_op": (calls["comm.contribute"] + calls["comm.finish"]) / n,
        "comm.bytes_per_op": counters.get("comm.bytes", 0.0) / n,
        "comm.checksum_encodes_per_op": counters.get("comm.encodes", 0.0) / n,
        "comm.checksum_verifies_per_op": counters.get("comm.verifies", 0.0) / n,
        "comm.mismatches": counters.get("comm.mismatches", 0.0),
        "comm.bucket_retries": counters.get("comm.retries", 0.0),
        "serving.schedule_frac": timer_frac("serving.t.schedule"),
        "serving.verify_frac": timer_frac("serving.t.verify"),
        "serving.decode_steps_per_op": counters.get("serving.decode_steps", 0.0) / n,
        "serving.live_slot_frac": ratio(
            counters.get("serving.tokens", 0.0) - counters.get("serving.requests", 0.0),
            counters.get("serving.slot_steps", 0.0),
        ),
        "serving.evicted": counters.get("serving.evicted", 0.0),
        "faults.injected": faults["injected"],
        "faults.detected_steps": faults["detected_steps"],
        "faults.detect_frac": ratio(faults["detected_steps"], faults["faulted_steps"]),
    }
    for short in ("matmul", "gelu", "softmax", "layer_norm"):
        m[f"tensor.{short}_frac"] = frac(by_name[f"tensor.{short}"])
    for short in ("forward", "prefill", "decode_step", "lm_logits"):
        m[f"nn.{short}_frac"] = frac(by_name[f"nn.{short}"])
    for section in SECTIONS:
        m[f"core.{section}_frac"] = frac(by_section[section])
        for layer in range(NUM_LAYERS):
            m[f"core.L{layer}.{section}_frac"] = frac(by_layer_section[f"L{layer}.{section}"])
    for phase in CHECKER_PHASES:
        m[f"core.{phase}_frac"] = timer_frac(f"core.t.{phase}")
    return {name: float(m[name]) for name in PER_LAYER_UNITS}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    lengths: Lengths = FULL,
    trace_dir: str = ".",
) -> Dict[str, Any]:
    """Set up ``name`` ``lengths.setup_reps`` times, run its closed loop, check it.

    Returns the run record: ``correct``, ``attempted``, ``failed``, the
    ``end_to_end`` and (traced runs) ``per_layer`` metrics and the checks.
    """
    cls = WORKLOADS[name]
    setup_ns: List[int] = []
    workload: Optional[Workload] = None
    with warnings.catch_warnings():
        # Injected INF/NaN values overflow inside checksum GEMMs by design.
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(lengths.setup_reps):
            if workload is not None:
                workload.close()
                workload = None
            # Autograd graphs hold reference cycles; start every set-up and
            # the timed loop from the same collected heap.
            gc.collect()
            begin = clock()
            workload = cls(seed, lengths)
            setup_ns.append(clock() - begin)
        gc.collect()
        try:
            record = _timed_loop(workload, setup_ns, seconds, trace, lengths, trace_dir)
        finally:
            workload.close()
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    record["correct"] = all(c["ok"] for c in record["checks"])
    return record


def _timed_loop(
    workload: Workload,
    setup_ns: List[int],
    seconds: float,
    trace: bool,
    lengths: Lengths,
    trace_dir: str,
) -> Dict[str, Any]:
    tracer = Tracer() if trace else None
    traced: List[OpResult] = []
    untraced: List[OpResult] = []
    attributions: List[OpAttribution] = []
    residuals: List[float] = []
    cpu_ns: List[int] = []  # process CPU time of each untraced op, all threads
    counters: Dict[str, float] = defaultdict(float)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        cap = workload.max_ops
        done = index >= cap if cap is not None else time.perf_counter() >= deadline
        if done and (not trace or (traced and untraced)):
            break
        if trace and (index // lengths.trace_block) % 2 == 0:
            before = workload.counters()
            tracer.install(workload.trace_targets())
            tracer.begin_op(**{workload.op_label: index})
            try:
                result = workload.op(index, lambda: tracer.span(workload.root))
            finally:
                tracer.uninstall()
            attribution = tracer.end_op(workload.root)
            delta = {k: v - before.get(k, 0.0) for k, v in workload.counters().items()}
            for key, value in delta.items():
                counters[key] += value
            explained = sum(delta.get(k, 0.0) for k in workload.explained_timers) * 1e9
            residuals.append(attribution.residual_frac(explained))
            attributions.append(attribution)
            traced.append(result)
        else:
            cpu_start = time.process_time_ns()
            untraced.append(workload.op(index, nullcontext))
            cpu_ns.append(time.process_time_ns() - cpu_start)
        index += 1
    extras = observed_extras(untraced, cpu_ns)
    results = traced + untraced
    checks = [Check(
        "no_failed_ops", sum(r.failed for r in results) == 0,
        f"{sum(r.failed for r in results)} of {sum(r.attempted for r in results)} failed",
    )]
    checks += workload.checks(index)
    record: Dict[str, Any] = {
        "ops": index,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "end_to_end": end_to_end_metrics(untraced, setup_ns),
        "extras": extras,
        "setup_s_samples": [ns / 1e9 for ns in setup_ns],
        "fingerprint": host_fingerprint(),
    }
    if trace:
        record["per_layer"] = per_layer_metrics(workload, attributions, counters, traced, untraced)
        worst = max(residuals)
        checks.append(Check(
            "trace_attribution_sums_to_op", worst < 0.05,
            f"worst op residual {worst:.2e} over {len(residuals)} traced ops",
        ))
        path = os.path.join(trace_dir, f"BENCH_trace_{workload.name}.json")
        with open(path, "w") as handle:
            json.dump(tracer.chrome_trace(), handle)
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        checks.append(Check("chrome_trace_written", bool(events), f"{len(events)} events in {path}"))
        record["trace_path"] = path
    record["checks"] = [c.__dict__ for c in checks]
    return record
