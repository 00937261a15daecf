"""Data-parallel sharded training with a checksum-protected all-reduce.

:class:`DataParallelTrainer` shards each global batch across ``shards``
virtual ranks, every rank owning its own model replica,
optimizer and (optionally) per-shard :class:`~repro.core.ATTNChecker`, which
verifies and corrects its rank's sections inside the forward pass.  Gradient
synchronisation goes through the :mod:`repro.comm` collective seam, and the
all-reduce itself is ABFT-covered: each rank attaches float64 gradient
checksums, and the linearity identity ``checksum(sum of gradients) == sum of
checksums`` is verified on the reduced result
(:class:`repro.comm.ProtectedCollective`).

**Determinism / byte-equivalence.**  The shard count is decoupled from the
worker count: ``shards`` fixes the numerical decomposition (R replicas, R
per-shard gradients, one rank-ordered reduction) while ``workers`` only
decides where those ranks run: ``workers=1`` drives every rank on the
calling thread, more workers drive them from a pool of that many OS threads.
Because the reduction is a deterministic left fold in rank order and every
per-rank computation sees identical inputs regardless of which thread runs
it, training with any worker count produces **byte-identical weights** at a
fixed shard count — the property the N-worker vs 1-worker equivalence test
pins.  Thread workers overlap where NumPy releases the GIL (BLAS GEMMs).

**Dirty reductions.**  ``dirty_policy`` decides what a checksum mismatch at
the reduction does:

* ``"record"`` — count the dirty reduction and proceed with its result;
* ``"reexecute"`` — re-execute the reduction from the ranks' retained (and
  still intact) local gradients under a fresh key, up to
  ``max_retries_per_step`` times — a transient fault in the collective does
  not recur;
* ``"abort"`` — raise :class:`DirtyReductionAbort`.

**One bucketed reduction.**  Trainable parameters are partitioned into
size-capped buckets in reverse-registration order
(:class:`repro.comm.GradientBucketer`; the tiny models fit one bucket at the
default 1 MiB cap).  Each bucket reduces as one flat payload under its own
rendezvous key ``step{N}/bucket{k}``, and the loss scalar rides the final
bucket as its payload's second array.  A dirty reduction is therefore
*bucket-granular*: ``dirty_policy="reexecute"`` re-contributes only the
dirty bucket's retained clean payloads under ``step{N}/bucket{k}#retry{a}``.
``overlap_grad_reduce`` only picks *when* buckets launch.  ``True`` installs
post-accumulate gradient hooks, and a rank ``contribute``\\ s a bucket the
moment its last gradient lands during backward — the collective folds it
eagerly while backprop continues on earlier layers.  ``False`` launches every
bucket after ``forward_backward`` returns.  Post-backward launches go in
ascending bucket order.  Because the per-bucket fold is the same rank-ordered
elementwise left fold over a pure concatenation, every launch timing, bucket
cap and worker count is **byte-identical**.

Timer keys: ``parallel/step`` (coordinator wall clock), ``comm/allreduce``
(rendezvous + reduction) and ``comm/verify`` (checksum encode / recompute /
compare), the latter two folded from the per-rank workers into the shared
registry between steps, plus ``comm/bucket`` (flatten/unflatten bookkeeping),
``comm/overlap`` (backward wall time with a bucket reduction already in
flight) and ``comm/drain`` (the wait for every bucket's reduction after
backward); ``overlap_efficiency`` on the step result is
``overlap / (overlap + drain)``.

**No unbounded wait.**  The coordinator waits for its rank workers at most
:data:`repro.comm.collective.WAIT_DEADLINE_SECONDS`, the same deadline the
collective's own waits use.  On expiry it poisons the collective, so every
rank still blocked in it fails fast, and raises
:class:`~repro.comm.CollectiveTimeout`.
"""

from __future__ import annotations

import copy
import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.comm.collective as comm_collective
from repro.comm import (
    BucketAccounting,
    BucketReadiness,
    CollectiveError,
    CollectiveTimeout,
    DirtyReductionError,
    GradientBucketer,
    ProtectedCollective,
    ThreadCollective,
)
from repro.core.attention_checker import ATTNChecker, ATTNCheckerConfig
from repro.faults.injector import FaultInjector
from repro.nn.attention import AttentionHooks, ComposedHooks
from repro.nn.module import Module
from repro.training.optimizer import AdamW
from repro.training.trainer import clip_gradients
from repro.utils.logging import get_logger
from repro.utils.timing import TimingRegistry

__all__ = [
    "EXECUTORS",
    "DIRTY_POLICIES",
    "DirtyReductionAbort",
    "ReplicaSpec",
    "DataParallelConfig",
    "ParallelStepResult",
    "DataParallelTrainer",
]

logger = get_logger("training.parallel")

#: Accepted values of :attr:`DataParallelConfig.executor`.  ``workers`` alone
#: decides where ranks run; the field stays for callers that still name it.
EXECUTORS = ("thread",)

#: Policies for a gradient reduction whose checksum identity broke.
DIRTY_POLICIES = ("record", "reexecute", "abort")


class DirtyReductionAbort(RuntimeError):
    """Raised by ``dirty_policy="abort"`` when a gradient reduction verifies
    dirty."""


@dataclass
class ReplicaSpec:
    """Recipe for building one model replica.

    Every rank builds from the *same* spec (same seed), so replicas start
    byte-identical.
    """

    name: str = "bert-base"
    size: str = "tiny"
    seed: int = 0
    num_labels: Optional[int] = None
    overrides: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Module:
        from repro.models import build_model

        return build_model(
            self.name,
            size=self.size,
            rng=np.random.default_rng(self.seed),
            num_labels=self.num_labels,
            **self.overrides,
        )


@dataclass
class DataParallelConfig:
    """Knobs of the data-parallel trainer.

    Attributes
    ----------
    workers:
        Where the ranks run: ``1`` drives every rank on the calling thread,
        more than one drives them from a pool of that many OS threads.
    shards:
        Virtual ranks R — the numerical decomposition of the global batch.
        Defaults to ``workers``.  ``workers`` may be smaller than ``shards``
        (each thread then owns a stride of ranks); it must not be larger.
    executor:
        Must be ``"thread"`` (:data:`EXECUTORS`); ``workers`` chooses threads.
    learning_rate / weight_decay / max_grad_norm:
        Per-replica AdamW and clipping settings (clipping runs on the
        *reduced* gradient, identically on every rank).
    dirty_policy / max_retries_per_step:
        Recovery policy for dirty reductions (see the module docstring).
    protection:
        Optional :class:`~repro.core.ATTNCheckerConfig`; each rank gets its
        own independent checker built from a deep copy of this config.
    overlap_grad_reduce / bucket_cap_mb:
        ``overlap_grad_reduce`` launches bucket reductions from inside
        backward instead of after it (see the module docstring); the result
        is byte-identical either way.  ``bucket_cap_mb`` is the soft
        per-bucket size cap in MiB.
    """

    workers: int = 2
    shards: Optional[int] = None
    executor: str = "thread"
    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    dirty_policy: str = "record"
    max_retries_per_step: int = 2
    protection: Optional[ATTNCheckerConfig] = None
    overlap_grad_reduce: bool = False
    bucket_cap_mb: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.bucket_cap_mb > 0:
            raise ValueError(f"bucket_cap_mb must be > 0, got {self.bucket_cap_mb}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS} "
                "(workers=1 runs every rank on the calling thread, workers > 1 "
                "on a thread pool)"
            )
        if self.dirty_policy not in DIRTY_POLICIES:
            raise ValueError(
                f"unknown dirty_policy {self.dirty_policy!r}; "
                f"expected one of {DIRTY_POLICIES}"
            )
        if self.shards is None:
            self.shards = self.workers
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers > self.shards:
            raise ValueError(
                f"workers ({self.workers}) must not exceed shards ({self.shards}); "
                "extra workers would idle and break the fixed numerical decomposition"
            )

    @property
    def world_size(self) -> int:
        return int(self.shards)  # type: ignore[arg-type]


@dataclass
class ParallelStepResult:
    """Metrics of one data-parallel optimisation step."""

    step: int
    loss: float
    shard_losses: List[float]
    step_seconds: float
    #: Gradient buckets whose dirty reduction was adopted this step (under
    #: ``record``, or ``reexecute`` with its retries exhausted).
    dirty_reductions: int = 0
    #: Re-executed reductions (``dirty_policy="reexecute"``) this step.
    reduction_reexecutions: int = 0
    #: Attention detections / corrections summed over the rank checkers.
    detections: int = 0
    corrections: int = 0
    #: Gradient buckets of the reduction (always >= 1).
    buckets: int = 0
    #: Summed per-rank backward wall time with a bucket reduction in flight.
    overlap_seconds: float = 0.0
    #: Summed per-rank post-backward wait for the remaining reductions.
    drain_seconds: float = 0.0
    #: ``overlap / (overlap + drain)`` — 1.0 means the reduction fully hid
    #: behind backward, 0.0 means it all serialised after it.
    overlap_efficiency: float = 0.0

    @property
    def non_trainable(self) -> bool:
        return math.isnan(self.loss)


class _RankRunner:
    """One rank's replica, optimizer, checker and step logic.

    :meth:`forward_backward` produces the rank's gradients and :meth:`apply`
    adopts the verified reduction.
    """

    def __init__(
        self,
        rank: int,
        model: Module,
        config: DataParallelConfig,
        checker: Optional[ATTNChecker] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.rank = rank
        self.model = model
        self.config = config
        self.checker = checker
        self.injector = injector
        self.params = model.parameters()
        self.optimizer = AdamW(
            self.params,
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        # In-backward launch machinery (installed by install_launch_hooks).
        self.tracker: Optional[BucketReadiness] = None
        self._launch: Optional[Any] = None
        self._hook_handles: List[Any] = []
        #: Shard loss of the in-flight forward/backward attempt, readable by
        #: mid-backward bucket launches (the loss scalar rides the final
        #: bucket's payload instead of its own rendezvous).
        self.current_loss: float = math.nan
        hooks: List[AttentionHooks] = []
        if injector is not None:
            hooks.append(injector)
        if checker is not None:
            hooks.append(checker)
        if hooks:
            model.set_attention_hooks(ComposedHooks(hooks))
        model.train()

    # -- in-backward bucket launches ---------------------------------------------------

    def install_launch_hooks(self, bucketer: GradientBucketer, launch: Any) -> None:
        """Launch each bucket from backward the moment its last gradient lands.

        ``launch(rank, bucket, grads, loss, during_backward)`` is the
        trainer's launch function.  Buckets still pending when backward
        returns (parameters the loss never reached) launch after it.
        """
        self.tracker = bucketer.tracker()
        self._launch = launch
        for index, param in enumerate(self.params):
            handle = param.register_post_accumulate_grad_hook(
                lambda _t, i=index: self._on_grad_ready(i)
            )
            self._hook_handles.append(handle)

    def _on_grad_ready(self, param_index: int) -> None:
        bucket = self.tracker.mark(param_index)
        if bucket is not None:
            self._launch(
                self.rank, bucket, [p.grad for p in self.params], self.current_loss, True
            )

    # -- forward / backward -----------------------------------------------------------

    def forward_backward(self, shard: Dict[str, np.ndarray]) -> float:
        """Compute this rank's shard gradient; returns the shard loss."""
        self.model.zero_grad()
        if self.tracker is not None:
            self.tracker.reset()
        output = self.model(
            shard["input_ids"],
            attention_mask=shard.get("attention_mask"),
            labels=shard["labels"],
        )
        loss_value = output.loss_value
        self.current_loss = loss_value
        if math.isfinite(loss_value):
            output.loss.backward()
        return loss_value

    # -- adopt the reduction ---------------------------------------------------------

    def apply(self, reduced: Sequence[Any], mean_loss: float) -> None:
        """Adopt the reduced gradient and advance the optimizer.

        Skipped entirely for a non-finite global mean loss, mirroring the
        single-device trainer's skip-on-non-finite rule — and because the
        mean is global, every rank makes the same decision.
        """
        if not math.isfinite(mean_loss):
            return
        for p, g in zip(self.model.parameters(), reduced):
            p.grad = g
        clip_gradients(self.model, self.config.max_grad_norm)
        self.optimizer.step()

    def close(self) -> None:
        for handle in self._hook_handles:
            handle.remove()
        self._hook_handles = []
        self.model.set_attention_hooks(None)


def _shard_batch(batch: Dict[str, np.ndarray], shards: int) -> List[Dict[str, np.ndarray]]:
    """Split a global batch into ``shards`` equal leading-axis slices."""
    size = len(batch["labels"])
    if size < shards:
        # Covers the empty batch too: an empty shard would contribute a NaN
        # loss and zero gradients, silently poisoning the global mean.
        raise ValueError(
            f"global batch size {size} is smaller than shards={shards}; "
            "every shard needs at least one row"
        )
    if size % shards != 0:
        raise ValueError(
            f"global batch size {size} is not divisible by shards={shards}; "
            "equal shards are required for the mean-of-means gradient to equal "
            "the global-batch gradient"
        )
    per = size // shards
    return [
        {k: v[r * per : (r + 1) * per] for k, v in batch.items()}
        for r in range(shards)
    ]


# -- the trainer --------------------------------------------------------------------


class DataParallelTrainer:
    """Data-parallel trainer over R virtual ranks and W workers (W <= R).

    Parameters
    ----------
    model_spec:
        Recipe every rank builds its replica from (required).  The gradient
        collective is a :class:`~repro.comm.ThreadCollective` (op ``mean``)
        over ``config.world_size`` ranks, wrapped in a
        :class:`~repro.comm.ProtectedCollective`.  With more than one rank,
        rank 0's weights are broadcast to every replica at construction.
    config:
        Sharding, workers, protection and reduction policy; defaults to
        :class:`DataParallelConfig`.
    injector:
        Optional *seed-constructed* attention :class:`FaultInjector`; each
        rank gets its own deterministic child via ``injector.spawn(rank)``.
    collective_injector:
        Optional hook ``(key, rank, arrays)`` corrupting deposited
        contributions (e.g. :class:`repro.faults.CollectiveFaultInjector`);
        installed as the inner collective's ``fault_hook``.
    """

    def __init__(
        self,
        model_spec: Optional[ReplicaSpec] = None,
        config: Optional[DataParallelConfig] = None,
        injector: Optional[FaultInjector] = None,
        collective_injector: Optional[Any] = None,
    ) -> None:
        self.config = config or DataParallelConfig()
        self.timers = TimingRegistry()
        self.metrics: List[ParallelStepResult] = []
        self.global_step = 0
        self.collective_injector = collective_injector
        world = self.config.world_size
        if model_spec is None:
            raise ValueError("model_spec is required")

        inner = ThreadCollective(
            world,
            op="mean",
            fault_hook=collective_injector,
            # The last contributor folds inside its contribute, so a
            # bucket launched mid-backward reduces while backprop runs.
            eager_reduce=True,
            # Payloads are flat scratch buffers the trainer owns, so the
            # fold may accumulate into rank 0's deposit in place — except
            # under "reexecute", where the retained payloads must survive
            # the fold intact for bucket retry.
            consume_deposits=self.config.dirty_policy != "reexecute",
        )
        self.collective = ProtectedCollective(inner, timers=self.timers)

        #: rank stride owned by each worker: worker w drives ranks w, w+W, ...
        workers = self.config.workers
        self._owned_by_worker = [list(range(w, world, workers)) for w in range(workers)]

        self.runners: List[_RankRunner] = []
        for rank in range(world):
            checker = (
                ATTNChecker(copy.deepcopy(self.config.protection))
                if self.config.protection is not None
                else None
            )
            rank_injector = injector.spawn(rank) if injector is not None else None
            self.runners.append(
                _RankRunner(rank, model_spec.build(), self.config, checker=checker,
                            injector=rank_injector)
            )
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="dp-rank")
            if workers > 1
            else None
        )
        if world > 1:
            self._broadcast_initial_weights()

        # Per-step scratch (index-assigned, one writer per slot).
        self._shard_losses: List[float] = [math.nan] * world
        self._mean_losses: List[float] = [math.nan] * world
        self._dirty_counts: List[int] = [0] * world
        self._retry_counts: List[int] = [0] * world
        #: Each rank's launched bucket payloads, retained for bucket retry.
        self._bucket_payloads: List[Dict[int, List[Any]]] = [{} for _ in range(world)]
        self._first_launch: List[Optional[float]] = [None] * world

        self._bucket_stats = BucketAccounting()
        self._bucketer = GradientBucketer(
            [p.data for p in self.runners[0].params], self.config.bucket_cap_mb
        )
        #: Set when a step timed out with a worker still running: close()
        #: must not wait for that worker.
        self._stalled = False
        if self.config.overlap_grad_reduce:
            for runner in self.runners:
                runner.install_launch_hooks(self._bucketer, self._launch_bucket)

    # -- construction helpers --------------------------------------------------------

    def _broadcast_initial_weights(self) -> None:
        state = self.runners[0].model.state_dict()
        names = sorted(state)
        arrays = [state[name] for name in names]
        for rank in range(self.config.world_size):
            received = self.collective.broadcast(
                "init/weights", rank, arrays if rank == 0 else None, root=0
            )
            if rank != 0:
                self.runners[rank].model.load_state_dict(dict(zip(names, received)))

    # -- one step ---------------------------------------------------------------------

    def _bucket_key(self, step: int, bucket: int) -> str:
        return f"step{step}/bucket{bucket}"

    def _launch_bucket(self, rank: int, bucket: int, grads: Sequence[Optional[Any]],
                       loss: float, during_backward: bool) -> None:
        """Flatten and contribute one bucket of ``rank``'s gradients.

        Called from a post-accumulate hook mid-backward, or after backward
        for every bucket still pending.  ``None`` gradients fill with zeros.
        The loss scalar rides the final bucket as the payload's second
        array, and the payload is retained for bucket-granular retry.
        """
        begin = time.perf_counter()
        payload = [self._bucketer.flatten(bucket, grads)]
        self._bucket_stats.add_bucket_seconds(time.perf_counter() - begin)
        if bucket == self._bucketer.num_buckets - 1:
            payload.append(np.array([loss], dtype=np.float64))
        self._bucket_payloads[rank][bucket] = payload
        self._bucket_stats.record_launch(rank, bucket, during_backward)
        if during_backward and self._first_launch[rank] is None:
            self._first_launch[rank] = time.perf_counter()
        self.collective.contribute(self._bucket_key(self.global_step, bucket), rank, payload)

    def _worker_step(self, step: int, worker: int,
                     shards: List[Dict[str, np.ndarray]]) -> None:
        """One worker's step: its ranks' forward/backward, then the reduction."""
        owned = self._owned_by_worker[worker]
        try:
            for rank in owned:
                runner = self.runners[rank]
                loss = runner.forward_backward(shards[rank])
                first = self._first_launch[rank]
                if first is not None:
                    self._bucket_stats.add_overlap_seconds(
                        max(0.0, time.perf_counter() - first)
                    )
                self._shard_losses[rank] = loss
                pending = (
                    runner.tracker.pending()
                    if runner.tracker is not None
                    else range(self._bucketer.num_buckets)
                )
                grads = [p.grad for p in runner.params]
                for bucket in pending:
                    self._launch_bucket(rank, bucket, grads, loss, False)
            reduced = self._reduce_buckets_with_policy(step, owned)
            for rank in owned:
                self.runners[rank].apply(*reduced[rank])
        except BaseException as exc:
            # Unblock peers waiting in the rendezvous; the coordinator
            # re-raises the original failure, not the poisoned peers'.
            self.collective.poison(exc)
            raise

    def _reduce_buckets_with_policy(
        self, step: int, owned: List[int]
    ) -> Dict[int, Tuple[List[Any], float]]:
        """Finish every bucket's reduction for ``owned`` ranks, applying the
        dirty policy *per bucket* — a mismatch re-reduces only the bucket it
        struck, from the ranks' retained flat payloads.

        Returns ``{rank: (parameter-order gradient list, mean loss)}``.
        Every worker runs this loop symmetrically over the same shared
        verdicts, so retries rendezvous without coordination.
        """
        drain_begin = time.perf_counter()
        policy = self.config.dirty_policy
        num_buckets = self._bucketer.num_buckets
        flat: Dict[int, Dict[int, Any]] = {rank: {} for rank in owned}
        loss_val: Dict[int, float] = {}
        total_retries = 0
        for bucket in range(num_buckets):
            base_key = self._bucket_key(step, bucket)
            key = base_key
            attempt = 0
            while True:
                dirty = False
                for rank in owned:
                    try:
                        result = self.collective.finish(key, rank)
                    except DirtyReductionError as exc:
                        result = exc.reduced
                        dirty = True
                    flat[rank][bucket] = result[0]
                    if bucket == num_buckets - 1:
                        # The reduced loss scalar rides the final bucket.
                        loss_val[rank] = float(
                            np.asarray(result[1]).reshape(-1)[0]
                        )
                if not dirty:
                    break
                if policy == "abort":
                    raise DirtyReductionAbort(
                        f"step {step}: checksum-linearity mismatch on reduced "
                        f"{base_key!r} (dirty_policy='abort')"
                    )
                if policy == "record" or attempt >= self.config.max_retries_per_step:
                    for rank in owned:
                        self._dirty_counts[rank] += 1
                    break
                # Bucket-granular re-reduction: only this bucket's retained
                # clean payloads go around again; every other bucket's
                # completed reduction stands.
                attempt += 1
                key = f"{base_key}#retry{attempt}"
                if 0 in owned:
                    # Exactly one worker owns rank 0, so the global retry is
                    # counted once however many workers observe it.
                    self._bucket_stats.record_retry(bucket)
                for rank in owned:
                    self.collective.contribute(
                        key, rank, self._bucket_payloads[rank][bucket]
                    )
            total_retries += attempt
        out: Dict[int, Tuple[List[Any], float]] = {}
        for rank in owned:
            self._retry_counts[rank] += total_retries
            self._mean_losses[rank] = loss_val[rank]
            out[rank] = (self._materialize_bucket_grads(flat[rank]), loss_val[rank])
        self._bucket_stats.add_drain_seconds(time.perf_counter() - drain_begin)
        return out

    def _materialize_bucket_grads(self, flat_by_bucket: Dict[int, Any]) -> List[Any]:
        """Parameter-order gradient views into the reduced flat buckets."""
        begin = time.perf_counter()
        full: List[Any] = [None] * self._bucketer.num_params
        for bucket in range(self._bucketer.num_buckets):
            for pi, view in self._bucketer.unflatten(
                bucket, flat_by_bucket[bucket]
            ).items():
                full[pi] = view
        self._bucket_stats.add_bucket_seconds(time.perf_counter() - begin)
        return full

    def train_step(self, batch: Dict[str, np.ndarray]) -> ParallelStepResult:
        """Run one data-parallel optimisation step on the global ``batch``."""
        self.global_step += 1
        step = self.global_step
        world = self.config.world_size
        shards = _shard_batch(batch, world)
        if self.collective_injector is not None and hasattr(
            self.collective_injector, "begin_step"
        ):
            self.collective_injector.begin_step(step)
        for slot in range(world):
            self._shard_losses[slot] = math.nan
            self._mean_losses[slot] = math.nan
            self._dirty_counts[slot] = 0
            self._retry_counts[slot] = 0
            self._bucket_payloads[slot] = {}
            self._first_launch[slot] = None

        start = time.perf_counter()
        detections_before, corrections_before = self._checker_totals()
        if self._pool is not None:
            futures = [
                self._pool.submit(self._worker_step, step, worker, shards)
                for worker in range(self.config.workers)
            ]
            deadline = comm_collective.WAIT_DEADLINE_SECONDS
            _, pending = wait(futures, timeout=deadline)
            if pending:
                # Name the ranks an open rendezvous waits on: the other
                # pending workers are only blocked on them.
                stalled = self.collective.missing_ranks() or sorted(
                    r for w, f in enumerate(futures) if f in pending
                    for r in self._owned_by_worker[w]
                )
                timeout = CollectiveTimeout(
                    f"step {step}: rank(s) {stalled} did not finish within "
                    f"{deadline:g} s"
                )
                self._stalled = True
                self.collective.poison(timeout)
                raise timeout
            errors = [exc for exc in (f.exception() for f in futures) if exc is not None]
            if errors:
                primary = next(
                    (e for e in errors if not isinstance(e, CollectiveError)), errors[0]
                )
                raise primary
        else:
            self._worker_step(step, 0, shards)

        self.collective.fold_timers(self.timers)
        elapsed = time.perf_counter() - start
        self.timers.add("parallel/step", elapsed)
        seconds = self._bucket_stats.pop_step_seconds()
        self.timers.add("comm/bucket", seconds["bucket"])
        self.timers.add("comm/overlap", seconds["overlap"])
        self.timers.add("comm/drain", seconds["drain"])
        overlap_s, drain_s = seconds["overlap"], seconds["drain"]
        total = overlap_s + drain_s
        detections_after, corrections_after = self._checker_totals()
        result = ParallelStepResult(
            step=step,
            loss=self._mean_losses[0],
            shard_losses=list(self._shard_losses),
            step_seconds=elapsed,
            dirty_reductions=self._dirty_counts[0],
            reduction_reexecutions=self._retry_counts[0],
            detections=detections_after - detections_before,
            corrections=corrections_after - corrections_before,
            buckets=self._bucketer.num_buckets,
            overlap_seconds=overlap_s,
            drain_seconds=drain_s,
            overlap_efficiency=overlap_s / total if total > 0 else 0.0,
        )
        self.metrics.append(result)
        return result

    def _checker_totals(self) -> Tuple[int, int]:
        detections = corrections = 0
        for runner in self.runners:
            if runner.checker is not None:
                detections += runner.checker.stats.total_detections
                corrections += runner.checker.stats.total_corrections
        return detections, corrections

    # -- epochs / evaluation -----------------------------------------------------------

    def train(
        self, batches: Iterable[Dict[str, np.ndarray]], epochs: int = 1
    ) -> List[ParallelStepResult]:
        batch_list = list(batches)
        if not batch_list:
            raise ValueError("no batches provided")
        for _ in range(epochs):
            for batch in batch_list:
                self.train_step(batch)
        return self.metrics

    def state_dict(self) -> Dict[str, Any]:
        """Rank 0's replica weights (identical on every rank by construction)."""
        return self.runners[0].model.state_dict()

    def collective_counters(self) -> Dict[str, int]:
        """The protected collective's cumulative dispatch counters."""
        return self.collective.counters()

    def bucket_counters(self) -> Dict[str, Any]:
        """Cumulative bucket launch / retry counters of the reduction."""
        return self._bucket_stats.counters()

    def close(self) -> None:
        """Detach every rank and release the worker pool and the collective.

        After a step that timed out, the pool shuts down without waiting for
        the stalled worker thread: Python cannot stop a thread, so that
        thread runs on until whatever it blocks on returns, and then fails
        against the poisoned, closed collective.
        """
        for runner in self.runners:
            runner.close()
        if self._pool is not None:
            self._pool.shutdown(wait=not self._stalled, cancel_futures=True)
        self.collective.close()

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
