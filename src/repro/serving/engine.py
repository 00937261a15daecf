"""Batched protected-inference serving engine.

Scheduling is static left-padded batching: requests are admitted in arrival
order into batches of ``max_batch_size``, each batch runs one prefill over
the padded prompts and then decodes greedily (argmax over the model's
``score`` head) until every member's generation budget is spent.  Left
padding keeps the last position of the padded layout a *real* token for every
request, so one logits slice serves the whole batch.

Protection is per-request: after every prefill/decode step the engine drains
the attached :class:`~repro.core.ATTNChecker`'s recent section outcomes and
reads their ``request_dirty`` masks (the per-request fault attribution the
``ProtectionEngine`` computes from the detected/aborted vectors of each
boundary check).  A dirty request whose boundary was fully corrected is
counted ``repaired`` and keeps decoding; one with damage the corrector could
not fully repair (aborted vectors, or fewer corrections than detections) or
with non-finite logits, which would poison the argmax, is always *evicted*
and its outputs discarded, so batch-mates are unaffected.

Dead slots do not keep stepping: the decode loop *compacts* the physical
batch down to the slots that still produce tokens (``slot_map`` tracks
physical → original indices), which is sound because the KV checksum
side-state is per-slot-independent — ``cs_x`` and ``cs_v_row`` never mix
batch rows, so :meth:`~repro.nn.attention.LayerKVCache.compact` slices them
together with K/V.  The physical batch is floored at two slots (a
single-row GEMM takes the gemv path, whose low bits can differ from the
batched rows — the surviving request's token stream must stay bitwise
identical to its full-batch run), padding with a completed slot in
preference to an evicted one.  The decode loop also exits as soon as no
slot is active, so decode cost tracks live requests — ``decode_steps`` /
``decode_slot_steps`` on the report counter-verify both effects.

Timer keys (see the README glossary): ``serve/schedule`` (padding + cache
allocation), ``serve/prefill``, ``serve/decode`` and ``serve/verify`` (the
outcome drain / eviction bookkeeping).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.attention_checker import ATTNChecker
from repro.faults.injector import FaultInjector
from repro.models import SequenceClassificationModel
from repro.nn.attention import INCREMENTAL_SECTIONS
from repro.serving.workload import PAD_TOKEN_ID, ServingRequest
from repro.tensor.autograd import no_grad
from repro.utils.timing import TimingRegistry

__all__ = ["ServingConfig", "RequestResult", "ServingReport", "ServingEngine"]


@dataclass
class ServingConfig:
    """Knobs of the serving engine.

    Attributes
    ----------
    max_batch_size:
        Requests admitted per batch (static batching).
    """

    max_batch_size: int = 4

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")


@dataclass
class RequestResult:
    """Outcome of one served request."""

    request_id: int
    status: str  # "completed" | "evicted"
    tokens: List[int] = field(default_factory=list)
    latency_seconds: float = 0.0
    #: Boundary checks that flagged this request dirty and were fully
    #: repaired in place (the request kept decoding).
    repaired_detections: int = 0

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)


@dataclass
class ServingReport:
    """Aggregate serving metrics, JSON-serialisable for the benchmark gate."""

    protection: bool
    results: List[RequestResult]
    wall_seconds: float
    #: Engine timer seconds spent during this run, per key.
    timer_seconds: Dict[str, float]
    #: Checker checks / detections / corrections during this run.
    checker_stats: Dict[str, int]
    #: Decode-loop iterations across all batches of the run.
    decode_steps: int = 0
    #: Physical slots stepped, summed over decode iterations — with slot
    #: compaction this tracks live requests rather than batch size x budget.
    decode_slot_steps: int = 0

    @property
    def num_completed(self) -> int:
        return sum(1 for r in self.results if r.status == "completed")

    @property
    def num_evicted(self) -> int:
        return sum(1 for r in self.results if r.status == "evicted")

    @property
    def total_new_tokens(self) -> int:
        return sum(r.num_tokens for r in self.results if r.status == "completed")

    @property
    def tokens_per_second(self) -> float:
        return self.total_new_tokens / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentile_ms(self, percentile: float) -> float:
        latencies = [r.latency_seconds * 1e3 for r in self.results]
        return float(np.percentile(latencies, percentile)) if latencies else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protection": self.protection,
            "num_requests": len(self.results),
            "num_completed": self.num_completed,
            "num_evicted": self.num_evicted,
            "repaired_detections": sum(r.repaired_detections for r in self.results),
            "total_new_tokens": self.total_new_tokens,
            "wall_seconds": self.wall_seconds,
            "tokens_per_second": self.tokens_per_second,
            "latency_p50_ms": self.latency_percentile_ms(50.0),
            "latency_p99_ms": self.latency_percentile_ms(99.0),
            "timer_seconds": dict(self.timer_seconds),
            "checker_stats": dict(self.checker_stats),
            "decode_steps": self.decode_steps,
            "decode_slot_steps": self.decode_slot_steps,
        }


class _BatchState:
    """Mutable per-batch serving state (one slot per admitted request)."""

    def __init__(self, requests: List[ServingRequest], start_time: float) -> None:
        self.requests = requests
        self.start_time = start_time
        size = len(requests)
        self.active = np.ones(size, dtype=bool)      # still producing tokens
        self.alive = np.ones(size, dtype=bool)       # not evicted
        self.results = [
            RequestResult(request_id=r.request_id, status="completed") for r in requests
        ]

    def evict(self, index: int) -> None:
        if not self.alive[index]:
            return
        self.alive[index] = False
        self.active[index] = False
        result = self.results[index]
        result.status = "evicted"
        result.latency_seconds = time.perf_counter() - self.start_time

    def complete(self, index: int) -> None:
        if self.active[index]:
            self.active[index] = False
            self.results[index].latency_seconds = time.perf_counter() - self.start_time


class ServingEngine:
    """Serve requests through a causal decoder model, optionally protected.

    Parameters
    ----------
    model:
        A :class:`~repro.models.SequenceClassificationModel` whose config
        is a causal pre-LN decoder (``TypeError`` otherwise), served through
        its ``new_kv_caches`` / ``prefill`` / ``decode_step`` /
        ``lm_logits``.
        The engine puts the model in ``eval()`` mode, because dropout must
        be off for the KV-cached decode to equal the full forward, and
        serves under :func:`repro.tensor.autograd.no_grad`, so no forward
        records an autograd graph.
    checker:
        Optional :class:`~repro.core.ATTNChecker` already attached to the
        model via ``set_attention_hooks`` (protection on); ``None`` serves
        unprotected.  ``AS`` and ``CL`` carry their input checksums in the
        KV cache from token to token, so their frequencies must be 0 or 1
        (``ValueError`` otherwise); ``O``, ``FF1`` and ``FF2`` carry nothing
        and may take any frequency.
    injector:
        Optional :class:`~repro.faults.FaultInjector` composed with the
        checker; the engine opens a per-request injection scope
        (:meth:`~repro.faults.FaultInjector.begin_request`) at each batch.
    """

    def __init__(
        self,
        model: SequenceClassificationModel,
        checker: Optional[ATTNChecker] = None,
        injector: Optional[FaultInjector] = None,
        config: Optional[ServingConfig] = None,
    ) -> None:
        if not (model.config.causal and model.config.norm_style == "pre_ln"):
            # Post-LN layers keep no KV cache, and only pre-LN models have
            # the ``score`` generation head.
            raise TypeError(
                f"model {model.config.name!r} is not a causal pre-LN decoder; "
                "serving needs a causal decoder"
            )
        if model.config.num_labels > model.config.vocab_size:
            raise ValueError(
                f"generation head width num_labels={model.config.num_labels} exceeds "
                f"vocab_size={model.config.vocab_size}; greedy tokens would not be "
                "valid input ids"
            )
        if checker is not None:
            for section in INCREMENTAL_SECTIONS:
                frequency = checker.config.frequencies[section]
                if 0.0 < frequency < 1.0:
                    raise ValueError(
                        f"serving needs section {section} at frequency 0 or 1, got "
                        f"{frequency}: the KV cache carries its input checksums from "
                        "token to token, so every decode step must extend them"
                    )
        self.model = model
        self.checker = checker
        self.injector = injector
        self.config = config or ServingConfig()
        self.timers = TimingRegistry()
        self.decode_steps = 0
        self.decode_slot_steps = 0
        model.eval()

    # -- public API -----------------------------------------------------------------

    def run(self, requests: List[ServingRequest]) -> ServingReport:
        """Serve ``requests`` to completion and return the aggregate report.

        Every figure on the report covers this call only.  ``self.timers``
        and the checker's statistics keep accumulating across calls, so the
        report carries their differences over the run.  Nothing is
        back-propagated through a served forward, so the run records no
        autograd graph (:func:`~repro.tensor.autograd.no_grad`).
        """
        start = time.perf_counter()
        results: List[RequestResult] = []
        self.decode_steps = 0
        self.decode_slot_steps = 0
        timers_before = self.timers.as_dict()
        checker_before = self._checker_totals()
        batch_size = self.config.max_batch_size
        with no_grad():
            for batch_start in range(0, len(requests), batch_size):
                batch = requests[batch_start : batch_start + batch_size]
                results.extend(self._run_batch(batch_start // batch_size, batch))
        wall = time.perf_counter() - start
        checker_stats = {
            key: value - checker_before[key]
            for key, value in self._checker_totals().items()
        }
        timer_seconds = {
            key: value - timers_before.get(key, 0.0)
            for key, value in self.timers.as_dict().items()
        }
        return ServingReport(
            protection=self.checker is not None,
            results=results,
            wall_seconds=wall,
            timer_seconds=timer_seconds,
            checker_stats=checker_stats,
            decode_steps=self.decode_steps,
            decode_slot_steps=self.decode_slot_steps,
        )

    def _checker_totals(self) -> Dict[str, int]:
        """The attached checker's lifetime counters (empty when unprotected)."""
        if self.checker is None:
            return {}
        stats = self.checker.stats
        return {
            "checks": stats.total_checks,
            "detections": stats.total_detections,
            "corrections": stats.total_corrections,
        }

    # -- batch execution ------------------------------------------------------------

    def _run_batch(self, batch_index: int, batch: List[ServingRequest]) -> List[RequestResult]:
        model = self.model
        size = len(batch)
        with self.timers.measure("serve/schedule"):
            prompt_len = max(r.prompt_len for r in batch)
            budget = max(r.max_new_tokens for r in batch)
            total_len = prompt_len + budget
            if total_len > model.config.max_seq_len:
                raise ValueError(
                    f"batch needs {total_len} positions but the model supports "
                    f"max_seq_len={model.config.max_seq_len}"
                )
            ids = np.full((size, prompt_len), PAD_TOKEN_ID, dtype=np.int64)
            # One mask over the whole padded layout, ones for every position
            # that is (or will become) a real token.  Decode steps slice it,
            # and its *identity* keys the attention decode-mask cache — so it
            # is built once here and passed unchanged every step.
            mask = np.zeros((size, total_len), dtype=np.float64)
            for i, request in enumerate(batch):
                ids[i, prompt_len - request.prompt_len :] = request.prompt_array()
                mask[i, prompt_len - request.prompt_len :] = 1.0
            caches = model.new_kv_caches(size, max_len=total_len)
        state = _BatchState(batch, start_time=time.perf_counter())
        if self.injector is not None:
            self.injector.begin_request(batch_index)

        slot_map = np.arange(size)
        with self.timers.measure("serve/prefill"):
            hidden = model.prefill(ids, mask[:, :prompt_len], caches)
            # Left padding makes the last position a real token for every
            # request, so one slice serves the whole batch.
            logits = self._last_logits(hidden, position=-1)
        self._absorb_outcomes(state, slot_map)
        self._check_logits(state, logits, slot_map)
        next_ids = np.argmax(logits, axis=-1).astype(np.int64)

        remaining = np.array([r.max_new_tokens for r in batch], dtype=np.int64)
        self._record_tokens(state, next_ids, remaining, slot_map)
        for _ in range(int(budget) - 1):
            if not state.active.any():
                break
            slot_map, mask, next_ids = self._maybe_compact(
                state, slot_map, mask, caches, next_ids
            )
            self.decode_steps += 1
            self.decode_slot_steps += len(slot_map)
            with self.timers.measure("serve/decode"):
                hidden = model.decode_step(next_ids[:, None], caches, attention_mask=mask)
                logits = self._last_logits(hidden, position=0)
            self._absorb_outcomes(state, slot_map)
            self._check_logits(state, logits, slot_map)
            next_ids = np.argmax(logits, axis=-1).astype(np.int64)
            self._record_tokens(state, next_ids, remaining, slot_map)
        for i in range(size):
            state.complete(i)
        return state.results

    # -- helpers --------------------------------------------------------------------

    def _maybe_compact(
        self,
        state: _BatchState,
        slot_map: np.ndarray,
        mask: np.ndarray,
        caches: List[Any],
        next_ids: np.ndarray,
    ) -> tuple:
        """Drop dead physical slots so decode cost tracks live requests.

        Keeps the slots whose original request is still active, floored at
        two physical slots (single-row GEMMs take the gemv path, whose low
        bits can differ from batched rows — the bitwise fault-isolation
        guarantee requires M >= 2); a needed pad slot is taken from the
        dead ones, preferring a completed (clean-KV) slot over an evicted
        one.
        """
        physical = len(slot_map)
        keep = [p for p in range(physical) if state.active[slot_map[p]]]
        if len(keep) < 2:
            dead = [p for p in range(physical) if not state.active[slot_map[p]]]
            # Completed slots (still alive) first, evicted ones last.
            dead.sort(key=lambda p: (not state.alive[slot_map[p]], p))
            keep = sorted(keep + dead[: 2 - len(keep)])
        if len(keep) == physical:
            return slot_map, mask, next_ids
        keep_idx = np.asarray(keep, dtype=np.int64)
        for cache in caches:
            cache.compact(keep_idx)
        # The rebuilt mask is a new object on purpose: its identity keys the
        # attention decode-mask cache, so the cache re-derives once per
        # compaction and then reuses the entry every following step.
        return slot_map[keep_idx], np.ascontiguousarray(mask[keep_idx]), next_ids[keep_idx]

    def _last_logits(self, hidden: Any, position: int) -> np.ndarray:
        return self.model.lm_logits(hidden).data[:, position, :]

    def _record_tokens(
        self,
        state: _BatchState,
        next_ids: np.ndarray,
        remaining: np.ndarray,
        slot_map: np.ndarray,
    ) -> None:
        for p in range(len(slot_map)):
            i = int(slot_map[p])
            if not state.active[i] or remaining[i] <= 0:
                continue
            state.results[i].tokens.append(int(next_ids[p]))
            remaining[i] -= 1
            if remaining[i] == 0:
                state.complete(i)

    def _check_logits(
        self, state: _BatchState, logits: np.ndarray, slot_map: np.ndarray
    ) -> None:
        """Evict slots whose generation logits went non-finite.

        The ABFT sections cover the attention GEMMs — plus the FFN GEMMs
        when the checker's ``protect_scope`` includes them — but a fault
        that slipped into an unprotected path (embeddings, LayerNorm, an
        attention-scope FFN) or an uncorrected extreme still must not drive
        the argmax of a live request.
        """
        finite = np.isfinite(logits).all(axis=-1)
        for p in np.flatnonzero(~finite):
            i = int(slot_map[p])
            if state.alive[i]:
                state.evict(i)

    def _absorb_outcomes(self, state: _BatchState, slot_map: np.ndarray) -> None:
        """Fold the checker's recent outcomes into per-request dispositions.

        Dirty masks are indexed by *physical* slot of the step they were
        recorded at; that step ran under the current ``slot_map``, which
        maps them back to original requests.
        """
        checker = self.checker
        if checker is None:
            return
        with self.timers.measure("serve/verify"):
            for outcome in checker.take_recent_outcomes():
                report = outcome.report
                if report is None or outcome.request_dirty is None:
                    continue
                dirty = np.asarray(outcome.request_dirty).astype(bool).reshape(-1)
                if dirty.shape[0] != len(slot_map) or not dirty.any():
                    continue
                uncorrected = report.aborted > 0 or report.corrected < report.detected
                for p in np.flatnonzero(dirty):
                    i = int(slot_map[p])
                    if not state.alive[i]:
                        continue
                    if uncorrected:
                        state.evict(i)
                    else:
                        state.results[i].repaired_detections += 1
