"""Checksum-protected collectives: ABFT across the gradient all-reduce.

The protection trick is the linearity of the Huang–Abraham checksum
functionals already used for the attention GEMMs: for the two float64
functionals ``c1(g) = sum(g)`` and ``c2(g) = sum(g * w)`` (``w`` the 1-based
arange encoding vector),

    ``c(sum_r g_r) == sum_r c(g_r)``

holds up to float64 rounding.  Each rank therefore attaches the checksums of
its *contribution*, the checksums ride through the same reduction as the
payload, and at ``finish`` time the checksum of the reduced gradient is
recomputed and compared against the reduced checksums.  Corruption striking
any single contribution in or between the steps of the collective breaks the
identity for the affected tensor and is reported as a
:class:`DirtyReductionError` naming the dirty tensor indices — without any
rank-to-rank comparison of the payloads themselves.

Dispatch accounting mirrors the attention engine's counter-verified style:
``checksum_encodes`` (one per tensor per rank per reduction),
``checksum_verifies`` (one recompute per tensor per reduction) and
``mismatches`` are matched against
``SectionCostModel.collective_checksum_dispatches_per_step`` in tests and in
``BENCH_fig12.json``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import backend_of, namespace_of
from repro.comm.collective import Collective
from repro.utils.timing import TimingRegistry

__all__ = [
    "gradient_checksum",
    "gradient_checksums",
    "DirtyReductionError",
    "ProtectedCollective",
]

#: Cache of the float64 arange encoding vectors, keyed by (namespace, length).
#: Mirrors the checksum-weights cache of the attention engine: the vectors
#: are tiny, immutable and reused every step.
_ENCODING_VECTORS: Dict[Tuple[int, int], Any] = {}


def _encoding_vector(xp: Any, length: int) -> Any:
    key = (id(xp), length)
    vector = _ENCODING_VECTORS.get(key)
    if vector is None:
        vector = xp.arange(1, length + 1, dtype=xp.float64)
        _ENCODING_VECTORS[key] = vector
    return vector


def gradient_checksum(array: Any) -> Any:
    """The ``(2,)`` float64 checksum of one gradient tensor.

    ``[0]`` is the plain sum, ``[1]`` the 1-based arange-weighted sum — the
    two linear functionals of the paper's checksum encoding, flattened over
    the tensor.  Linearity is what makes the pair reduction-transparent.
    """
    xp = namespace_of(array)
    flat = xp.reshape(array, (-1,))
    flat64 = flat.astype(xp.float64) if flat.dtype != xp.float64 else flat
    weights = _encoding_vector(xp, int(flat.shape[0]))
    out = xp.zeros((2,), dtype=xp.float64)
    out[0] = flat64.sum()
    out[1] = (flat64 * weights).sum()
    return out


def gradient_checksums(arrays: Sequence[Any]) -> Any:
    """Stacked ``(len(arrays), 2)`` float64 checksums of a gradient list."""
    if not arrays:
        raise ValueError("cannot checksum an empty gradient list")
    xp = namespace_of(arrays[0])
    if len(arrays) == 1:
        # Single-tensor payloads (flat gradient buckets) are the hot path of
        # the data-parallel trainer: skip the stack dispatch.
        return xp.reshape(gradient_checksum(arrays[0]), (1, 2))
    return xp.stack([gradient_checksum(a) for a in arrays])


class DirtyReductionError(RuntimeError):
    """The reduced checksums disagree with the checksum of the reduction.

    Attributes
    ----------
    key:
        The collective key whose reduction failed verification.
    dirty_indices:
        Indices (into the contributed array list) of the tensors whose
        checksum identity broke.
    reduced:
        The (corrupt) reduced arrays, so a ``record``-policy caller can still
        proceed with them after counting the detection.
    """

    def __init__(self, key: str, dirty_indices: List[int], reduced: List[Any]) -> None:
        super().__init__(
            f"dirty reduction for {key!r}: checksum mismatch on tensor(s) "
            f"{dirty_indices}"
        )
        self.key = key
        self.dirty_indices = dirty_indices
        self.reduced = reduced


class ProtectedCollective(Collective):
    """Wrap a :class:`Collective` with checksummed all-reduce verification.

    Every payload contribution is extended with its ``(n, 2)`` float64
    checksum matrix; payload and checksums ride the same inner reduction, so
    any linear inner op keeps the identity (for ``mean`` both sides of the
    comparison are scaled alike).

    ``comm/allreduce`` (inner rendezvous + reduction) and ``comm/verify``
    (checksum encode + recompute + compare) are accumulated internally by the
    per-rank worker threads and folded into a shared
    :class:`TimingRegistry` from the coordinator via :meth:`fold_timers`.

    Worker-shared counter state (``_checksum_encodes``, ``_checksum_verifies``,
    ``_mismatches``, ``_verify_seconds``, ``_allreduce_seconds``) is only
    touched under ``self._lock``; reprolint's TH001 rule checks this file.
    """

    #: Relative / absolute tolerance of the linearity comparison.  float64
    #: checksums of float64 gradients agree to ~1e-15 relative; injected
    #: faults (exponent flips, INF/NaN, unit-scale deltas) sit many orders of
    #: magnitude above this line.
    rtol = 1e-6
    atol = 1e-9
    #: Safety factor of the dtype-aware reduction slack (see
    #: :meth:`_dirty_rows`): the inner reduction folds in the *payload's*
    #: arithmetic, so lower-precision payloads (fp32/fp16 gradients) round
    #: each fold step by their own machine epsilon while the checksums ride
    #: in float64.  The slack bounds that legitimate drift by
    #: ``(world-1) * eps(payload dtype) * slack_factor * checksum(|reduced|)``
    #: — negligible for float64 payloads, and still orders of magnitude below
    #: injected faults for half precision.
    slack_factor = 8.0

    def __init__(self, inner: Collective, timers: Optional[TimingRegistry] = None) -> None:
        super().__init__(inner.world_size)
        self.inner = inner
        self.timers = timers
        self._lock = threading.Lock()
        # Worker-shared accounting below: touch only under ``with self._lock``.
        self._checksum_encodes = 0
        self._checksum_verifies = 0
        self._mismatches = 0
        self._verify_seconds = 0.0
        self._allreduce_seconds = 0.0
        self._verdicts: Dict[str, List[int]] = {}
        self._verdict_fetches: Dict[str, int] = {}

    # -- two-phase protected all-reduce ----------------------------------------------

    def contribute(self, key: str, rank: int, arrays: Sequence[Any]) -> None:
        arrays = list(arrays)
        begin = time.perf_counter()
        checksums = gradient_checksums(arrays)
        verify_elapsed = time.perf_counter() - begin
        begin = time.perf_counter()
        self.inner.contribute(key, rank, arrays + [checksums])
        reduce_elapsed = time.perf_counter() - begin
        with self._lock:
            self._checksum_encodes += len(arrays)
            self._verify_seconds += verify_elapsed
            self._allreduce_seconds += reduce_elapsed

    def finish(self, key: str, rank: int) -> List[Any]:
        begin = time.perf_counter()
        reduced = self.inner.finish(key, rank)
        reduce_elapsed = time.perf_counter() - begin
        payload, reduced_checksums = reduced[:-1], reduced[-1]
        begin = time.perf_counter()
        with self._lock:
            # The reduction is shared, so its verdict is too: the first rank
            # through verifies once, peers pick the cached verdict up — the
            # per-step verify count stays one recompute per tensor.
            if key not in self._verdicts:
                self._verdicts[key] = self._dirty_rows(payload, reduced_checksums)
                self._verdict_fetches[key] = 0
                self._checksum_verifies += len(payload)
                self._mismatches += len(self._verdicts[key])
            dirty_rows = self._verdicts[key]
            self._verdict_fetches[key] += 1
            if self._verdict_fetches[key] == self.world_size:
                del self._verdicts[key]
                del self._verdict_fetches[key]
            self._verify_seconds += time.perf_counter() - begin
            self._allreduce_seconds += reduce_elapsed
        if dirty_rows:
            raise DirtyReductionError(key, dirty_rows, payload)
        return payload

    def _dirty_rows(self, payload: List[Any], reduced_checksums: Any) -> List[int]:
        """Indices of payload tensors whose checksum identity broke."""
        recomputed = gradient_checksums(payload)
        xp = namespace_of(recomputed)
        # NaN/INF-safe comparison.  The relative bound is only meaningful for
        # finite checksums — a non-finite recomputed checksum would make the
        # bound itself INF and let ``inf <= inf`` pass as clean.  Instead:
        # finite-vs-finite compares within tolerance; non-finite on *both*
        # sides is unverifiable (NaN/INF absorb the linear functionals — e.g.
        # a legitimately non-finite shard loss) and treated as clean;
        # non-finiteness on one side only is exactly what an injected
        # INF/NaN produces and counts as a mismatch.
        finite = xp.isfinite(reduced_checksums) & xp.isfinite(recomputed)
        delta = xp.abs(reduced_checksums - recomputed)
        bound = self.atol + self.rtol * (xp.abs(reduced_checksums) + xp.abs(recomputed))
        # Dtype-aware slack: the signed checksums cancel, so the relative
        # bound alone underestimates how much rounding the inner fold was
        # allowed — the checksum of |reduced| is the right scale for it.
        slack = xp.zeros_like(recomputed)
        for i, array in enumerate(payload):
            dtype = backend_of(array).dtype_of(array)
            if not np.issubdtype(dtype, np.floating):
                continue
            eps = float(np.finfo(dtype).eps)
            slack[i] = (
                (self.world_size - 1) * eps * self.slack_factor
                * gradient_checksum(xp.abs(array))
            )
        bound = bound + slack
        within = xp.less_equal(delta, bound)
        both_nonfinite = ~xp.isfinite(reduced_checksums) & ~xp.isfinite(recomputed)
        clean = (finite & within) | both_nonfinite
        return [i for i in range(len(payload)) if not bool(clean[i].all())]

    def broadcast(
        self, key: str, rank: int, arrays: Optional[Sequence[Any]] = None, root: int = 0
    ) -> List[Any]:
        return self.inner.broadcast(key, rank, arrays, root=root)

    def close(self) -> None:
        self.inner.close()

    def poison(self, exc: BaseException) -> None:
        self.inner.poison(exc)

    # -- accounting ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "checksum_encodes": self._checksum_encodes,
                "checksum_verifies": self._checksum_verifies,
                "mismatches": self._mismatches,
            }

    def fold_timers(self, registry: Optional[TimingRegistry] = None) -> None:
        """Move the accumulated ``comm/*`` durations into a registry.

        Called from a single coordinating thread (between steps).  ``None``
        folds into the registry given at construction.
        """
        registry = registry if registry is not None else self.timers
        if registry is None:
            return
        with self._lock:
            verify, self._verify_seconds = self._verify_seconds, 0.0
            allreduce, self._allreduce_seconds = self._allreduce_seconds, 0.0
        if verify:
            registry.add("comm/verify", verify)
        if allreduce:
            registry.add("comm/allreduce", allreduce)
