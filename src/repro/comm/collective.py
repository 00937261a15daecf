"""In-process collectives with a deterministic rank-ordered reduction.

The :class:`Collective` interface deliberately splits every collective into a
non-blocking *contribute* phase and a blocking *finish* phase.  The split is
what lets one OS thread own several virtual ranks: it deposits every rank's
contribution first and only then blocks for the reduction, so a world of R
ranks runs correctly on any number of worker threads from 1 to R.  The
convenience :meth:`Collective.all_reduce` is just ``contribute`` + ``finish``
and is what a one-rank-per-thread worker calls.

Determinism contract: the reduction is a left fold in ascending rank order
over the deposited contributions, performed exactly once per key by whichever
caller observes the rendezvous complete.  Identical contributions therefore
produce bit-identical reductions regardless of thread count or arrival order
— the property the N-worker vs 1-worker byte-equivalence test pins.  With
``eager_reduce=True`` the fold runs inside the *last* ``contribute`` call
instead of lazily in ``finish`` — same fold, same order, bit-identical
result — so a reduction completed mid-backward (the data-parallel trainer's
bucket launches) does its work while backprop continues, rather than
deferring it to the post-backward drain.

Thread-safety / lock discipline: all worker-shared state of
:class:`ThreadCollective` (``_entries``, ``_results``, ``_fetched``,
``_failure``, ``_closed``) is only touched while holding ``self._cv`` —
the same ``with self._cv`` discipline the async verification engine uses,
and reprolint's TH001 rule now checks this file too.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend import namespace_of

__all__ = ["Collective", "CollectiveError", "CollectiveClosed", "ThreadCollective"]

#: Reduction operators: both fold in ascending rank order; ``mean`` divides
#: the rank-ordered sum by the world size afterwards (``* (1/world)``, which
#: is bit-exact identity for a world of one).
REDUCE_OPS = ("sum", "mean")


class CollectiveError(RuntimeError):
    """A peer rank failed mid-collective; the rendezvous was poisoned."""


class CollectiveClosed(CollectiveError):
    """The collective was closed while ranks were still blocked in it."""


def _validate_rank(rank: int, world_size: int) -> None:
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range for world size {world_size}")


class Collective:
    """Abstract collective over ``world_size`` virtual ranks.

    Payloads are *sequences* of arrays (one entry per gradient tensor), so a
    training step pays one rendezvous per step rather than one per parameter.
    """

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = int(world_size)

    # -- two-phase interface ---------------------------------------------------------

    def contribute(self, key: str, rank: int, arrays: Sequence[Any]) -> None:
        """Deposit ``rank``'s contribution for collective ``key`` (non-blocking)."""
        raise NotImplementedError

    def finish(self, key: str, rank: int) -> List[Any]:
        """Block until every rank contributed to ``key``; return the reduction."""
        raise NotImplementedError

    # -- convenience collectives -----------------------------------------------------

    def all_reduce(self, key: str, rank: int, arrays: Sequence[Any]) -> List[Any]:
        """Reduce ``arrays`` across all ranks; every rank gets the same result."""
        self.contribute(key, rank, arrays)
        return self.finish(key, rank)

    def broadcast(
        self, key: str, rank: int, arrays: Optional[Sequence[Any]] = None, root: int = 0
    ) -> List[Any]:
        """Distribute ``root``'s arrays to every rank (one deposit, R fetches)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any blocked ranks with :class:`CollectiveClosed`."""

    def poison(self, exc: BaseException) -> None:
        """Fail every pending and future rendezvous with ``exc`` as the cause."""


def _reduce_rank_ordered(
    contributions: List[Sequence[Any]],
    op: str,
    copy: Optional[Callable[[Any], Any]],
) -> List[Any]:
    """Left-fold the per-rank contributions in ascending rank order.

    ``copy=None`` accumulates straight into rank 0's arrays (caller asserts
    ownership of the deposits); otherwise rank 0 is copied first so deposits
    stay pristine.  Both variants run the identical elementwise adds and
    scale, so the folded bytes do not depend on the mode.
    """
    widths = {len(c) for c in contributions}
    if len(widths) != 1:
        raise CollectiveError(f"ranks contributed different array counts: {sorted(widths)}")
    if copy is None:
        reduced: List[Any] = list(contributions[0])
    else:
        reduced = [copy(a) for a in contributions[0]]
    for contribution in contributions[1:]:
        for i, array in enumerate(contribution):
            reduced[i] += array
    if op == "mean":
        world = len(contributions)
        scale = 1.0 / world
        for i, array in enumerate(reduced):
            # In place: ``reduced`` always owns its arrays here (rank-0 copy
            # or consumed deposit), and ``*=`` is the same elementwise
            # multiply — no temporary, identical bits.
            array *= scale
    return reduced


class ThreadCollective(Collective):
    """Shared-memory rendezvous collective for thread (or serial) workers.

    Contributions are copied on deposit only when a ``fault_hook`` is
    installed — the deposited buffer then models the "send buffer" handed to
    a communication library, which is exactly where the collective fault
    injector strikes, and the hook must never corrupt the caller's live
    arrays.  On the hookless path the deposit aliases the caller's arrays:
    the rank-ordered left fold only *reads* deposits (it copies the rank-0
    entry before accumulating), so no defensive copy is needed.  Callers in
    turn must not mutate contributed arrays before the key's reduction
    completes.  ``deposit_copies()`` counts the copies actually made, so the
    zero-copy claim is testable.

    Parameters
    ----------
    world_size:
        Number of virtual ranks that must contribute to each key.
    op:
        ``"sum"`` or ``"mean"`` (rank-ordered sum scaled by ``1/world``).
    fault_hook:
        Optional ``hook(key, rank, arrays)`` invoked on the deposited copy of
        each contribution (after any caller-side checksumming): the seam the
        per-rank deterministic collective fault injector plugs into.
    eager_reduce:
        When true, the last contributing rank performs the fold inside
        ``contribute`` instead of deferring it to ``finish``.  Bit-identical
        (same rank-ordered fold); used by the data-parallel trainer so bucket
        reductions launched mid-backward complete while backprop continues.
    """

    def __init__(
        self,
        world_size: int,
        op: str = "mean",
        fault_hook: Optional[Callable[[str, int, List[Any]], None]] = None,
        eager_reduce: bool = False,
        consume_deposits: bool = False,
    ) -> None:
        super().__init__(world_size)
        if op not in REDUCE_OPS:
            raise ValueError(f"op must be one of {REDUCE_OPS}, got {op!r}")
        self.op = op
        self.fault_hook = fault_hook
        self.eager_reduce = bool(eager_reduce)
        self.consume_deposits = bool(consume_deposits)
        self._cv = threading.Condition()
        # Worker-shared state below: touch only under ``with self._cv``.
        self._entries: Dict[str, Dict[int, List[Any]]] = {}
        self._results: Dict[str, List[Any]] = {}
        self._fetched: Dict[str, int] = {}
        self._deposit_copies = 0
        self._failure: Optional[BaseException] = None
        self._closed = False

    # -- deposit / reduce ------------------------------------------------------------

    @staticmethod
    def _copy(array: Any) -> Any:
        xp = namespace_of(array)
        return xp.array(array, copy=True)

    def contribute(self, key: str, rank: int, arrays: Sequence[Any]) -> None:
        _validate_rank(rank, self.world_size)
        if self.fault_hook is not None:
            # The hook mutates its input in place (that is the fault model),
            # so it gets a defensive copy; hookless deposits alias the
            # caller's arrays because the fold only reads them.
            deposited = [self._copy(a) for a in arrays]
            copies = len(deposited)
            self.fault_hook(key, rank, deposited)
        else:
            deposited = list(arrays)
            copies = 0
        with self._cv:
            self._raise_if_failed_locked()
            self._deposit_copies += copies
            slots = self._entries.setdefault(key, {})
            if rank in slots:
                raise CollectiveError(f"rank {rank} contributed twice to {key!r}")
            slots[rank] = deposited
            if len(slots) == self.world_size:
                if self.eager_reduce:
                    # Last contributor folds immediately so the reduction
                    # overlaps whatever the other ranks are still computing.
                    self._reduce_ready_locked(key)
                else:
                    self._cv.notify_all()

    def finish(self, key: str, rank: int) -> List[Any]:
        _validate_rank(rank, self.world_size)
        with self._cv:
            while True:
                self._raise_if_failed_locked()
                if key in self._results:
                    return self._take_result_locked(key)
                slots = self._entries.get(key)
                if slots is not None and len(slots) == self.world_size:
                    # First rank to observe the full rendezvous reduces, in
                    # ascending rank order; peers pick the result up below.
                    self._reduce_ready_locked(key)
                    return self._take_result_locked(key)
                self._cv.wait()

    def _reduce_ready_locked(self, key: str) -> None:
        """Fold ``key``'s complete rendezvous; caller holds ``_cv``."""
        slots = self._entries[key]
        contributions = [slots[r] for r in sorted(slots)]
        # Hooked deposits are collective-owned copies, and consume_deposits
        # is the caller's promise that contributed arrays are scratch: either
        # way the fold may accumulate straight into rank 0's entry, skipping
        # the defensive copy (one full memory pass over the payload).
        copy = None if (self.consume_deposits or self.fault_hook is not None) else self._copy
        self._results[key] = _reduce_rank_ordered(contributions, self.op, copy)
        self._fetched[key] = 0
        del self._entries[key]
        self._cv.notify_all()

    def deposit_copies(self) -> int:
        """Total send-buffer copies made on deposit since construction."""
        with self._cv:
            return self._deposit_copies

    def _take_result_locked(self, key: str) -> List[Any]:
        result = self._results[key]
        self._fetched[key] += 1
        if self._fetched[key] == self.world_size:
            del self._results[key]
            del self._fetched[key]
        return result

    # -- broadcast -------------------------------------------------------------------

    def broadcast(
        self, key: str, rank: int, arrays: Optional[Sequence[Any]] = None, root: int = 0
    ) -> List[Any]:
        _validate_rank(rank, self.world_size)
        _validate_rank(root, self.world_size)
        key = f"{key}@bcast"
        with self._cv:
            self._raise_if_failed_locked()
            if rank == root:
                if arrays is None:
                    raise ValueError(f"root rank {root} must supply arrays to broadcast")
                if key not in self._results:
                    self._results[key] = [self._copy(a) for a in arrays]
                    self._fetched[key] = 0
                    self._cv.notify_all()
            while key not in self._results:
                self._raise_if_failed_locked()
                self._cv.wait()
            return self._take_result_locked(key)

    # -- failure propagation ---------------------------------------------------------

    def _raise_if_failed_locked(self) -> None:
        if self._failure is not None:
            raise CollectiveError("a peer rank failed") from self._failure
        if self._closed:
            raise CollectiveClosed("collective is closed")

    def poison(self, exc: BaseException) -> None:
        with self._cv:
            if self._failure is None:
                self._failure = exc
            self._cv.notify_all()

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._entries.clear()
            self._results.clear()
            self._fetched.clear()
            self._cv.notify_all()
