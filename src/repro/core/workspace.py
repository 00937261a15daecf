"""Zero-allocation checksum workspace.

The fused checker's steady-state hot path computes the same handful of
checksum intermediates every layer visit — ``cs_x``, the carried ``[Q|K]``
checksums, the ``AS``/``CL``/``O`` boundary checksums.  Allocating them afresh per visit costs
an allocator round-trip per buffer per layer.  :class:`ChecksumWorkspace` is
a shape/dtype-keyed arena of named reusable buffers: the first visit
allocates (warm-up), every later visit reuses the same buffer, and the
:attr:`~ChecksumWorkspace.allocations` / :attr:`~ChecksumWorkspace.reuses`
counters make the "zero steady-state allocations" claim testable rather than
aspirational.

Buffers are filled through ``np.matmul``'s ``out=`` keyword; computing into
a reusable buffer runs the same kernel as allocating afresh, so results stay
bitwise identical.  The engine's few einsums allocate, each with a
suppression saying why: NumPy's einsum abandons its specialised inner loops
when given ``out=`` (measurably slower at attention dims).

Aliasing discipline
-------------------
A workspace buffer is only valid until the next request for the same slot,
so the engine never hands workspace-backed arrays to anything that outlives
the section visit.  The arena itself is not synchronised: it has one writer,
the thread running the forward pass.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import numpy as np

__all__ = ["ChecksumWorkspace"]


class ChecksumWorkspace:
    """Named, shape/dtype-keyed arena of reusable checksum buffers.

    Each distinct ``(name, shape, dtype)`` combination owns one
    buffer: the first :meth:`request` allocates it (counted in
    :attr:`allocations`), every later request returns the same object
    (counted in :attr:`reuses`).  Slot names encode the consumer
    (``"AS/cs_x"``, ``"CL/cs_cl_row"``, ...), so two concurrent
    intermediates can never collide, while homogeneous transformer layers
    share slots across layer visits — which is exactly where the steady-state
    reuse comes from.

    Memory is bounded by the *name count*, not by the geometry history: each
    slot name owns exactly one buffer, and a request with a different
    shape/dtype **replaces** it (releasing the old buffer) rather
    than accumulating one buffer per geometry ever seen — a long run with
    varying batch shapes keeps at most one buffer per slot.  Stability of
    the buffer *identity* across steps in the homogeneous steady state is
    part of the contract the reuse tests pin.
    """

    def __init__(self) -> None:
        #: name -> (geometry key, buffer)
        self._slots: Dict[str, Tuple[Tuple, Any]] = {}
        self.allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0

    def __len__(self) -> int:
        return len(self._slots)

    def request(self, name: str, shape: Sequence[int], dtype: Any) -> Any:
        """The reusable buffer for slot ``name`` with this geometry.

        The returned buffer's contents are unspecified — every consumer fully
        overwrites it (``out=`` GEMMs, slice assignment).
        """
        # dtype objects are hashable and cheap to hash — stringifying them
        # would dominate the lookup.
        key = (tuple(shape), dtype)
        entry = self._slots.get(name)
        if entry is not None and entry[0] == key:
            self.reuses += 1
            return entry[1]
        buffer = np.empty(key[0], dtype=dtype)
        self._slots[name] = (key, buffer)
        self.allocations += 1
        self.bytes_allocated += buffer.nbytes
        return buffer

    def owns(self, array: Any) -> bool:
        """Whether ``array`` *is* one of the arena's buffers (identity).

        Used by the aliasing tests: nothing that outlives a section visit
        (queued checksums, retained boundary matrices) may be workspace-owned.
        """
        return any(buffer is array for _, buffer in self._slots.values())

    @property
    def steady_state(self) -> bool:
        """True when work ran entirely from reused buffers since the last
        :meth:`reset_stats` — the zero-allocation claim, as a predicate."""
        return self.reuses > 0 and self.allocations == 0

    def stats(self) -> Dict[str, int]:
        return {
            "slots": len(self._slots),
            "allocations": self.allocations,
            "reuses": self.reuses,
            "bytes_allocated": self.bytes_allocated,
        }

    def reset_stats(self) -> None:
        """Zero the counters without dropping buffers (post-warm-up baseline).

        After a warm-up step, call this and run more steps: a fused hot path
        that is allocation-free in steady state keeps ``allocations == 0``
        while ``reuses`` grows.
        """
        self.allocations = 0
        self.reuses = 0

    def clear(self) -> None:
        """Drop every buffer (e.g. when the engine is reset)."""
        self._slots.clear()
        self.allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0
