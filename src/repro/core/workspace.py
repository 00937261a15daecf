"""Zero-allocation checksum workspace and the namespace ``out=`` contract.

The fused checker's steady-state hot path computes the same handful of
checksum intermediates every layer visit — ``cs_x``, the carried ``[Q|K]``
checksums, the ``AS``/``CL``/``O`` boundary checksums.  Allocating them afresh per visit costs
an allocator round-trip (and, on device backends, a stream-ordered malloc)
per buffer per layer.  :class:`ChecksumWorkspace` is a shape/dtype/device
keyed arena of named reusable buffers: the first visit allocates (warm-up),
every later visit reuses the same buffer, and the
:attr:`~ChecksumWorkspace.allocations` / :attr:`~ChecksumWorkspace.reuses`
counters make the "zero steady-state allocations" claim testable rather than
aspirational.

The ``out=`` contract
---------------------
Buffers are filled through the array namespaces' NumPy-style ``out=``
keyword, which NumPy supports natively on ``matmul`` and the Torch
namespace implements.  :func:`matmul_into` routes through ``out=`` when the
namespace accepts it and otherwise **falls back to a plain allocating
call**, memoising the capability per namespace so the fallback costs one
``TypeError`` ever, not one per call.  The fallback is value-compliant:
callers always receive the correct result array; only the reuse guarantee
is void on namespaces without ``out=`` support.

There is no ``einsum`` helper: NumPy's einsum abandons its specialised
inner loops when given ``out=`` (measurably slower at attention dims) and
Torch's has no ``out=`` at all, so the engine's few einsums allocate, each
with a suppression saying why.

Aliasing discipline
-------------------
A workspace buffer is only valid until the next request for the same slot,
so the engine never hands workspace-backed arrays to anything that outlives
the section visit.  The arena itself is not synchronised: it has one writer,
the thread running the forward pass.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

__all__ = [
    "ChecksumWorkspace",
    "matmul_into",
]

#: Per-namespace memo of whether the namespace's ``matmul`` accepts ``out=``.  The namespace object itself is stored alongside the flag so the
#: id() key can never be served for a different (garbage-collected and
#: re-allocated) namespace.
_OUT_CAPABLE: Dict[int, Tuple[Any, bool]] = {}


def _supports_out(xp: Any) -> bool:
    """Whether ``xp.matmul`` accepts the ``out=`` keyword, probed once.

    The probe runs the GEMM on one-element arrays with a matching
    ``out`` buffer, so the capability decision depends only on the
    namespace's *signature* — a ``TypeError`` a caller's real arguments
    provoke later (say, an out buffer of an uncastable dtype) propagates
    instead of silently disabling buffer reuse process-wide.
    """
    entry = _OUT_CAPABLE.get(id(xp))
    if entry is not None and entry[0] is xp:
        return entry[1]
    probe_out = xp.zeros((1, 1), dtype=xp.float64)
    one = xp.ones((1, 1), dtype=xp.float64)
    try:
        xp.matmul(one, one, out=probe_out)
        supported = True
    except TypeError:
        supported = False
    _OUT_CAPABLE[id(xp)] = (xp, supported)
    return supported


def matmul_into(xp: Any, a: Any, b: Any, out: Any = None) -> Any:
    """``xp.matmul(a, b, out=out)`` with an allocating fallback.

    With ``out=None`` this is a plain ``xp.matmul`` — the helper is safe to
    use unconditionally.  The result is bitwise identical either way: the
    same GEMM kernel runs, only the destination buffer differs.
    """
    if out is None or not _supports_out(xp):
        return xp.matmul(a, b)
    return xp.matmul(a, b, out=out)


class ChecksumWorkspace:
    """Named, shape/dtype/device-keyed arena of reusable checksum buffers.

    Each distinct ``(name, shape, dtype, namespace)`` combination owns one
    buffer: the first :meth:`request` allocates it (counted in
    :attr:`allocations`), every later request returns the same object
    (counted in :attr:`reuses`).  Slot names encode the consumer
    (``"AS/cs_x"``, ``"CL/cs_cl_row"``, ...), so two concurrent
    intermediates can never collide, while homogeneous transformer layers
    share slots across layer visits — which is exactly where the steady-state
    reuse comes from.

    Memory is bounded by the *name count*, not by the geometry history: each
    slot name owns exactly one buffer, and a request with a different
    shape/dtype/namespace **replaces** it (releasing the old buffer) rather
    than accumulating one buffer per geometry ever seen — a long run with
    varying batch shapes keeps at most one buffer per slot.  Stability of
    the buffer *identity* across steps in the homogeneous steady state is
    part of the contract the reuse tests pin.  Buffers hold the namespace
    that created them alive, so an ``id`` key can never alias a dead
    namespace.
    """

    def __init__(self) -> None:
        #: name -> (geometry key, xp, buffer)
        self._slots: Dict[str, Tuple[Tuple, Any, Any]] = {}
        self.allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0

    def __len__(self) -> int:
        return len(self._slots)

    def request(self, name: str, shape: Sequence[int], dtype: Any, xp: Any) -> Any:
        """The reusable buffer for slot ``name`` with this geometry.

        The returned buffer's contents are unspecified — every consumer fully
        overwrites it (``out=`` GEMMs, slice assignment).
        """
        # dtype objects (NumPy dtypes/scalar types, torch dtypes) are hashable
        # and cheap to hash — stringifying them would dominate the lookup.
        key = (tuple(shape), dtype, id(xp))
        entry = self._slots.get(name)
        if entry is not None and entry[0] == key and entry[1] is xp:
            self.reuses += 1
            return entry[2]
        empty = getattr(xp, "empty", None)
        buffer = empty(tuple(shape), dtype=dtype) if empty is not None \
            else xp.zeros(tuple(shape), dtype=dtype)
        self._slots[name] = (key, xp, buffer)
        self.allocations += 1
        self.bytes_allocated += int(getattr(buffer, "nbytes", 0))
        return buffer

    def owns(self, array: Any) -> bool:
        """Whether ``array`` *is* one of the arena's buffers (identity).

        Used by the aliasing tests: nothing that outlives a section visit
        (queued checksums, retained boundary matrices) may be workspace-owned.
        """
        return any(buffer is array for _, _, buffer in self._slots.values())

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
