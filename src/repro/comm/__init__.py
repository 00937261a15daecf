"""Checksum-protected collective communication for data-parallel training.

``collective``
    The :class:`Collective` abstraction (``all_reduce`` / ``broadcast``,
    plus the non-blocking ``contribute`` / blocking ``finish`` split that
    lets one OS thread drive several virtual ranks without deadlocking) and
    :class:`ThreadCollective`, the in-process rendezvous implementation with
    a deterministic rank-ordered reduction.
``protected``
    :class:`ProtectedCollective`, which wraps any :class:`Collective` and
    attaches float64 gradient checksums to every contribution.  Checksums
    are linear, so the reduction of per-rank checksums must equal the
    checksum of the reduced gradient — corruption introduced in or between
    the steps of the collective breaks that identity and is detected at
    ``finish`` time (:class:`DirtyReductionError`).
``bucketing``
    :class:`GradientBucketer` and friends: reverse-registration-order,
    size-capped gradient buckets reduced as flat contiguous tensors, the
    substrate of the data-parallel trainer's reduction.  Bit-identity of the
    bucketed fold to the per-tensor fold is the module's core contract.

Layering: this package imports ``repro.utils`` and NumPy but nothing above
(no ``core``, ``nn``, ``training``); ``reprolint``'s LY001 rule enforces
this.
"""

from repro.comm.bucketing import (
    BucketAccounting,
    BucketReadiness,
    BucketSpec,
    GradientBucketer,
)
from repro.comm.collective import (
    Collective,
    CollectiveClosed,
    CollectiveError,
    CollectiveTimeout,
    ThreadCollective,
)
from repro.comm.protected import (
    DirtyReductionError,
    ProtectedCollective,
    gradient_checksum,
    gradient_checksums,
)

__all__ = [
    "BucketAccounting",
    "BucketReadiness",
    "BucketSpec",
    "Collective",
    "CollectiveClosed",
    "CollectiveError",
    "CollectiveTimeout",
    "GradientBucketer",
    "DirtyReductionError",
    "ProtectedCollective",
    "ThreadCollective",
    "gradient_checksum",
    "gradient_checksums",
]
