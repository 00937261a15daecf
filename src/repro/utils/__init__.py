"""Low-level utilities shared by every subsystem.

The utilities here are deliberately free of any dependency on the rest of the
package so that the numerical substrate, the fault injector and the ABFT core
can all import them without creating cycles.

Modules
-------
``floatbits``
    IEEE-754 bit-level views and exponent/mantissa bit flips used by the fault
    injector to produce INF / NaN / near-INF values the same way the paper
    does ("flipping the most significant bit of the selected element").
``rng``
    Deterministic random-number stream management.  Every stochastic component
    in the library receives an explicit :class:`numpy.random.Generator`.
``timing``
    Lightweight wall-clock timers and a hierarchical timing registry used by
    the CPU-side overhead measurements.
``logging``
    Library logger configuration helpers.
``versioning``
    The process-global weights-version counter that invalidates the fused
    checker's weight-derived encoding caches on optimizer steps and state
    loads.
"""

from repro.utils.floatbits import (
    EXPONENT_BITS,
    MANTISSA_BITS,
    flip_bit,
    flip_exponent_msb,
    make_near_inf,
)
from repro.utils.rng import new_rng
from repro.utils.timing import Timer, TimingRegistry
from repro.utils.versioning import bump_weights_version, weights_version

__all__ = [
    "bump_weights_version",
    "weights_version",
    "EXPONENT_BITS",
    "MANTISSA_BITS",
    "flip_bit",
    "flip_exponent_msb",
    "make_near_inf",
    "new_rng",
    "Timer",
    "TimingRegistry",
]
