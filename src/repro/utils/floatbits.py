"""IEEE-754 bit manipulation helpers.

The ATTNChecker paper injects near-INF errors "by flipping the most
significant bit of the [exponent of the] selected element" and injects INF and
NaN "via assignments" (Section 5.1, *Fault Injection*).  This module provides
the exact bit-level machinery to do both.

The scalar/array functions (``flip_bit``, ``make_near_inf``, ...) operate on
NumPy data through same-width integer bit views (:func:`uint_view`), so
fault-injection campaigns over millions of elements remain fast.  The
injector assigns the value they return into the corrupted matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

__all__ = [
    "EXPONENT_BITS",
    "FLIP_KINDS",
    "MANTISSA_BITS",
    "NEAR_INF_MINIMUM_MAGNITUDE",
    "UINT_DTYPE_FOR_FLOAT",
    "largest_finite",
    "near_inf_fallback",
    "apply_flip_kind",
    "flip_bit",
    "flip_adjacent_double_bit",
    "flip_exponent_msb",
    "flip_mantissa_lsb",
    "make_near_inf",
    "uint_view",
]

#: Number of exponent bits per IEEE-754 format.
EXPONENT_BITS = {np.dtype(np.float32): 8, np.dtype(np.float64): 11}
#: Number of mantissa (fraction) bits per IEEE-754 format.
MANTISSA_BITS = {np.dtype(np.float32): 23, np.dtype(np.float64): 52}

#: Same-width unsigned-integer dtype per IEEE floating dtype.
UINT_DTYPE_FOR_FLOAT = {
    np.dtype(np.float16): np.uint16,
    np.dtype(np.float32): np.uint32,
    np.dtype(np.float64): np.uint64,
}

#: Magnitude floor below which an exponent flip does not count as a genuine
#: near-INF fault in :func:`make_near_inf` (matches the paper's T_near-INF
#: default).
NEAR_INF_MINIMUM_MAGNITUDE = 1e10

ArrayLike = Union[float, np.ndarray]


@lru_cache(maxsize=None)
def largest_finite(dtype: np.dtype) -> float:
    """Largest finite value of a float ``dtype`` (65504 for float16); INF
    for any other kind, which has no finite bound to overflow."""
    dtype = np.dtype(dtype)
    return float(np.finfo(dtype).max) if dtype.kind == "f" else math.inf


def near_inf_fallback(dtype: np.dtype) -> float:
    """Representative near-INF magnitude injected when the exponent flip
    shrank the value instead (original exponent MSB already set)."""
    return float(np.finfo(np.dtype(dtype)).max / 16.0)


def uint_view(array: np.ndarray) -> np.ndarray:
    """``array`` reinterpreted as same-width unsigned integers, **sharing
    memory**: XORing the view flips bits of the original buffer in place."""
    dtype = np.dtype(array.dtype)
    if dtype not in UINT_DTYPE_FOR_FLOAT:
        raise TypeError(f"no integer view for dtype {dtype!r}")
    return array.view(UINT_DTYPE_FOR_FLOAT[dtype])


def flip_bit(x: ArrayLike, bit: int, dtype: np.dtype = np.float32) -> np.ndarray:
    """Flip bit ``bit`` (0 = least-significant) of every element of ``x``.

    This models a single transient bit-flip in a register or ALU output.
    """
    arr = np.asarray(x, dtype=dtype) if not isinstance(x, np.ndarray) else np.asarray(x)
    if arr.dtype not in EXPONENT_BITS:
        arr = arr.astype(dtype)
    nbits = arr.dtype.itemsize * 8
    if not 0 <= bit < nbits:
        raise ValueError(f"bit index {bit} out of range for {arr.dtype} ({nbits} bits)")
    if arr.dtype not in EXPONENT_BITS:
        raise TypeError(f"unsupported floating dtype: {arr.dtype!r}")
    bits = uint_view(arr).copy()
    mask = np.array(1, dtype=bits.dtype) << np.array(bit, dtype=bits.dtype)
    bits ^= mask
    return bits.view(arr.dtype).copy()


def flip_exponent_msb(x: ArrayLike, dtype: np.dtype = np.float32) -> np.ndarray:
    """Flip the most-significant *exponent* bit of every element.

    For values of "normal" magnitude (|x| roughly in ``[1e-4, 1e4]``) this
    produces an extremely large number (near-INF) because the biased exponent
    jumps by half of its range.  This mirrors exactly how the paper generates
    near-INF faults.
    """
    arr = np.asarray(x, dtype=dtype) if not isinstance(x, np.ndarray) else np.asarray(x)
    if arr.dtype not in EXPONENT_BITS:
        arr = arr.astype(dtype)
    exp_bits = EXPONENT_BITS[arr.dtype]
    man_bits = MANTISSA_BITS[arr.dtype]
    # Exponent occupies bits [man_bits, man_bits + exp_bits); its MSB is the
    # highest of those, i.e. bit index man_bits + exp_bits - 1.
    return flip_bit(arr, man_bits + exp_bits - 1, dtype=arr.dtype)


def flip_mantissa_lsb(x: ArrayLike, dtype: np.dtype = np.float32) -> np.ndarray:
    """Flip the least-significant *mantissa* bit of every element.

    The opposite end of the severity spectrum from the exponent-MSB flip:
    the value changes by one unit in the last place, a perturbation that is
    numerically negligible and — per the "Why Attention Fails" taxonomy —
    almost always benign.  Campaigns use it to exercise the benign-fault
    accounting rather than the detection path.
    """
    arr = np.asarray(x, dtype=dtype) if not isinstance(x, np.ndarray) else np.asarray(x)
    if arr.dtype not in EXPONENT_BITS:
        arr = arr.astype(dtype)
    return flip_bit(arr, 0, dtype=arr.dtype)


def flip_adjacent_double_bit(x: ArrayLike, dtype: np.dtype = np.float32) -> np.ndarray:
    """Flip the exponent MSB *and* its adjacent lower exponent bit.

    Models a multi-bit upset (MBU) striking two physically adjacent cells —
    the dominant multi-bit pattern in the ECC literature.  Both flipped bits
    sit in the exponent, so the corrupted value is typically as extreme as a
    single exponent-MSB flip, but the bit pattern differs (the two flips can
    partially compensate, landing anywhere from moderately to extremely
    wrong).
    """
    arr = np.asarray(x, dtype=dtype) if not isinstance(x, np.ndarray) else np.asarray(x)
    if arr.dtype not in EXPONENT_BITS:
        arr = arr.astype(dtype)
    exp_bits = EXPONENT_BITS[arr.dtype]
    man_bits = MANTISSA_BITS[arr.dtype]
    msb = man_bits + exp_bits - 1
    return flip_bit(flip_bit(arr, msb, dtype=arr.dtype), msb - 1, dtype=arr.dtype)


#: Bit-level corruption mechanisms the fault injector supports.  The first is
#: the paper's fault model (exponent-MSB flip, producing near-INF values);
#: the rest widen the taxonomy per "Why Attention Fails" and the ECC MBU
#: patterns: a benign single-bit upset in the mantissa LSB, an adjacent
#: double-bit upset across the top two exponent bits, and a stuck-at-zero
#: cell that erases the value entirely.
FLIP_KINDS: Tuple[str, ...] = (
    "exponent_msb",
    "mantissa_lsb",
    "adjacent_double_bit",
    "stuck_zero",
)


def apply_flip_kind(kind: str, x: ArrayLike, dtype: np.dtype = np.float32) -> np.ndarray:
    """Corrupt ``x`` with the bit-level mechanism named by ``kind``.

    Dispatch table over :data:`FLIP_KINDS`; ``"stuck_zero"`` returns zeros of
    the requested dtype (a stuck-at-0 storage cell), the others are genuine
    XOR bit flips.  Scalar in, scalar out; array in, array out.
    """
    if kind == "exponent_msb":
        return flip_exponent_msb(x, dtype=dtype)
    if kind == "mantissa_lsb":
        return flip_mantissa_lsb(x, dtype=dtype)
    if kind == "adjacent_double_bit":
        return flip_adjacent_double_bit(x, dtype=dtype)
    if kind == "stuck_zero":
        arr = np.asarray(x, dtype=dtype) if not isinstance(x, np.ndarray) else np.asarray(x)
        if arr.dtype not in EXPONENT_BITS:
            arr = arr.astype(dtype)
        return np.zeros_like(arr)
    raise KeyError(f"unknown flip kind {kind!r}; expected one of {FLIP_KINDS}")


def make_near_inf(
    base: ArrayLike = 1.0,
    dtype: np.dtype = np.float32,
    minimum_magnitude: float = NEAR_INF_MINIMUM_MAGNITUDE,
) -> np.ndarray:
    """Produce a finite but extremely large value from ``base``.

    The value is obtained with an exponent-MSB flip (the paper's method).  If
    the flip happens to *shrink* the value (possible when the original
    exponent MSB was already set) or does not exceed ``minimum_magnitude``,
    we fall back to scaling the magnitude up to a representative near-INF
    value so that campaigns always inject a genuinely extreme-but-finite
    number.
    """
    flipped = flip_exponent_msb(base, dtype=dtype)
    flipped = np.asarray(flipped, dtype=dtype)
    fallback = np.dtype(dtype).type(near_inf_fallback(dtype))
    bad = ~np.isfinite(flipped) | (np.abs(flipped) < minimum_magnitude)
    out = np.where(bad, np.sign(np.asarray(base, dtype=dtype)) * fallback, flipped)
    out = np.where(out == 0, fallback, out)
    if np.ndim(base) == 0:
        return np.dtype(dtype).type(out)
    return out.astype(dtype)
