"""Bulk samplers for RLWE key material, noise and test plaintexts.

Each sampler draws one block of bits from the caller's :class:`random.Random`
(``getrandbits``, Mersenne Twister output) and maps it to its distribution
with exact integer arithmetic in NumPy, so a seeded stream yields the same
values on every NumPy version: NumPy only reinterprets and compares the
words, and no ``numpy.random`` generator (whose streams carry no
cross-version promise) is involved.

* :func:`uniform_below` — uniform integers below a bound, by rejection on
  64-bit words masked to the bound's bit length (at most half rejected).
* :func:`ternary` — uniform ``{-1, 0, 1}``, by rejection on bytes (255 of
  256 byte values split evenly into three classes).
* :func:`rounded_normal` — ``round(N(0, stddev^2))``, by inverse CDF: one
  64-bit word per value, looked up in cumulative thresholds that
  :func:`normal_bounds` computes in fixed-point integer arithmetic.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_STDDEV",
    "WORD_LIMIT",
    "normal_bounds",
    "rounded_normal",
    "ternary",
    "uniform_below",
]

#: Exclusive bound of the word-sized integers the samplers return as arrays:
#: residues and signed coefficients below it fit an ``int64``.
WORD_LIMIT = 1 << 63
#: Largest standard deviation :func:`normal_bounds` tabulates; the table
#: has about ``19 * stddev`` entries.
MAX_STDDEV = 1024.0

#: Fixed-point fraction bits of the normal-tail arithmetic: rounding errors
#: stay near 2^-120, far below the 2^-64 threshold resolution.
_FRACTION_BITS = 192
_ONE = 1 << _FRACTION_BITS


def _bytes(rng: random.Random, size: int) -> bytes:
    return rng.getrandbits(8 * size).to_bytes(size, "little")


def _words(rng: random.Random, count: int) -> np.ndarray:
    """``count`` uniform 64-bit words from ``rng``."""
    return np.frombuffer(_bytes(rng, 8 * count), dtype="<u8")


def uniform_below(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """``count`` independent uniform integers in ``[0, bound)``.

    Word-sized bounds (at most :data:`WORD_LIMIT`) give an ``int64`` array
    sampled by rejection; larger bounds give an object array of Python
    ints from ``rng.randrange``.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    if bound > WORD_LIMIT:
        return np.array([rng.randrange(bound) for _ in range(count)], dtype=object)
    mask = np.uint64((1 << (bound - 1).bit_length()) - 1)
    kept, have = [], 0
    while have < count:
        words = _words(rng, count - have) & mask
        words = words[words < bound]
        kept.append(words)
        have += words.size
    return np.concatenate(kept)[:count].astype(np.int64)


def ternary(rng: random.Random, count: int) -> np.ndarray:
    """``count`` independent uniform values in ``{-1, 0, 1}`` (``int64``)."""
    kept, have = [], 0
    while have < count:
        draw = np.frombuffer(_bytes(rng, count - have), dtype=np.uint8)
        draw = draw[draw < 255]
        kept.append(draw)
        have += draw.size
    return (np.concatenate(kept)[:count] % 3).astype(np.int64) - 1


def rounded_normal(rng: random.Random, stddev: float, count: int) -> np.ndarray:
    """``count`` independent draws of ``round(N(0, stddev^2))`` (``int64``)."""
    bounds = normal_bounds(stddev)
    values = np.searchsorted(bounds, _words(rng, count), side="right")
    return values.astype(np.int64) - bounds.size // 2


def _exp_neg(num: int, den: int) -> int:
    """``exp(-num/den)`` in fixed point, for ``num/den >= 0``.

    The series runs at ``num/den / 2^s < 1``; ``s`` squarings restore it.
    """
    s = (num // den).bit_length()
    den <<= s
    term = total = _ONE
    j = 1
    while term:
        term = term * num // (den * j)
        total += term
        j += 1
    value = _ONE * _ONE // total
    for _ in range(s):
        value = value * value >> _FRACTION_BITS
    return value


def _sqrt_two_pi() -> int:
    """``sqrt(2*pi)`` in fixed point (Machin's formula for ``pi``)."""

    def arctan_inv(x: int) -> int:
        total = term = (_ONE << 8) // x
        k, sign = 1, -1
        while term:
            term //= x * x
            total += sign * (term // (2 * k + 1))
            k, sign = k + 1, -sign
        return total

    pi = (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> 8
    return math.isqrt(2 * pi * _ONE)


@lru_cache(maxsize=16)
def normal_bounds(stddev: float) -> np.ndarray:
    """Sorted 64-bit inverse-CDF thresholds of ``round(N(0, stddev^2))``.

    With ``t_k = floor(2^64 * P(Z > (k + 1/2) / stddev))`` for every ``k``
    where it is non-zero (``K`` of them), a uniform word ``u`` maps to
    ``-(k+1)`` when ``t_{k+1} <= u < t_k`` and to ``k+1`` when
    ``2^64 - t_k <= u < 2^64 - t_{k+1}``: each value's probability is the
    rounded normal's to within ``2^-64``.  The ``2K`` thresholds are returned
    ascending (read-only), so a value is its ``searchsorted`` index minus
    ``K``.  The normal tail is evaluated in fixed-point integers —
    ``P(Z > x) = 1/2 - phi(x) * sum_j x^(2j+1) / (2j+1)!!``, with
    ``phi(x_k)`` stepped from ``phi(x_0)`` by ``exp(-(k+1)/stddev^2)`` —
    so the table is the same on every platform.
    """
    if not 0.0 <= stddev <= MAX_STDDEV:
        raise ValueError("stddev must be in [0, %g], got %r" % (MAX_STDDEV, stddev))
    tails: list[int] = []
    if stddev > 0:
        num, den = float(stddev).as_integer_ratio()
        root = _sqrt_two_pi()
        # x_k = (2k+1) / (2 stddev): phi's exponent moves by (k+1)/stddev^2
        # from x_k to x_{k+1}, so two exponentials serve every k.
        density = _exp_neg(den * den, 8 * num * num)
        ratio = _exp_neg(den * den, num * num)
        step = _ONE
        k = 0
        while True:
            x = ((2 * k + 1) * den << _FRACTION_BITS) // (2 * num)
            # P(Z > x) < phi(x) / x: stop before the series would need
            # more than fixed-point range.
            if (density << (_FRACTION_BITS + 64)) // (root * x) == 0:
                break
            x2 = x * x >> _FRACTION_BITS
            term = total = x
            j = 1
            # Sum until a term adds less than 2^-96 to the tail.
            negligible = (1 << (2 * _FRACTION_BITS - 96)) // density
            while term > negligible:
                term = (term * x2 >> _FRACTION_BITS) // (2 * j + 1)
                total += term
                j += 1
            tail = ((_ONE >> 1) - density * total // root) >> (_FRACTION_BITS - 64)
            if tail <= 0:
                break
            tails.append(tail)
            step = step * ratio >> _FRACTION_BITS
            density = density * step >> _FRACTION_BITS
            k += 1
    bounds = np.asarray(tails[::-1] + [(1 << 64) - t for t in tails], dtype=np.uint64)
    bounds.setflags(write=False)
    return bounds
