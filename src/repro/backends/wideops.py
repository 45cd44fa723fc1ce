"""Exact vectorised modular products for every prime below 2^62.

The paper characterises HE workloads at a native word size of ~60-bit RNS
primes, but a plain ``uint64`` product ``a * b`` is only exact when both
operands stay below ``2^32``.  This module supplies the reduction
strategies every array kernel of the NumPy data plane goes through, all
exact below ``2^62`` (matching the word contract of
:mod:`repro.modarith.reducers`, whose scalar
:class:`~repro.modarith.reducers.ShoupModMul` is the reference):

* **Products by constants** (twiddles, ``n^{-1}``, scalars) use Shoup's
  precomputed-companion reduction.  A :class:`Reduction` strategy is chosen
  once per basis of primes (:func:`reduction_for`):

  - :class:`Shoup32` below ``2^31`` — companion ``floor(w * 2^32 / p)``,
    five array passes per product;
  - :class:`FloatQuotient` below ``2^50`` — companion ``w / p`` in float64,
    whose truncated product with ``x`` is within one of the true quotient;
  - :class:`LimbShoup` below ``2^62`` — companion ``floor(w * 2^64 / p)``
    pre-split into 32-bit limbs, high half of ``x * w_bar`` estimated from
    three limb products.

  Every strategy's :meth:`Reduction.mul_lazy` returns ``x * w mod p`` in
  ``[0, 2p)`` for multiplicands below ``4p`` — the contract of Harvey's lazy
  butterflies ("Faster arithmetic for number-theoretic transforms",
  J. Symb. Comp. 2014) — and writes only into caller-supplied buffers.

* **General element-wise products** (:func:`mulmod`) reduce natively with
  ``%`` below ``2^31``, and above that split the 128-bit product into
  64-bit halves, folding the high half in with a limb-Shoup product by
  ``2^64 mod p``.

The strategy follows the prime size alone.  ``REPRO_WIDE_WORD=0``
restores the historical 30-bit window: the NumPy backend then routes wider
primes through its counted big-int fallback.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "NARROW_MUL_LIMIT",
    "WIDE_MUL_LIMIT",
    "FLOAT_SHOUP_LIMIT",
    "WIDE_ENV_VAR",
    "wide_word_enabled",
    "vector_mul_limit",
    "select_strategy",
    "Reduction",
    "Shoup32",
    "FloatQuotient",
    "LimbShoup",
    "reduction_for",
    "reduce_below",
    "mul_hi",
    "mulmod",
    "scalar_mulmod",
]

#: Exclusive modulus bound of the single-word window: below this a plain
#: ``uint64`` product of two reduced residues cannot overflow.
NARROW_MUL_LIMIT = 1 << 31
#: Exclusive modulus bound of the wide window: lazy values below ``4p`` must
#: fit ``uint64``, which matches the ``p < word/4`` contract of
#: ``repro.modarith.reducers``.
WIDE_MUL_LIMIT = 1 << 62
#: Exclusive modulus bound of the float64 quotient strategy: ``x*w/p`` must
#: stay below ``2^52`` for multiplicands below ``4p``, so that two roundings
#: keep the quotient within one of the truth.
FLOAT_SHOUP_LIMIT = 1 << 50

#: Set to ``0``/``off``/``narrow`` to restore the historical 30-bit window
#: (benchmarks use this to time wide vs big-int fallback).
WIDE_ENV_VAR = "REPRO_WIDE_WORD"

_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)
_SIGN_BIT = np.uint64(1) << np.uint64(63)


def wide_word_enabled() -> bool:
    """Whether the widened (≤ 62-bit) vectorised window is active.

    Read from the environment at call time so pool workers — which inherit
    the parent's environment at fork — observe the same window as the
    coordinator, and so tests/benchmarks can flip regimes per backend
    instance without rebuilding the process.
    """
    return os.environ.get(WIDE_ENV_VAR, "").lower() not in ("0", "off", "narrow", "false")


def vector_mul_limit() -> int:
    """Exclusive modulus bound of the exact vectorised product path."""
    return WIDE_MUL_LIMIT if wide_word_enabled() else NARROW_MUL_LIMIT


def select_strategy(p: int) -> str:
    """Name of the :class:`Reduction` for modulus ``p``.

    ``"shoup32"`` below 2^31, ``"float"`` below 2^50 and ``"limb"`` above.
    """
    if p < NARROW_MUL_LIMIT:
        return "shoup32"
    return "float" if p < FLOAT_SHOUP_LIMIT else "limb"


def reduce_below(x, bound, out, t):
    """``out = x - bound if x >= bound else x`` — branch-free, for ``x < 2*bound``.

    ``min(x, x - bound)`` in uint64: the wrapped difference is huge whenever
    ``x < bound``.  ``t`` is a scratch buffer shaped like ``x``.
    """
    np.subtract(x, bound, out=t)
    return np.minimum(x, t, out=out)


class Reduction:
    """Products by precomputed constants modulo a column of primes.

    Stateless: the primes arrive as broadcastable ``uint64`` columns ``p``
    and ``p2 = 2p`` (one row per prime), the constants as a table ``w`` plus
    the companion arrays :meth:`companions` built for it, and the scratch
    as three ``uint64`` buffers shaped like ``x``.
    """

    name = "abstract"
    #: Exclusive bound on the multiplicand ``x`` of :meth:`mul_lazy`.
    limit = 1 << 64

    @staticmethod
    def companions(w, primes) -> tuple:
        """Companion arrays for the constants ``w`` (rows reduced mod ``primes``)."""
        raise NotImplementedError

    @staticmethod
    def mul_lazy(x, w, comps, p, p2, out, t, u, v):
        """``out = x * w mod p`` in ``[0, 2p)``, for ``x < 4p``; ``out`` may alias ``x``."""
        raise NotImplementedError


class Shoup32(Reduction):
    """Shoup with 32-bit companions, for primes below 2^31.

    ``q = (x * w_bar) >> 32`` undershoots ``floor(x * w / p)`` by at most
    one whenever ``x < 2^32``, so ``x*w - q*p`` lies in ``[0, 2p)``.  The
    lazy range ``x < 4p`` fits for primes below 2^30; callers feeding a
    larger prime pass ``x`` reduced below ``2p`` (see :attr:`limit`).
    """

    name = "shoup32"
    limit = 1 << 32

    @staticmethod
    def companions(w, primes) -> tuple:
        return (np.floor_divide(np.left_shift(w, _SHIFT32), primes),)

    @staticmethod
    def mul_lazy(x, w, comps, p, p2, out, t, u, v):
        np.multiply(x, comps[0], out=t)
        np.right_shift(t, _SHIFT32, out=t)
        np.multiply(t, p, out=t)
        np.multiply(x, w, out=u)
        return np.subtract(u, t, out=out)


class FloatQuotient(Reduction):
    """Shoup with a float64 quotient ``trunc(x * (w / p))``, below 2^50.

    For ``x < 4p`` the true quotient is below ``2^52`` and the two
    roundings move it by less than one, so ``x*w - q*p`` lies in
    ``[-p, 2p)``; one wrapped add-back of ``p`` puts it in ``[0, 2p)``.
    """

    name = "float"

    @staticmethod
    def companions(w, primes) -> tuple:
        return (w.astype(np.float64) / primes.astype(np.float64),)

    @staticmethod
    def mul_lazy(x, w, comps, p, p2, out, t, u, v):
        f = v.view(np.float64)
        np.multiply(x.view(np.int64), comps[0], out=f)
        np.copyto(t.view(np.int64), f, casting="unsafe")
        np.multiply(t, p, out=t)
        np.multiply(x, w, out=u)
        np.subtract(u, t, out=u)
        np.add(u, p, out=t)
        return np.minimum(u, t, out=out)


class LimbShoup(Reduction):
    """Shoup with a 64-bit companion held as two 32-bit limbs, below 2^62.

    The high half of ``x * w_bar`` is estimated from three limb products,
    dropping the low-by-low product and the carries: the estimate is at
    most two below the exact high half, which itself is at most one below
    ``floor(x * w / p)``.  So ``x*w - q*p`` lies in ``[0, 4p)`` (below
    2^64) and one conditional subtraction of ``2p`` ends in ``[0, 2p)``.
    """

    name = "limb"

    @staticmethod
    def companions(w, primes) -> tuple:
        # floor(w * 2^64 / p) as two base-2^32 digits of a long division by
        # p.  Each digit's float64 estimate is within one of the truth (the
        # quotient is below 2^32), and the wrapped remainder, which lies in
        # (-p, 2p), settles it.
        remainder, p = np.broadcast_arrays(np.atleast_1d(w), np.atleast_1d(primes))
        scale = 2.0**32 / p.astype(np.float64)
        limbs = []
        for _ in range(2):
            digit = np.floor(remainder.astype(np.float64) * scale).astype(np.uint64)
            remainder = (remainder << _SHIFT32) - digit * p
            low = remainder >= _SIGN_BIT
            digit -= low
            remainder = np.where(low, remainder + p, remainder)
            high = remainder >= p
            digit += high
            remainder = np.where(high, remainder - p, remainder)
            limbs.append(digit)
        return tuple(limbs)

    @staticmethod
    def mul_lazy(x, w, comps, p, p2, out, t, u, v):
        hi, lo = comps
        np.bitwise_and(x, _MASK32, out=u)
        np.multiply(u, hi, out=u)
        np.right_shift(u, _SHIFT32, out=u)
        np.right_shift(x, _SHIFT32, out=t)
        np.multiply(t, lo, out=v)
        np.right_shift(v, _SHIFT32, out=v)
        np.add(u, v, out=u)
        np.multiply(t, hi, out=t)
        np.add(t, u, out=t)
        np.multiply(t, p, out=t)
        np.multiply(x, w, out=u)
        np.subtract(u, t, out=u)
        return reduce_below(u, p2, out, t)


_REDUCTIONS = {cls.name: cls for cls in (Shoup32, FloatQuotient, LimbShoup)}


def reduction_for(name: str) -> type[Reduction]:
    """The :class:`Reduction` class registered under ``name``."""
    return _REDUCTIONS[name]


def mul_hi(a, b, out, t, u, v):
    """High 64 bits of the ``64x64 -> 128`` product, via 32-bit limbs.

    Schoolbook ``2x2`` limb products with explicit carry propagation, written
    into ``out`` through three scratch buffers; every intermediate fits
    uint64 (the cross sum is at most ``2*(2^32 - 1) + (2^32 - 1)^2 < 2^64``).
    """
    np.bitwise_and(a, _MASK32, out=t)
    np.bitwise_and(b, _MASK32, out=u)
    np.multiply(t, u, out=v)
    np.right_shift(v, _SHIFT32, out=v)
    np.right_shift(b, _SHIFT32, out=out)
    np.multiply(t, out, out=t)
    np.add(v, t, out=v)
    np.right_shift(a, _SHIFT32, out=t)
    np.multiply(u, t, out=u)
    np.multiply(out, t, out=out)
    np.bitwise_and(u, _MASK32, out=t)
    np.add(v, t, out=v)
    np.right_shift(u, _SHIFT32, out=u)
    np.add(out, u, out=out)
    np.right_shift(v, _SHIFT32, out=v)
    return np.add(out, v, out=out)


def mulmod(a, b, p, strategy: str | None = None, out=None, scratch=None):
    """Exact element-wise ``(a * b) mod p`` for reduced uint64 operands.

    ``p`` is one modulus or a broadcastable ``uint64`` column of them (one
    per row); ``strategy`` (default: :func:`select_strategy` of the largest)
    picks the path.  ``shoup32`` reduces the native product with ``%``;
    every other strategy splits the 128-bit product as ``hi * 2^64 + lo``,
    folds the high half in as ``hi * (2^64 mod p)`` through a limb-Shoup
    product and reduces the low half natively.  ``out`` and four
    ``scratch`` buffers shaped like it are allocated when not supplied.
    """
    column = np.asarray(p, dtype=np.uint64)
    if strategy is None:
        strategy = select_strategy(int(column.max()))
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    if strategy == "shoup32":
        np.multiply(a, b, out=out)
        return np.remainder(out, column, out=out)
    t, u, v, x = scratch if scratch is not None else [np.empty_like(out) for _ in range(4)]
    radix = [(1 << 64) % int(q) for q in column.ravel().tolist()]
    c = np.asarray(radix, dtype=np.uint64).reshape(column.shape)
    mul_hi(a, b, x, t, u, v)
    LimbShoup.mul_lazy(x, c, LimbShoup.companions(c, column), column, column * np.uint64(2), out, t, u, v)
    reduce_below(out, column, out, t)
    np.multiply(a, b, out=t)
    np.remainder(t, column, out=t)
    np.add(out, t, out=out)
    return reduce_below(out, column, out, t)


def scalar_mulmod(x, scalar, p):
    """Exact ``(x * scalar) mod p`` for Python-int scalars, ``p < 2^62``.

    ``p`` is one modulus, or a sequence of them for the rows of ``x`` (then
    ``scalar`` may be one int or one per row).  The limb-Shoup companions
    are derived per call — negligible against the array work — so arbitrary
    (e.g. plaintext) scalars need no cache.  Valid for any ``x < 2^64``.
    """
    if isinstance(p, (int, np.integer)):
        primes, scalars, shape = [int(p)], [scalar], (1,)
    else:
        primes = [int(q) for q in p]
        scalars = scalar if isinstance(scalar, (list, tuple)) else [scalar] * len(primes)
        shape = (-1, 1)
    column = np.asarray(primes, dtype=np.uint64).reshape(shape)
    w = np.asarray([int(s) % q for s, q in zip(scalars, primes)], dtype=np.uint64).reshape(shape)
    out = np.empty(np.broadcast_shapes(x.shape, column.shape), dtype=np.uint64)
    t, u, v = (np.empty_like(out) for _ in range(3))
    LimbShoup.mul_lazy(
        x, w, LimbShoup.companions(w, column), column, column * np.uint64(2), out, t, u, v
    )
    return reduce_below(out, column, out, t)
