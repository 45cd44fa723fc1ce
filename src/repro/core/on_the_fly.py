"""On-the-fly twiddling (OT) — the paper's novel contribution (Section VII).

Large bootstrappable parameter sets make the precomputed twiddle tables so
big (``2 * N * np`` words with Shoup companions) that the NTT becomes bound
by main-memory bandwidth.  OT shrinks the table by *factorising* twiddle
exponents: instead of storing ``psi^e`` for every exponent ``e < N``, store
only

* a **low table** of the first ``base`` powers, ``psi^r`` for ``r < base``, and
* a **high table** of the ``N / base`` stride powers, ``psi^(base * q)``,

and regenerate any twiddle as ``psi^e = high[e // base] * low[e % base]``
with one extra modular multiplication.  Crucially the regeneration is an
ordinary Shoup multiplication between two *stored* values — no modulo-based
exponentiation and no recomputation of the Shoup companion ``w_bar`` is
needed, which is what made earlier on-the-fly schemes unattractive for NTT.

The factorisation is recursive in principle (base-2 would need ``log2 N``
multiplications per twiddle); the paper finds base-1024 the sweet spot, and
that applying OT only to the *last one or two stages* (where the per-stage
table is half / a quarter of the whole table) captures most of the traffic
reduction without adding multiplications to every stage.

This module models the scheme (table sizes, per-twiddle regeneration) for
the experiments.  The production data plane uses the same factorisation to
*build* its resident tables: :func:`repro.backends.engines._powers` forms
every power table of :class:`~repro.backends.engines.EngineTables` from
about ``sqrt(L)`` low and ``L / sqrt(L)`` high powers per prime with one
exact outer product, instead of ``L`` sequential multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..modarith.modops import inv_mod, mul_mod
from ..modarith.reducers import ShoupModMul
from ..modarith.word import WORD64, WordSpec
from ..transforms.bitrev import bit_reverse, is_power_of_two, log2_exact

__all__ = ["OnTheFlyConfig", "OnTheFlyTwiddleGenerator"]


@dataclass(frozen=True)
class OnTheFlyConfig:
    """Configuration of the on-the-fly twiddling scheme.

    Attributes:
        base: Factorisation base (power of two); the paper's best value is 1024.
        ot_stages: How many of the *last* radix-2 stages regenerate their
            twiddles on the fly (0 disables OT, matching the baseline).
    """

    base: int = 1024
    ot_stages: int = 1

    def __post_init__(self) -> None:
        if not is_power_of_two(self.base) or self.base < 2:
            raise ValueError("base must be a power of two >= 2")
        if self.ot_stages < 0:
            raise ValueError("ot_stages must be non-negative")

    def table_entries(self, n: int) -> int:
        """Number of stored twiddle factors for an ``n``-point NTT under OT.

        With base ``B`` the stored tables are the ``B`` low powers plus the
        ``n / B`` high powers (the paper's ``1024 + 2^17/1024`` example),
        clamped to ``n`` when the base exceeds the transform size.
        """
        if not is_power_of_two(n):
            raise ValueError("n must be a power of two")
        if self.base >= n:
            return n
        return self.base + n // self.base

    def covered_table_indices(self, n: int) -> range:
        """Bit-reversed table indices whose twiddles are regenerated on the fly.

        Stage ``s`` (1-based) of Algorithm 1 consumes table indices
        ``[2^(s-1), 2^s)``; the last ``ot_stages`` stages therefore cover
        ``[n / 2^ot_stages, n)``.
        """
        stages = log2_exact(n)
        covered = min(self.ot_stages, stages)
        if covered == 0:
            return range(n, n)
        return range(n >> covered, n)


class OnTheFlyTwiddleGenerator:
    """Regenerates twiddle factors from factored tables, counting the extra work.

    The generator answers the same queries as a full
    :class:`repro.core.twiddle.TwiddleTable` — "give me the twiddle for
    bit-reversed table index ``i``" — but stores only the factored tables and
    counts every regeneration multiplication it performs, so both functional
    tests (the regenerated twiddles must match the full table exactly) and the
    GPU cost model (extra multiplications vs. saved DRAM reads) can use it.

    Attributes:
        n: Transform length.
        p: Prime modulus.
        psi: Primitive ``2n``-th root of unity.
        config: The :class:`OnTheFlyConfig` in effect.
    """

    def __init__(
        self,
        n: int,
        p: int,
        psi: int,
        config: OnTheFlyConfig,
        inverse: bool = False,
        word: WordSpec = WORD64,
    ) -> None:
        if not is_power_of_two(n):
            raise ValueError("n must be a power of two")
        self.n = n
        self.p = p
        self.psi = psi if not inverse else inv_mod(psi, p)
        self.config = config
        self.word = word
        self._log_n = log2_exact(n)
        self._reducer = ShoupModMul(p, word)
        base = min(config.base, n)
        self._base = base
        self._base_bits = log2_exact(base)

        # Low table: psi^r for r < base; high table: psi^(base*q) for q < n/base.
        low = [1] * base
        for r in range(1, base):
            low[r] = mul_mod(low[r - 1], self.psi, p)
        stride_root = mul_mod(low[base - 1], self.psi, p)  # psi^base
        high_count = max(n // base, 1)
        high = [1] * high_count
        for q in range(1, high_count):
            high[q] = mul_mod(high[q - 1], stride_root, p)
        self._low = low
        self._high = high
        self._low_shoup = [self._reducer.precompute(w)[0] for w in low]
        self._high_shoup = [self._reducer.precompute(w)[0] for w in high]
        self.regeneration_muls = 0

    # -- size accounting --------------------------------------------------------
    @property
    def stored_entries(self) -> int:
        """Twiddle factors held in memory (low + high tables)."""
        return len(self._low) + len(self._high)

    def stored_bytes(self, with_shoup: bool = True) -> int:
        """Bytes of the stored factored tables (doubled by Shoup companions)."""
        words = 2 if with_shoup else 1
        return self.stored_entries * words * (self.word.bits // 8)

    # -- twiddle access -----------------------------------------------------------
    def exponent_for_index(self, index: int) -> int:
        """Exponent ``e`` such that table entry ``index`` equals ``psi^e``.

        Algorithm 1's table stores ``psi^bit_reverse(index)``.
        """
        if not 0 <= index < self.n:
            raise ValueError("table index out of range")
        return bit_reverse(index, self._log_n)

    def twiddle(self, index: int) -> tuple[int, int]:
        """Return ``(twiddle, shoup_companion)`` for bit-reversed table ``index``.

        When the exponent splits across the low and high tables one Shoup
        multiplication is performed (and counted); the companion returned for
        the *product* is the low factor's companion, matching the paper's
        observation that no new ``w_bar`` needs to be computed because the
        regenerated factor is immediately applied to the data by multiplying
        with the stored factors consecutively.
        """
        exponent = self.exponent_for_index(index)
        quotient, remainder = divmod(exponent, self._base)
        if quotient == 0:
            return self._low[remainder], self._low_shoup[remainder]
        if remainder == 0:
            return self._high[quotient], self._high_shoup[quotient]
        self.regeneration_muls += 1
        value = self._reducer.mul_by_constant(
            self._high[quotient], self._low[remainder], (self._low_shoup[remainder],)
        )
        return value, self._reducer.precompute(value)[0]

    def apply_to(self, operand: int, index: int) -> int:
        """Multiply ``operand`` by table entry ``index`` using consecutive multiplication.

        This is the form the kernel actually uses (Section VII): rather than
        materialising ``w = w2 * w1`` and its companion, the operand is
        multiplied by ``w1`` and then by ``w2``, each with its stored
        companion — one extra data multiplication, zero extra companion
        computations.
        """
        exponent = self.exponent_for_index(index)
        quotient, remainder = divmod(exponent, self._base)
        result = self._reducer.mul_by_constant(
            operand, self._low[remainder], (self._low_shoup[remainder],)
        )
        if quotient:
            self.regeneration_muls += 1
            result = self._reducer.mul_by_constant(
                result, self._high[quotient], (self._high_shoup[quotient],)
            )
        return result

    def reset_counters(self) -> None:
        """Zero the regeneration-multiplication counter."""
        self.regeneration_muls = 0
