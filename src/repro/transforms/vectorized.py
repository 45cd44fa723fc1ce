"""NumPy-vectorised NTT view for single-word (≤ 30-bit) primes.

The scalar implementations in :mod:`repro.transforms.cooley_tukey` favour
clarity; this module is the vectorised single-transform view of the same
radix-2 algorithm.  Since the engine layer exists the butterfly loops live
in exactly one place — :class:`repro.backends.engines.Radix2Engine` — and
:class:`VectorizedNTT` is a thin rows-in/rows-out wrapper around that shared
array path (one ``(1, 1, n)`` block per call), kept for its teaching-friendly
interface and its historical role in the test suite.

The backend is restricted to moduli below ``2^31``: with both operands below
``2^31`` the 64-bit products computed by NumPy's ``uint64`` arithmetic cannot
overflow, so the results are exact.  This mirrors the paper's "32-bit word"
configuration (Section IV); the 60-bit configuration needs the scalar big-int
path (or a 128-bit emulation, which pure NumPy cannot express exactly).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitrev import is_power_of_two, log2_exact

__all__ = ["MAX_VECTORIZED_MODULUS_BITS", "VectorizedNTT"]

#: Largest modulus bit-width the uint64 product trick supports exactly.
MAX_VECTORIZED_MODULUS_BITS = 30


class VectorizedNTT:
    """Vectorised negacyclic NTT for one ``(n, p)`` pair with ``p < 2^31``.

    The transform semantics (merged negacyclic, bit-reversed forward output,
    Gentleman-Sande inverse) are identical to
    :class:`repro.transforms.cooley_tukey.NegacyclicTransformer`; the test
    suite checks the two agree element-for-element.

    Args:
        n: Transform length (power of two).
        p: Prime modulus with ``p ≡ 1 (mod 2n)`` and ``p < 2^31``.
        psi_2n: Primitive ``2n``-th root of unity (derived when omitted).
    """

    def __init__(self, n: int, p: int, psi_2n: int | None = None) -> None:
        if not is_power_of_two(n):
            raise ValueError("n must be a power of two")
        if p.bit_length() > MAX_VECTORIZED_MODULUS_BITS + 1 or p >= (1 << 31):
            raise ValueError(
                "the vectorised backend supports moduli below 2^31; got a %d-bit prime"
                % p.bit_length()
            )
        if (p - 1) % (2 * n) != 0:
            raise ValueError("p must satisfy p ≡ 1 (mod 2n)")
        # Imported here, not at module top: transforms is the layer the
        # engine module builds on, so the teaching wrapper reaches *up* to
        # the shared tables/kernels only when actually instantiated.
        from ..backends.engines import EngineTables, get_engine
        from ..modarith.roots import primitive_root_of_unity

        self.n = n
        self.p = p
        self.log_n = log2_exact(n)
        self.psi = psi_2n if psi_2n is not None else primitive_root_of_unity(2 * n, p)
        tables = EngineTables(n, "shoup32", self.psi)
        tables.index(p)
        self._tables = tables.rows(0, 1)
        self._engine = get_engine("radix2")
        self._p = np.uint64(p)

    # -- helpers -----------------------------------------------------------------
    def _as_array(self, values: Sequence[int]) -> np.ndarray:
        if len(values) != self.n:
            raise ValueError("expected %d coefficients, got %d" % (self.n, len(values)))
        array = np.asarray([int(v) % self.p for v in values], dtype=np.uint64)
        return array

    # -- transforms -----------------------------------------------------------------
    def forward(self, values: Sequence[int]) -> list[int]:
        """Forward negacyclic NTT (bit-reversed output)."""
        block = self._as_array(values).reshape(1, 1, self.n)
        return [int(x) for x in self._engine.forward_array(block, self._tables)[0, 0]]

    def inverse(self, values: Sequence[int]) -> list[int]:
        """Inverse negacyclic NTT (bit-reversed input, natural output)."""
        block = self._as_array(values).reshape(1, 1, self.n)
        return [int(x) for x in self._engine.inverse_array(block, self._tables)[0, 0]]

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Negacyclic polynomial product computed entirely in the vectorised backend."""
        fa = np.asarray(self.forward(a), dtype=np.uint64)
        fb = np.asarray(self.forward(b), dtype=np.uint64)
        pointwise = (fa * fb) % self._p
        return self.inverse([int(x) for x in pointwise])
