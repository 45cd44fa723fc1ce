"""Exact big-int scalar backend.

This wraps the clarity-first Python-integer path
(:class:`repro.transforms.cooley_tukey.NegacyclicTransformer` plus the
``modops`` primitives) behind the handle-based
:class:`~repro.backends.base.ComputeBackend` interface.  It is the
correctness oracle for every other backend and every NTT engine, and the
only path with no word-size restriction.  It runs one transform — the
reference radix-2 transformer — so it takes no engine pin: the engines are
array kernels (:mod:`repro.backends.engines`), and every one of them must
match this oracle bit for bit.

Native storage *is* the list-of-lists, so for this backend residency is free
— but the boundary accounting is identical to every other backend:
:meth:`~ScalarBackend.from_rows` / :meth:`~ScalarBackend.to_rows` copy and
count, everything else hands storage from tensor to tensor without touching
the counter.  The private ``*_rows`` helpers operate directly on rows; they
are shared with the vectorised backends' per-prime fallback path.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..modarith.modops import add_mod, mul_mod, neg_mod, sub_mod
from ..telemetry import TRACER
from ..transforms.cooley_tukey import NegacyclicTransformer
from .base import ComputeBackend, ResidueRows, ResidueTensor, python_row

__all__ = ["ScalarBackend", "ScalarTensor"]


class ScalarTensor(ResidueTensor):
    """Residue tensor stored as Python ``list[list[int]]`` rows."""

    __slots__ = ("rows",)

    def __init__(self, backend, primes, n, rows: list[list[int]]) -> None:
        super().__init__(backend, primes, n)
        self.rows = rows


class ScalarBackend(ComputeBackend):
    """Row-by-row exact backend over Python integers.

    Transformer contexts (twiddle tables) are cached per ``(n, p)`` pair —
    table construction is O(n) modular multiplications and must be paid once
    per prime, not once per transform; this is the resident-table policy
    Section IV of the paper analyses.

    Every transform runs the cached
    :class:`~repro.transforms.cooley_tukey.NegacyclicTransformer`; the
    backend takes no engine (only ``NumpyBackend(engine=)`` chooses a
    kernel).
    """

    name = "scalar"

    def __init__(self) -> None:
        super().__init__()
        self._transformers: dict[tuple[int, int], NegacyclicTransformer] = {}

    @property
    def resident_contexts(self) -> int:
        """Number of cached per-``(n, p)`` twiddle contexts."""
        return len(self._transformers)

    def transformer(self, n: int, p: int) -> NegacyclicTransformer:
        """Return (building if needed) the cached transformer for ``(n, p)``."""
        key = (n, p)
        transformer = self._transformers.get(key)
        if transformer is None:
            transformer = NegacyclicTransformer(n, p)
            self._transformers[key] = transformer
        return transformer

    def warm_twiddles(self, n: int, primes: Sequence[int]) -> None:
        for p in set(primes):
            self.transformer(n, p)

    # -- boundary conversions --------------------------------------------------
    def from_rows(self, rows: ResidueRows, primes: Sequence[int]) -> ScalarTensor:
        self._check_rows_shape(rows, primes)
        self._count_conversion(len(rows))
        n = len(rows[0]) if rows else 0
        reduced = [[value % p for value in python_row(row)] for row, p in zip(rows, primes)]
        return ScalarTensor(self, primes, n, reduced)

    def to_rows(self, tensor: ResidueTensor) -> list[list[int]]:
        self._check_owned(tensor)
        self._count_conversion(tensor.count)
        return [list(row) for row in tensor.rows]

    def _wrap(self, primes, n, rows: list[list[int]]) -> ScalarTensor:
        return ScalarTensor(self, primes, n, rows)

    # -- row-level kernels (shared with vectorised backends' fallback) ---------
    def _transform_rows(
        self, rows: ResidueRows, primes: Sequence[int], forward: bool
    ) -> list[list[int]]:
        if not rows:
            return []
        n = len(rows[0])
        with TRACER.span("ntt.engine", n=n, rows=len(rows)):
            out = []
            for row, p in zip(rows, primes):
                transformer = self.transformer(n, p)
                out.append(transformer.forward(row) if forward else transformer.inverse(row))
        return out

    @staticmethod
    def _add_rows(rows_a, rows_b, primes) -> list[list[int]]:
        return [
            [add_mod(a, b, p) for a, b in zip(row_a, row_b)]
            for row_a, row_b, p in zip(rows_a, rows_b, primes)
        ]

    @staticmethod
    def _sub_rows(rows_a, rows_b, primes) -> list[list[int]]:
        return [
            [sub_mod(a, b, p) for a, b in zip(row_a, row_b)]
            for row_a, row_b, p in zip(rows_a, rows_b, primes)
        ]

    @staticmethod
    def _neg_rows(rows, primes) -> list[list[int]]:
        return [[neg_mod(a, p) for a in row] for row, p in zip(rows, primes)]

    @staticmethod
    def _mul_rows(rows_a, rows_b, primes) -> list[list[int]]:
        return [
            [mul_mod(a, b, p) for a, b in zip(row_a, row_b)]
            for row_a, row_b, p in zip(rows_a, rows_b, primes)
        ]

    @staticmethod
    def _scalar_mul_rows(rows, scalar: int, primes) -> list[list[int]]:
        return [
            [mul_mod(a, scalar % p, p) for a in row] for row, p in zip(rows, primes)
        ]

    @staticmethod
    def _digit_rows(source_row: Sequence[int], primes) -> list[list[int]]:
        return [[value % p for value in source_row] for p in primes]

    @staticmethod
    def _correction_rows(
        dropped: Sequence[int], q_last: int, plaintext_modulus: int, primes
    ) -> list[list[int]]:
        t = plaintext_modulus
        t_inv = pow(t, -1, q_last)
        half = q_last // 2
        # Correction digits from the dropped row alone: u ≡ -w * t^{-1} (mod
        # q_last), centered so the added term t*u_c stays small.
        terms = []
        for w in dropped:
            u = (-w * t_inv) % q_last
            terms.append(t * (u - q_last if u > half else u))
        return [[term % p for term in terms] for p in primes]

    @classmethod
    def _mod_switch_rows(
        cls, rows: ResidueRows, primes: Sequence[int], plaintext_modulus: int
    ) -> list[list[int]]:
        q_last = primes[-1]
        corrections = cls._correction_rows(
            rows[-1], q_last, plaintext_modulus, primes[:-1]
        )
        switched = []
        for row, correction, p in zip(rows[:-1], corrections, primes[:-1]):
            q_inv = pow(q_last % p, -1, p)
            switched.append(
                [(c + k) % p * q_inv % p for c, k in zip(row, correction)]
            )
        return switched

    # -- transforms ------------------------------------------------------------
    def forward_ntt_batch(self, tensor: ResidueTensor) -> ScalarTensor:
        self._check_owned(tensor)
        rows = self._transform_rows(tensor.rows, tensor.primes, forward=True)
        return self._wrap(tensor.primes, tensor.n, rows)

    def inverse_ntt_batch(self, tensor: ResidueTensor) -> ScalarTensor:
        self._check_owned(tensor)
        rows = self._transform_rows(tensor.rows, tensor.primes, forward=False)
        return self._wrap(tensor.primes, tensor.n, rows)

    # -- pointwise arithmetic --------------------------------------------------
    def add(self, a: ResidueTensor, b: ResidueTensor) -> ScalarTensor:
        self._check_pair(a, b)
        return self._wrap(a.primes, a.n, self._add_rows(a.rows, b.rows, a.primes))

    def sub(self, a: ResidueTensor, b: ResidueTensor) -> ScalarTensor:
        self._check_pair(a, b)
        return self._wrap(a.primes, a.n, self._sub_rows(a.rows, b.rows, a.primes))

    def neg(self, a: ResidueTensor) -> ScalarTensor:
        self._check_owned(a)
        return self._wrap(a.primes, a.n, self._neg_rows(a.rows, a.primes))

    def mul(self, a: ResidueTensor, b: ResidueTensor) -> ScalarTensor:
        self._check_pair(a, b)
        return self._wrap(a.primes, a.n, self._mul_rows(a.rows, b.rows, a.primes))

    def scalar_mul(self, a: ResidueTensor, scalar: int) -> ScalarTensor:
        self._check_owned(a)
        return self._wrap(
            a.primes, a.n, self._scalar_mul_rows(a.rows, scalar, a.primes)
        )

    # -- structural operations -------------------------------------------------
    def concat(self, tensors: Sequence[ResidueTensor]) -> ScalarTensor:
        if not tensors:
            raise ValueError("cannot concatenate an empty tensor sequence")
        primes: list[int] = []
        rows: list[list[int]] = []
        n = tensors[0].n
        for tensor in tensors:
            self._check_owned(tensor)
            if tensor.n != n:
                raise ValueError("all tensors in a concat must share n")
            primes.extend(tensor.primes)
            rows.extend(tensor.rows)
        return self._wrap(primes, n, rows)

    def split(
        self, tensor: ResidueTensor, counts: Sequence[int]
    ) -> list[ScalarTensor]:
        self._check_owned(tensor)
        if sum(counts) != tensor.count:
            raise ValueError(
                "split counts sum to %d but tensor has %d rows"
                % (sum(counts), tensor.count)
            )
        pieces = []
        offset = 0
        for count in counts:
            pieces.append(
                self._wrap(
                    tensor.primes[offset : offset + count],
                    tensor.n,
                    tensor.rows[offset : offset + count],
                )
            )
            offset += count
        return pieces

    def slice_rows(self, tensor: ResidueTensor, start: int, stop: int) -> ScalarTensor:
        self._check_owned(tensor)
        return self._wrap(
            tensor.primes[start:stop], tensor.n, [list(r) for r in tensor.rows[start:stop]]
        )

    def copy(self, tensor: ResidueTensor) -> ScalarTensor:
        self._check_owned(tensor)
        return self._wrap(tensor.primes, tensor.n, [list(r) for r in tensor.rows])

    def tensor_equal(self, a: ResidueTensor, b: ResidueTensor) -> bool:
        self._check_owned(a)
        self._check_owned(b)
        return a.primes == b.primes and a.rows == b.rows

    # -- RNS compound operations ----------------------------------------------
    def digit_broadcast(self, tensor: ResidueTensor, index: int) -> ScalarTensor:
        self._check_owned(tensor)
        if not 0 <= index < tensor.count:
            raise ValueError("digit index %d out of range" % index)
        return self._wrap(
            tensor.primes, tensor.n, self._digit_rows(tensor.rows[index], tensor.primes)
        )

    def mod_switch_drop_last(
        self, tensor: ResidueTensor, plaintext_modulus: int
    ) -> ScalarTensor:
        self._check_owned(tensor)
        if tensor.count < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        return self._wrap(
            tensor.primes[:-1],
            tensor.n,
            self._mod_switch_rows(tensor.rows, tensor.primes, plaintext_modulus),
        )

    def mod_switch_correction(
        self, tensor: ResidueTensor, plaintext_modulus: int, primes: Sequence[int]
    ) -> ScalarTensor:
        self._check_owned(tensor)
        if tensor.count != 1:
            raise ValueError("a modulus-switch correction reads exactly one row")
        rows = self._correction_rows(
            tensor.rows[0], tensor.primes[0], plaintext_modulus, primes
        )
        return self._wrap(tuple(primes), tensor.n, rows)
