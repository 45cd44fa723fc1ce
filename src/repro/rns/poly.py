"""Polynomials in RNS (double-CRT) representation, resident on a backend.

A ciphertext polynomial in ``Z_Q[X]/(X^N + 1)`` is logically an ``np x N``
matrix of residues: row ``i`` holds the polynomial's coefficients reduced
modulo ``p_i``.  Converting every row to the NTT domain yields the
"double-CRT" layout in which both polynomial multiplication and addition are
coefficient-wise — the representation all RNS-based HE libraries (SEAL,
HEAAN, PALISADE) compute in, and the workload whose NTT conversions the paper
accelerates.

Since the resident-tensor redesign, the matrix itself lives inside an opaque
:class:`repro.backends.base.ResidueTensor` owned by the polynomial's compute
backend — a ``uint64`` ndarray on the NumPy backend — and every operation
(``+``, ``*``, domain conversion, prime dropping) moves handles between
backend calls without materialising Python integers.  Big-int values exist
only at the explicit boundaries: :meth:`RnsPolynomial.from_coefficients` /
:meth:`~RnsPolynomial.from_residue_rows` on the way in,
:meth:`~RnsPolynomial.to_coeff_lists` / :meth:`~RnsPolynomial.to_big_coefficients`
on the way out.  The backend is pinned when the polynomial is created — an
environment flip mid-session affects new polynomials only, never an existing
object graph.

:class:`RnsPolynomial` is deliberately explicit about which domain it is in
(``coefficient`` or ``ntt``); mixing domains raises instead of silently
producing garbage.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from enum import Enum

import numpy as np

from ..backends import ops
from ..backends.base import ComputeBackend, ResidueTensor
from ..backends.registry import resolve_backend
from . import sampling
from .basis import RnsBasis

__all__ = ["Domain", "RnsPolynomial"]

#: Compiled ``iNTT(NTT(a) ⊙ NTT(b))`` product plans, keyed by row count.
#: The plan is shape-generic (counts bind at execution), so one compilation
#: serves every polynomial pair with the same number of RNS primes.
_PRODUCT_PLANS: dict[int, ops.Plan] = {}


def _residue_rows(values: np.ndarray, primes: Sequence[int]) -> list:
    """Rows of ``values`` (``int64``) modulo each prime: arrays for word-sized
    primes, Python rows above."""
    return [
        (values % p).astype(np.uint64)
        if p < sampling.WORD_LIMIT
        else [value % p for value in values.tolist()]
        for p in primes
    ]


def _product_plan(count: int) -> ops.Plan:
    plan = _PRODUCT_PLANS.get(count)
    if plan is None:
        graph = ops.OpGraph()
        a = graph.input("a")
        b = graph.input("b")
        stacked = graph.forward_ntt(graph.concat([a, b]))
        fa, fb = graph.split(stacked, [count, count])
        graph.output("product", graph.inverse_ntt(graph.mul(fa, fb)))
        plan = graph.compile()
        _PRODUCT_PLANS[count] = plan
    return plan


class Domain(str, Enum):
    """Representation domain of an :class:`RnsPolynomial`."""

    COEFFICIENT = "coefficient"
    NTT = "ntt"


class RnsPolynomial:
    """A polynomial of degree < ``n`` in RNS representation.

    Attributes:
        basis: The RNS basis giving one modulus per residue row.
        n: Polynomial degree bound (power of two).
        tensor: Backend-resident residue matrix (``basis.count`` rows of
            ``n`` residues each).
        domain: Whether the rows are coefficients or NTT values.
    """

    __slots__ = ("basis", "n", "tensor", "domain")

    def __init__(
        self,
        basis: RnsBasis,
        n: int,
        tensor: ResidueTensor,
        domain: Domain = Domain.COEFFICIENT,
    ) -> None:
        if tensor.primes != basis.primes:
            raise ValueError(
                "tensor holds %d residue rows over different moduli than the "
                "basis (%d primes)" % (tensor.count, basis.count)
            )
        if tensor.n != n:
            raise ValueError(
                "tensor rows have %d entries, expected n=%d" % (tensor.n, n)
            )
        self.basis = basis
        self.n = n
        self.tensor = tensor
        self.domain = domain

    # -- constructors (explicit entry boundaries) ------------------------------
    @classmethod
    def from_coefficients(
        cls,
        coefficients: Sequence[int],
        basis: RnsBasis,
        backend: ComputeBackend | str | None = None,
    ) -> "RnsPolynomial":
        """Build a polynomial from big-integer (or signed) coefficients mod ``Q``.

        Word-sized coefficients (each fitting an ``int64``; a list or an
        ``int64`` array) are reduced as one array per prime; others row by
        row in Python.
        """
        n = len(coefficients)
        try:
            values = np.asarray(coefficients, dtype=np.int64)
        except OverflowError:
            rows = [[c % p for c in coefficients] for p in basis.primes]
        else:
            rows = _residue_rows(values, basis.primes)
        return cls.from_residue_rows(rows, basis, n=n, backend=backend)

    @classmethod
    def from_residue_rows(
        cls,
        rows: Sequence[Sequence[int]],
        basis: RnsBasis,
        domain: Domain = Domain.COEFFICIENT,
        n: int | None = None,
        backend: ComputeBackend | str | None = None,
    ) -> "RnsPolynomial":
        """Enter residency: wrap explicit residue rows into a resident tensor.

        This (together with :meth:`from_coefficients`) is the only entry
        boundary from Python lists into backend-native storage.  A row may
        also be a 1-D NumPy integer array (see
        :meth:`~repro.backends.base.ComputeBackend.from_rows`).
        """
        if len(rows) != basis.count:
            raise ValueError(
                "expected %d residue rows, got %d" % (basis.count, len(rows))
            )
        if n is None:
            n = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != n:
                raise ValueError("every residue row must have exactly n entries")
        resolved = resolve_backend(backend)
        return cls(basis, n, resolved.from_rows(rows, basis.primes), domain)

    @classmethod
    def zero(
        cls,
        basis: RnsBasis,
        n: int,
        domain: Domain = Domain.COEFFICIENT,
        backend: ComputeBackend | str | None = None,
    ) -> "RnsPolynomial":
        """The all-zero polynomial (identical in both domains)."""
        rows = [[0] * n for _ in basis.primes]
        return cls.from_residue_rows(rows, basis, domain=domain, n=n, backend=backend)

    @classmethod
    def random_uniform(
        cls,
        basis: RnsBasis,
        n: int,
        rng: random.Random,
        domain: Domain = Domain.COEFFICIENT,
        backend: ComputeBackend | str | None = None,
    ) -> "RnsPolynomial":
        """Uniformly random residues — used for the `a` part of RLWE samples.

        One row per prime, in basis order, from
        :func:`~repro.rns.sampling.uniform_below`.
        """
        rows = [sampling.uniform_below(rng, p, n) for p in basis.primes]
        return cls.from_residue_rows(rows, basis, domain=domain, n=n, backend=backend)

    @classmethod
    def random_ternary(
        cls,
        basis: RnsBasis,
        n: int,
        rng: random.Random,
        backend: ComputeBackend | str | None = None,
    ) -> "RnsPolynomial":
        """Random ternary ({-1, 0, 1}) polynomial — HE secret-key distribution."""
        return cls.from_coefficients(sampling.ternary(rng, n), basis, backend=backend)

    @classmethod
    def random_gaussian(
        cls,
        basis: RnsBasis,
        n: int,
        rng: random.Random,
        stddev: float = 3.2,
        backend: ComputeBackend | str | None = None,
    ) -> "RnsPolynomial":
        """Discrete-Gaussian-ish error polynomial (rounded normal, HE error distribution)."""
        return cls.from_coefficients(
            sampling.rounded_normal(rng, stddev, n), basis, backend=backend
        )

    # -- backend ---------------------------------------------------------------
    @property
    def backend(self) -> ComputeBackend:
        """The compute backend whose storage holds this polynomial's residues."""
        return self.tensor.backend

    def with_backend(self, backend: ComputeBackend | str) -> "RnsPolynomial":
        """Re-materialise this polynomial on a specific backend.

        A no-op returning ``self`` when already resident there; otherwise the
        residues cross the list boundary once (counted on both backends).
        """
        resolved = resolve_backend(backend)
        if resolved is self.backend:
            return self
        return RnsPolynomial(
            self.basis,
            self.n,
            resolved.from_rows(self.tensor.to_rows(), self.basis.primes),
            self.domain,
        )

    def _wrap(self, tensor: ResidueTensor, domain: Domain) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.n, tensor, domain)

    # -- domain conversion ------------------------------------------------------
    def to_ntt(self) -> "RnsPolynomial":
        """Return the NTT-domain version of this polynomial (``np`` forward NTTs).

        The whole resident tensor is handed to the backend as one batch — on
        the NumPy backend every row whose prime is below 2^62 moves
        through the butterfly stages as a single 2-D array operation.
        """
        if self.domain is Domain.NTT:
            return self
        return self._wrap(self.backend.forward_ntt_batch(self.tensor), Domain.NTT)

    def to_coefficient(self) -> "RnsPolynomial":
        """Return the coefficient-domain version (``np`` inverse NTTs)."""
        if self.domain is Domain.COEFFICIENT:
            return self
        return self._wrap(
            self.backend.inverse_ntt_batch(self.tensor), Domain.COEFFICIENT
        )

    # -- arithmetic -------------------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis.primes != other.basis.primes or self.n != other.n:
            raise ValueError("polynomials live in different rings")
        if self.domain is not other.domain:
            raise ValueError(
                "domain mismatch: %s vs %s — convert explicitly first"
                % (self.domain.value, other.domain.value)
            )

    def _operand(self, other: "RnsPolynomial") -> ResidueTensor:
        """The other operand's tensor on *this* polynomial's backend.

        Same backend: the handle passes through untouched.  Foreign backend:
        the operand is materialised once at the boundary (counted) — mixing
        backends is explicit in the conversion counters, never silent.
        """
        self._check_compatible(other)
        return other.with_backend(self.backend).tensor

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        return self._wrap(
            self.backend.add(self.tensor, self._operand(other)), self.domain
        )

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        return self._wrap(
            self.backend.sub(self.tensor, self._operand(other)), self.domain
        )

    def __neg__(self) -> "RnsPolynomial":
        return self._wrap(self.backend.neg(self.tensor), self.domain)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic polynomial product.

        In the NTT domain this is element-wise; in the coefficient domain the
        operands are transformed, multiplied element-wise and transformed
        back (the ``iNTT(NTT(a) ⊙ NTT(b))`` pipeline of Section III-A) — as
        **one** compiled plan handed to
        :meth:`~repro.backends.base.ComputeBackend.execute`, so both forward
        transforms run as a single wide batch and a sharding backend fuses
        the whole product into one dispatch.
        """
        if self.domain is Domain.NTT:
            return self._wrap(
                self.backend.mul(self.tensor, self._operand(other)), Domain.NTT
            )
        self._check_compatible(other)
        product = self.backend.execute(
            _product_plan(self.basis.count),
            {"a": self.tensor, "b": self._operand(other)},
        )["product"]
        return self._wrap(product, Domain.COEFFICIENT)

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply every coefficient by an integer scalar (domain-independent)."""
        return self._wrap(self.backend.scalar_mul(self.tensor, scalar), self.domain)

    # -- exit boundaries ---------------------------------------------------------
    def to_coeff_lists(self) -> list[list[int]]:
        """Materialise the residue matrix to Python lists — an explicit boundary.

        This is the *only* way residue data leaves backend-native storage
        (serialisation, decoding and CRT reconstruction all route through
        here); the backend's conversion counter records the crossing.
        """
        return self.tensor.to_rows()

    @property
    def residues(self) -> list[list[int]]:
        """Materialised copy of the residue rows (alias of :meth:`to_coeff_lists`).

        Convenience for inspection and tests; mutating the returned lists does
        not write back into the resident tensor.
        """
        return self.to_coeff_lists()

    def to_big_coefficients(self, centered: bool = False) -> list[int]:
        """CRT-reconstruct the coefficient vector mod ``Q`` (optionally centered)."""
        poly = self.to_coefficient()
        rows = poly.to_coeff_lists()
        reconstruct = (
            poly.basis.from_residues_centered if centered else poly.basis.from_residues
        )
        return [
            reconstruct([rows[i][j] for i in range(poly.basis.count)])
            for j in range(poly.n)
        ]

    # -- structure ----------------------------------------------------------------
    def drop_last_prime(self) -> "RnsPolynomial":
        """Drop the last RNS component (used by rescaling in the HE layer)."""
        new_basis = self.basis.drop_last(1)
        return RnsPolynomial(
            new_basis,
            self.n,
            self.backend.slice_rows(self.tensor, 0, self.basis.count - 1),
            self.domain,
        )

    def copy(self) -> "RnsPolynomial":
        """Deep copy of the resident residue matrix."""
        return self._wrap(self.backend.copy(self.tensor), self.domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPolynomial):
            return NotImplemented
        if (
            self.basis.primes != other.basis.primes
            or self.n != other.n
            or self.domain != other.domain
        ):
            return False
        if self.backend is other.backend:
            return self.backend.tensor_equal(self.tensor, other.tensor)
        return self.to_coeff_lists() == other.to_coeff_lists()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RnsPolynomial(np=%d, n=%d, domain=%s, backend=%s)" % (
            self.basis.count,
            self.n,
            self.domain.value,
            self.backend.name,
        )
