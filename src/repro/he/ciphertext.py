"""Ciphertext container for the RNS-BGV scheme."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rns.poly import RnsPolynomial
from .params import HEParams

__all__ = ["Ciphertext"]


@dataclass
class Ciphertext:
    """A BGV ciphertext: a list of polynomials ``(c_0, c_1, ..., c_k)``.

    Decryption evaluates ``sum_i c_i * s^i`` modulo the current ciphertext
    modulus and reduces the centered result modulo the plaintext modulus.
    Freshly encrypted ciphertexts have two components; each multiplication
    adds one until :meth:`repro.he.evaluator.Evaluator.relinearize` brings the
    count back to two.  Components rest in the NTT domain: encryption emits
    them there and every evaluator result stays there.  A component in the
    coefficient domain (``poly.to_coefficient()``) is equally valid; each
    polynomial carries its own :class:`~repro.rns.poly.Domain`, and
    serialisation format 2 records it.

    Attributes:
        polys: The ciphertext polynomials, all over the same RNS basis.
        params: The scheme parameters the ciphertext was created under.
        level: How many moduli have been dropped by modulus switching (0 = fresh).
    """

    polys: list[RnsPolynomial]
    params: HEParams
    level: int = 0

    def __post_init__(self) -> None:
        if len(self.polys) < 2:
            raise ValueError("a ciphertext needs at least two polynomials")
        basis = self.polys[0].basis
        for poly in self.polys:
            if poly.basis.primes != basis.primes:
                raise ValueError("all ciphertext polynomials must share one RNS basis")

    @property
    def size(self) -> int:
        """Number of polynomial components (2 for fresh/relinearised ciphertexts)."""
        return len(self.polys)

    @property
    def basis(self):
        """The RNS basis of the current level."""
        return self.polys[0].basis

    @property
    def backend(self):
        """The compute backend whose resident storage holds ``c_0``.

        All components normally share one backend (encryptors and evaluators
        pin theirs); a mixed ciphertext can only arise from manual assembly
        and is adopted wholesale by the next evaluator operation.
        """
        return self.polys[0].backend

    @property
    def modulus(self) -> int:
        """The current ciphertext modulus ``Q_level``."""
        return self.basis.modulus

    def copy(self) -> "Ciphertext":
        """Deep copy (fresh polynomial buffers)."""
        return Ciphertext(
            polys=[poly.copy() for poly in self.polys], params=self.params, level=self.level
        )
