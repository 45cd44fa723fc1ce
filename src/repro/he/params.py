"""Homomorphic-encryption parameter sets.

The paper's NTT workloads come from RNS-based HE schemes with bootstrappable
parameter sets: polynomial degree ``N = 2^14 .. 2^17`` and ciphertext moduli
built from dozens of machine-word primes.  This module defines the parameter
container used by the scheme in :mod:`repro.he` and a few presets:

* ``toy`` / ``small`` — functional parameter sets the test-suite and the
  examples can run in milliseconds (pure-Python big-int arithmetic).
* ``bootstrappable_*`` — the paper's evaluation points.  They are far too
  large to execute functionally in Python in reasonable time, but they are
  the inputs to the GPU performance model and to the bootstrapping workload
  estimator (:mod:`repro.he.bootstrap`).

The scheme implemented here is a BGV-flavoured RNS scheme (exact integer
plaintexts, which keeps the test oracle simple); the NTT workload it
generates per operation — ``np`` forward/inverse N-point NTTs — is identical
in shape to the CKKS/HEAAN workload the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from ..modarith.primes import is_probable_prime
from ..rns.basis import RnsBasis
from ..rns.sampling import MAX_STDDEV

__all__ = ["HEParams", "generate_bgv_primes", "toy_params", "small_params", "bootstrappable_params"]


def generate_bgv_primes(bit_size: int, count: int, n: int, plaintext_modulus: int) -> list[int]:
    """Generate primes congruent to 1 modulo both ``2n`` and the plaintext modulus.

    The double congruence keeps BGV modulus switching exact: dropping a prime
    ``q`` with ``q ≡ 1 (mod t)`` leaves the plaintext untouched.
    """
    if plaintext_modulus < 2:
        raise ValueError("plaintext modulus must be at least 2")
    step = lcm(2 * n, plaintext_modulus)
    if (1 << bit_size) <= step:
        raise ValueError("bit_size too small for the requested congruences")
    upper = (1 << bit_size) - 1
    candidate = upper - ((upper - 1) % step)
    lower = 1 << (bit_size - 1)
    primes: list[int] = []
    while candidate > lower and len(primes) < count:
        if is_probable_prime(candidate):
            primes.append(candidate)
        candidate -= step
    if len(primes) < count:
        raise ValueError(
            "could not find %d primes of %d bits with p ≡ 1 mod lcm(2n=%d, t=%d)"
            % (count, bit_size, 2 * n, plaintext_modulus)
        )
    return primes


@dataclass(frozen=True)
class HEParams:
    """Parameters of the RNS-BGV scheme.

    Attributes:
        n: Polynomial degree (power of two).
        plaintext_modulus: The plaintext space ``Z_t[X]/(X^N + 1)``.
        prime_bits: Bit size of each RNS prime.
        prime_count: Number of RNS primes (``np``).
        error_std: Standard deviation of the discrete-Gaussian error
            (``0 .. MAX_STDDEV``; the sampler tabulates its distribution).
        name: Human-readable preset name.
    """

    n: int
    plaintext_modulus: int
    prime_bits: int
    prime_count: int
    error_std: float = 3.2
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 2")
        if self.prime_count < 1:
            raise ValueError("at least one RNS prime is required")
        if self.plaintext_modulus < 2:
            raise ValueError("plaintext modulus must be >= 2")
        if not 0 <= self.error_std <= MAX_STDDEV:
            raise ValueError("error_std must be in [0, %g]" % MAX_STDDEV)

    def make_basis(self) -> RnsBasis:
        """Generate the RNS basis implied by these parameters."""
        primes = generate_bgv_primes(
            self.prime_bits, self.prime_count, self.n, self.plaintext_modulus
        )
        return RnsBasis.from_primes(primes, self.n)

    @property
    def log_q(self) -> int:
        """Approximate ciphertext-modulus size in bits."""
        return self.prime_bits * self.prime_count


def toy_params() -> HEParams:
    """Tiny parameters for unit tests (milliseconds per operation, insecure)."""
    return HEParams(
        n=64, plaintext_modulus=257, prime_bits=40, prime_count=3, name="toy"
    )


def small_params() -> HEParams:
    """Small demonstration parameters for the examples (insecure)."""
    return HEParams(
        n=256, plaintext_modulus=65537, prime_bits=45, prime_count=4, name="small"
    )


def bootstrappable_params(log_n: int = 17, prime_count: int = 21) -> HEParams:
    """The paper's bootstrappable-scale parameter points (for the GPU model only).

    These are not meant to be executed functionally in Python — a single
    ciphertext multiplication at ``N = 2^17`` with 21 primes is billions of
    modular operations — but they describe the workload whose NTT cost the
    performance model and :mod:`repro.he.bootstrap` estimate.
    """
    if log_n not in (14, 15, 16, 17):
        raise ValueError("the paper evaluates logN in 14..17")
    return HEParams(
        n=1 << log_n,
        plaintext_modulus=65537,
        prime_bits=60,
        prime_count=prime_count,
        name="bootstrappable-2^%d" % log_n,
    )
