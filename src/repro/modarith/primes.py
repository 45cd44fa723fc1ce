"""Generation of NTT-friendly primes.

A prime ``p`` supports a negacyclic ``N``-point NTT when ``p ≡ 1 (mod 2N)``,
i.e. ``p = k * 2N + 1`` for some integer ``k``.  This guarantees the
existence of a primitive ``2N``-th root of unity in ``Z_p``, which the merged
(negacyclic) Cooley-Tukey NTT of the paper requires.

Homomorphic-encryption schemes in RNS form need *many* such primes
(``np`` of them, up to several dozen for bootstrappable parameter sets) that
are pairwise distinct and whose product exceeds the ciphertext modulus ``Q``.
The :func:`generate_ntt_primes` helper produces such chains, mirroring what
SEAL's ``CoeffModulus::Create`` or HEAAN's prime generation do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

__all__ = [
    "is_probable_prime",
    "is_ntt_prime",
    "generate_ntt_primes",
    "generate_prime_chain",
    "PrimeChain",
]

# Deterministic Miller-Rabin witnesses: sufficient for all integers < 3.3e24,
# which comfortably covers the <= 62-bit primes used in HE.
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for integers below 2^64+.

    The fixed witness set is deterministic for every integer below
    3,317,044,064,679,887,385,961,981 (> 2^81), far above the 60-bit primes
    used by the paper's parameter sets.
    """
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in _MILLER_RABIN_WITNESSES:
        x = pow(witness, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=256)
def is_ntt_prime(p: int, n: int) -> bool:
    """Return ``True`` when ``p`` is prime and ``p ≡ 1 (mod 2n)``.

    Answers are memoised (a bounded LRU): every deserialised polynomial
    validates its basis, and a served request would otherwise re-prove the
    same few primes for each of its polynomials.

    Args:
        p: Candidate modulus.
        n: The NTT size (polynomial degree), a power of two.
    """
    if n <= 0 or n & (n - 1):
        raise ValueError("n must be a positive power of two, got %d" % n)
    return p % (2 * n) == 1 and is_probable_prime(p)


def generate_ntt_primes(bit_size: int, count: int, n: int) -> list[int]:
    """Generate ``count`` distinct NTT-friendly primes of ``bit_size`` bits.

    Primes are found by scanning downward from the largest ``bit_size``-bit
    value congruent to ``1 mod 2n``; this matches common HE library practice
    and is fully deterministic, which keeps the test suite reproducible.

    Args:
        bit_size: Target bit length of each prime (e.g. 30 or 60).
        count: Number of primes to generate (``np`` in the paper).
        n: Polynomial degree; each prime satisfies ``p ≡ 1 (mod 2n)``.

    Returns:
        A list of ``count`` distinct primes, in decreasing order.

    Raises:
        ValueError: if the arguments are inconsistent or not enough primes of
            the requested size exist.
    """
    if bit_size < 2:
        raise ValueError("bit_size must be at least 2")
    if count < 1:
        raise ValueError("count must be positive")
    if n <= 0 or n & (n - 1):
        raise ValueError("n must be a positive power of two, got %d" % n)
    step = 2 * n
    if (1 << bit_size) <= step:
        raise ValueError(
            "bit_size %d too small for NTT size %d (need 2^bit_size > 2n)" % (bit_size, n)
        )

    upper = (1 << bit_size) - 1
    # Largest candidate <= upper with candidate % (2n) == 1.
    candidate = upper - ((upper - 1) % step)
    lower = 1 << (bit_size - 1)

    primes: list[int] = []
    while candidate > lower and len(primes) < count:
        if is_probable_prime(candidate):
            primes.append(candidate)
        candidate -= step
    if len(primes) < count:
        raise ValueError(
            "could not find %d NTT primes of %d bits for n=%d" % (count, bit_size, n)
        )
    return primes


@dataclass(frozen=True)
class PrimeChain:
    """A chain of RNS primes together with the big modulus they represent.

    Attributes:
        primes: The RNS primes ``p_1 .. p_np``.
        n: Polynomial degree the primes are compatible with.
        bit_size: Nominal bit size of each prime.
    """

    primes: tuple[int, ...]
    n: int
    bit_size: int

    @property
    def count(self) -> int:
        """Number of primes in the chain (``np``)."""
        return len(self.primes)

    @property
    def modulus(self) -> int:
        """The composite modulus ``Q = prod(primes)``."""
        product = 1
        for p in self.primes:
            product *= p
        return product

    @property
    def log_q(self) -> int:
        """``ceil(log2 Q)`` — the ``logQ`` quantity quoted in Figure 13."""
        return self.modulus.bit_length()


def generate_prime_chain(bit_size: int, count: int, n: int) -> PrimeChain:
    """Generate a :class:`PrimeChain` of ``count`` primes of ``bit_size`` bits."""
    return PrimeChain(
        primes=tuple(generate_ntt_primes(bit_size, count, n)),
        n=n,
        bit_size=bit_size,
    )
