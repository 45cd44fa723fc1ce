"""Primitive roots of unity modulo NTT-friendly primes.

NTT replaces the complex exponential ``e^(-2*pi*j/N)`` of the DFT with a
primitive ``N``-th root of unity ``psi`` in ``Z_p`` (``psi^N ≡ 1 mod p`` and
``psi^k != 1`` for ``0 < k < N``).  The negacyclic (merged) NTT of the paper
additionally needs a primitive ``2N``-th root of unity whose square is the
``N``-th root.

The search strategy mirrors standard HE libraries: find a generator of the
multiplicative group ``Z_p^*`` (order ``p - 1``) and raise it to
``(p - 1) / order`` to obtain an element of the requested order.
"""

from __future__ import annotations

from .modops import inv_mod, pow_mod
from .primes import is_probable_prime

__all__ = [
    "factorize",
    "find_generator",
    "primitive_root_of_unity",
    "minimal_primitive_root_of_unity",
    "is_primitive_root_of_unity",
    "root_powers",
    "inverse_root",
]


def factorize(n: int) -> dict[int, int]:
    """Return the prime factorisation of ``n`` as ``{prime: exponent}``.

    Trial division is sufficient here: we only factorise ``p - 1`` for
    NTT-friendly primes, where ``p - 1 = 2N * k`` and ``k`` is small relative
    to typical cryptographic hardness assumptions (these are 30-60 bit
    primes, not RSA moduli).
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    remaining = n
    for candidate in (2, 3, 5):
        while remaining % candidate == 0:
            factors[candidate] = factors.get(candidate, 0) + 1
            remaining //= candidate
    # 6k +/- 1 wheel.  The cofactor's primality is tested once up front and
    # again only when a division shrinks it.
    candidate = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    index = 0
    prime_left = is_probable_prime(remaining)
    while not prime_left and candidate * candidate <= remaining:
        if remaining % candidate == 0:
            while remaining % candidate == 0:
                factors[candidate] = factors.get(candidate, 0) + 1
                remaining //= candidate
            prime_left = is_probable_prime(remaining)
        candidate += increments[index]
        index = (index + 1) % len(increments)
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


def find_generator(p: int) -> int:
    """Find a generator of the multiplicative group ``Z_p^*``.

    Args:
        p: An odd prime.

    Returns:
        The smallest generator ``g`` of ``Z_p^*``.
    """
    if p == 2:
        return 1
    group_order = p - 1
    prime_factors = list(factorize(group_order))
    candidate = 2
    while candidate < p:
        if all(pow_mod(candidate, group_order // q, p) != 1 for q in prime_factors):
            return candidate
        candidate += 1
    raise ValueError("no generator found for p=%d (is it prime?)" % p)


def is_primitive_root_of_unity(root: int, order: int, p: int) -> bool:
    """Return ``True`` when ``root`` is a *primitive* ``order``-th root of unity mod ``p``."""
    if root % p == 0:
        return False
    if pow_mod(root, order, p) != 1:
        return False
    for q in factorize(order):
        if pow_mod(root, order // q, p) == 1:
            return False
    return True


def primitive_root_of_unity(order: int, p: int) -> int:
    """Return a primitive ``order``-th root of unity modulo ``p``.

    Args:
        order: Desired multiplicative order (``N`` or ``2N``); must divide
            ``p - 1``.
        p: Prime modulus.

    Raises:
        ValueError: if ``order`` does not divide ``p - 1``.
    """
    if (p - 1) % order != 0:
        raise ValueError("order %d does not divide p-1 for p=%d" % (order, p))
    generator = find_generator(p)
    root = pow_mod(generator, (p - 1) // order, p)
    assert is_primitive_root_of_unity(root, order, p)
    return root


def minimal_primitive_root_of_unity(order: int, p: int) -> int:
    """Return the smallest primitive ``order``-th root of unity modulo ``p``.

    Some libraries (e.g. SEAL) canonicalise on the minimal root so that
    twiddle tables are reproducible across runs; we follow that convention so
    that serialized test vectors remain stable.
    """
    from math import gcd

    root = primitive_root_of_unity(order, p)
    # All primitive roots are root^k for k coprime with order; scanning the
    # powers of one primitive root finds the minimum.
    best = root
    current = 1
    for k in range(1, order):
        current = (current * root) % p
        if gcd(k, order) == 1 and current < best:
            best = current
    return best


def root_powers(root: int, count: int, p: int) -> list[int]:
    """Return ``[root^0, root^1, ..., root^(count-1)] mod p``."""
    powers = [1] * count
    for i in range(1, count):
        powers[i] = (powers[i - 1] * root) % p
    return powers


def inverse_root(root: int, p: int) -> int:
    """Return the modular inverse of ``root`` (the root used by the inverse NTT)."""
    return inv_mod(root, p)
