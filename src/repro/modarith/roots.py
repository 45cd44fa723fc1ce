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

import itertools
import math

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


#: Trial division covers candidates below this bound; a cofactor that is
#: still composite is split by Pollard's rho.
WHEEL_BOUND = 1 << 10
#: Differences multiplied together per gcd in the rho search.
_RHO_BATCH = 64


def factorize(n: int) -> dict[int, int]:
    """Return the prime factorisation of ``n`` as ``{prime: exponent}``.

    Trial division by 2, 3, 5 and a ``6k +/- 1`` wheel strips the factors
    below :data:`WHEEL_BOUND`; a cofactor that is neither 1 nor prime is
    then split by Pollard's rho (Brent's variant), whose cost grows with the
    square root of the second-largest prime factor rather than with the
    factor itself.  A part smaller than the square of the first untried
    wheel candidate is prime without a test, so primality is tested about
    once per large prime factor.  Factors are listed in increasing order.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    remaining = n
    for candidate in (2, 3, 5):
        while remaining % candidate == 0:
            factors[candidate] = factors.get(candidate, 0) + 1
            remaining //= candidate
    candidate = 7
    increments = itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6))
    while candidate < WHEEL_BOUND and candidate * candidate <= remaining:
        while remaining % candidate == 0:
            factors[candidate] = factors.get(candidate, 0) + 1
            remaining //= candidate
        candidate += next(increments)
    # Every prime factor of what remains is at least ``candidate``.
    pending = [remaining] if remaining > 1 else []
    while pending:
        value = pending.pop()
        if value in factors or value < candidate * candidate or is_probable_prime(value):
            factors[value] = factors.get(value, 0) + 1
        else:
            divisor = _pollard_rho(value)
            pending += [divisor, value // divisor]
    return dict(sorted(factors.items()))


def _pollard_rho(n: int) -> int:
    """A proper divisor of the odd composite ``n`` (Brent's cycle search).

    Iterates ``x -> x^2 + c mod n`` from 2 with ``c = 1, 2, ...`` until one
    run finds a divisor other than ``n``; deterministic, so every call
    returns the same divisor.
    """
    c = 0
    while True:
        c += 1
        y, power, product, divisor = 2, 1, 1, 1
        while divisor == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and divisor == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, power - done)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                divisor = math.gcd(product, n)
                done += _RHO_BATCH
            power *= 2
        if divisor == n:  # the batch overshot: replay it one step at a time
            divisor = 1
            while divisor == 1:
                saved = (saved * saved + c) % n
                divisor = math.gcd(x - saved, n)
        if divisor != n:
            return divisor


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
