"""Factorisations whose cofactor outlasts the trial-division wheel.

``factorize`` strips small factors with a bounded wheel and splits what
remains with Pollard's rho; these cases reach the rho path with two, three
and repeated large prime factors, and with NTT-friendly ``p - 1`` whose
cofactor is a product of large primes.
"""

from __future__ import annotations

import math

import pytest

from repro.modarith.primes import generate_ntt_primes, is_probable_prime
from repro.modarith.roots import WHEEL_BOUND, factorize, find_generator

LARGE = [1_000_003, 2**31 - 1, 4_294_967_291, 2**61 - 1]


def product(factors):
    return math.prod(prime**exponent for prime, exponent in factors.items())


@pytest.mark.parametrize(
    "expected",
    [
        {LARGE[0]: 1, LARGE[1]: 1},
        {LARGE[1]: 1, LARGE[3]: 1},
        {2: 3, 3: 1, LARGE[0]: 1, LARGE[1]: 1, LARGE[2]: 1},
        {LARGE[0]: 2},
        {1031: 3, LARGE[2]: 2},
        {1033: 1, 1039: 1},  # both just past the wheel
    ],
)
def test_rho_path_recovers_large_factors(expected):
    assert all(is_probable_prime(prime) for prime in expected)
    assert max(expected) > WHEEL_BOUND
    factors = factorize(product(expected))
    assert factors == expected
    assert list(factors) == sorted(factors)


@pytest.mark.parametrize("bits", (40, 50, 60, 62))
def test_ntt_prime_minus_one_factors_and_generator(bits):
    for p in generate_ntt_primes(bits, 3, 16):
        factors = factorize(p - 1)
        assert product(factors) == p - 1
        assert all(is_probable_prime(prime) for prime in factors)
        g = find_generator(p)
        assert all(pow(g, (p - 1) // q, p) != 1 for q in factors)
