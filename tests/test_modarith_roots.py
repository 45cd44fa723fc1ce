"""Tests for primitive roots of unity."""

from __future__ import annotations

import pytest

from repro.modarith.modops import mul_mod, pow_mod
from repro.modarith.primes import generate_ntt_primes, is_probable_prime
from repro.modarith.roots import (
    factorize,
    find_generator,
    inverse_root,
    is_primitive_root_of_unity,
    minimal_primitive_root_of_unity,
    primitive_root_of_unity,
    root_powers,
)


def test_factorize_small_numbers():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(997) == {997: 1}
    assert factorize(2**20) == {2: 20}


def test_factorize_reconstructs_value():
    for n in (98, 1024, 3 * 5 * 7 * 11, 998244352, 2**16 * 97):
        product = 1
        for prime, exponent in factorize(n).items():
            product *= prime**exponent
        assert product == n


def _trial_division(n):
    """Reference factorisation: every divisor up to the square root, no shortcut."""
    factors = {}
    divisor = 2
    while divisor * divisor <= n:
        while n % divisor == 0:
            factors[divisor] = factors.get(divisor, 0) + 1
            n //= divisor
        divisor += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


#: NTT primes of 20 to 62 bits; each size keeps ``p - 1 = 2n * k`` with
#: ``k < 2^37`` so that the reference stays quick.
GENERATED_PRIMES = [
    p
    for bits in (20, 26, 32, 38, 44, 50, 56, 60, 62)
    for p in generate_ntt_primes(bits, 3, 1 << max(4, bits - 37))
]


@pytest.mark.parametrize("p", GENERATED_PRIMES)
def test_factorize_matches_trial_division_on_generated_primes(p):
    assert factorize(p - 1) == _trial_division(p - 1)


def test_factorize_tests_primality_once_per_distinct_factor(monkeypatch):
    import repro.modarith.roots as roots

    calls = []

    def counting(n):
        calls.append(n)
        return is_probable_prime(n)

    monkeypatch.setattr(roots, "is_probable_prime", counting)
    for p in GENERATED_PRIMES + generate_ntt_primes(60, 6, 4096):
        del calls[:]
        factors = factorize(p - 1)
        assert len(calls) <= len(factors) + 1, (p, factors, len(calls))
        product = 1
        for prime, exponent in factors.items():
            product *= prime**exponent
        assert product == p - 1


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_find_generator_small_prime():
    # Z_7^* is generated by 3 and 5; the smallest is 3.
    assert find_generator(7) == 3
    g = find_generator(998244353)
    order = 998244352
    for q in factorize(order):
        assert pow_mod(g, order // q, 998244353) != 1


@pytest.mark.parametrize("order", [2, 4, 8, 64, 1 << 12])
def test_primitive_root_of_unity_has_exact_order(order):
    p = 998244353
    root = primitive_root_of_unity(order, p)
    assert pow_mod(root, order, p) == 1
    assert is_primitive_root_of_unity(root, order, p)
    if order > 1:
        assert pow_mod(root, order // 2, p) != 1


def test_primitive_root_requires_divisibility():
    with pytest.raises(ValueError):
        primitive_root_of_unity(3, 257)  # 3 does not divide 256


def test_negacyclic_root_property():
    """psi_2N^N must equal -1 mod p — the property enabling negacyclic convolution."""
    n = 1 << 8
    p = generate_ntt_primes(30, 1, n)[0]
    psi = primitive_root_of_unity(2 * n, p)
    assert pow_mod(psi, n, p) == p - 1


def test_minimal_primitive_root_is_minimal_and_primitive():
    p = 257
    order = 16
    root = minimal_primitive_root_of_unity(order, p)
    assert is_primitive_root_of_unity(root, order, p)
    candidates = [
        c for c in range(1, p) if is_primitive_root_of_unity(c, order, p)
    ]
    assert root == min(candidates)


def test_root_powers_and_inverse_root():
    p = 998244353
    root = primitive_root_of_unity(64, p)
    powers = root_powers(root, 10, p)
    assert powers[0] == 1
    for i in range(1, 10):
        assert powers[i] == mul_mod(powers[i - 1], root, p)
    inv = inverse_root(root, p)
    assert mul_mod(root, inv, p) == 1


def test_is_primitive_root_rejects_zero_and_non_roots():
    p = 998244353
    assert not is_primitive_root_of_unity(0, 8, p)
    assert not is_primitive_root_of_unity(1, 8, p)  # order 1, not 8
    root = primitive_root_of_unity(16, p)
    assert not is_primitive_root_of_unity(root, 8, p)  # wrong order
