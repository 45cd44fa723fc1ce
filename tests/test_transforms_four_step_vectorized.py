"""Tests for the four-step engine and the vectorised radix-2 array kernel.

Both run on the NumPy backend (:mod:`repro.backends.engines`):
``four_step:N1`` is the paper's two-kernel split, and ``radix2`` is the
vectorised sweep of Algorithm 1 that every other engine must match.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.engines import EngineTables, default_split, get_engine
from repro.backends.numpy_backend import STORAGE_LIMIT, NumpyBackend
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.transforms.bitrev import bit_reverse_permute
from repro.transforms.cooley_tukey import NegacyclicTransformer, ntt_forward
from repro.transforms.reference import naive_negacyclic_convolution, naive_negacyclic_ntt

N = 64
P = generate_ntt_primes(30, 1, N)[0]
PSI = primitive_root_of_unity(2 * N, P)


def random_poly(n, p, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


def forward(spec, values, p=P):
    """One row through ``spec``'s array kernel (bit-reversed output)."""
    backend = NumpyBackend(engine=spec)
    return backend.forward_ntt_batch(backend.from_rows([values], [p])).to_rows()[0]


def inverse(spec, values, p=P):
    """One bit-reversed row through ``spec``'s inverse array kernel."""
    backend = NumpyBackend(engine=spec)
    return backend.inverse_ntt_batch(backend.from_rows([values], [p])).to_rows()[0]


# ---------------------------------------------------------------- four-step


def test_default_split_balanced():
    assert default_split(1 << 6) == (8, 8)
    assert default_split(1 << 17) == (256, 512)
    assert default_split(2) == (1, 2)


#: Kernel-1 sizes; 64 leaves no Kernel-2, so the engine runs the even default.
@pytest.mark.parametrize("n1", [2, 4, 8, 16, 32, 64])
def test_four_step_negacyclic_matches_reference_for_every_split(n1):
    values = random_poly(N, P, seed=2)
    expected = naive_negacyclic_ntt(values, PSI, P)
    assert bit_reverse_permute(forward("four_step:%d" % n1, values)) == expected


def test_four_step_equals_bitreversed_cooley_tukey():
    values = random_poly(N, P, seed=3)
    assert forward("four_step", values) == ntt_forward(values, PSI, P)


def test_four_step_roundtrip():
    values = random_poly(N, P, seed=4)
    transformed = forward("four_step", values)
    assert inverse("four_step", transformed) == values
    # mismatched split on the way back still works (the split is internal)
    assert inverse("four_step:4", transformed) == values


def test_four_step_validation():
    with pytest.raises(ValueError):
        forward("four_step", [1, 2, 3])
    with pytest.raises(ValueError):
        inverse("four_step", [1, 2, 3])
    for bad in ("four_step:1", "four_step:3"):
        with pytest.raises(ValueError):
            get_engine(bad)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2**30))
def test_four_step_property_various_sizes(log_n, seed):
    n = 1 << log_n
    p = generate_ntt_primes(28, 1, n)[0]
    psi = primitive_root_of_unity(2 * n, p)
    values = random_poly(n, p, seed=seed)
    expected = naive_negacyclic_ntt(values, psi, p)
    assert bit_reverse_permute(forward("four_step", values, p)) == expected


# ---------------------------------------------------------------- vectorised radix-2


def test_vectorized_rejects_large_moduli_and_bad_sizes():
    """The array tables refuse a non-power-of-two size and a prime with no
    2n-th root; a prime at the 2^62 storage limit never enters the array."""
    with pytest.raises(ValueError):
        EngineTables(48, "shoup32")
    with pytest.raises(ValueError):
        EngineTables(N, "shoup32").index(998244353 - 2)
    assert STORAGE_LIMIT == 1 << 62
    big_prime = generate_ntt_primes(63, 1, N)[0]
    backend = NumpyBackend(engine="radix2")
    tensor = backend.from_rows([random_poly(N, big_prime, seed=5)], [big_prime])
    assert tensor.big
    backend.forward_ntt_batch(tensor)
    assert backend.fallback_rows == 1


def test_vectorized_matches_scalar_forward_and_inverse():
    scalar = NegacyclicTransformer(N, P, PSI)
    values = random_poly(N, P, seed=5)
    assert forward("radix2", values) == scalar.forward(values)
    transformed = scalar.forward(values)
    assert inverse("radix2", transformed) == scalar.inverse(transformed)


def test_vectorized_roundtrip_and_multiply():
    a = random_poly(N, P, seed=6)
    b = random_poly(N, P, seed=7)
    assert inverse("radix2", forward("radix2", a)) == a
    backend = NumpyBackend(engine="radix2")
    fa = backend.forward_ntt_batch(backend.from_rows([a], [P]))
    fb = backend.forward_ntt_batch(backend.from_rows([b], [P]))
    product = backend.inverse_ntt_batch(backend.mul(fa, fb)).to_rows()[0]
    assert product == naive_negacyclic_convolution(a, b, P)


def test_vectorized_derives_root_and_validates_length():
    p = generate_ntt_primes(30, 2, N)[1]
    values = random_poly(N, p, seed=8)
    assert inverse("radix2", forward("radix2", values, p), p) == values
    with pytest.raises(ValueError):
        forward("radix2", [1] * (N - 1))


def test_vectorized_larger_size_against_scalar():
    n = 1 << 9
    p = generate_ntt_primes(30, 1, n)[0]
    scalar = NegacyclicTransformer(n, p)
    values = random_poly(n, p, seed=9)
    assert forward("radix2", values, p) == scalar.forward(values)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_vectorized_roundtrip_property(seed):
    values = random_poly(N, P, seed=seed)
    assert inverse("radix2", forward("radix2", values)) == values
