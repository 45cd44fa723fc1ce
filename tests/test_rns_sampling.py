"""Tests for the bulk samplers behind key material, noise and test plaintexts.

The samplers (:mod:`repro.rns.sampling`) draw bits from a seeded
:class:`random.Random` and map them with exact integer arithmetic, so key
material is a pure function of ``(params, seed)``.  Pinned here: fixed-seed
determinism (also across backends), value ranges, coarse fixed-seed
frequencies against the exact distributions, the rounded-normal threshold
table against an independent float computation, the word-sized entry path
of ``from_coefficients`` against the Python one, and the
:class:`~repro.he.keys.KeyGenerator` call-order independence that the
serving layer's client/tenant agreement relies on.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.scalar import ScalarBackend
from repro.he import HEParams, HeContext, KeyGenerator, bootstrap_circuit, toy_params
from repro.he.bootstrap import _diagonal
from repro.modarith.primes import generate_ntt_primes
from repro.rns import sampling
from repro.rns.basis import RnsBasis
from repro.rns.poly import Domain, RnsPolynomial

N = 64
#: A word-sized basis, plus one with a prime above the storage window (2^62)
#: and one above the word limit (2^63), which take the Python row paths.
BASIS = RnsBasis.from_primes(generate_ntt_primes(30, 2, N) + generate_ntt_primes(60, 1, N), N)
WIDE_BASIS = RnsBasis.from_primes(
    generate_ntt_primes(62, 1, N) + generate_ntt_primes(63, 1, N) + generate_ntt_primes(70, 1, N), N
)


def normal_probability(k: int, stddev: float) -> float:
    """P(round(N(0, stddev^2)) == k), from ``math.erf``."""
    cdf = lambda x: 0.5 * (1 + math.erf(x / (stddev * math.sqrt(2))))  # noqa: E731
    return cdf(k + 0.5) - cdf(k - 0.5)


# -------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: sampling.uniform_below(rng, (1 << 40) + 15, 1000),
        lambda rng: sampling.uniform_below(rng, 1 << 70, 10),
        lambda rng: sampling.ternary(rng, 1000),
        lambda rng: sampling.rounded_normal(rng, 3.2, 1000),
    ],
)
def test_samplers_are_deterministic_per_seed(draw):
    first, again, other = draw(random.Random(5)), draw(random.Random(5)), draw(random.Random(6))
    assert first.tolist() == again.tolist()
    assert first.tolist() != other.tolist()


@pytest.mark.parametrize("basis", [BASIS, WIDE_BASIS], ids=["word", "wide"])
def test_random_polynomials_match_across_backends(basis):
    """The same seed gives the same residues on the oracle and the array backend."""
    samplers = [
        lambda rng, backend: RnsPolynomial.random_uniform(basis, N, rng, backend=backend),
        lambda rng, backend: RnsPolynomial.random_ternary(basis, N, rng, backend=backend),
        lambda rng, backend: RnsPolynomial.random_gaussian(basis, N, rng, backend=backend),
    ]
    for sample in samplers:
        scalar = sample(random.Random(9), ScalarBackend()).to_coeff_lists()
        array = sample(random.Random(9), NumpyBackend()).to_coeff_lists()
        assert scalar == array
        assert all(type(value) is int for row in array for value in row)


# ------------------------------------------------------------- value ranges


@pytest.mark.parametrize("basis", [BASIS, WIDE_BASIS], ids=["word", "wide"])
def test_uniform_rows_are_reduced(basis):
    poly = RnsPolynomial.random_uniform(basis, N, random.Random(1), backend=NumpyBackend())
    for row, p in zip(poly.to_coeff_lists(), basis.primes):
        assert all(0 <= value < p for value in row)


@pytest.mark.parametrize("basis", [BASIS, WIDE_BASIS], ids=["word", "wide"])
def test_ternary_and_gaussian_values_are_small(basis):
    rng = random.Random(2)
    ternary = RnsPolynomial.random_ternary(basis, N, rng).to_big_coefficients(centered=True)
    assert set(ternary) <= {-1, 0, 1}
    gaussian = RnsPolynomial.random_gaussian(basis, N, rng).to_big_coefficients(centered=True)
    assert max(abs(value) for value in gaussian) <= 3.2 * 10


def test_sampler_value_ranges_in_bulk():
    rng = random.Random(3)
    assert set(sampling.ternary(rng, 5000).tolist()) == {-1, 0, 1}
    for bound in (1, 2, 3, 17, (1 << 62) + 1, 1 << 63):
        values = sampling.uniform_below(rng, bound, 3000)
        assert values.dtype == np.int64 and values.min() >= 0 and values.max() < bound
    big = sampling.uniform_below(rng, (1 << 63) + 1, 50)
    assert all(0 <= value <= 1 << 63 for value in big.tolist())
    normal = sampling.rounded_normal(rng, 3.2, 100_000)
    half = sampling.normal_bounds(3.2).size // 2
    assert np.abs(normal).max() <= half <= 30
    assert sampling.rounded_normal(rng, 0.0, 10).tolist() == [0] * 10


def test_diagonal_plaintexts_are_in_range():
    t = 17
    rows = _diagonal(random.Random(4), BASIS, N, t, NumpyBackend()).to_coeff_lists()
    assert all(1 <= value < t for value in rows[0])
    assert rows[0] == rows[1] == rows[2]


# ---------------------------------------------------------------- frequencies


def test_fixed_seed_frequencies():
    """Coarse check of every sampler's histogram against the exact law."""
    draws = 60_000
    rng = random.Random(2020)
    counts = np.bincount(sampling.ternary(rng, draws) + 1, minlength=3)
    assert np.all(np.abs(counts / draws - 1 / 3) < 0.01), counts
    p = 1_000_003
    buckets = np.bincount(sampling.uniform_below(rng, p, draws) * 8 // p, minlength=8)
    assert np.all(np.abs(buckets / draws - 1 / 8) < 0.01), buckets
    normal = sampling.rounded_normal(rng, 3.2, draws)
    for k in range(-8, 9):
        expected = normal_probability(k, 3.2)
        assert abs(np.mean(normal == k) - expected) < 0.01, (k, expected)
    assert abs(normal.std() - math.sqrt(3.2**2 + 1 / 12)) < 0.05


@pytest.mark.parametrize("stddev", [0.5, 1.0, 3.2, 10.0])
def test_normal_bounds_match_an_independent_float_computation(stddev):
    bounds = sampling.normal_bounds(stddev)
    half = bounds.size // 2
    tails = bounds[:half][::-1].tolist()
    assert bounds.tolist() == sorted(bounds.tolist())
    assert bounds[half:].tolist() == [(1 << 64) - t for t in tails]
    assert not bounds.flags.writeable
    for k, tail in enumerate(tails):
        expected = math.ldexp(0.5 * math.erfc((k + 0.5) / (stddev * math.sqrt(2))), 64)
        assert tail == pytest.approx(expected, rel=1e-12, abs=2)
    # The table ends where the remaining tail drops below 2^-64.
    beyond = math.ldexp(0.5 * math.erfc((half + 0.5) / (stddev * math.sqrt(2))), 64)
    assert tails[-1] >= 1 and beyond < 1


@pytest.mark.parametrize("stddev", [-1.0, float("nan"), float("inf"), sampling.MAX_STDDEV * 2])
def test_out_of_range_deviations_are_rejected(stddev):
    with pytest.raises(ValueError):
        sampling.normal_bounds(stddev)
    with pytest.raises(ValueError):
        HEParams(n=N, plaintext_modulus=17, prime_bits=30, prime_count=2, error_std=stddev)


# ------------------------------------------------------- from_coefficients


@pytest.mark.parametrize("basis", [BASIS, WIDE_BASIS], ids=["word", "wide"])
@pytest.mark.parametrize("backend", [ScalarBackend, NumpyBackend])
def test_from_coefficients_word_path_matches_python_reduction(basis, backend):
    rng = random.Random(8)
    word = [rng.randrange(-(1 << 63), 1 << 63) for _ in range(N)]
    huge = word[:-1] + [(1 << 100) + 3]
    for coefficients in (word, np.asarray(word, dtype=np.int64), huge):
        poly = RnsPolynomial.from_coefficients(coefficients, basis, backend=backend())
        expected = [[int(c) % p for c in coefficients] for p in basis.primes]
        assert poly.to_coeff_lists() == expected


# --------------------------------------------------------------- key material


def test_relinearization_key_does_not_depend_on_call_order():
    """A tenant derives only the relinearisation key; a client derives the
    public key first.  Both must hold the same key material for a seed."""
    params = toy_params()

    def residues(key):
        return [[a.to_coeff_lists(), b.to_coeff_lists()] for a, b in key.components]

    fresh = KeyGenerator(params, seed=11)
    relin_first = residues(fresh.relinearization_key())
    client = KeyGenerator(params, seed=11)
    public = client.public_key()
    assert residues(client.relinearization_key()) == relin_first
    assert residues(fresh.relinearization_key()) == relin_first
    assert client.public_key().b == public.b
    assert residues(KeyGenerator(params, seed=12).relinearization_key()) != relin_first


def test_key_material_is_a_function_of_params_and_seed_across_backends():
    params = toy_params()
    scalar = HeContext.create(params, backend=ScalarBackend(), seed=3)
    array = HeContext.create(params, backend=NumpyBackend(), seed=3)
    assert scalar.secret_key().s.to_coeff_lists() == array.secret_key().s.to_coeff_lists()
    assert scalar.public_key().b.to_coeff_lists() == array.public_key().b.to_coeff_lists()
    plain = array.integer_encoder().encode(5)
    first = array.encryptor(seed=4).encrypt(plain)
    again = array.encryptor(seed=4).encrypt(plain)
    assert [p.to_coeff_lists() for p in first.polys] == [p.to_coeff_lists() for p in again.polys]
    assert array.integer_encoder().decode(array.decryptor().decrypt(first)) == 5


def test_keys_and_circuit_diagonals_rest_in_the_ntt_domain():
    """Keys are formed pointwise from NTT-domain samples, and the bootstrap
    circuit transforms each diagonal where it builds it, so no plan
    transforms a key or a diagonal."""
    ctx = HeContext.create(toy_params(), backend=NumpyBackend(), seed=3)
    public = ctx.public_key()
    keys = [ctx.secret_key().s, public.b, public.a]
    keys += [poly for pair in ctx.relinearization_key().pairs for poly in pair]
    assert {poly.domain for poly in keys} == {Domain.NTT}

    ct = ctx.encryptor(seed=4).encrypt(ctx.integer_encoder().encode(5))
    circuit = bootstrap_circuit(
        ctx, ctx.pipeline(), ct, c2s_terms=2, eval_depth=1, s2c_terms=3
    )
    diagonals, stack = {}, [circuit]
    while stack:  # the expression is a DAG: shared nodes are seen again
        expr = stack.pop()
        if expr.plaintext is not None:
            diagonals[id(expr.plaintext)] = expr.plaintext
        stack.extend(expr.children)
    assert len(diagonals) == 2 + 1 + 3
    assert {poly.domain for poly in diagonals.values()} == {Domain.NTT}
