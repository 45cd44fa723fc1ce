"""Exactness tests for the wide-word (> 2^31) vectorised array paths.

The wide-word window (``wideops.py``) lets the numpy and parallel backends
run 32–62-bit primes fully vectorised instead of falling back to per-prime
scalar arithmetic.  These tests pin the acceptance criteria:

* **bit-for-bit exactness** — every array operation (all four NTT engines
  forward/inverse, pointwise add/sub/neg/mul/scalar_mul, digit_broadcast,
  mod_switch_drop_last) matches :class:`ScalarBackend` exactly across the
  whole window, including worst-case all-``p-1`` operands and primes just
  below the 2^62 ceiling;
* **strategy map** — the prime size alone picks the Shoup strategy
  (float64 quotient below 2^50, limb decomposition above), and both match
  the scalar oracle across the window;
* **residency** — wide transforms and a full 60-bit HE chain charge zero
  conversions and zero ``fallback.rows`` on numpy and parallel (pooled and
  inline) backends.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.backends.wideops import (
    FLOAT_SHOUP_LIMIT,
    NARROW_MUL_LIMIT,
    WIDE_MUL_LIMIT,
    select_strategy,
)
from repro.he import HEParams, HeContext
from repro.modarith.primes import generate_ntt_primes

N = 64
WIDE_BITS = (32, 40, 50, 60, 62)  # spans both strategies up to the ceiling
ENGINE_SPECS = ("radix2", "high_radix:4", "four_step", "stockham")


def wide_rows(primes, n, seed):
    """Random residue rows with the first row pinned to worst-case p-1."""
    rng = random.Random(seed)
    rows = [[rng.randrange(p) for _ in range(n)] for p in primes]
    rows[0] = [primes[0] - 1] * n
    return rows


def scalar_reference():
    return ScalarBackend()


class residency:
    """Context manager asserting a compute section stays on the resident
    array path: zero conversions and zero fallback rows charged inside.

    ``from_rows``/``to_rows`` legitimately charge the conversion counter
    (they *are* boundary crossings), so exactness comparisons convert
    outside the guarded section.
    """

    def __init__(self, backend):
        self.backend = backend

    def __enter__(self):
        self.conv = self.backend.conversion_count
        self.fall = self.backend.fallback_rows
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            assert self.backend.conversion_count == self.conv
            assert self.backend.fallback_rows == self.fall


# ------------------------------------------------------------ strategy map


def test_strategy_selection_covers_the_window():
    """Float quotient below 2^50, limb decomposition above: the prime size
    alone picks the strategy."""
    for bits in (32, 40, 49, 50, 60, 62):
        for p in generate_ntt_primes(bits, 2, N):
            want = "float" if p < FLOAT_SHOUP_LIMIT else "limb"
            assert select_strategy(p) == want
    assert NARROW_MUL_LIMIT < FLOAT_SHOUP_LIMIT < WIDE_MUL_LIMIT


# ------------------------------------------------------- transform crosscheck


@pytest.mark.parametrize("spec", ENGINE_SPECS)
@pytest.mark.parametrize("bits", WIDE_BITS)
def test_wide_transforms_match_scalar(bits, spec):
    primes = generate_ntt_primes(bits, 2, N)
    batch = [p for p in primes for _ in range(2)]
    rows = wide_rows(batch, N, seed=bits)

    scalar = scalar_reference()
    expected = scalar.forward_ntt_batch(scalar.from_rows(rows, batch)).to_rows()

    backend = NumpyBackend(engine=spec)
    tensor = backend.from_rows(rows, batch)
    with residency(backend):
        forward = backend.forward_ntt_batch(tensor)
        back = backend.inverse_ntt_batch(forward)
    assert forward.to_rows() == expected
    assert back.to_rows() == tensor.to_rows()


# ------------------------------------------------------- pointwise crosscheck


@pytest.mark.parametrize("bits", WIDE_BITS)
def test_wide_pointwise_ops_match_scalar(bits):
    primes = generate_ntt_primes(bits, 3, N)
    rows_a = wide_rows(primes, N, seed=bits * 3)
    rows_b = wide_rows(primes, N, seed=bits * 3 + 1)
    big_scalar = primes[0] - 1  # worst-case scalar operand

    scalar = scalar_reference()
    sa = scalar.from_rows(rows_a, primes)
    sb = scalar.from_rows(rows_b, primes)

    backend = NumpyBackend()
    na = backend.from_rows(rows_a, primes)
    nb = backend.from_rows(rows_b, primes)

    with residency(backend):
        got = {
            "add": backend.add(na, nb),
            "sub": backend.sub(na, nb),
            "neg": backend.neg(na),
            "mul": backend.mul(na, nb),
            "scalar_mul": backend.scalar_mul(na, big_scalar),
        }
    assert got["add"].to_rows() == scalar.add(sa, sb).to_rows()
    assert got["sub"].to_rows() == scalar.sub(sa, sb).to_rows()
    assert got["neg"].to_rows() == scalar.neg(sa).to_rows()
    assert got["mul"].to_rows() == scalar.mul(sa, sb).to_rows()
    assert (
        got["scalar_mul"].to_rows()
        == scalar.scalar_mul(sa, big_scalar).to_rows()
    )


@pytest.mark.parametrize("bits", WIDE_BITS)
def test_wide_digit_broadcast_and_mod_switch_match_scalar(bits):
    t = 257
    primes = generate_ntt_primes(bits, 3, N)
    rows = wide_rows(primes, N, seed=bits * 5)

    scalar = scalar_reference()
    st = scalar.from_rows(rows, primes)
    backend = NumpyBackend()
    nt = backend.from_rows(rows, primes)

    with residency(backend):
        digits = [backend.digit_broadcast(nt, i) for i in range(len(primes))]
        switched = backend.mod_switch_drop_last(nt, t)
    for index, digit in enumerate(digits):
        assert digit.to_rows() == scalar.digit_broadcast(st, index).to_rows()
    assert switched.to_rows() == scalar.mod_switch_drop_last(st, t).to_rows()


def test_wide_window_can_be_pinned_off(monkeypatch):
    """REPRO_WIDE_WORD=0 restores the legacy 30-bit gate (scalar fallback)."""
    monkeypatch.setenv("REPRO_WIDE_WORD", "0")
    primes = generate_ntt_primes(60, 2, N)
    rows = wide_rows(primes, N, seed=61)

    scalar = scalar_reference()
    expected = scalar.forward_ntt_batch(scalar.from_rows(rows, primes)).to_rows()

    backend = NumpyBackend()
    forward = backend.forward_ntt_batch(backend.from_rows(rows, primes))
    assert forward.to_rows() == expected  # fallback is still exact
    assert backend.fallback_rows == len(primes)


# -------------------------------------------------------------- parallel


def test_parallel_wide_matches_scalar_pooled_and_inline():
    bits = 62
    primes = generate_ntt_primes(bits, 2, N)
    batch = [p for p in primes for _ in range(2)]
    rows = wide_rows(batch, N, seed=bits)

    scalar = scalar_reference()
    st = scalar.from_rows(rows, batch)
    expected_fwd = scalar.forward_ntt_batch(st).to_rows()
    expected_mul = scalar.mul(st, st).to_rows()

    pooled = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    inline = ParallelBackend(shards=2)  # toy shapes stay below the crossover
    try:
        for backend in (pooled, inline):
            tensor = backend.from_rows(rows, batch)
            with residency(backend):
                forward = backend.forward_ntt_batch(tensor)
                back = backend.inverse_ntt_batch(forward)
                product = backend.mul(tensor, tensor)
            assert forward.to_rows() == expected_fwd
            assert back.to_rows() == tensor.to_rows()
            assert product.to_rows() == expected_mul
        assert pooled.dispatch_count > 0
        assert inline.dispatch_count == 0
    finally:
        pooled.close()
        inline.close()


# ------------------------------------------------------------ 60-bit chain


@pytest.mark.parametrize("backend_name", ["numpy", "parallel"])
def test_chain_60bit_stays_resident_and_matches_scalar(backend_name):
    """multiply -> relinearize -> mod_switch at 60-bit primes: bit-for-bit
    with the scalar backend, with zero conversions and zero fallback rows."""
    params = HEParams(n=64, plaintext_modulus=257, prime_bits=60, prime_count=3)

    def run(backend):
        ctx = HeContext.create(params, backend=backend, seed=7)
        encryptor = ctx.encryptor(seed=11)
        evaluator = ctx.evaluator()
        relin = ctx.relinearization_key()
        ct = encryptor.encrypt(ctx.encoder().encode([5, 4, 3]))
        with residency(backend):
            out = evaluator.mod_switch_to_next(
                evaluator.relinearize(evaluator.square(ct), relin)
            )
        return ctx, [poly.to_coeff_lists() for poly in out.polys]

    _, expected = run(ScalarBackend())

    if backend_name == "numpy":
        backend = NumpyBackend()
    else:
        backend = ParallelBackend(
            shards=2, transform_threshold=1, pointwise_threshold=1
        )
    try:
        ctx, got = run(backend)
        assert got == expected
        assert backend.fallback_rows == 0
        assert ctx.metrics().get("fallback.rows", 0) == 0
    finally:
        if backend_name == "parallel":
            backend.close()
