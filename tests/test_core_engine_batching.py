"""Tests for the planned NTT engine and its agreement with batched execution.

The batched transforms of an HE multiplication run on the compute backends
(``forward_ntt_batch`` over all ``np`` primes at once); the per-prime
:class:`NTTEngine` models must agree with them bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.core.engine import NTTEngine
from repro.core.on_the_fly import OnTheFlyConfig
from repro.core.plan import NTTAlgorithm, NTTPlan
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.rns.basis import RnsBasis
from repro.transforms.cooley_tukey import ntt_forward, ntt_inverse
from repro.transforms.reference import naive_negacyclic_convolution

N = 1 << 7
P = generate_ntt_primes(60, 1, N)[0]
PSI = primitive_root_of_unity(2 * N, P)

PLANS = [
    NTTPlan(n=N, algorithm=NTTAlgorithm.RADIX2),
    NTTPlan(n=N, algorithm=NTTAlgorithm.HIGH_RADIX, radix=16),
    NTTPlan(n=N, algorithm=NTTAlgorithm.SMEM, per_thread_points=4),
    NTTPlan(n=N, ot=OnTheFlyConfig(base=16, ot_stages=1)),
    NTTPlan(n=N, ot=OnTheFlyConfig(base=16, ot_stages=2)),
]


def random_poly(seed=0):
    rng = random.Random(seed)
    return [rng.randrange(P) for _ in range(N)]


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.label)
def test_engine_matches_reference_regardless_of_plan(plan):
    engine = NTTEngine(N, P, plan, psi=PSI)
    values = random_poly(1)
    assert engine.forward(values) == ntt_forward(values, PSI, P)
    assert engine.inverse(engine.forward(values)) == values
    assert engine.inverse(ntt_forward(values, PSI, P)) == ntt_inverse(
        ntt_forward(values, PSI, P), PSI, P
    )


def test_engine_multiply_matches_schoolbook():
    engine = NTTEngine(N, P, psi=PSI)
    rng = random.Random(2)
    a = [rng.randrange(1000) for _ in range(N)]
    b = [rng.randrange(1000) for _ in range(N)]
    assert engine.multiply(a, b) == naive_negacyclic_convolution(a, b, P)


def test_engine_validates_input_length():
    engine = NTTEngine(N, P, psi=PSI)
    with pytest.raises(ValueError):
        engine.forward([1] * (N + 1))
    with pytest.raises(ValueError):
        engine.inverse([1] * (N - 1))


def test_engine_rejects_mismatched_plan():
    plan = NTTPlan(n=N * 2)
    with pytest.raises(ValueError):
        NTTEngine(N, P, plan)


def test_execution_report_without_ot():
    engine = NTTEngine(N, P, NTTPlan(n=N, algorithm=NTTAlgorithm.RADIX2), psi=PSI)
    _, report = engine.forward_with_report(random_poly(3))
    assert report.n == N
    assert report.passes == 7  # log2(128) radix-2 passes
    assert report.butterflies == (N // 2) * 7
    assert report.table_fetches == N - 1
    assert report.regenerated == 0
    assert report.regeneration_muls == 0
    assert report.resident_table_entries == N
    assert report.resident_table_bytes == N * 16
    assert report.total_twiddle_uses == N - 1


def test_execution_report_with_ot():
    plan = NTTPlan(n=N, ot=OnTheFlyConfig(base=16, ot_stages=1))
    engine = NTTEngine(N, P, plan, psi=PSI)
    _, report = engine.forward_with_report(random_poly(4))
    # Last stage has N/2 twiddles, all regenerated; the rest come from the table.
    assert report.regenerated == N // 2
    assert report.table_fetches == N - 1 - N // 2
    assert report.regeneration_muls > 0
    assert report.butterflies == (N // 2) * 7
    # The resident table shrinks: uncovered N/2 entries plus the factored tables.
    assert report.resident_table_entries == N // 2 + 16 + N // 16
    assert report.resident_table_entries < N


def test_ot_reduces_resident_table_for_large_n():
    """At bootstrappable sizes the OT-covered last stage halves the table (Fig. 12c)."""
    n = 1 << 12
    p = generate_ntt_primes(60, 1, n)[0]
    baseline = NTTEngine(n, p, NTTPlan(n=n))
    with_ot = NTTEngine(n, p, NTTPlan(n=n, ot=OnTheFlyConfig(base=64, ot_stages=1)))
    assert with_ot.resident_table_bytes() < baseline.resident_table_bytes()
    ratio = with_ot.resident_table_bytes() / baseline.resident_table_bytes()
    assert 0.45 < ratio < 0.6


def test_inverse_report_with_ot_matches_roundtrip():
    plan = NTTPlan(n=N, ot=OnTheFlyConfig(base=16, ot_stages=2))
    engine = NTTEngine(N, P, plan, psi=PSI)
    values = random_poly(5)
    transformed, _ = engine.forward_with_report(values)
    restored, report = engine.inverse_with_report(transformed)
    assert restored == values
    assert report.regenerated == N // 2 + N // 4


# ---------------------------------------------------------------- batching


def test_batched_ntt_matches_per_prime_engines():
    basis = RnsBasis.generate(N, 3, bit_size=30)
    backend = NumpyBackend()
    rng = random.Random(6)
    rows = [[rng.randrange(p) for _ in range(N)] for p in basis.primes]
    results = backend.forward_ntt_batch(backend.from_rows(rows, basis.primes))
    transformed = results.to_rows()
    for row, out, p in zip(rows, transformed, basis.primes):
        assert out == NTTEngine(N, p).forward(row)
    assert backend.inverse_ntt_batch(results).to_rows() == rows


def test_batched_multiply():
    basis = RnsBasis.generate(N, 2, bit_size=30)
    backend = NumpyBackend()
    rng = random.Random(8)
    rows_a = [[rng.randrange(100) for _ in range(N)] for _ in basis.primes]
    rows_b = [[rng.randrange(100) for _ in range(N)] for _ in basis.primes]
    fa = backend.forward_ntt_batch(backend.from_rows(rows_a, basis.primes))
    fb = backend.forward_ntt_batch(backend.from_rows(rows_b, basis.primes))
    products = backend.inverse_ntt_batch(backend.mul(fa, fb)).to_rows()
    for p, row_a, row_b, product in zip(basis.primes, rows_a, rows_b, products):
        assert product == naive_negacyclic_convolution(row_a, row_b, p)
