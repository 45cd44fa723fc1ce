"""Benchmarks of the functional (algorithm-level) NTT implementations.

These measure the pure-Python reference transform and the planned-engine
model — not a reproduction of any paper figure, but a guard against
performance regressions in the library's own hot paths (twiddle-table
construction, forward/inverse transforms, negacyclic multiplication) — plus
the batched forward transform of the NumPy backend.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.core import NTTEngine, NTTPlan, OnTheFlyConfig
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.rns.basis import RnsBasis
from repro.transforms.cooley_tukey import NegacyclicTransformer

N = 1 << 10
PRIME = generate_ntt_primes(60, 1, N)[0]
PSI = primitive_root_of_unity(2 * N, PRIME)
RNG = random.Random(42)
VALUES = [RNG.randrange(PRIME) for _ in range(N)]
OTHER = [RNG.randrange(PRIME) for _ in range(N)]


@pytest.fixture(scope="module")
def transformer():
    return NegacyclicTransformer(N, PRIME, PSI)


@pytest.fixture(scope="module")
def engine():
    return NTTEngine(N, PRIME, NTTPlan(n=N, ot=OnTheFlyConfig(base=64, ot_stages=1)), psi=PSI)


def test_bench_twiddle_table_construction(benchmark):
    benchmark(NegacyclicTransformer, N, PRIME, PSI)


def test_bench_forward_ntt(benchmark, transformer):
    result = benchmark(transformer.forward, VALUES)
    assert len(result) == N


def test_bench_inverse_ntt(benchmark, transformer):
    forward = transformer.forward(VALUES)
    result = benchmark(transformer.inverse, forward)
    assert result == VALUES


def test_bench_negacyclic_multiply(benchmark, transformer):
    result = benchmark(transformer.multiply, VALUES, OTHER)
    assert len(result) == N


def test_bench_engine_forward_with_ot(benchmark, engine):
    result = benchmark(engine.forward, VALUES)
    assert len(result) == N


def test_bench_batched_ntt_forward(benchmark):
    n = 1 << 8
    basis = RnsBasis.generate(n, 4, bit_size=40)
    backend = NumpyBackend()
    rng = random.Random(7)
    rows = [[rng.randrange(p) for _ in range(n)] for p in basis.primes]
    tensor = backend.from_rows(rows, basis.primes)
    result = benchmark(backend.forward_ntt_batch, tensor)
    assert result.count == 4
