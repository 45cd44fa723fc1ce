"""Benchmark: scalar vs NumPy compute backend on the paper's batched-NTT shape.

The workload is the paper's unit of batching — ``np`` independent forward
NTTs over an ``np x N`` residue matrix (Section III / Fig. 3) — executed
through the pluggable backend interface.  The assertion pins the tentpole
speedup: the batched uint64 backend must beat the exact big-int path by at
least 5x at ``N = 4096, np = 4`` with 30-bit primes.
"""

from __future__ import annotations

import random
import time

from repro.backends import ScalarBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.modarith.primes import generate_ntt_primes

N = 4096
NP = 4


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _workload():
    primes = generate_ntt_primes(30, NP, N)
    rng = random.Random(0)
    rows = [[rng.randrange(p) for _ in range(N)] for p in primes]
    return primes, rows


def test_bench_backend_batched_ntt_speedup(benchmark):
    primes, rows = _workload()
    scalar, vectorized = ScalarBackend(), NumpyBackend()
    scalar_tensor = scalar.from_rows(rows, primes)
    numpy_tensor = vectorized.from_rows(rows, primes)
    # Warm both twiddle caches so the timings compare transforms, not tables.
    expected = scalar.forward_ntt_batch(scalar_tensor).to_rows()
    assert vectorized.forward_ntt_batch(numpy_tensor).to_rows() == expected

    result = benchmark(vectorized.forward_ntt_batch, numpy_tensor)
    assert result.to_rows() == expected

    scalar_s = _best_of(lambda: scalar.forward_ntt_batch(scalar_tensor))
    numpy_s = _best_of(lambda: vectorized.forward_ntt_batch(numpy_tensor))
    speedup = scalar_s / numpy_s
    print()
    print("Batched forward NTT, N=%d, np=%d, 30-bit primes" % (N, NP))
    print("  scalar backend : %8.2f ms" % (scalar_s * 1e3))
    print("  numpy backend  : %8.2f ms" % (numpy_s * 1e3))
    print("  speedup        : %8.2fx" % speedup)
    assert speedup >= 5.0


def _multiply(backend, rows_a, rows_b, primes):
    """Rows-in/rows-out ``iNTT(NTT(a) ⊙ NTT(b))``, both forward transforms in one batch."""
    a = backend.from_rows(rows_a, primes)
    b = backend.from_rows(rows_b, primes)
    a_ntt, b_ntt = backend.split(
        backend.forward_ntt_batch(backend.concat([a, b])), [len(primes), len(primes)]
    )
    return backend.inverse_ntt_batch(backend.mul(a_ntt, b_ntt)).to_rows()


def test_bench_backend_multiply_pipeline(benchmark):
    """Full iNTT(NTT(a) ⊙ NTT(b)) pipeline through the backend ops per backend."""
    primes, rows_a = _workload()
    rng = random.Random(1)
    rows_b = [[rng.randrange(p) for _ in range(N)] for p in primes]
    scalar, vectorized = ScalarBackend(), NumpyBackend()
    expected = _multiply(scalar, rows_a, rows_b, primes)
    assert _multiply(vectorized, rows_a, rows_b, primes) == expected

    result = benchmark(_multiply, vectorized, rows_a, rows_b, primes)
    assert result == expected

    scalar_s = _best_of(lambda: _multiply(scalar, rows_a, rows_b, primes), repeats=1)
    numpy_s = _best_of(lambda: _multiply(vectorized, rows_a, rows_b, primes))
    print()
    print("Negacyclic multiply pipeline, N=%d, np=%d, 30-bit primes" % (N, NP))
    print("  scalar backend : %8.2f ms" % (scalar_s * 1e3))
    print("  numpy backend  : %8.2f ms" % (numpy_s * 1e3))
    print("  speedup        : %8.2fx" % (scalar_s / numpy_s))
    assert scalar_s / numpy_s > 1.0
