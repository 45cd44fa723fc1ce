"""Benchmark: the sharded ``parallel`` backend vs the single-core numpy path.

The paper's Fig. 3 argument — an HE workload is ``np x polys`` independent
NTTs and throughput comes from running them as one wide batch on parallel
hardware — is what the ``parallel`` backend realises on CPUs.  This module
pins its two acceptance criteria:

* **multi-core speedup** — at the paper-adjacent shape ``N = 8192`` with a
  batch of 16 rows (np = 4 primes x 4 polynomials), the sharded batched
  forward NTT must beat the single-core numpy backend by ≥ 1.5x on a
  machine with at least 4 cores (the assertion is skipped below that,
  where there is nothing to shard onto, but the bit-for-bit check and the
  benchmark still run);
* **crossover** — below the work threshold the backend runs inline on its
  inner backend without ever spawning a worker, so small shapes pay no
  pool tax (asserted structurally via the dispatch counter, plus a loose
  wall-clock bound against raw numpy).

Both backends are pinned to the same NTT engine so the comparison isolates
the sharding, not the engine auto-tuner's verdicts.
"""

from __future__ import annotations

import os
import random
import time

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.modarith.primes import generate_ntt_primes

N_LARGE = 8192
ROWS_LARGE = 16  # np = 4 primes x 4 polynomials per ciphertext batch
N_SMALL = 256
ROWS_SMALL = 4
ENGINE = "high_radix"  # same engine on both sides: isolate the sharding
MIN_SPEEDUP = 1.5
MIN_CORES = 4


def _speedup_assertion_applies() -> bool:
    """Whether this run should enforce the ≥ 1.5x multi-core criterion.

    Needs enough cores to shard onto, and — because the tier-1 suite runs
    this module on *every* CI matrix leg — the assertion is owned by the
    ``REPRO_BACKEND=parallel`` leg (and by plain local runs); the other
    legs still execute the bit-for-bit check and the timing report.
    """
    if (os.cpu_count() or 1) < MIN_CORES:
        return False
    return os.environ.get("REPRO_BACKEND") in (None, "", "parallel")


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _workload(n, rows):
    primes = generate_ntt_primes(30, 4, n)
    batch_primes = [primes[i % len(primes)] for i in range(rows)]
    rng = random.Random(n + rows)
    return batch_primes, [[rng.randrange(p) for _ in range(n)] for p in batch_primes]


def test_bench_parallel_ntt_speedup(benchmark):
    cores = os.cpu_count() or 1
    shards = max(2, cores - 1)
    primes, rows = _workload(N_LARGE, ROWS_LARGE)

    baseline = NumpyBackend(engine=ENGINE)
    base_tensor = baseline.from_rows(rows, primes)
    sharded = ParallelBackend(shards=shards, engine=ENGINE)
    tensor = sharded.from_rows(rows, primes)
    try:
        # Warm both sides (twiddle tables, worker processes) and pin
        # bit-for-bit equality before timing anything.
        expected = baseline.forward_ntt_batch(base_tensor).to_rows()
        produced = sharded.forward_ntt_batch(tensor)
        assert sharded.dispatch_count >= 1, "large shape did not shard"
        assert produced.to_rows() == expected

        single_s = _best_of(lambda: baseline.forward_ntt_batch(base_tensor))
        sharded_s = _best_of(lambda: sharded.forward_ntt_batch(tensor))
        speedup = single_s / sharded_s
        print()
        print(
            "Batched forward NTT, N=%d, rows=%d, 30-bit primes, engine=%s"
            % (N_LARGE, ROWS_LARGE, ENGINE)
        )
        print("  numpy (1 core)        : %8.2f ms" % (single_s * 1e3))
        print(
            "  parallel (%d shards)   : %8.2f ms" % (shards, sharded_s * 1e3)
        )
        print("  speedup               : %8.2fx on %d cpu(s)" % (speedup, cores))
        benchmark(sharded.forward_ntt_batch, tensor)
        if _speedup_assertion_applies():
            assert speedup >= MIN_SPEEDUP, (
                "sharded NTT only %.2fx over single-core numpy" % speedup
            )
    finally:
        sharded.close()


def test_bench_parallel_crossover_no_small_n_regression(benchmark):
    primes, rows = _workload(N_SMALL, ROWS_SMALL)

    baseline = NumpyBackend(engine=ENGINE)
    base_tensor = baseline.from_rows(rows, primes)
    below = ParallelBackend(shards=max(2, (os.cpu_count() or 1) - 1), engine=ENGINE)
    tensor = below.from_rows(rows, primes)
    try:
        produced = below.forward_ntt_batch(tensor)
        assert produced.to_rows() == baseline.forward_ntt_batch(base_tensor).to_rows()
        # Structural crossover guarantee: nothing was dispatched, no worker
        # was ever spawned, and the small tensor never touched /dev/shm.
        assert below.dispatch_count == 0, "small shape paid the pool tax"
        assert not below.pool_running
        assert tensor.segment is None

        single_s = _best_of(lambda: baseline.forward_ntt_batch(base_tensor), repeats=5)
        inline_s = _best_of(lambda: below.forward_ntt_batch(tensor), repeats=5)
        ratio = inline_s / single_s
        print()
        print(
            "Crossover check, N=%d, rows=%d: numpy %.3f ms vs parallel-inline "
            "%.3f ms (%.2fx)" % (N_SMALL, ROWS_SMALL, single_s * 1e3, inline_s * 1e3, ratio)
        )
        benchmark(below.forward_ntt_batch, tensor)
        # The inline path is the inner backend plus a thin handle wrap; allow
        # generous headroom for timer noise on shared CI runners.
        assert ratio <= 1.6, "inline parallel path regressed at small N"
    finally:
        below.close()


def test_bench_parallel_he_chain_stays_resident(benchmark):
    """End-to-end sanity at toy scale: the multiply → relinearize →
    mod-switch chain under the parallel backend is conversion-free and
    decrypts correctly (inline below the crossover — the pool never spawns
    for toy parameters)."""
    from repro.he import HeContext, HEParams

    backend = ParallelBackend(shards=2)
    try:
        params = HEParams(n=256, plaintext_modulus=7681, prime_bits=30, prime_count=4)
        context = HeContext.create(params, backend=backend)
        encryptor = context.encryptor()
        evaluator = context.evaluator()
        relin = context.relinearization_key()
        ct_a = encryptor.encrypt(context.encoder().encode([1, 2, 3, 4]))
        ct_b = encryptor.encrypt(context.encoder().encode([5, 6, 7, 8]))

        def chain():
            return evaluator.mod_switch_to_next(
                evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
            )

        context.reset_metrics()
        switched = chain()
        assert backend.conversion_count == 0
        assert backend.dispatch_count == 0  # toy shapes stay inline
        decoded = context.encoder().decode(context.decryptor().decrypt(switched))
        assert decoded[:4] == [
            (x * y) % 7681 for x, y in zip([1, 2, 3, 4], [5, 6, 7, 8])
        ]
        benchmark(chain)
    finally:
        backend.close()
