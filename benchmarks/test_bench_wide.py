"""Benchmark: the wide-word (60-bit) vectorised path vs big-int rows.

The paper's headline configurations run ~60-bit RNS primes.  The wide-word
window (``repro/backends/wideops.py``) keeps those primes on the vectorised
array path with Shoup-companion modular multiplies; without it they would
run as exact big-int rows.  This benchmark times the wide path against the
scalar oracle's rows on the same shape (``N = 4096``, 60-bit primes) and
pins the acceptance criterion: the wide path sustains at least
``MIN_SPEEDUP``x the big-int per-row forward-NTT throughput.

The big-int side runs on a much smaller batch — it is orders of magnitude
slower — and both timings are normalised per row before comparison.  The
two outputs are also cross-checked bit-for-bit on the big-int batch.
"""

from __future__ import annotations

import random
import time

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.scalar import ScalarBackend
from repro.modarith.primes import generate_ntt_primes

N = 4096
P_BITS = 60
WIDE_BATCH = 8
FALLBACK_BATCH = 2  # the big-int path is slow; normalise per row
ENGINE = "stockham"  # pinned: the wide path's array kernel
#: Required per-row throughput advantage of the wide path over big-int rows.
MIN_SPEEDUP = 3.0


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _workload(batch):
    primes = generate_ntt_primes(P_BITS, 2, N)
    batch_primes = [primes[i % len(primes)] for i in range(batch)]
    rng = random.Random(N)
    rows = [[rng.randrange(p) for _ in range(N)] for p in batch_primes]
    return batch_primes, rows


def test_bench_wide_vs_fallback_forward_ntt(benchmark):
    # --- big-int rows: the scalar oracle's one transform ---------------------
    fb_primes, fb_rows = _workload(FALLBACK_BATCH)
    scalar = ScalarBackend()
    fb_tensor = scalar.from_rows(fb_rows, fb_primes)
    fb_out = scalar.forward_ntt_batch(fb_tensor)  # warm
    fb_seconds = _best_of(
        lambda: scalar.forward_ntt_batch(fb_tensor), repeats=2
    )
    fb_reference = fb_out.to_rows()

    # --- wide regime: default window, fully vectorised ---------------------
    primes, rows = _workload(WIDE_BATCH)
    wide = NumpyBackend(engine=ENGINE)
    tensor = wide.from_rows(rows, primes)
    wide.forward_ntt_batch(tensor)  # warm twiddles + Shoup companions
    wide_seconds = _best_of(lambda: wide.forward_ntt_batch(tensor))
    assert wide.fallback_rows == 0, "wide regime fell back"

    # exactness cross-check on the fallback batch
    check = wide.forward_ntt_batch(wide.from_rows(fb_rows, fb_primes))
    assert check.to_rows() == fb_reference

    wide_per_row = wide_seconds / WIDE_BATCH
    fb_per_row = fb_seconds / FALLBACK_BATCH
    speedup = fb_per_row / wide_per_row
    print()
    print("Forward NTT, N=%d, %d-bit primes (per-row):" % (N, P_BITS))
    print("  big-int rows      %8.2f ms" % (fb_per_row * 1e3))
    print("  wide vectorised   %8.2f ms   %.1fx" % (wide_per_row * 1e3, speedup))

    benchmark(wide.forward_ntt_batch, tensor)
    assert speedup >= MIN_SPEEDUP, (
        "wide path only %.2fx the big-int rows (need >= %.1fx)" % (speedup, MIN_SPEEDUP)
    )
