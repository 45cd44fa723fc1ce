"""Benchmark: the wide-word (60-bit) vectorised path vs the big-int fallback.

The paper's headline configurations run ~60-bit RNS primes, which the array
data plane historically routed per prime through the scalar big-int fallback.
The wide-word window (``repro/backends/wideops.py``) keeps those primes on
the vectorised array path with Shoup-companion modular multiplies.  This
benchmark times both regimes on the same shape (``N = 4096``, 60-bit primes)
and pins the acceptance criterion: the wide path sustains at least
``MIN_SPEEDUP``x the fallback's per-row forward-NTT throughput.

The fallback regime is produced with ``REPRO_WIDE_WORD=0`` (the escape hatch
that restores the legacy 30-bit gate), on a much smaller batch — the big-int
path is orders of magnitude slower — and both timings are normalised per row
before comparison.  Outputs of the two regimes are also cross-checked
bit-for-bit on the fallback batch.
"""

from __future__ import annotations

import random
import time

from repro.backends.numpy_backend import NumpyBackend
from repro.modarith.primes import generate_ntt_primes

N = 4096
P_BITS = 60
WIDE_BATCH = 8
FALLBACK_BATCH = 2  # the big-int path is slow; normalise per row
ENGINE = "stockham"  # pinned: one engine on both regimes, fallback rows included
#: Required per-row throughput advantage of the wide path over the fallback.
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


def test_bench_wide_vs_fallback_forward_ntt(benchmark, monkeypatch):
    # --- fallback regime: legacy 30-bit gate, per-prime big-int rows -------
    fb_primes, fb_rows = _workload(FALLBACK_BATCH)
    monkeypatch.setenv("REPRO_WIDE_WORD", "0")
    fallback = NumpyBackend(engine=ENGINE)
    fb_tensor = fallback.from_rows(fb_rows, fb_primes)
    fb_out = fallback.forward_ntt_batch(fb_tensor)  # warm
    fb_seconds = _best_of(
        lambda: fallback.forward_ntt_batch(fb_tensor), repeats=2
    )
    assert fallback.fallback_rows > 0, "fallback regime did not engage"
    fb_reference = fb_out.to_rows()
    monkeypatch.delenv("REPRO_WIDE_WORD")

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
    print("  big-int fallback  %8.2f ms" % (fb_per_row * 1e3))
    print("  wide vectorised   %8.2f ms   %.1fx" % (wide_per_row * 1e3, speedup))

    benchmark(wide.forward_ntt_batch, tensor)
    assert speedup >= MIN_SPEEDUP, (
        "wide path only %.2fx the fallback (need >= %.1fx)" % (speedup, MIN_SPEEDUP)
    )
