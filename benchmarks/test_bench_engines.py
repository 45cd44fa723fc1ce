"""Benchmark: the NTT-engine zoo on the batched data-plane shape.

Races every registered engine on the production path (resident tensor →
``forward_ntt_batch``) at ``N = 4096`` and ``N = 8192`` with a batch of 8
rows over 30-bit primes.  Pins the engine-layer acceptance criteria:

* at least one vectorised non-radix-2 engine beats the radix-2 baseline
  (the pre-engine data plane) by a recorded margin, and
* an unpinned backend runs the fixed ``stockham`` array kernel and is not
  slower than the baseline — i.e. the default configuration actually
  ships the speedup.

The structural reason for the margin: radix-2 reduces every butterfly
output and twiddle product with a hardware-division ``%``, while the other
engines run Harvey's lazy butterflies — Shoup twiddle products and one
branch-free conditional subtraction per butterfly — and the Stockham engine
reads and writes whole contiguous half-rows in every stage (Pease's constant
geometry; see ``repro/backends/engines.py``).
"""

from __future__ import annotations

import random
import time

from repro.backends.numpy_backend import NumpyBackend
from repro.modarith.primes import generate_ntt_primes

BATCH = 8
ENGINE_SPECS = ("radix2", "high_radix", "four_step", "stockham")
#: Required advantage of the best non-radix-2 engine over the baseline.
MIN_SPEEDUP = 1.1


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _workload(n):
    primes = generate_ntt_primes(30, 2, n)
    batch_primes = [primes[i % len(primes)] for i in range(BATCH)]
    rng = random.Random(n)
    rows = [[rng.randrange(p) for _ in range(n)] for p in batch_primes]
    return batch_primes, rows


def _race(n):
    """Time every engine at (n, BATCH); return {spec: seconds} and outputs."""
    primes, rows = _workload(n)
    timings = {}
    outputs = {}
    for spec in ENGINE_SPECS:
        backend = NumpyBackend(engine=spec)
        tensor = backend.from_rows(rows, primes)
        outputs[spec] = backend.forward_ntt_batch(tensor).to_rows()  # warm + check
        timings[spec] = _best_of(lambda b=backend, t=tensor: b.forward_ntt_batch(t))
    reference = outputs["radix2"]
    for spec, produced in outputs.items():
        assert produced == reference, "engine %s diverged from radix2" % spec
    return timings


def _report(n, timings):
    print()
    print("Batched forward NTT engines, N=%d, batch=%d, 30-bit primes" % (n, BATCH))
    baseline = timings["radix2"]
    for spec, seconds in sorted(timings.items(), key=lambda item: item[1]):
        print(
            "  %-12s %8.2f ms   %5.2fx vs radix-2"
            % (spec, seconds * 1e3, baseline / seconds)
        )


def test_bench_engine_zoo_n4096(benchmark):
    timings = _race(4096)
    _report(4096, timings)
    non_radix2 = {s: t for s, t in timings.items() if s != "radix2"}
    best_other = min(non_radix2, key=non_radix2.__getitem__)
    primes, rows = _workload(4096)
    backend = NumpyBackend(engine=best_other)
    tensor = backend.from_rows(rows, primes)
    benchmark(backend.forward_ntt_batch, tensor)
    assert timings["radix2"] / min(non_radix2.values()) >= MIN_SPEEDUP


def test_bench_engine_zoo_n8192(benchmark):
    timings = _race(8192)
    _report(8192, timings)
    primes, rows = _workload(8192)
    backend = NumpyBackend(engine="high_radix")
    tensor = backend.from_rows(rows, primes)
    benchmark(backend.forward_ntt_batch, tensor)
    non_radix2 = {s: t for s, t in timings.items() if s != "radix2"}
    assert timings["radix2"] / min(non_radix2.values()) >= MIN_SPEEDUP


def test_bench_autotuner_ships_the_win(benchmark):
    """The default configuration runs the fixed ``stockham`` array kernel
    and is not slower than the radix-2 baseline at the pinned shape."""
    n = 4096
    primes, rows = _workload(n)
    tuned = NumpyBackend()  # no pin, no env: the fixed array kernel
    tensor = tuned.from_rows(rows, primes)
    tuned.forward_ntt_batch(tensor)  # warm
    print()
    print("Default engines at N=%d batch=%d: %s" % (n, BATCH, tuned.engine_choices))
    assert set(tuned.engine_choices.values()) == {"stockham"}

    baseline = NumpyBackend(engine="radix2")
    base_tensor = baseline.from_rows(rows, primes)
    baseline.forward_ntt_batch(base_tensor)  # warm
    tuned_s = _best_of(lambda: tuned.forward_ntt_batch(tensor))
    base_s = _best_of(lambda: baseline.forward_ntt_batch(base_tensor))
    print("  tuned %.2f ms vs radix-2 %.2f ms (%.2fx)" % (
        tuned_s * 1e3, base_s * 1e3, base_s / tuned_s))
    benchmark(tuned.forward_ntt_batch, tensor)
    assert tuned_s <= base_s * 1.05
