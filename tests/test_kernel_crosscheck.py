"""Generated-case cross-check of the array kernels against the scalar oracle.

A seeded, stdlib-only generator draws one case per ``(n, layout)``: a basis
of 1-6 primes of one word size, laid out the ways tensors reach the kernels
(whole repetitions, a slice starting mid-basis as a pool shard sees it,
shuffled rows, a 30-bit basis next to a 60-bit one, a row at or above the
2^62 storage limit), with one all-``p-1`` row in every case.  Forward,
inverse, add, sub, neg, mul and scalar_mul must match
:class:`~repro.backends.scalar.ScalarBackend` bit for bit under every engine
on numpy, whose reduction strategy follows the prime size (the 40- and
50-bit cases run ``float``, the 51-62-bit cases ``limb``), and on the
parallel backend with every op forced through its pool — except a layout
holding a row at or above the storage limit, which always runs inline.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.backends import ops
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.modarith.primes import generate_ntt_primes

SEED = 1409
SIZES = (8, 64, 1024, 4096)
BITS = (20, 30, 31, 40, 50, 51, 60, 62)
LAYOUTS = ("repeated", "mid_basis", "shuffled", "mixed_words", "storage_overflow")
ENGINES = ("radix2", "high_radix", "four_step", "stockham")
#: Rows per case stay small at the largest sizes: the oracle is big-int Python.
MAX_ROWS = {8: 18, 64: 18, 1024: 8, 4096: 4}


@functools.lru_cache(maxsize=None)
def prime_pool(bits: int) -> tuple[int, ...]:
    """Six primes of ``bits`` bits, NTT-friendly for every size up to 4096."""
    return tuple(generate_ntt_primes(bits, 6, max(SIZES)))


def generate_case(n: int, layout: str):
    """``(primes, rows_a, rows_b, scalar)`` of one seeded case."""
    rng = random.Random("%d/%d/%s" % (SEED, n, layout))
    limit = MAX_ROWS[n]
    # The cases cycle through the word sizes, so every one of them is drawn.
    bits = BITS[(SIZES.index(n) * len(LAYOUTS) + LAYOUTS.index(layout)) % len(BITS)]
    basis = rng.sample(prime_pool(bits), rng.randint(1, min(6, limit // 2)))
    if layout == "repeated":
        primes = basis * rng.randint(1, limit // len(basis))
    elif layout == "mid_basis":
        start = rng.randrange(len(basis))
        primes = (basis * 3)[start : start + rng.randint(2, min(limit, 2 * len(basis) + 1))]
    elif layout == "shuffled":
        primes = basis * 2
        rng.shuffle(primes)
    elif layout == "mixed_words":
        count = rng.randint(1, min(6, limit // 2))
        primes = rng.sample(prime_pool(30), count) + rng.sample(prime_pool(60), count)
    else:
        primes = basis[: limit - 1] + [prime_pool(63)[0]]
        rng.shuffle(primes)
    rows_a = [[rng.randrange(p) for _ in range(n)] for p in primes]
    rows_b = [[rng.randrange(p) for _ in range(n)] for p in primes]
    worst = rng.randrange(len(primes))
    rows_a[worst] = [primes[worst] - 1] * n
    rows_b[worst] = [primes[worst] - 1] * n
    return primes, rows_a, rows_b, rng.randrange(1, 1 << 70)


def run_ops(backend, primes, rows_a, rows_b, scalar) -> dict[str, list[list[int]]]:
    a = backend.from_rows(rows_a, primes)
    b = backend.from_rows(rows_b, primes)
    return {
        "forward": backend.forward_ntt_batch(a).to_rows(),
        "inverse": backend.inverse_ntt_batch(a).to_rows(),
        "add": backend.add(a, b).to_rows(),
        "sub": backend.sub(a, b).to_rows(),
        "neg": backend.neg(a).to_rows(),
        "mul": backend.mul(a, b).to_rows(),
        "scalar_mul": backend.scalar_mul(a, scalar).to_rows(),
    }


@pytest.fixture(scope="module")
def pooled():
    backend = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    yield backend
    backend.close()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", SIZES)
def test_generated_case_matches_scalar_oracle(n, layout, pooled):
    primes, rows_a, rows_b, scalar = generate_case(n, layout)
    expected = run_ops(ScalarBackend(), primes, rows_a, rows_b, scalar)
    for engine in ENGINES:
        got = run_ops(NumpyBackend(engine=engine), primes, rows_a, rows_b, scalar)
        for op, rows in expected.items():
            assert got[op] == rows, (op, engine, primes)
    dispatches = pooled.dispatch_count
    got = run_ops(pooled, primes, rows_a, rows_b, scalar)
    if layout == "storage_overflow":
        # A row at or above the 2^62 storage limit keeps every op inline.
        assert pooled.dispatch_count == dispatches
    else:
        assert pooled.dispatch_count > dispatches
    for op, rows in expected.items():
        assert got[op] == rows, (op, "parallel", primes)


# ------------------------------------------- the modulus-switch correction
#
# The correction node of an NTT-domain modulus switch maps the dropped
# prime's one coefficient row onto the kept primes.  Its cases draw the kept
# primes of one word size and the dropped prime of another, so the narrow
# (signed int64) and wide (limb-Shoup) paths both meet mixed operands; the
# dropped row holds 0, q-1 and both sides of the centring boundary q//2.


def generate_correction_case(n: int, bits: int, overflow: bool):
    """``(q_last, kept primes, dropped row, t)`` of one seeded case."""
    rng = random.Random("%d/%d/correction/%d/%s" % (SEED, n, bits, overflow))
    kept = rng.sample(prime_pool(bits), rng.randint(1, 5))
    q_last = rng.choice([q for q in prime_pool(rng.choice(BITS)) if q not in kept])
    if overflow:
        # A prime at or above the 2^62 storage limit, dropped or kept.
        if rng.random() < 0.5:
            q_last = prime_pool(63)[0]
        else:
            kept.insert(rng.randrange(len(kept) + 1), prime_pool(63)[0])
    row = [rng.randrange(q_last) for _ in range(n)]
    for value in (0, q_last - 1, q_last // 2, q_last // 2 + 1):
        row[rng.randrange(n)] = value
    t = rng.choice([2, 17, 257, 65537, rng.randrange(3, 1 << 20, 2)])
    return q_last, kept, row, t


def correction_rows(backend, q_last, kept, row, t, plan=False):
    tensor = backend.from_rows([row], [q_last])
    if not plan:
        return backend.mod_switch_correction(tensor, t, kept).to_rows()
    graph = ops.OpGraph()
    graph.output("c", graph.mod_switch_correction(graph.input("w"), t, kept))
    return backend.execute(graph.compile(), {"w": tensor})["c"].to_rows()


@pytest.mark.parametrize("overflow", (False, True))
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("n", SIZES)
def test_generated_correction_case_matches_scalar_oracle(n, bits, overflow, pooled):
    q_last, kept, row, t = generate_correction_case(n, bits, overflow)
    expected = correction_rows(ScalarBackend(), q_last, kept, row, t)
    assert correction_rows(NumpyBackend(), q_last, kept, row, t) == expected
    assert correction_rows(pooled, q_last, kept, row, t) == expected
    dispatches = pooled.dispatch_count
    assert correction_rows(pooled, q_last, kept, row, t, plan=True) == expected
    # As a plan the node runs in the pool, unless a row sits at or above
    # the storage limit; the one-row per-op call always runs inline.
    assert (pooled.dispatch_count > dispatches) is not overflow
