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


# ------------------------------------------- the multiply-accumulate node
#
# An inner product's cases draw 1-20 terms over a basis of one word size, as
# pairs of operands that repeat (a pair may appear twice, an operand in
# several pairs), with no addends, with addends, and with a prime at or
# above the 2^62 storage limit on the counted fallback.  Numpy runs it as
# one node; the pool both per op and as a dispatched one-node plan.


def generate_inner_product_case(bits: int, index: int):
    """``(primes, operand rows, pairs, addends)`` of one seeded case."""
    rng = random.Random("%d/inner_product/%d/%d" % (SEED, bits, index))
    basis = rng.sample(prime_pool(bits), rng.randint(1, 3))
    primes = basis * rng.randint(1, 2)
    if index == 2:
        primes.insert(rng.randrange(len(primes) + 1), prime_pool(63)[0])
    terms = rng.randint(1, 20)
    count = rng.randint(2, min(2 * terms + 2, 8))
    rows = [[[rng.randrange(p) for _ in range(64)] for p in primes] for _ in range(count)]
    rows[rng.randrange(count)] = [[p - 1] * 64 for p in primes]
    pairs = [(rng.randrange(count), rng.randrange(count)) for _ in range(terms)]
    if index == 1:
        pairs.append(pairs[0])  # a repeated pair
    addends = [rng.randrange(count) for _ in range(rng.randint(1, 3) if index else 0)]
    return primes, rows, pairs, addends


def inner_product_rows(backend, primes, rows, pairs, addends, plan=False):
    tensors = [backend.from_rows(operand, primes) for operand in rows]
    if not plan:
        return backend.inner_product(
            [(tensors[a], tensors[b]) for a, b in pairs], [tensors[c] for c in addends]
        ).to_rows()
    graph = ops.OpGraph()
    values = [graph.input("x%d" % index) for index in range(len(tensors))]
    graph.output(
        "ip",
        graph.inner_product(
            [(values[a], values[b]) for a, b in pairs], [values[c] for c in addends]
        ),
    )
    bound = {"x%d" % index: tensor for index, tensor in enumerate(tensors)}
    return backend.execute(graph.compile(), bound)["ip"].to_rows()


def check_inner_product(pooled, primes, rows, pairs, addends):
    expected = inner_product_rows(ScalarBackend(), primes, rows, pairs, addends)
    overflow = max(primes) >= 1 << 62
    numpy_backend = NumpyBackend()
    assert inner_product_rows(numpy_backend, primes, rows, pairs, addends) == expected
    assert (numpy_backend.fallback_rows > 0) is overflow
    for plan in (False, True):
        dispatches = pooled.dispatch_count
        got = inner_product_rows(pooled, primes, rows, pairs, addends, plan)
        assert got == expected, ("parallel", plan, primes)
        # A row at or above the storage limit keeps the node inline, and so
        # does a one-row operand called per op.
        dispatched = pooled.dispatch_count > dispatches
        assert dispatched is (not overflow and (plan or len(primes) > 1))
    return expected


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("bits", BITS)
def test_generated_inner_product_case_matches_scalar_oracle(bits, index, pooled):
    primes, rows, pairs, addends = generate_inner_product_case(bits, index)
    check_inner_product(pooled, primes, rows, pairs, addends)


@pytest.mark.parametrize(
    "bits, terms", [(30, 16), (30, 17), (31, 4), (31, 5), (62, 20)]
)
def test_inner_product_past_the_native_headroom(bits, terms, pooled):
    """Every operand at ``p - 1``: 16 products of 30-bit primes and 4 of
    31-bit primes fit an unreduced uint64 sum, one more does not."""
    primes = list(prime_pool(bits)[:2])
    rows = [[[p - 1] * 64 for p in primes]]
    expected = check_inner_product(pooled, primes, rows, [(0, 0)] * terms, [0, 0])
    assert expected == [
        [(terms * (p - 1) ** 2 + 2 * (p - 1)) % p] * 64 for p in primes
    ]


# ----------------------------------------------- digits by shift
#
# Row ``i`` of shift ``g`` is source row ``(i + g) mod L`` reduced mod the
# row's own prime.  The bases mix 30- and 60-bit primes, so a digit is
# reduced mod a smaller and a larger prime than its own, and the overflow
# cases hold a prime at or above the storage limit.


def generate_digit_case(count: int, overflow: bool):
    rng = random.Random("%d/digits/%d/%s" % (SEED, count, overflow))
    narrow = rng.randint(0, count)
    primes = rng.sample(prime_pool(30), narrow) + rng.sample(prime_pool(60), count - narrow)
    if overflow:
        primes[rng.randrange(count)] = prime_pool(63)[0]
    rng.shuffle(primes)
    rows = [[rng.randrange(p) for _ in range(64)] for p in primes]
    worst = rng.randrange(count)
    rows[worst] = [primes[worst] - 1] * 64
    return primes, rows


def digit_rows(backend, primes, rows, shift, plan=False):
    tensor = backend.from_rows(rows, primes)
    if not plan:
        return backend.digit_broadcast(tensor, shift).to_rows()
    graph = ops.OpGraph()
    graph.output("d", graph.digit_broadcast(graph.input("c"), shift))
    return backend.execute(graph.compile(), {"c": tensor})["d"].to_rows()


@pytest.mark.parametrize("overflow", (False, True))
@pytest.mark.parametrize("count", (1, 2, 5, 6))
def test_shifted_digits_match_scalar_oracle(count, overflow, pooled):
    primes, rows = generate_digit_case(count, overflow)
    for shift in range(count):
        expected = digit_rows(ScalarBackend(), primes, rows, shift)
        assert expected == [
            [value % p for value in rows[(i + shift) % count]]
            for i, p in enumerate(primes)
        ]
        assert digit_rows(NumpyBackend(), primes, rows, shift) == expected
        for plan in (False, True):
            dispatches = pooled.dispatch_count
            assert digit_rows(pooled, primes, rows, shift, plan) == expected
            dispatched = pooled.dispatch_count > dispatches
            assert dispatched is (not overflow and (plan or count > 1)), (count, plan)
