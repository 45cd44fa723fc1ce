"""Benchmark: format-2 residue rows vs the format-1 per-residue codec.

A served request spends its decoding time turning residue strings into
integers.  Format 1 wrote each residue with ``hex()`` and read it back with
one ``int(v, 16)`` per residue; format 2 writes every residue as its 64-bit
word (``0x`` plus 16 hex digits) and converts a whole row with a few C-level
calls.  This benchmark keeps the format-1 codec as its reference, runs both
at the serve-60 shape (``N = 4096``, 60-bit primes, the 12 rows of one
size-2 ciphertext) and pins the acceptance criterion: decoding is at least
``MIN_DECODE_SPEEDUP``x faster than the reference, with bit-identical
residues.  Encoding is reported but not pinned: both codecs create one
Python string per residue, and that dominates.
"""

from __future__ import annotations

import random
import time

from repro.core.serialization import decode_residues, encode_residues
from repro.modarith.primes import generate_ntt_primes

N = 4096
P_BITS = 60
ROWS = 12  # one size-2 ciphertext at 6 primes
#: Required decode throughput advantage of format 2 over format 1.
MIN_DECODE_SPEEDUP = 2.0
REPEATS = 25


def _interleaved_best(*calls):
    """Best time of each call over ``REPEATS`` rounds that run them in turn,
    so a slow spell of a shared host falls on both sides of a ratio."""
    best = [float("inf")] * len(calls)
    for _ in range(REPEATS):
        for index, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _rows():
    primes = generate_ntt_primes(P_BITS, ROWS // 2, N)
    rng = random.Random(N)
    return [[rng.randrange(p) for _ in range(N)] for p in primes + primes]


def _encode_format_one(rows):
    return [[hex(value) for value in row] for row in rows]


def _decode_format_one(words):
    return [[int(value, 16) for value in row] for row in words]


def _encode_format_two(rows):
    return [encode_residues(row) for row in rows]


def _decode_format_two(words):
    return [decode_residues(row, N) for row in words]


def test_bench_format_two_decode_vs_format_one(benchmark):
    rows = _rows()
    old_words = _encode_format_one(rows)
    new_words = _encode_format_two(rows)

    # Bit-identical: both codecs decode to the residues, and every format-2
    # string is the padded word that an int(v, 16) reader still parses.
    assert _decode_format_one(old_words) == rows
    assert [row.tolist() for row in _decode_format_two(new_words)] == rows
    assert new_words == [["0x%016x" % value for value in row] for row in rows]
    assert _decode_format_one(new_words) == rows

    old_decode, new_decode, old_encode, new_encode = _interleaved_best(
        lambda: _decode_format_one(old_words),
        lambda: _decode_format_two(new_words),
        lambda: _encode_format_one(rows),
        lambda: _encode_format_two(rows),
    )
    decode_speedup = old_decode / new_decode
    print()
    print("%d rows of %d %d-bit residues (best of %d):" % (ROWS, N, P_BITS, REPEATS))
    print("            format 1   format 2")
    print(
        "  decode  %8.2f ms %8.2f ms   %.1fx"
        % (old_decode * 1e3, new_decode * 1e3, decode_speedup)
    )
    print(
        "  encode  %8.2f ms %8.2f ms   %.1fx (not pinned)"
        % (old_encode * 1e3, new_encode * 1e3, old_encode / new_encode)
    )

    benchmark(_decode_format_two, new_words)
    assert decode_speedup >= MIN_DECODE_SPEEDUP, (
        "format-2 decode only %.2fx format 1 (need >= %.1fx)"
        % (decode_speedup, MIN_DECODE_SPEEDUP)
    )
