"""Bit-for-bit check of the array engines' resident twiddle tables.

:class:`repro.backends.engines.EngineTables` builds every power table by the
on-the-fly factorisation (about ``sqrt(L)`` low and ``L/sqrt(L)`` high
powers, one exact outer product).  This module keeps the sequential Python
construction those tables replaced — one ``mul_mod`` per entry — as the
reference, and compares every table kind and its reduction companions
against it at n in {4, 16, 256, 4096} and primes from 20 to 62 bits, for
tables built with all primes at once and for primes that join a table
already built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.engines import EXPANDED_RUNS, EngineTables, default_split
from repro.backends.wideops import select_strategy
from repro.modarith.modops import inv_mod, mul_mod, pow_mod
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.transforms.bitrev import bit_reverse_indices

SIZES = (4, 16, 256, 4096)
PRIME_BITS = (20, 30, 31, 40, 50, 51, 60, 62)


# ------------------------------------------------------- sequential reference


def powers(base, count, p, first=1):
    out = [first] * count
    for i in range(1, count):
        out[i] = mul_mod(out[i - 1], base, p)
    return out


def pease(length, omega, p):
    half = length // 2
    base = powers(omega, half, p)
    row = list(base)
    run = 2
    while run < min(EXPANDED_RUNS, length):
        row.extend(base[(j // run) * run] for j in range(half))
        run *= 2
    return row


def reference_row(name, n, p, psi):
    kind, inverse = name[0], name[1]
    psi_inv = inv_mod(psi, p)
    root = psi_inv if inverse else psi
    if kind == "n_inv":
        return [inv_mod(n, p)]
    if kind == "ct":
        table = powers(root, n, p)
        return [table[i] for i in bit_reverse_indices(n)]
    if kind == "twist":
        return powers(root, n, p, inv_mod(n, p) if inverse else 1)
    omega = mul_mod(root, root, p)
    if kind == "pease":
        return pease(n, omega, p)
    n1, part = name[2], name[3]
    n2 = n // n1
    if part == "inner":
        return pease(n1, pow_mod(omega, n2, p), p)
    if part == "outer":
        return pease(n2, pow_mod(omega, n1, p), p)
    rows = [powers(pow_mod(omega, j2, p), n1, p) for j2 in range(n2)]
    return [row[k1] for row in rows for k1 in bit_reverse_indices(n1)]


def reference_companions(strategy, values, p):
    """The reduction's companion arrays, one entry at a time in Python."""
    if strategy == "shoup32":
        return [[(w << 32) // p for w in values]]
    if strategy == "float":
        return [[float(w) / float(p) for w in values]]
    quotients = [(w << 64) // p for w in values]
    return [[q >> 32 for q in quotients], [q & 0xFFFFFFFF for q in quotients]]


def table_names(n):
    names = [("n_inv", False)]
    for inverse in (False, True):
        names += [("ct", inverse), ("twist", inverse), ("pease", inverse)]
        for n1 in sorted({default_split(n)[0], 2, n // 2}):
            if 1 < n1 < n:
                names += [("four_step", inverse, n1, part) for part in ("inner", "outer", "twist")]
    return names


def primes_of(bits, n, count=2):
    return generate_ntt_primes(bits, count, n)


# ---------------------------------------------------------------------- tests


def check_tables(tables, names):
    for name in names:
        built = tables.table(name)
        for row, (p, psi) in enumerate(zip(tables.primes, tables.roots)):
            expected = reference_row(name, tables.n, p, psi)
            assert built[0][row].tolist() == expected, (name, p)
            for array, reference in zip(
                built[1:], reference_companions(tables.strategy, expected, p)
            ):
                assert array[row].tolist() == reference, (name, p, "companion")


@pytest.mark.parametrize("bits", PRIME_BITS)
@pytest.mark.parametrize("n", SIZES)
def test_every_table_matches_the_sequential_reference(n, bits):
    primes = primes_of(bits, n)
    tables = EngineTables(n, select_strategy(primes[0]))
    for p in primes:
        tables.index(p)
    check_tables(tables, table_names(n))


@pytest.mark.parametrize("bits", (30, 60))
def test_a_prime_joining_built_tables_matches_the_reference(bits):
    n = 256
    first, second, third = primes_of(bits, n, count=3)
    tables = EngineTables(n, select_strategy(first))
    tables.index(first)
    names = table_names(n)
    for name in names:
        tables.table(name)
    tables.index(second)
    tables.index(third)
    check_tables(tables, names)
    assert all(array.shape[0] == 3 for name in names for array in tables.table(name))


def test_explicit_root_tables_match_the_reference():
    n = 16
    (p,) = primes_of(40, n, count=1)
    psi = pow_mod(primitive_root_of_unity(2 * n, p), 3, p)  # another primitive root
    tables = EngineTables(n, select_strategy(p), psi_2n=psi)
    tables.index(p)
    assert tables.roots == [psi]
    check_tables(tables, table_names(n))


def test_tables_are_contiguous_uint64():
    (p,) = primes_of(30, 4096, count=1)
    tables = EngineTables(4096, select_strategy(p))
    tables.index(p)
    for name in table_names(4096):
        values = tables.table(name)[0]
        assert values.dtype == np.uint64 and values.flags.c_contiguous, name
