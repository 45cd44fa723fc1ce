"""Tests for the Stockham and high-radix NTT engines and the high-radix pass plan.

Both engines run as array kernels of the NumPy backend
(:mod:`repro.backends.engines`).  The pass plan shapes the passes of the
GPU cost model's high-radix kernels
(:func:`repro.kernels.high_radix.plan_stage_groups`).
"""

from __future__ import annotations

import random

import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.kernels.high_radix import plan_stage_groups
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.transforms.bitrev import bit_reverse_permute
from repro.transforms.cooley_tukey import ntt_forward
from repro.transforms.reference import naive_negacyclic_ntt

N = 64
P = generate_ntt_primes(30, 1, N)[0]
PSI = primitive_root_of_unity(2 * N, P)


def random_poly(n, p, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


def forward(spec, values):
    """One row through ``spec``'s array kernel (bit-reversed output)."""
    backend = NumpyBackend(engine=spec)
    return backend.forward_ntt_batch(backend.from_rows([values], [P])).to_rows()[0]


def inverse(spec, values):
    """One bit-reversed row through ``spec``'s inverse array kernel."""
    backend = NumpyBackend(engine=spec)
    return backend.inverse_ntt_batch(backend.from_rows([values], [P])).to_rows()[0]


# ---------------------------------------------------------------- Stockham


def test_stockham_forward_matches_naive_natural_order():
    values = random_poly(N, P, seed=1)
    natural = bit_reverse_permute(forward("stockham", values))
    assert natural == naive_negacyclic_ntt(values, PSI, P)


def test_stockham_forward_equals_bitreversed_cooley_tukey():
    values = random_poly(N, P, seed=2)
    assert forward("stockham", values) == ntt_forward(values, PSI, P)


def test_stockham_roundtrip():
    values = random_poly(N, P, seed=3)
    assert inverse("stockham", forward("stockham", values)) == values


def test_stockham_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        forward("stockham", [1, 2, 3])
    with pytest.raises(ValueError):
        inverse("stockham", [1, 2, 3])


# ---------------------------------------------------------------- high radix


def test_plan_stage_groups_exact_division():
    assert plan_stage_groups(1 << 16, 16) == [4, 4, 4, 4]
    assert plan_stage_groups(1 << 17, 2) == [1] * 17
    assert plan_stage_groups(1 << 12, 1 << 12) == [12]


def test_plan_stage_groups_remainder_goes_last():
    assert plan_stage_groups(1 << 17, 16) == [4, 4, 4, 4, 1]
    assert plan_stage_groups(1 << 10, 8) == [3, 3, 3, 1]


def test_plan_stage_groups_validation():
    with pytest.raises(ValueError):
        plan_stage_groups(100, 4)
    with pytest.raises(ValueError):
        plan_stage_groups(64, 3)
    with pytest.raises(ValueError):
        plan_stage_groups(64, 128)


@pytest.mark.parametrize("radix", [2, 4, 8, 16, 64])
def test_pass_structured_ntt_matches_radix2(radix):
    """``high_radix:R`` runs exactly the radix-2 butterflies; the radix only
    groups the stages into the GPU model's passes, which cover each once."""
    values = random_poly(N, P, seed=4)
    expected = ntt_forward(values, PSI, P)
    assert forward("high_radix:%d" % radix, values) == expected
    assert inverse("high_radix:%d" % radix, expected) == values
    assert sum(plan_stage_groups(N, radix)) == 6  # log2(64)
