"""Cross-implementation integration tests.

Every transform implementation in the library (the reference transformer,
the planned-engine model, every array engine of the NumPy backend, the RNS
polynomial layer, the HE evaluator) must agree on the same mathematics.  These tests pin the implementations
against each other end to end — the kind of consistency a downstream user
relies on when mixing backends.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.core import NTTEngine, NTTPlan, OnTheFlyConfig
from repro.experiments.__main__ import main as experiments_main
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial
from repro.transforms.bitrev import bit_reverse_permute
from repro.transforms.cooley_tukey import NegacyclicTransformer
from repro.transforms.reference import naive_negacyclic_ntt

N = 1 << 6
P30 = generate_ntt_primes(30, 1, N)[0]
PSI30 = primitive_root_of_unity(2 * N, P30)
ARRAY_ENGINES = ("radix2", "high_radix", "four_step", "stockham")


def random_poly(n, p, seed):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


def test_all_forward_implementations_agree():
    """Transformer, planned-engine model and every NumPy array engine agree."""
    values = random_poly(N, P30, seed=1)
    transformer = NegacyclicTransformer(N, P30, PSI30)
    engine = NTTEngine(N, P30, NTTPlan(n=N, ot=OnTheFlyConfig(base=16, ot_stages=2)), psi=PSI30)

    bit_reversed = transformer.forward(values)
    assert bit_reverse_permute(bit_reversed) == naive_negacyclic_ntt(values, PSI30, P30)
    assert engine.forward(values) == bit_reversed
    for spec in ARRAY_ENGINES:
        backend = NumpyBackend(engine=spec)
        forward = backend.forward_ntt_batch(backend.from_rows([values], [P30]))
        assert forward.to_rows() == [bit_reversed], spec


def test_all_multiplication_paths_agree():
    """The polynomial product is identical through every available path."""
    a = random_poly(N, P30, seed=2)
    b = random_poly(N, P30, seed=3)
    transformer = NegacyclicTransformer(N, P30, PSI30)
    engine = NTTEngine(N, P30, psi=PSI30)
    backend = NumpyBackend()
    fa = backend.forward_ntt_batch(backend.from_rows([a], [P30]))
    fb = backend.forward_ntt_batch(backend.from_rows([b], [P30]))
    (array_product,) = backend.inverse_ntt_batch(backend.mul(fa, fb)).to_rows()
    basis = RnsBasis.from_primes([P30], N)
    rns_product = (
        RnsPolynomial.from_coefficients(a, basis) * RnsPolynomial.from_coefficients(b, basis)
    ).to_big_coefficients()

    expected = transformer.multiply(a, b)
    assert engine.multiply(a, b) == expected
    assert array_product == expected
    assert rns_product == expected


def test_engine_with_30bit_prime_plan_variants():
    """The engine accepts single-word primes and every plan family gives identical values."""
    from repro.core.plan import NTTAlgorithm

    values = random_poly(N, P30, seed=4)
    reference = NTTEngine(N, P30, NTTPlan(n=N, algorithm=NTTAlgorithm.RADIX2), psi=PSI30).forward(values)
    for plan in (
        NTTPlan(n=N, algorithm=NTTAlgorithm.HIGH_RADIX, radix=8, word_size_bits=32),
        NTTPlan(n=N, algorithm=NTTAlgorithm.SMEM, per_thread_points=4),
    ):
        assert NTTEngine(N, P30, plan, psi=PSI30).forward(values) == reference


def test_experiments_cli_entry_point(capsys):
    """The ``python -m repro.experiments`` entry point runs selected experiments."""
    assert experiments_main(["fig8"]) == 0
    captured = capsys.readouterr().out
    assert "Figure 8" in captured
    assert experiments_main(["not-an-experiment"]) == 2
    captured = capsys.readouterr()
    assert "unknown experiment" in captured.err
