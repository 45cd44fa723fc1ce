"""Cross-check and selection tests for the pluggable NTT-engine layer.

Every registered engine is an array kernel of the NumPy backend and must be
bit-for-bit interchangeable with the scalar oracle, which runs one
transform: forward output equal to the bit-reverse-permuted reference
transform of :mod:`repro.transforms.reference`, exact round-trips, and the
correct negacyclic wrap — at 30- and 60-bit primes, with NTT-domain rows
crossing between each engine and the oracle in both directions.  Selection
is pinned end to end: ``NumpyBackend(engine=spec)`` is the one way to run a
kernel other than the fixed one (the environment picks none), including a
full ``multiply → relinearize → mod_switch`` chain under a non-default
engine with zero boundary conversions; the oracle takes no engine.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backends import available_engines, get_engine, register_engine
from repro.backends.engines import Radix2Engine
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.scalar import ScalarBackend
from repro.he import HEParams, HeContext
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.telemetry import TRACER
from repro.telemetry.tracer import NAME
from repro.transforms.bitrev import (
    bit_reverse,
    bit_reverse_index_array,
    bit_reverse_indices,
    bit_reverse_permute,
    log2_exact,
)
from repro.transforms.reference import (
    naive_negacyclic_convolution,
    naive_negacyclic_ntt,
)

#: Every registered engine, including parameterised variants of the
#: configurable ones (small radix / off-default split).
ENGINE_SPECS = ("radix2", "high_radix", "high_radix:4", "four_step", "four_step:16", "stockham")
#: Where an engine's NTT-domain rows are checked: against the engine itself
#: on numpy, and against the scalar oracle.
BACKEND_NAMES = ("scalar", "numpy")
PRIME_BITS = (30, 60)  # native and wide-word array regimes

#: Fixed per-regime seeds for the randomized cross-check vectors — every
#: random stream in this module is derived from these (or from a literal
#: seed at the call site), so a failure on one CI matrix leg replays
#: bit-identically on every other.
CROSS_CHECK_SEEDS = {30: 210, 60: 420}  # bits * 7
WRAP_SEEDS = {30: 130, 60: 160}  # 100 + bits


def make_backend(name: str, engine: str | None = None):
    """A numpy backend built with ``engine``; the scalar oracle takes none."""
    if name == "scalar":
        assert engine is None, "the scalar oracle runs one transform"
        return ScalarBackend()
    return NumpyBackend(engine=engine)


def partner(name: str, engine_backend):
    """The backend an engine's NTT-domain rows cross to: itself, or the oracle."""
    return ScalarBackend() if name == "scalar" else engine_backend


def transform(backend, rows, primes, forward=True):
    tensor = backend.from_rows(rows, primes)
    method = backend.forward_ntt_batch if forward else backend.inverse_ntt_batch
    return method(tensor).to_rows()


def random_rows(primes, n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for p in primes]


# ------------------------------------------------------------------ registry


def test_registry_exposes_the_algorithm_zoo():
    assert set(available_engines()) >= {"radix2", "high_radix", "four_step", "stockham"}
    assert len(available_engines()) >= 4
    assert get_engine("stockham") is get_engine("stockham")  # flyweight cache
    assert get_engine("high_radix").radix == 16
    assert get_engine("high_radix:8").radix == 8
    assert get_engine("four_step:64").n1 == 64


def test_registry_rejects_bad_specs():
    with pytest.raises(KeyError):
        get_engine("no-such-engine")
    with pytest.raises(ValueError):
        get_engine("radix2:4")  # parameterless engine
    with pytest.raises(ValueError):
        get_engine("high_radix:3")  # not a power of two
    with pytest.raises(ValueError):
        get_engine("stockham:abc")
    with pytest.raises(ValueError):
        register_engine("radix2", lambda param: Radix2Engine())  # duplicate
    with pytest.raises(KeyError):
        NumpyBackend(engine="missing")  # validated at construction


# --------------------------------------------------------------- cross-check


@pytest.mark.parametrize("bits", PRIME_BITS)
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("spec", ENGINE_SPECS)
def test_engine_matches_reference_and_round_trips(spec, backend_name, bits):
    """Forward == bit-reversed naive transform; inverse restores the input,
    with the other side's transform (the engine's own, or the oracle's) in
    each direction."""
    n = 64
    p = generate_ntt_primes(bits, 1, n)[0]
    (row,) = random_rows([p], n, seed=CROSS_CHECK_SEEDS[bits])
    psi = primitive_root_of_unity(2 * n, p)
    expected = bit_reverse_permute(naive_negacyclic_ntt(row, psi, p))

    engine = make_backend("numpy", engine=spec)
    other = partner(backend_name, engine)
    forward = transform(engine, [row], [p])
    assert forward[0] == expected
    assert transform(other, forward, [p], forward=False)[0] == row
    other_forward = transform(other, [row], [p])
    assert other_forward[0] == expected
    assert transform(engine, other_forward, [p], forward=False)[0] == row


@pytest.mark.parametrize("bits", PRIME_BITS)
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("spec", ENGINE_SPECS)
def test_engine_negacyclic_wrap(spec, backend_name, bits):
    """iNTT(NTT(a) ⊙ NTT(b)) equals the schoolbook negacyclic convolution,
    with the engine's forward transforms and the other side's (the engine's
    own, or the oracle's) product and inverse."""
    n = 32
    p = generate_ntt_primes(bits, 1, n)[0]
    rng = random.Random(WRAP_SEEDS[bits])
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n)]
    expected = naive_negacyclic_convolution(a, b, p)

    engine = make_backend("numpy", engine=spec)
    other = partner(backend_name, engine)
    fa = other.from_rows(transform(engine, [a], [p]), [p])
    fb = other.from_rows(transform(engine, [b], [p]), [p])
    product = other.inverse_ntt_batch(other.mul(fa, fb))
    assert product.to_rows()[0] == expected


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_engines_bit_identical_on_batches_with_repeated_primes(backend_name):
    """All engines emit the same bits for a wide mixed-word batch: the
    radix2 engine's, or the scalar oracle's."""
    n = 128
    primes = generate_ntt_primes(30, 2, n) + generate_ntt_primes(60, 1, n)
    batch_primes = [p for p in primes for _ in range(2)]
    rows = random_rows(batch_primes, n, seed=5)
    outputs = {
        spec: transform(make_backend("numpy", engine=spec), rows, batch_primes)
        for spec in ENGINE_SPECS
    }
    if backend_name == "scalar":
        reference = transform(ScalarBackend(), rows, batch_primes)
    else:
        reference = outputs["radix2"]
    for spec, rows_out in outputs.items():
        assert rows_out == reference, spec


# ------------------------------------------------------------------ selection


class _ProbeEngine(Radix2Engine):
    """Counts how often any backend routed a transform through it."""

    name = "probe"
    spec = "probe"
    calls = 0

    def forward_array(self, block, tables):
        type(self).calls += 1
        return super().forward_array(block, tables)


def _ensure_probe_registered():
    try:
        register_engine("probe", lambda param: _ProbeEngine())
    except ValueError:
        pass  # already registered by an earlier test


def _forward_once(backend, n=32, bits=30):
    p = generate_ntt_primes(bits, 1, n)[0]
    (row,) = random_rows([p], n, seed=1)
    backend.forward_ntt_batch(backend.from_rows([row], [p]))


def test_engine_env_var_is_gone(monkeypatch):
    """The environment picks no kernel: with the former REPRO_NTT_ENGINE set
    to an unregistered name, an unpinned backend still runs the fixed
    kernel and matches the oracle."""
    monkeypatch.setenv("REPRO_NTT_ENGINE", "no-such-engine")
    n = 64
    primes = generate_ntt_primes(30, 2, n)
    rows = random_rows(primes, n, seed=3)
    backend = NumpyBackend()
    assert backend.engine is None
    assert transform(backend, rows, primes) == transform(ScalarBackend(), rows, primes)
    assert backend.engine_choices == {(n, 30, 2): "stockham"}


def test_scalar_oracle_takes_no_engine(monkeypatch):
    """The oracle runs one transform: neither it nor a context takes an
    engine, and the environment never reaches it."""
    _ensure_probe_registered()
    with pytest.raises(TypeError):
        ScalarBackend(engine="stockham")
    with pytest.raises(TypeError):
        HeContext.create(_params_30bit(), backend="scalar", engine="stockham")
    monkeypatch.setenv("REPRO_NTT_ENGINE", "probe")
    before = _ProbeEngine.calls
    _forward_once(ScalarBackend())
    assert _ProbeEngine.calls == before


@pytest.fixture
def traced():
    """Capture spans for the test, into an empty tracer left empty after."""
    TRACER.clear()
    TRACER.start()
    yield
    TRACER.stop()
    TRACER.clear()


def _forward_span_names(backend, primes, n):
    tensor = backend.from_rows(random_rows(primes, n, seed=2), primes)
    backend.forward_ntt_batch(tensor)
    return {event[NAME] for event in TRACER.events()}


#: What a fresh backend records after one forward transform of six 30-bit
#: primes at N=4096: one array tile of six rows on the fixed kernel.  The
#: scalar oracle runs its one transform and has no engine-choice gauge.
FIXED_CHOICES = {"numpy": {(4096, 30, 6): "stockham"}, "scalar": None}


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_fresh_backend_runs_its_path_kernel_without_a_race(backend_name, traced):
    backend = make_backend(backend_name)
    names = _forward_span_names(backend, generate_ntt_primes(30, 6, 4096), 4096)
    assert "ntt.engine" in names
    assert "ntt.autotune" not in names
    assert getattr(backend, "engine_choices", None) == FIXED_CHOICES[backend_name]
    assert backend.metrics.snapshot().get("ntt.engine_choices") == FIXED_CHOICES[backend_name]


def test_big_rows_record_no_engine_choice(traced):
    """A row of a prime at or above 2^62 runs the oracle's transform under
    any pin: one fallback row, an ntt.engine span, no engine choice."""
    _ensure_probe_registered()
    before = _ProbeEngine.calls
    backend = NumpyBackend(engine="probe")
    assert backend.engine == "probe"
    names = _forward_span_names(backend, generate_ntt_primes(63, 1, 64), 64)
    assert backend.fallback_rows == 1
    assert "ntt.engine" in names
    assert backend.engine_choices == {}
    assert _ProbeEngine.calls == before


def test_kernels_restore_the_callers_ufunc_buffer_size():
    backend = NumpyBackend()
    n = 64
    primes = generate_ntt_primes(30, 2, n) + generate_ntt_primes(60, 1, n)
    tensor = backend.from_rows(random_rows(primes, n, seed=5), primes)
    previous = np.setbufsize(16384)
    try:
        backend.inverse_ntt_batch(backend.forward_ntt_batch(tensor))
        backend.mul(tensor, tensor)
        assert np.getbufsize() == 16384
    finally:
        np.setbufsize(previous)


# ----------------------------------------------------------- HE end-to-end


def _params_30bit() -> HEParams:
    return HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)


@pytest.mark.parametrize("spec", ["stockham", "four_step", "high_radix:4"])
def test_full_chain_under_non_default_engine_zero_conversions(spec):
    """Acceptance: multiply → relinearize → mod_switch under a pinned
    non-default engine stays resident (zero conversions) and decrypts
    bit-identically to the default engine."""
    results = {}
    for engine in (None, spec):
        ctx = HeContext.create(_params_30bit(), backend=NumpyBackend(engine=engine))
        encryptor = ctx.encryptor()
        evaluator = ctx.evaluator()
        relin = ctx.relinearization_key()
        ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
        ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
        before = ctx.backend.conversion_count
        switched = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )
        assert ctx.backend.conversion_count == before, "chain left resident storage"
        results[engine] = [poly.to_coeff_lists() for poly in switched.polys]
        t = ctx.params.plaintext_modulus
        decoded = ctx.encoder().decode(ctx.decryptor().decrypt(switched))
        assert decoded[:3] == [(x * y) % t for x, y in zip([1, 2, 3], [4, 5, 6])]
    assert results[None] == results[spec]  # engines are bit-interchangeable


# ------------------------------------------------------------ bitrev helper


def test_bit_reverse_indices_doubling_matches_per_element():
    for n in (1, 2, 8, 64, 256):
        bits = log2_exact(n)
        assert bit_reverse_indices(n) == [bit_reverse(i, bits) for i in range(n)]


def test_bit_reverse_index_array_is_cached_and_consistent():
    array = bit_reverse_index_array(128)
    assert array is bit_reverse_index_array(128)  # cache hit
    assert list(array) == bit_reverse_indices(128)
    values = list(range(128))
    permuted = bit_reverse_permute(values)
    assert [values[i] for i in array] == permuted
