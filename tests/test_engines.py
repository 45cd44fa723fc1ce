"""Cross-check and selection tests for the pluggable NTT-engine layer.

Every registered engine is an array kernel of the NumPy backend and must be
bit-for-bit interchangeable with the scalar oracle, which runs one
transform: forward output equal to the bit-reverse-permuted reference
transform of :mod:`repro.transforms.reference`, exact round-trips, and the
correct negacyclic wrap — at 30- and 60-bit primes, with NTT-domain rows
crossing between each engine and the oracle in both directions.  Selection
is pinned end to end: explicit argument > ``set_default_engine`` >
``REPRO_NTT_ENGINE`` > the fixed array kernel, including a full ``multiply →
relinearize → mod_switch`` chain under a non-default engine with zero
boundary conversions; the oracle takes no pin.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backends import (
    available_engines,
    get_engine,
    register_engine,
    set_default_engine,
)
from repro.backends.engines import (
    ENGINE_ENV_VAR,
    Radix2Engine,
    default_engine_spec,
    parse_engine_spec,
)
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.registry import get_backend
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
#: Backends whose array transforms honour engine selection.
ARRAY_BACKENDS = ("numpy", "parallel")
PRIME_BITS = (30, 60)  # native and wide-word array regimes

#: Fixed per-regime seeds for the randomized cross-check vectors — every
#: random stream in this module is derived from these (or from a literal
#: seed at the call site), so a failure on one CI matrix leg replays
#: bit-identically on every other.
CROSS_CHECK_SEEDS = {30: 210, 60: 420}  # bits * 7
WRAP_SEEDS = {30: 130, 60: 160}  # 100 + bits


def make_backend(name: str, engine: str | None = None):
    """An array backend pinned to ``engine``; the scalar oracle takes no pin."""
    if name == "scalar":
        assert engine is None, "the scalar oracle runs one transform"
        return ScalarBackend()
    if name == "parallel":
        return ParallelBackend(shards=2, engine=engine)
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
    assert parse_engine_spec("high_radix:8") == ("high_radix", 8)
    assert parse_engine_spec("radix2") == ("radix2", None)


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


def test_set_default_engine_validates_and_clears():
    try:
        set_default_engine("stockham")
        assert default_engine_spec() == "stockham"
        with pytest.raises(KeyError):
            set_default_engine("missing")
    finally:
        set_default_engine(None)
    assert default_engine_spec() in (None, *ENGINE_SPECS)  # env may set one


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


@pytest.mark.parametrize("backend_name", ARRAY_BACKENDS)
def test_env_var_selects_engine(backend_name, monkeypatch):
    _ensure_probe_registered()
    monkeypatch.setenv(ENGINE_ENV_VAR, "probe")
    before = _ProbeEngine.calls
    _forward_once(make_backend(backend_name))  # parallel: inline, no pool starts
    assert _ProbeEngine.calls > before


@pytest.mark.parametrize("backend_name", ARRAY_BACKENDS)
def test_explicit_engine_beats_env_var(backend_name, monkeypatch):
    _ensure_probe_registered()
    monkeypatch.setenv(ENGINE_ENV_VAR, "probe")
    before = _ProbeEngine.calls
    backend = make_backend(backend_name, engine="stockham")
    _forward_once(backend)
    assert _ProbeEngine.calls == before  # env never consulted
    assert backend.engine == "stockham"
    assert backend.engine_choices == {}  # no fixed kernel was consulted either


def test_scalar_oracle_takes_no_engine(monkeypatch):
    """The oracle runs one transform: pinning it raises, directly or
    through a context, and process-wide pins never reach it."""
    _ensure_probe_registered()
    with pytest.raises(NotImplementedError):
        ScalarBackend().set_engine("stockham")
    with pytest.raises(NotImplementedError):
        HeContext.create(_params_30bit(), backend="scalar", engine="stockham")
    monkeypatch.setenv(ENGINE_ENV_VAR, "probe")
    before = _ProbeEngine.calls
    try:
        set_default_engine("probe")
        _forward_once(ScalarBackend())
    finally:
        set_default_engine(None)
    assert _ProbeEngine.calls == before


def test_process_default_beats_env_var(monkeypatch):
    _ensure_probe_registered()
    monkeypatch.setenv(ENGINE_ENV_VAR, "probe")
    before = _ProbeEngine.calls
    try:
        set_default_engine("radix2")
        _forward_once(make_backend("numpy"))
    finally:
        set_default_engine(None)
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
def test_fresh_backend_runs_its_path_kernel_without_a_race(backend_name, traced, monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    backend = make_backend(backend_name)
    names = _forward_span_names(backend, generate_ntt_primes(30, 6, 4096), 4096)
    assert "ntt.engine" in names
    assert "ntt.autotune" not in names
    assert getattr(backend, "engine_choices", None) == FIXED_CHOICES[backend_name]
    assert backend.metrics.snapshot().get("ntt.engine_choices") == FIXED_CHOICES[backend_name]


def test_big_rows_record_no_engine_choice(traced, monkeypatch):
    """A row of a prime at or above 2^62 runs the oracle's transform under
    any pin: one fallback row, an ntt.engine span, no engine choice."""
    _ensure_probe_registered()
    monkeypatch.setenv(ENGINE_ENV_VAR, "probe")
    before = _ProbeEngine.calls
    backend = NumpyBackend()
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


def test_set_engine_validates_and_unpins():
    backend = NumpyBackend()
    with pytest.raises(KeyError):
        backend.set_engine("missing")
    backend.set_engine("four_step:16")
    assert backend.engine == "four_step:16"
    backend.set_engine(None)
    assert backend.engine is None


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
        ctx = HeContext.create(_params_30bit(), backend="numpy", engine=engine)
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


def test_context_engine_pin_does_not_leak_into_registry():
    shared = get_backend("numpy")
    ctx = HeContext.create(_params_30bit(), backend="numpy", engine="stockham")
    assert ctx.engine == "stockham"
    assert ctx.backend is not shared
    assert shared.engine is None


def test_context_pins_caller_owned_backend_in_place():
    backend = NumpyBackend()
    ctx = HeContext.create(_params_30bit(), backend=backend, engine="high_radix:8")
    assert ctx.backend is backend
    assert backend.engine == "high_radix:8"


def test_env_var_reaches_the_he_layer(monkeypatch):
    _ensure_probe_registered()
    monkeypatch.setenv(ENGINE_ENV_VAR, "probe")
    before = _ProbeEngine.calls
    ctx = HeContext.create(_params_30bit(), backend="numpy")
    encryptor = ctx.encryptor()
    ct = encryptor.encrypt(ctx.encoder().encode([7, 8]))
    ctx.evaluator().square(ct)
    assert _ProbeEngine.calls > before


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
