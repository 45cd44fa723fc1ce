"""Cross-check suite for the pluggable compute backends.

Every backend must be bit-for-bit interchangeable: same forward/inverse NTT
outputs as the reference :class:`NegacyclicTransformer`, same pointwise
arithmetic, and identical HE ciphertexts end to end.  The NumPy backend is
exercised in all of its regimes — native (≤ 30-bit primes), wide-word
(60-bit primes) and the per-prime scalar fallback (primes of 2^62 or
more).  All operations go through the
handle-based :class:`ResidueTensor` API; explicit ``from_rows`` / ``to_rows``
boundaries enter and leave residency.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import (
    BACKEND_ENV_VAR,
    ComputeBackend,
    ResidueTensor,
    ScalarBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.backends.numpy_backend import MUL_VECTORIZED_LIMIT, NumpyBackend
from repro.he import Evaluator, HEParams, HeContext
from repro.modarith.primes import generate_ntt_primes
from repro.rns.basis import RnsBasis
from repro.rns.poly import Domain, RnsPolynomial
from repro.transforms.cooley_tukey import NegacyclicTransformer
from repro.transforms.reference import naive_negacyclic_convolution

SIZES = [64, 256, 1024, 4096]
PRIME_BITS = [30, 60]


@pytest.fixture(scope="module")
def scalar() -> ScalarBackend:
    return ScalarBackend()


@pytest.fixture(scope="module")
def vectorized() -> NumpyBackend:
    return NumpyBackend()


def random_rows(primes, n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for p in primes]


def forward_of(backend, rows, primes):
    """Rows-in/rows-out forward NTT through the handle boundary."""
    return backend.forward_ntt_batch(backend.from_rows(rows, primes)).to_rows()


def inverse_of(backend, rows, primes):
    return backend.inverse_ntt_batch(backend.from_rows(rows, primes)).to_rows()


# ------------------------------------------------------------------ transforms


@pytest.mark.parametrize("bits", PRIME_BITS)
@pytest.mark.parametrize("n", SIZES)
def test_backends_match_reference_transformer(n, bits, scalar, vectorized):
    """NumpyBackend == ScalarBackend == NegacyclicTransformer, both domains."""
    p = generate_ntt_primes(bits, 1, n)[0]
    (row,) = random_rows([p], n, seed=n * bits)
    reference = NegacyclicTransformer(n, p)
    expected_forward = reference.forward(row)
    for backend in (scalar, vectorized):
        forward = forward_of(backend, [row], [p])[0]
        assert forward == expected_forward, backend.name
        assert inverse_of(backend, [forward], [p])[0] == row, backend.name


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_batch_with_repeated_primes(bits, scalar, vectorized):
    """Rows sharing a modulus (cross-polynomial batching) transform correctly."""
    n = 256
    primes = generate_ntt_primes(bits, 2, n)
    batch_primes = [p for p in primes for _ in range(3)]
    rows = random_rows(batch_primes, n, seed=bits)
    expected = forward_of(scalar, rows, batch_primes)
    assert forward_of(vectorized, rows, batch_primes) == expected
    assert inverse_of(vectorized, expected, batch_primes) == rows


def test_numpy_backend_mixed_word_sizes(scalar, vectorized):
    """One batch mixing 30-bit (native) and 60-bit (wide-word) primes."""
    n = 128
    primes = generate_ntt_primes(30, 2, n) + generate_ntt_primes(60, 2, n)
    assert primes[0] < MUL_VECTORIZED_LIMIT <= primes[-1]
    rows = random_rows(primes, n, seed=3)
    expected = forward_of(scalar, rows, primes)
    assert forward_of(vectorized, rows, primes) == expected
    assert inverse_of(vectorized, expected, primes) == rows


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_pointwise_ops_agree(bits, scalar, vectorized):
    n = 64
    primes = generate_ntt_primes(bits, 3, n)
    rows_a = random_rows(primes, n, seed=10 + bits)
    rows_b = random_rows(primes, n, seed=20 + bits)
    results = {}
    for backend in (scalar, vectorized):
        a = backend.from_rows(rows_a, primes)
        b = backend.from_rows(rows_b, primes)
        results[backend.name] = {
            "add": backend.add(a, b).to_rows(),
            "sub": backend.sub(a, b).to_rows(),
            "mul": backend.mul(a, b).to_rows(),
            "neg": backend.neg(a).to_rows(),
            "scalar_mul": backend.scalar_mul(a, 987654321).to_rows(),
        }
    assert results["scalar"] == results["numpy"]


def test_batch_shape_validation(scalar, vectorized):
    n = 64
    p = generate_ntt_primes(30, 1, n)[0]
    (row,) = random_rows([p], n, seed=4)
    for backend in (scalar, vectorized):
        with pytest.raises(ValueError):
            backend.from_rows([row], [p, p])
        # ragged batches are rejected identically by every backend
        with pytest.raises(ValueError):
            backend.from_rows([row, row[: n // 2]], [p, p])
        a = backend.from_rows([row], [p])
        b = backend.from_rows([row, row], [p, p])
        with pytest.raises(ValueError):
            backend.add(a, b)


def test_foreign_tensors_are_rejected(scalar, vectorized):
    """Tensors are opaque handles owned by one backend — no implicit crossing."""
    n = 32
    p = generate_ntt_primes(30, 1, n)[0]
    (row,) = random_rows([p], n, seed=5)
    scalar_tensor = scalar.from_rows([row], [p])
    numpy_tensor = vectorized.from_rows([row], [p])
    with pytest.raises(ValueError):
        vectorized.forward_ntt_batch(scalar_tensor)
    with pytest.raises(ValueError):
        scalar.add(scalar_tensor, numpy_tensor)


def test_structural_ops_round_trip(scalar, vectorized):
    """concat/split/slice_rows/copy preserve rows and never alias storage."""
    n = 64
    primes = generate_ntt_primes(30, 3, n)
    rows = random_rows(primes, n, seed=6)
    for backend in (scalar, vectorized):
        tensor = backend.from_rows(rows, primes)
        stacked = backend.concat([tensor, tensor])
        assert stacked.count == 2 * len(primes)
        assert stacked.to_rows() == rows + rows
        first, second = backend.split(stacked, [len(primes), len(primes)])
        assert first.to_rows() == rows and second.to_rows() == rows
        assert backend.slice_rows(tensor, 0, 2).to_rows() == rows[:2]
        duplicate = backend.copy(tensor)
        assert backend.tensor_equal(duplicate, tensor)
        # mutating the duplicate's storage must not reach the original
        transformed = backend.forward_ntt_batch(duplicate)
        assert backend.tensor_equal(tensor, backend.from_rows(rows, primes))
        assert isinstance(transformed, ResidueTensor)


def test_conversion_counter_tracks_boundaries():
    """from_rows/to_rows are counted; resident op chains are free."""
    backend = NumpyBackend()
    n = 64
    primes = generate_ntt_primes(30, 2, n)
    rows = random_rows(primes, n, seed=7)
    assert backend.conversion_count == 0
    tensor = backend.from_rows(rows, primes)
    assert backend.conversion_count == len(primes)
    resident = backend.mul(
        backend.forward_ntt_batch(tensor), backend.forward_ntt_batch(tensor)
    )
    resident = backend.inverse_ntt_batch(resident)
    assert backend.conversion_count == len(primes)  # chain stayed resident
    resident.to_rows()
    assert backend.conversion_count == 2 * len(primes)
    backend.reset_conversion_count()
    assert backend.conversion_count == 0


def test_numpy_fallback_conversions_are_charged():
    """Rows of primes at or above 2^62 run per prime through the scalar
    fallback.  They convert once, at the from_rows/to_rows boundary, like
    every row: they live as Python rows inside the tensor, so the transform
    charges fallback rows and no further conversions."""
    backend = NumpyBackend()
    n = 64
    primes = generate_ntt_primes(63, 2, n)
    rows = random_rows(primes, n, seed=8)
    tensor = backend.from_rows(rows, primes)
    assert backend.conversion_count == len(primes)
    backend.reset_conversion_count()
    forward = backend.forward_ntt_batch(tensor)
    assert backend.conversion_count == 0
    assert backend.fallback_rows == len(primes)
    scalar = ScalarBackend()
    expected = scalar.forward_ntt_batch(scalar.from_rows(rows, primes)).to_rows()
    assert backend.to_rows(forward) == expected
    assert backend.conversion_count == len(primes)


def test_wide_word_env_var_is_gone(monkeypatch):
    """The wide window has no knob: 60-bit primes stay on the array path
    even with the former REPRO_WIDE_WORD=0 escape hatch set."""
    monkeypatch.setenv("REPRO_WIDE_WORD", "0")
    backend = NumpyBackend()
    n = 64
    primes = generate_ntt_primes(60, 2, n)
    tensor = backend.from_rows(random_rows(primes, n, seed=8), primes)
    backend.mul(backend.forward_ntt_batch(tensor), tensor)
    assert backend.fallback_rows == 0


def test_numpy_wide_word_stays_resident():
    """60-bit primes run the exact wide-word array path by default: the whole
    transform round trip charges zero conversions and zero fallback rows."""
    backend = NumpyBackend()
    n = 64
    primes = generate_ntt_primes(60, 2, n)
    rows = random_rows(primes, n, seed=8)
    tensor = backend.from_rows(rows, primes)
    backend.reset_conversion_count()
    transformed = backend.forward_ntt_batch(tensor)
    backend.inverse_ntt_batch(transformed)
    assert backend.conversion_count == 0
    assert backend.fallback_rows == 0


# ------------------------------------------------------------------ RNS layer


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_rns_polynomial_round_trip_identical_across_backends(bits):
    n = 64
    basis = RnsBasis.generate(n, 3, bit_size=bits)
    rng = random.Random(bits)
    coefficients = [rng.randrange(-1000, 1000) for _ in range(n)]
    polys = {
        name: RnsPolynomial.from_coefficients(coefficients, basis, backend=name)
        for name in ("scalar", "numpy")
    }
    ntts = {name: poly.to_ntt() for name, poly in polys.items()}
    assert ntts["scalar"].to_coeff_lists() == ntts["numpy"].to_coeff_lists()
    for name, ntt in ntts.items():
        assert ntt.to_coefficient() == polys[name], name


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_rns_polynomial_multiply_matches_naive_convolution(bits):
    n = 32
    basis = RnsBasis.generate(n, 2, bit_size=bits)
    rng = random.Random(100 + bits)
    a = [rng.randrange(50) for _ in range(n)]
    b = [rng.randrange(50) for _ in range(n)]
    expected = naive_negacyclic_convolution(a, b, basis.modulus)
    for name in ("scalar", "numpy"):
        pa = RnsPolynomial.from_coefficients(a, basis, backend=name)
        pb = RnsPolynomial.from_coefficients(b, basis, backend=name)
        assert (pa * pb).to_big_coefficients() == expected, name


def test_rns_polynomial_pins_backend_at_creation():
    """A polynomial's backend is fixed when its tensor is created."""
    basis = RnsBasis.generate(32, 2, bit_size=30)
    poly = RnsPolynomial.from_coefficients([1] * 32, basis, backend="scalar")
    assert poly.backend.name == "scalar"
    rebound = poly.with_backend("numpy")
    assert rebound.backend.name == "numpy"
    assert rebound == poly  # bit-identical residues either way
    assert poly.with_backend(poly.backend) is poly


# ------------------------------------------------------------------- HE layer


def _he_params_30bit() -> HEParams:
    # 30-bit primes keep the whole pipeline on the vectorised path.
    return HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)


@pytest.mark.parametrize("params", [None, "30bit"], ids=["60bit-wide", "30bit-vectorized"])
@pytest.mark.parametrize("backend_name", ["scalar", "numpy"])
def test_he_multiply_round_trip_per_backend(backend_name, params):
    """encrypt → multiply → relinearize → decrypt works under every backend."""
    he_params = (
        _he_params_30bit()
        if params == "30bit"
        else HEParams(n=64, plaintext_modulus=257, prime_bits=40, prime_count=3)
    )
    context = HeContext.create(he_params, backend=backend_name, seed=7)
    t = he_params.plaintext_modulus
    rng = random.Random(42)
    a = [rng.randrange(t) for _ in range(6)]
    b = [rng.randrange(t) for _ in range(6)]
    encryptor = context.encryptor(seed=11)
    evaluator = context.evaluator()
    ca = encryptor.encrypt(context.encoder().encode(a))
    cb = encryptor.encrypt(context.encoder().encode(b))
    product = evaluator.relinearize(
        evaluator.multiply(ca, cb), context.relinearization_key()
    )
    decoded = context.encoder().decode(context.decryptor().decrypt(product))
    assert decoded[:6] == [(x * y) % t for x, y in zip(a, b)]


def test_he_ciphertexts_identical_across_backends():
    """The acceptance bar: scalar and numpy evaluators emit identical bits."""
    he_params = _he_params_30bit()
    results = {}
    for backend_name in ("scalar", "numpy"):
        context = HeContext.create(he_params, backend=backend_name, seed=7)
        encryptor = context.encryptor(seed=11)
        evaluator = context.evaluator()
        a = encryptor.encrypt(context.encoder().encode([5, 6, 7]))
        b = encryptor.encrypt(context.encoder().encode([9, 10, 11]))
        product = evaluator.relinearize(
            evaluator.multiply(a, b), context.relinearization_key()
        )
        results[backend_name] = [poly.to_coeff_lists() for poly in product.polys]
    assert results["scalar"] == results["numpy"]


def test_evaluator_adopts_foreign_ciphertexts():
    """Ciphertexts made on one backend evaluate correctly on another (with an
    explicit, counted boundary crossing)."""
    he_params = _he_params_30bit()
    producer = HeContext.create(he_params, backend="numpy", seed=7)
    encryptor = producer.encryptor(seed=11)
    ct = encryptor.encrypt(producer.encoder().encode([3, 1, 4]))
    scalar_evaluator = Evaluator(he_params, backend="scalar")
    doubled = scalar_evaluator.add(ct, ct)
    assert doubled.polys[0].backend.name == "scalar"
    decoded = producer.encoder().decode(producer.decryptor().decrypt(doubled))
    assert decoded[:3] == [6, 2, 8]


# ------------------------------------------------------------------- registry


def test_registry_explicit_selection_and_caching():
    assert set(available_backends()) >= {"scalar", "numpy"}
    assert get_backend("scalar").name == "scalar"
    assert get_backend("scalar") is get_backend("scalar")
    assert get_backend("numpy").name == "numpy"
    with pytest.raises(KeyError):
        get_backend("no-such-backend")
    instance = get_backend("scalar")
    assert resolve_backend(instance) is instance
    assert resolve_backend("numpy") is get_backend("numpy")


def test_registry_env_override(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
    assert get_backend().name == "scalar"
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    assert get_backend().name == "numpy"
    # the env override is read at *creation* time: a polynomial built under
    # one default stays pinned to it when the environment later changes
    basis = RnsBasis.generate(32, 1, bit_size=30)
    poly = RnsPolynomial.from_coefficients([1] * 32, basis)
    assert poly.backend.name == "numpy"
    monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
    assert poly.backend.name == "numpy"
    assert RnsPolynomial.from_coefficients([1] * 32, basis).backend.name == "scalar"


def test_registry_default_and_custom_backend():
    class _Probe(ScalarBackend):
        name = "probe"

    try:
        register_backend("probe", _Probe)
        with pytest.raises(ValueError):
            register_backend("probe", _Probe)
        set_default_backend("probe")
        assert get_backend().name == "probe"
        assert isinstance(get_backend(), ComputeBackend)
        with pytest.raises(KeyError):
            set_default_backend("missing")
    finally:
        set_default_backend(None)
