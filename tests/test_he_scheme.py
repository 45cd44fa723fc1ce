"""End-to-end tests for the RNS-BGV homomorphic-encryption layer."""

from __future__ import annotations

import random

import pytest

from repro.rns.poly import RnsPolynomial
from repro.he import (
    BatchEncoder,
    BootstrapWorkloadModel,
    Ciphertext,
    Decryptor,
    Encryptor,
    Evaluator,
    HEParams,
    IntegerEncoder,
    KeyGenerator,
    NoiseRefresher,
    bootstrappable_params,
    generate_bgv_primes,
    small_params,
    toy_params,
)


@pytest.fixture(scope="module")
def he():
    """A fully keyed toy HE context shared by the module's tests."""
    params = toy_params()
    keygen = KeyGenerator(params, seed=7)
    secret = keygen.secret_key()
    public = keygen.public_key()
    relin = keygen.relinearization_key()
    return {
        "params": params,
        "keygen": keygen,
        "secret": secret,
        "public": public,
        "relin": relin,
        "encoder": BatchEncoder(params, keygen.basis),
        "encryptor": Encryptor(params, public, seed=11),
        "decryptor": Decryptor(params, secret),
        "evaluator": Evaluator(params),
    }


def slots(he, count, seed=0):
    rng = random.Random(seed)
    t = he["params"].plaintext_modulus
    return [rng.randrange(t) for _ in range(count)]


# ---------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError):
        HEParams(n=100, plaintext_modulus=257, prime_bits=40, prime_count=3)
    with pytest.raises(ValueError):
        HEParams(n=64, plaintext_modulus=1, prime_bits=40, prime_count=3)
    with pytest.raises(ValueError):
        HEParams(n=64, plaintext_modulus=257, prime_bits=40, prime_count=0)
    with pytest.raises(ValueError):
        bootstrappable_params(log_n=13)


def test_bgv_primes_satisfy_double_congruence():
    primes = generate_bgv_primes(40, 3, 64, 257)
    for p in primes:
        assert p % (2 * 64) == 1
        assert p % 257 == 1
    with pytest.raises(ValueError):
        generate_bgv_primes(10, 1, 64, 257)


def test_preset_params():
    assert toy_params().n == 64
    assert small_params().plaintext_modulus == 65537
    boot = bootstrappable_params(17, 21)
    assert boot.n == 1 << 17
    assert boot.prime_count == 21
    assert boot.log_q == 60 * 21


# ---------------------------------------------------------------- encoding


def test_batch_encoder_roundtrip(he):
    values = slots(he, he["encoder"].slot_count, seed=1)
    plaintext = he["encoder"].encode(values)
    decoded = he["encoder"].decode(plaintext.to_big_coefficients(centered=False))
    assert decoded == values


def test_batch_encoder_pads_short_inputs(he):
    plaintext = he["encoder"].encode([5, 6])
    decoded = he["encoder"].decode(plaintext.to_big_coefficients())
    assert decoded[:2] == [5, 6]
    assert all(v == 0 for v in decoded[2:])


def test_batch_encoder_rejects_too_many_values(he):
    with pytest.raises(ValueError):
        he["encoder"].encode([0] * (he["encoder"].slot_count + 1))


def test_batch_encoder_requires_ntt_prime_t():
    params = HEParams(n=64, plaintext_modulus=17, prime_bits=40, prime_count=2)
    keygen = KeyGenerator(params)
    with pytest.raises(ValueError):
        BatchEncoder(params, keygen.basis)


def test_integer_encoder(he):
    encoder = IntegerEncoder(he["params"], he["keygen"].basis)
    plaintext = encoder.encode(123)
    ct = he["encryptor"].encrypt(plaintext)
    assert encoder.decode(he["decryptor"].decrypt(ct)) == 123


# ---------------------------------------------------------------- encrypt/decrypt


def test_encrypt_decrypt_roundtrip(he):
    values = slots(he, 8, seed=2)
    ct = he["encryptor"].encrypt(he["encoder"].encode(values))
    assert ct.size == 2
    decoded = he["encoder"].decode(he["decryptor"].decrypt(ct))
    assert decoded[:8] == values


def test_fresh_noise_budget_positive(he):
    ct = he["encryptor"].encrypt(he["encoder"].encode([1, 2, 3]))
    budget = he["decryptor"].noise_budget_bits(ct)
    assert budget > 50  # toy params: Q ~ 2^120, fresh noise tiny


def test_ciphertext_validation(he):
    ct = he["encryptor"].encrypt(he["encoder"].encode([1]))
    with pytest.raises(ValueError):
        Ciphertext(polys=[ct.polys[0]], params=he["params"])
    copied = ct.copy()
    assert copied.polys[0] == ct.polys[0]
    assert copied.polys[0].tensor is not ct.polys[0].tensor
    # residues differing in a single bit compare unequal (via a rebuilt poly —
    # the resident tensor itself is opaque and never mutated in place)
    rows = copied.polys[0].to_coeff_lists()
    rows[0][0] ^= 1
    tweaked = RnsPolynomial.from_residue_rows(
        rows, copied.polys[0].basis, backend=copied.polys[0].backend
    )
    assert tweaked != ct.polys[0]


# ---------------------------------------------------------------- homomorphic ops


def test_homomorphic_addition_and_subtraction(he):
    t = he["params"].plaintext_modulus
    a, b = slots(he, 6, seed=3), slots(he, 6, seed=4)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    cb = he["encryptor"].encrypt(he["encoder"].encode(b))
    summed = he["encoder"].decode(he["decryptor"].decrypt(he["evaluator"].add(ca, cb)))
    diff = he["encoder"].decode(he["decryptor"].decrypt(he["evaluator"].sub(ca, cb)))
    assert summed[:6] == [(x + y) % t for x, y in zip(a, b)]
    assert diff[:6] == [(x - y) % t for x, y in zip(a, b)]


def test_homomorphic_negation(he):
    t = he["params"].plaintext_modulus
    a = slots(he, 4, seed=5)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    negated = he["encoder"].decode(he["decryptor"].decrypt(he["evaluator"].negate(ca)))
    assert negated[:4] == [(-x) % t for x in a]


def test_homomorphic_multiplication_and_relinearisation(he):
    t = he["params"].plaintext_modulus
    a, b = slots(he, 6, seed=6), slots(he, 6, seed=7)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    cb = he["encryptor"].encrypt(he["encoder"].encode(b))
    product = he["evaluator"].multiply(ca, cb)
    assert product.size == 3
    decoded = he["encoder"].decode(he["decryptor"].decrypt(product))
    assert decoded[:6] == [(x * y) % t for x, y in zip(a, b)]
    relinearised = he["evaluator"].relinearize(product, he["relin"])
    assert relinearised.size == 2
    decoded_relin = he["encoder"].decode(he["decryptor"].decrypt(relinearised))
    assert decoded_relin[:6] == [(x * y) % t for x, y in zip(a, b)]


def test_plain_operations(he):
    t = he["params"].plaintext_modulus
    a, b = slots(he, 5, seed=8), slots(he, 5, seed=9)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    plain_b = he["encoder"].encode(b)
    mul = he["encoder"].decode(he["decryptor"].decrypt(he["evaluator"].multiply_plain(ca, plain_b)))
    add = he["encoder"].decode(he["decryptor"].decrypt(he["evaluator"].add_plain(ca, plain_b)))
    assert mul[:5] == [(x * y) % t for x, y in zip(a, b)]
    assert add[:5] == [(x + y) % t for x, y in zip(a, b)]


def test_multiplication_consumes_noise_budget(he):
    a = slots(he, 4, seed=10)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    fresh_budget = he["decryptor"].noise_budget_bits(ca)
    squared = he["evaluator"].relinearize(he["evaluator"].square(ca), he["relin"])
    assert he["decryptor"].noise_budget_bits(squared) < fresh_budget


def test_level_mismatch_raises(he):
    a = slots(he, 4, seed=11)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    cb = he["encryptor"].encrypt(he["encoder"].encode(a))
    switched = he["evaluator"].mod_switch_to_next(ca)
    with pytest.raises(ValueError):
        he["evaluator"].add(switched, cb)


def test_relinearize_requires_size3(he):
    a = he["encryptor"].encrypt(he["encoder"].encode([1]))
    relinearised = he["evaluator"].relinearize(a, he["relin"])
    assert relinearised.size == 2  # size-2 input passes through unchanged


def test_mod_switch_preserves_plaintext(he):
    t = he["params"].plaintext_modulus
    a, b = slots(he, 6, seed=12), slots(he, 6, seed=13)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    cb = he["encryptor"].encrypt(he["encoder"].encode(b))
    product = he["evaluator"].relinearize(he["evaluator"].multiply(ca, cb), he["relin"])
    switched = he["evaluator"].mod_switch_to_next(product)
    assert switched.basis.count == product.basis.count - 1
    assert switched.level == product.level + 1
    decoded = he["encoder"].decode(he["decryptor"].decrypt(switched))
    assert decoded[:6] == [(x * y) % t for x, y in zip(a, b)]


def coefficient_copy(ciphertext):
    """The ciphertext with every component in the coefficient domain."""
    return Ciphertext(
        polys=[poly.to_coefficient() for poly in ciphertext.polys],
        params=ciphertext.params,
        level=ciphertext.level,
    )


def test_evaluator_counts_ntt_invocations(he):
    evaluator = Evaluator(he["params"])
    assert evaluator.ntt_invocations == 0
    resident = he["encryptor"].encrypt(he["encoder"].encode([1, 2]))
    a = coefficient_copy(resident)
    evaluator.multiply(a, a)
    # multiply(a, a) on a size-2 coefficient-domain ciphertext: 4 forward
    # NTTs per prime; the product rests in the NTT domain.
    basis_size = a.basis.count
    assert evaluator.ntt_invocations == 2 * a.size * basis_size
    # NTT-resident operands (every fresh encryption) cost no transform.
    evaluator.multiply(resident, resident)
    assert evaluator.ntt_invocations == 2 * a.size * basis_size


def test_plain_ops_reject_mismatched_ring(he):
    """Plaintexts encoded for a different basis are rejected, not corrupted."""
    a = he["encryptor"].encrypt(he["encoder"].encode([1, 2, 3]))
    wrong_basis = a.basis.drop_last(1)
    stray = RnsPolynomial.from_coefficients([1] * he["params"].n, wrong_basis)
    with pytest.raises(ValueError):
        he["evaluator"].multiply_plain(a, stray)
    with pytest.raises(ValueError):
        he["evaluator"].add_plain(a, stray)


def test_square_transforms_operand_once(he):
    """square() forward-transforms its operand once — half the NTTs of multiply(a, a)."""
    a = coefficient_copy(he["encryptor"].encrypt(he["encoder"].encode([3, 4])))
    basis_size = a.basis.count
    multiplier, squarer = Evaluator(he["params"]), Evaluator(he["params"])
    product = multiplier.multiply(a, a)
    squared = squarer.square(a)
    # Identical bits either way, but square() saves a.size forward transforms
    # per prime.
    assert [p.residues for p in squared.polys] == [p.residues for p in product.polys]
    assert multiplier.ntt_invocations == 2 * a.size * basis_size
    assert squarer.ntt_invocations == a.size * basis_size
    assert squarer.ntt_invocations < multiplier.ntt_invocations


# ---------------------------------------------------------------- bootstrap


def test_noise_refresher_restores_budget(he):
    a = slots(he, 4, seed=14)
    ca = he["encryptor"].encrypt(he["encoder"].encode(a))
    worn = he["evaluator"].relinearize(he["evaluator"].square(ca), he["relin"])
    refresher = NoiseRefresher(he["encryptor"], he["decryptor"])
    refreshed = refresher.refresh(worn)
    t = he["params"].plaintext_modulus
    assert he["encoder"].decode(he["decryptor"].decrypt(refreshed))[:4] == [
        (x * x) % t for x in a
    ]
    assert he["decryptor"].noise_budget_bits(refreshed) > he["decryptor"].noise_budget_bits(worn)


def test_bootstrap_workload_model_scales_with_parameters():
    small = BootstrapWorkloadModel(bootstrappable_params(14, 21)).estimate()
    large = BootstrapWorkloadModel(bootstrappable_params(17, 21)).estimate()
    assert large.ntt_count > small.ntt_count
    assert large.ntt_time_us > small.ntt_time_us
    assert large.total_time_estimate_us > large.ntt_time_us
    assert large.ntt_time_radix2_us > large.ntt_time_us  # the optimised NTT helps
    with pytest.raises(ValueError):
        BootstrapWorkloadModel(bootstrappable_params(17, 21), ntt_share=0.0)


def test_bootstrap_model_counts_match_helper():
    model = BootstrapWorkloadModel(bootstrappable_params(15, 21))
    assert model.ntt_invocations() == model.estimate().ntt_count
