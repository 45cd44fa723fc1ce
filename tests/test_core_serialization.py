"""Tests for JSON serialisation of plans, twiddle tables, polynomials and ciphertexts."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.on_the_fly import OnTheFlyConfig
from repro.core.plan import NTTAlgorithm, NTTPlan
from repro.core.serialization import (
    ciphertext_from_dict,
    ciphertext_to_dict,
    decode_residues,
    encode_residues,
    load_json,
    plan_from_dict,
    plan_to_dict,
    rns_polynomial_from_dict,
    rns_polynomial_to_dict,
    save_json,
    twiddle_table_from_dict,
    twiddle_table_to_dict,
)
from repro.core.twiddle import TwiddleTable
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.rns.basis import RnsBasis
from repro.rns.poly import Domain, RnsPolynomial

N = 1 << 5
P = generate_ntt_primes(40, 1, N)[0]
PSI = primitive_root_of_unity(2 * N, P)


def test_plan_roundtrip_all_fields():
    plan = NTTPlan(
        n=1 << 14,
        algorithm=NTTAlgorithm.SMEM,
        kernel1_size=128,
        kernel2_size=128,
        per_thread_points=4,
        coalesced=False,
        preload_twiddles=False,
        ot=OnTheFlyConfig(base=256, ot_stages=2),
        word_size_bits=32,
    )
    assert plan_from_dict(plan_to_dict(plan)) == plan


def test_plan_roundtrip_without_ot():
    plan = NTTPlan(n=1 << 12, algorithm=NTTAlgorithm.HIGH_RADIX, radix=16)
    restored = plan_from_dict(plan_to_dict(plan))
    assert restored == plan
    assert restored.ot is None


def test_plan_from_dict_rejects_wrong_kind():
    with pytest.raises(ValueError):
        plan_from_dict({"kind": "something-else"})


def test_twiddle_table_roundtrip():
    table = TwiddleTable(n=N, p=P, psi=PSI)
    payload = twiddle_table_to_dict(table)
    restored = twiddle_table_from_dict(payload)
    assert restored.forward == table.forward
    assert restored.inverse == table.inverse
    assert restored.forward_shoup == table.forward_shoup
    assert restored.p == P and restored.psi == PSI


def test_twiddle_table_validation_on_load():
    table = TwiddleTable(n=N, p=P, psi=PSI)
    payload = twiddle_table_to_dict(table)
    with pytest.raises(ValueError):
        twiddle_table_from_dict({**payload, "kind": "nope"})
    tampered = dict(payload)
    tampered["forward"] = list(payload["forward"])
    tampered["forward"][3] = hex(int(payload["forward"][3], 16) ^ 1)
    with pytest.raises(ValueError):
        twiddle_table_from_dict(tampered)
    bad_modulus = dict(payload)
    bad_modulus["p"] = hex(P + 2)
    with pytest.raises(ValueError):
        twiddle_table_from_dict(bad_modulus)


def test_rns_polynomial_roundtrip_both_domains():
    basis = RnsBasis.generate(N, 3, bit_size=30)
    rng = random.Random(1)
    coefficients = [rng.randrange(-500, 500) for _ in range(N)]
    poly = RnsPolynomial.from_coefficients(coefficients, basis)
    for candidate in (poly, poly.to_ntt()):
        payload = rns_polynomial_to_dict(candidate)
        restored = rns_polynomial_from_dict(payload)
        assert restored == candidate
        assert restored.domain is candidate.domain
        assert restored.basis.primes == basis.primes


def test_rns_polynomial_from_dict_selects_backend():
    basis = RnsBasis.generate(N, 2, bit_size=30)
    poly = RnsPolynomial.from_coefficients([1] * N, basis, backend="numpy")
    payload = rns_polynomial_to_dict(poly)
    restored = rns_polynomial_from_dict(payload, backend="scalar")
    assert restored.backend.name == "scalar"
    assert restored == poly  # bit-identical residues across backends


def test_rns_polynomial_from_dict_rejects_wrong_kind():
    with pytest.raises(ValueError):
        rns_polynomial_from_dict({"kind": "ciphertext"})


def test_ciphertext_roundtrip_through_chain():
    """Ciphertexts serialise at any level — including after mod switching —
    and the restored ciphertext decrypts to the same plaintext."""
    from repro.he import HeContext, toy_params

    ctx = HeContext.create(toy_params())
    evaluator = ctx.evaluator()
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([7, 8, 9]))
    product = evaluator.relinearize(
        evaluator.multiply(ct, ct), ctx.relinearization_key()
    )
    switched = evaluator.mod_switch_to_next(product)
    for candidate in (ct, product, switched):
        payload = ciphertext_to_dict(candidate)
        restored = ciphertext_from_dict(payload, backend=ctx.backend)
        assert restored.level == candidate.level
        assert restored.params == candidate.params
        assert [p.to_coeff_lists() for p in restored.polys] == [
            p.to_coeff_lists() for p in candidate.polys
        ]
        assert ctx.decryptor().decrypt(restored) == ctx.decryptor().decrypt(candidate)


def test_ciphertext_json_file_roundtrip(tmp_path):
    from repro.he import HeContext, toy_params

    ctx = HeContext.create(toy_params())
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([1, 2]))
    path = save_json(ciphertext_to_dict(ct), tmp_path / "ct.json")
    restored = ciphertext_from_dict(load_json(path), backend=ctx.backend)
    decoded = ctx.encoder().decode(ctx.decryptor().decrypt(restored))
    assert decoded[:2] == [1, 2]


def test_ciphertext_from_dict_rejects_wrong_kind():
    with pytest.raises(ValueError):
        ciphertext_from_dict({"kind": "rns_polynomial"})


# ----------------------------------------------------- parallel backend


def _forced_parallel_backend():
    """A parallel backend whose every multi-row operation hits the pool."""
    from repro.backends.parallel import ParallelBackend

    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def test_rns_polynomial_roundtrip_under_parallel_backend():
    """Shared-memory tensors serialise through the counted to_coeff_lists()
    boundary exactly once, and the payload round-trips bit-identically."""
    backend = _forced_parallel_backend()
    try:
        basis = RnsBasis.generate(N, 3, bit_size=30)
        rng = random.Random(2)
        coefficients = [rng.randrange(-500, 500) for _ in range(N)]
        poly = RnsPolynomial.from_coefficients(coefficients, basis, backend=backend)
        ntt_poly = poly.to_ntt()  # sharded through the pool
        assert backend.dispatch_count >= 1
        for candidate in (poly, ntt_poly):
            before = backend.conversion_count
            payload = rns_polynomial_to_dict(candidate)
            assert backend.conversion_count - before == basis.count, (
                "serialisation must materialise each residue row exactly once"
            )
            restored = rns_polynomial_from_dict(payload, backend=backend)
            assert restored == candidate
            assert restored.domain is candidate.domain
        # and the payload re-enters any other backend bit-identically
        foreign = rns_polynomial_from_dict(
            rns_polynomial_to_dict(ntt_poly), backend="scalar"
        )
        assert foreign == ntt_poly
    finally:
        backend.close()


def test_ciphertext_roundtrip_under_parallel_backend():
    from repro.he import HeContext, HEParams

    backend = _forced_parallel_backend()
    try:
        params = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)
        ctx = HeContext.create(params, backend=backend)
        evaluator = ctx.evaluator()
        ct = ctx.encryptor().encrypt(ctx.encoder().encode([7, 8, 9]))
        switched = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct, ct), ctx.relinearization_key())
        )
        for candidate in (ct, switched):
            rows_per_poly = candidate.polys[0].basis.count
            before = backend.conversion_count
            payload = ciphertext_to_dict(candidate)
            assert (
                backend.conversion_count - before
                == rows_per_poly * len(candidate.polys)
            )
            restored = ciphertext_from_dict(payload, backend=backend)
            assert restored.level == candidate.level
            assert [p.to_coeff_lists() for p in restored.polys] == [
                p.to_coeff_lists() for p in candidate.polys
            ]
            assert ctx.decryptor().decrypt(restored) == ctx.decryptor().decrypt(
                candidate
            )
    finally:
        backend.close()


def test_save_and_load_json(tmp_path):
    plan = NTTPlan(n=1 << 10, ot=OnTheFlyConfig(base=64, ot_stages=1))
    path = save_json(plan_to_dict(plan), tmp_path / "plan.json")
    assert path.exists()
    assert plan_from_dict(load_json(path)) == plan

    table = TwiddleTable(n=N, p=P, psi=PSI)
    table_path = save_json(twiddle_table_to_dict(table), tmp_path / "table.json")
    assert twiddle_table_from_dict(load_json(table_path)).forward == table.forward


# -- format versioning -----------------------------------------------------------------


def _sample_payloads():
    plan = NTTPlan(n=1 << 10, ot=OnTheFlyConfig(base=64, ot_stages=1))
    basis = RnsBasis.from_primes([P], N)
    rng = random.Random(11)
    poly = RnsPolynomial.random_uniform(basis, N, rng)
    return {
        plan_from_dict: plan_to_dict(plan),
        twiddle_table_from_dict: twiddle_table_to_dict(TwiddleTable(n=N, p=P, psi=PSI)),
        rns_polynomial_from_dict: rns_polynomial_to_dict(poly),
    }


def test_every_payload_carries_format_version():
    from repro.core.serialization import FORMAT_VERSION

    for payload in _sample_payloads().values():
        assert payload["format_version"] == FORMAT_VERSION


def test_unknown_format_version_is_rejected_with_clear_error():
    for loader, payload in _sample_payloads().items():
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="format_version"):
            loader(payload)


def test_missing_format_version_reads_as_version_one():
    # An untagged payload is read as the current format, so one written by
    # this build without its tag still loads.
    for loader, payload in _sample_payloads().items():
        del payload["format_version"]
        loader(payload)


def test_ciphertext_format_version_roundtrip_and_rejection():
    from repro.he import HeContext
    from repro.he.params import toy_params

    ctx = HeContext.create(toy_params())
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([1, 2, 3]))
    payload = ciphertext_to_dict(ct)
    from repro.core.serialization import FORMAT_VERSION

    assert payload["format_version"] == FORMAT_VERSION
    ciphertext_from_dict(payload)  # current version loads
    for version in (FORMAT_VERSION + 1, 1):
        payload["format_version"] = version
        with pytest.raises(ValueError, match="format_version"):
            ciphertext_from_dict(payload)


# -- format 2: fixed-width residue words ---------------------------------------------


def test_residue_words_golden_vector():
    p = generate_ntt_primes(62, 1, N)[0]
    assert encode_residues([0, 1, (1 << 62) - 1, p - 1]) == [
        "0x0000000000000000",
        "0x0000000000000001",
        "0x3fffffffffffffff",
        "0x%016x" % (p - 1),
    ]
    basis = RnsBasis.from_primes([p], N)
    poly = RnsPolynomial.from_residue_rows([[0, 1, p - 1] + [0] * (N - 3)], basis)
    assert rns_polynomial_to_dict(poly)["rows"][0][:3] == [
        "0x0000000000000000",
        "0x0000000000000001",
        "0x%016x" % (p - 1),
    ]


def test_residue_words_reject_what_has_no_word():
    for residue in (1 << 64, (1 << 70) + 3):
        with pytest.raises(ValueError, match="2\\^64"):
            encode_residues([0, residue])


def _edge_rows(primes):
    """Per prime: all zeros, all ``p - 1`` or uniform residues, in turn."""
    rng = random.Random(len(primes))
    kinds = (
        lambda p: [0] * N,
        lambda p: [p - 1] * N,
        lambda p: [rng.randrange(p) for _ in range(N)],
    )
    return [kinds[index % 3](p) for index, p in enumerate(primes)]


def _assert_roundtrip(backend, bits):
    primes = generate_ntt_primes(bits, 4, N)
    basis = RnsBasis.from_primes(primes, N)
    rows = _edge_rows(primes)
    poly = RnsPolynomial.from_residue_rows(rows, basis, backend=backend)
    payload = json.loads(json.dumps(rns_polynomial_to_dict(poly)))
    for words, row in zip(payload["rows"], rows):
        assert words == ["0x%016x" % value for value in row]
    restored = rns_polynomial_from_dict(payload, backend=backend)
    assert restored == poly
    decoded = restored.to_coeff_lists()
    assert decoded == rows
    transformed = poly.to_ntt()
    assert rns_polynomial_from_dict(
        json.loads(json.dumps(rns_polynomial_to_dict(transformed))), backend=backend
    ) == transformed
    return decoded


@pytest.mark.parametrize("bits", [30, 60, 62])
def test_format_two_roundtrip_numpy(bits):
    _assert_roundtrip("numpy", bits)


@pytest.mark.parametrize("bits", [30, 60, 62])
def test_format_two_roundtrip_scalar_decodes_python_ints(bits):
    decoded = _assert_roundtrip("scalar", bits)
    assert all(type(value) is int for row in decoded for value in row)


@pytest.mark.parametrize("bits", [30, 60, 62])
def test_format_two_roundtrip_parallel(bits):
    backend = _forced_parallel_backend()
    try:
        _assert_roundtrip(backend, bits)
    finally:
        backend.close()


def test_format_one_payload_is_refused():
    basis = RnsBasis.from_primes([P], N)
    poly = RnsPolynomial.from_residue_rows([list(range(N))], basis)
    payload = rns_polynomial_to_dict(poly)
    payload["format_version"] = 1
    payload["rows"] = [[hex(value) for value in range(N)]]
    with pytest.raises(ValueError, match="format_version"):
        rns_polynomial_from_dict(payload)


def test_well_formed_residue_at_or_above_p_is_reduced():
    basis = RnsBasis.from_primes([P], N)
    payload = rns_polynomial_to_dict(RnsPolynomial.zero(basis, N))
    payload["rows"][0][:3] = ["0x%016x" % value for value in (P, P + 5, (1 << 64) - 1)]
    for backend in ("numpy", "scalar"):
        row = rns_polynomial_from_dict(payload, backend=backend).to_coeff_lists()[0]
        assert row[:3] == [0, 5, ((1 << 64) - 1) % P]


@pytest.mark.parametrize(
    "tokens",
    [
        # 17 and 15 digits: the joined length is right, the separators are not
        ["0x00000000000000001", "0x000000000000002"],
        ["0x0000000,00000001", "0x0000000000000002"],
        ["0x000000000000000x", "0x0000000000000002"],
        ["0X0000000000000001", "0x0000000000000002"],
        [1, 2],
    ],
)
def test_decode_residues_rejects_malformed_rows(tokens):
    # The served cases (tests/test_service.py MALFORMED_ROWS) cover the rest.
    with pytest.raises(ValueError):
        decode_residues(tokens, 2)
