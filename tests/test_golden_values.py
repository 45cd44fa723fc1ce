"""Golden values: where transforms run must not change what a result is.

The digests below were recorded before ciphertexts rested in the NTT
domain, when every result came back in the coefficient domain.  They hash
each result's coefficient rows (``to_coefficient().to_coeff_lists()``)
with its level and prime chain, and leave the domain out, so a change that
only moves transforms (which domain a value rests in, which rows get
transformed where) keeps them; a change to any value does not.  Three
results are pinned at toy shapes and fixed seeds: a fresh encryption, the
``multiply -> relinearize -> mod_switch`` chain at 60-bit primes, and the
bootstrap-shaped circuit at 30-bit primes.  Each must match on the scalar
oracle, on numpy, and on a 2-shard pool forced to dispatch every op.

The per-op ``Evaluator`` methods are pinned too, one digest each, on the
chain's inputs.  The per-op reference (the scalar backend with
``passes="none"``) lowers through the same code as the evaluator it checks,
so these digests, recorded when each method emitted its own plan, are the
check that does not depend on the lowering.

``compute_digests(backend)`` uses only the public API, so it runs against
any checkout of the package (put its ``src`` first on ``PYTHONPATH``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.backends.parallel import ParallelBackend
from repro.he import HeContext, HEParams, bootstrap_circuit

ENCRYPTION = HEParams(n=64, plaintext_modulus=257, prime_bits=40, prime_count=3)
CHAIN = HEParams(n=64, plaintext_modulus=257, prime_bits=60, prime_count=4)
BOOTSTRAP = HEParams(n=64, plaintext_modulus=17, prime_bits=30, prime_count=6)

GOLDEN = {
    "encryption": "92bfb75d35f8f47ff3f4ab9c1fce08b282ba247d19f44289e5fbebd8cb700ec5",
    "chain-60": "ec7064325d381b98af0940993b87669140c0ada6ea869d24c4823135feec426a",
    "bootstrap-30": "47c7457e6f0a6f85d8e016e4b4afe0f733f62925ffb3c09726f30caa88d493a3",
    "add": "f738567b5e9a2d0f5925222d8716f0d542f398a834b9e1a3a7cc57456117ea10",
    "sub": "3f00fcbe002b688a78150811772ae70051d59fe220e0738cb56df006270f809a",
    "negate": "b19710aa7951b490730fb4fb5daa8aa0c2adaec0cc828c8f5c5cd6606ca93365",
    "add_plain": "598ca64875195ef0f7df3a523a09df4dbdf6247b42d550f7045c1be731afbc5e",
    "multiply_plain": "9e13aef815749a1e91387a4efb830512d4bc9c26754ab7e4af333b9bb90befe4",
    "multiply": "ec020f57424e14f2f077fefa4949f8c0aef7e1edb199d72f12054b7d1df11e90",
    "square": "4718e497501b634c894d2d5d16c7096e781706f8f8343cb8c2a53fb6b3d263f3",
    "relinearize": "63206768082f53e1c4ad31ebc5c44898ccc7fd29051bfd13a1259e8c0e106a06",
    "mod_switch_to_next": "9af8627be7cca2c9b324fe593d68b0ed45ef5e2c623a3dcca44c8d8c23b5bfb9",
}


def digest(ciphertext) -> str:
    """SHA-256 of a ciphertext's level, primes and coefficient rows."""
    sha = hashlib.sha256(repr(ciphertext.level).encode())
    for poly in ciphertext.polys:
        sha.update(repr(poly.basis.primes).encode())
        sha.update(repr(poly.to_coefficient().to_coeff_lists()).encode())
    return sha.hexdigest()


def compute_digests(backend) -> dict[str, str]:
    """The pinned results, computed on ``backend``."""
    digests = {}

    ctx = HeContext.create(ENCRYPTION, backend=backend, seed=7)
    encoder = ctx.encoder()
    plain = encoder.encode([(5 * i + 3) % 257 for i in range(64)])
    digests["encryption"] = digest(ctx.encryptor(seed=11).encrypt(plain))

    ctx = HeContext.create(CHAIN, backend=backend, seed=21)
    encoder = ctx.encoder()
    encryptor = ctx.encryptor(seed=23)
    a = encryptor.encrypt(encoder.encode([(7 * i + 1) % 257 for i in range(64)]))
    b = encryptor.encrypt(encoder.encode([(11 * i + 2) % 257 for i in range(64)]))
    pipe = ctx.pipeline()
    rk = ctx.relinearization_key()
    chain = (pipe.load(a) * pipe.load(b)).relinearize(rk).mod_switch()
    digests["chain-60"] = digest(chain.run())

    ev = ctx.evaluator()
    plain = encoder.encode([(13 * i + 5) % 257 for i in range(64)])
    product = ev.multiply(a, b)
    relinearized = ev.relinearize(product, rk)
    for name, result in (
        ("add", ev.add(a, b)),
        ("sub", ev.sub(a, b)),
        ("negate", ev.negate(a)),
        ("add_plain", ev.add_plain(a, plain)),
        ("multiply_plain", ev.multiply_plain(a, plain)),
        ("multiply", product),
        ("square", ev.square(a)),
        ("relinearize", relinearized),
        ("mod_switch_to_next", ev.mod_switch_to_next(a)),
    ):
        digests[name] = digest(result)

    ctx = HeContext.create(BOOTSTRAP, backend=backend, seed=31)
    ct = ctx.encryptor(seed=33).encrypt(ctx.integer_encoder().encode(9))
    circuit = bootstrap_circuit(
        ctx, ctx.pipeline(), ct, c2s_terms=4, eval_depth=1, s2c_terms=4, seed=35
    )
    digests["bootstrap-30"] = digest(circuit.run())
    return digests


@pytest.mark.parametrize("name", ["scalar", "numpy", "parallel"])
def test_results_match_the_golden_digests(name):
    backend = (
        ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
        if name == "parallel"
        else name
    )
    try:
        assert compute_digests(backend) == GOLDEN
    finally:
        if isinstance(backend, ParallelBackend):
            backend.close()
