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
}


def digest(ciphertext) -> str:
    """SHA-256 of a ciphertext's level, primes and coefficient rows."""
    sha = hashlib.sha256(repr(ciphertext.level).encode())
    for poly in ciphertext.polys:
        sha.update(repr(poly.basis.primes).encode())
        sha.update(repr(poly.to_coefficient().to_coeff_lists()).encode())
    return sha.hexdigest()


def compute_digests(backend) -> dict[str, str]:
    """The three pinned results, computed on ``backend``."""
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
