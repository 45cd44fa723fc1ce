"""Homomorphic evaluation example: encrypted SIMD arithmetic end to end.

This is the application workload that motivates the paper: RNS-based
homomorphic encryption, where every ciphertext multiplication is a batch of
``np`` negacyclic polynomial products computed through NTTs.  The example

1. creates an :class:`HeContext` — params, RNS basis, pinned compute backend
   and warm twiddle tables behind one facade,
2. packs two integer vectors into ciphertexts with the batch encoder,
3. evaluates an encrypted polynomial ``x*y + x`` slot-wise, with
   relinearisation and modulus switching, through the resident handle API —
   the backend's conversion counter reports every list ↔ array boundary
   crossing (zero for ≤ 30-bit primes; these 45-bit demonstration primes
   route through the per-prime exact fallback, and the counter shows it),
4. tracks the noise budget and refreshes it ("bootstraps") when it runs low,
5. reports how many NTT invocations the evaluation triggered and what the
   equivalent batch would cost on the modelled Titan V at the paper's
   bootstrappable parameters.

Run with::

    python examples/he_ciphertext_multiply.py
"""

from __future__ import annotations

import random

from repro.gpu import GpuCostModel
from repro.he import (
    BootstrapWorkloadModel,
    HeContext,
    NoiseRefresher,
    bootstrappable_params,
    small_params,
)


def main() -> None:
    params = small_params()
    print("parameters      : %s (N=%d, t=%d, %d x %d-bit primes, logQ~%d)"
          % (params.name, params.n, params.plaintext_modulus,
             params.prime_count, params.prime_bits, params.log_q))

    # -- one facade owns params, basis, backend and key material ------------------------
    context = HeContext.create(params, seed=1)
    print("pinned backend  : %s (twiddle tables warmed for %d primes)"
          % (context.backend.name, context.basis.count))
    relin = context.relinearization_key()
    encoder = context.encoder()
    encryptor = context.encryptor(seed=2)
    decryptor = context.decryptor()
    evaluator = context.evaluator()

    # -- encrypted SIMD computation: x*y + x --------------------------------------------
    rng = random.Random(3)
    t = params.plaintext_modulus
    x = [rng.randrange(1000) for _ in range(8)]
    y = [rng.randrange(1000) for _ in range(8)]
    ct_x = encryptor.encrypt(encoder.encode(x))
    ct_y = encryptor.encrypt(encoder.encode(y))
    print("fresh noise budget      : %.1f bits" % decryptor.noise_budget_bits(ct_x))

    conversions_before = context.backend.conversion_count
    product = evaluator.relinearize(evaluator.multiply(ct_x, ct_y), relin)
    result = evaluator.add(product, ct_x)
    print("budget after x*y + x    : %.1f bits" % decryptor.noise_budget_bits(result))

    switched = evaluator.mod_switch_to_next(result)
    print("budget after mod-switch : %.1f bits (one prime dropped, level %d)"
          % (decryptor.noise_budget_bits(switched), switched.level))
    print("boundary conversions    : %d residue rows (45-bit primes use the "
          "per-prime exact fallback; 0 for <= 30-bit primes)"
          % (context.backend.conversion_count - conversions_before))

    decoded = encoder.decode(decryptor.decrypt(switched))
    expected = [(a * b + a) % t for a, b in zip(x, y)]
    assert decoded[: len(expected)] == expected
    print("decrypted slots         : %s" % decoded[: len(expected)])
    print("expected slots          : %s" % expected)

    # -- noise refresh ("bootstrapping" stand-in) -------------------------------------------
    refresher = NoiseRefresher(encryptor, decryptor)
    refreshed = refresher.refresh(result)
    print("budget after refresh    : %.1f bits" % decryptor.noise_budget_bits(refreshed))
    print("NTT invocations so far  : %d (per-prime forward/inverse transforms)"
          % evaluator.metrics.value("ntt.invocations"))

    # -- what does bootstrapping cost at the paper's scale? ------------------------------------
    print()
    model = GpuCostModel()
    for log_n in (15, 16, 17):
        workload = BootstrapWorkloadModel(bootstrappable_params(log_n, 21), model=model)
        estimate = workload.estimate()
        print("bootstrapping at N=2^%d, np=21: %6d NTTs, NTT time %7.1f ms "
              "(radix-2 baseline would need %7.1f ms)"
              % (log_n, estimate.ntt_count, estimate.ntt_time_us / 1000,
                 estimate.ntt_time_radix2_us / 1000))


if __name__ == "__main__":
    main()
