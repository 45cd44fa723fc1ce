"""Quickstart: encrypted arithmetic through the op-graph execution API.

The shortest end-to-end path through the library:

1. build an :class:`repro.he.HeContext` — parameters, RNS basis, pinned
   compute backend and warm twiddle tables behind one facade,
2. encrypt two vectors and evaluate ``x * y`` homomorphically — the
   evaluator compiles the whole multiplication into **one** declarative
   plan (see :mod:`repro.backends.ops`) and the backend executes it in a
   single call,
3. decrypt, verify against plain arithmetic, and inspect what ran: plans
   compiled, NTT rows transformed, boundary conversions (zero for ≤ 30-bit
   primes, where the chain stays fully resident; the toy preset's 40-bit
   primes route through the counted per-prime exact fallback),
4. price the same transform workload on the paper's modelled Titan V at
   bootstrappable scale.

Run with::

    python examples/quickstart.py

Backends (``REPRO_BACKEND=scalar|numpy|parallel``) are selectable without
code changes; the plan optimiser is one argument
(``ctx.evaluator(passes="none")`` disables it), and another NTT engine is
one constructor argument,
``HeContext.create(params, backend=NumpyBackend(engine="high_radix:8"))``.
Every combination is bit-for-bit identical.  See
``examples/fused_pipeline.py`` for the fluent expression API that fuses a
whole chain of operations into one plan.
"""

from __future__ import annotations

import random

from repro.core import best_smem_plan
from repro.gpu import GpuCostModel, TITAN_V
from repro.he import HeContext, toy_params
from repro.kernels import smem_model_from_plan


def main() -> None:
    # -- 1. one facade owns params, basis, backend and key material ------------------
    params = toy_params()
    context = HeContext.create(params, seed=2020)
    print("parameters     : %s (N=%d, t=%d, np=%d x %d-bit primes)"
          % (params.name, params.n, params.plaintext_modulus,
             params.prime_count, params.prime_bits))
    print("pinned backend : %s (twiddle tables warmed)" % context.backend.name)

    # -- 2. encrypt and multiply: one compiled plan, one backend call -----------------
    rng = random.Random(7)
    t = params.plaintext_modulus
    x = [rng.randrange(t) for _ in range(4)]
    y = [rng.randrange(t) for _ in range(4)]
    encoder = context.encoder()
    encryptor = context.encryptor()
    evaluator = context.evaluator()  # one compiled plan per operation
    ct_x = encryptor.encrypt(encoder.encode(x))
    ct_y = encryptor.encrypt(encoder.encode(y))

    conversions_before = context.backend.conversion_count
    product = evaluator.relinearize(
        evaluator.multiply(ct_x, ct_y), context.relinearization_key()
    )

    # -- 3. decrypt, verify, and look under the hood ----------------------------------
    decoded = encoder.decode(context.decryptor().decrypt(product))
    expected = [(a * b) % t for a, b in zip(x, y)]
    assert decoded[: len(expected)] == expected, "homomorphic product is wrong"
    print("decrypted x*y  : %s (verified against plain arithmetic)"
          % decoded[: len(expected)])
    print("execution      : %d plan(s) compiled, %d NTT row transforms"
          % (evaluator.plans_compiled, evaluator.ntt_invocations))
    print("residency      : %d boundary conversions (these 40-bit toy primes "
          "use the per-prime exact fallback; 0 for <= 30-bit primes)"
          % (context.backend.conversion_count - conversions_before))

    # -- 4. what would the transforms cost on the paper's GPU at full scale? -----------
    model = GpuCostModel(TITAN_V)
    paper_plan = best_smem_plan(1 << 17, ot_stages=2)
    estimate = smem_model_from_plan(paper_plan, batch=21, model=model)
    print()
    print("paper-scale workload (N = 2^17, np = 21) on the modelled %s:" % TITAN_V.name)
    print("  kernel plan         : %s" % paper_plan.label)
    print("  modelled time       : %.1f us   (paper Table II: 304.2 us)" % estimate.time_us)
    print("  modelled DRAM moved : %.1f MB" % estimate.dram_mb)
    print("  bandwidth utilised  : %.0f%%" % (100 * estimate.bandwidth_utilization))


if __name__ == "__main__":
    main()
