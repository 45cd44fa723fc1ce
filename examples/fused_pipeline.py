"""Fused pipelines: compile a whole evaluator chain into one backend plan.

The paper's GPU throughput comes from amortising kernel-launch overhead
across wide batches; on the CPU realisation the analogous tax is one
process-pool round trip per backend method call.  This example shows the
redesigned execution API that removes it:

1. **Per-op plans** — every evaluator operation already compiles into one
   declarative plan executed in a single backend call.
2. **The fluent expression API** — ``context.pipeline()`` goes further: a
   lazy ciphertext expression like
   ``(a * b).relinearize(rk).mod_switch()`` compiles **once** into one plan
   spanning the whole chain, and re-running the same shape reuses the
   compiled plan (watch ``plan_cache_hits``).
3. **Fusion accounting** — on the ``parallel`` backend the chain executes
   as fused per-worker stages: the example forces every operation through
   the worker pool and prints the pool round trips (``dispatch_count``)
   and list ↔ ndarray conversions (zero) for per-op plans and whole-chain
   pipeline execution of the *same* computation, then checks both against
   the oracle: the scalar backend running the raw plans one method per
   node.

Run with::

    python examples/fused_pipeline.py
"""

from __future__ import annotations

from repro.backends.parallel import ParallelBackend
from repro.he import Evaluator, HeContext, HEParams


def main() -> None:
    # Force the crossover down so even this demonstration-sized workload
    # exercises the worker pool (real workloads cross it naturally).
    backend = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    params = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)
    context = HeContext.create(params, backend=backend)
    print("backend        : %s (%d shard workers, pool-forced)"
          % (backend.name, backend.shards))

    encoder = context.encoder()
    encryptor = context.encryptor()
    relin = context.relinearization_key()
    t = params.plaintext_modulus
    x, y = [1, 2, 3], [4, 5, 6]
    ct_x = encryptor.encrypt(encoder.encode(x))
    ct_y = encryptor.encrypt(encoder.encode(y))

    def report(label, run):
        # One call zeroes every counter — the backend's dispatch/conversion
        # tallies and (cascading) each evaluator's plan counters.
        context.reset_metrics()
        result = run()
        print("%-22s: %2d pool dispatches, %d conversions"
              % (label, backend.dispatch_count, backend.conversion_count))
        return result

    # -- per-op plans: one dispatch per homomorphic operation -------------------------
    fused = context.evaluator()
    chain_fused = report(
        "fused per-op plans",
        lambda: fused.mod_switch_to_next(
            fused.relinearize(fused.multiply(ct_x, ct_y), relin)
        ),
    )

    # -- the fluent pipeline: the whole chain is ONE compiled plan --------------------
    pipe = context.pipeline()

    def run_pipeline():
        a, b = pipe.load(ct_x), pipe.load(ct_y)
        return (a * b).relinearize(relin).mod_switch().run()

    chain_pipeline = report("pipeline (one plan)", run_pipeline)

    # Same shape again: the compiled plan is reused, only execution runs.
    # metrics_diff isolates exactly what this one warm run cost — no manual
    # counter resets, just two snapshots and their delta.
    context.reset_metrics()
    before = context.metrics()
    run_pipeline()
    delta = HeContext.metrics_diff(before, context.metrics())
    print("%-22s: %2d pool dispatches, %d conversions"
          % ("pipeline (cached)", delta["pool.dispatches"],
             delta["conversions.rows"]))
    print("plan cache     : %d newly compiled, %d hit(s) since reset"
          % (pipe.evaluator.plans_compiled, pipe.evaluator.plan_cache_hits))

    # -- the steady-state cost of one warm run, as a metrics delta --------------------
    print("warm-run delta : " + ", ".join(
        "%s=%s" % (key, delta[key])
        for key in ("pool.dispatches", "conversions.rows", "ntt.invocations",
                    "plan.cache_hits")
    ))

    # -- both paths are bit-for-bit identical to the scalar oracle ---------------------
    oracle = Evaluator(params, backend="scalar", passes="none")
    chain_oracle = oracle.mod_switch_to_next(
        oracle.relinearize(oracle.multiply(ct_x, ct_y), relin)
    )
    rows = lambda ct: [poly.to_coeff_lists() for poly in ct.polys]
    assert rows(chain_oracle) == rows(chain_fused) == rows(chain_pipeline)
    decoded = encoder.decode(context.decryptor().decrypt(chain_pipeline))
    expected = [(a * b) % t for a, b in zip(x, y)]
    assert decoded[: len(expected)] == expected
    print("decrypted      : %s == %s (bit-identical to the scalar oracle)"
          % (decoded[: len(expected)], expected))

    backend.close()


if __name__ == "__main__":
    main()
