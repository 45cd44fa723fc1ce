"""Benchmark: fused plan execution is bit-for-bit with the oracle everywhere.

The op-graph redesign's claim is launch-overhead amortisation: an evaluator
chain compiled into plans reaches the sharded ``parallel`` backend as one
fused task set per stage (≤ 3 pool round trips for
``multiply → relinearize → mod_switch``) instead of one round trip per
backend method.  This module pins the correctness half of that claim: the
per-op evaluator and the one-plan pipeline produce the oracle's ciphertexts
— the scalar backend running the raw emitted plans (``passes="none"``) one
backend method per node — on scalar, numpy and pool-forced parallel
backends, and it times the pipeline chain at a toy shape.
"""

from __future__ import annotations

from repro.backends.parallel import ParallelBackend
from repro.he import Evaluator, HeContext, HEParams

PLAINTEXT_MODULUS = 17
PRIME_COUNT = 4


def _chain_workload(n: int, backend):
    params = HEParams(
        n=n,
        plaintext_modulus=PLAINTEXT_MODULUS,
        prime_bits=30,
        prime_count=PRIME_COUNT,
    )
    context = HeContext.create(params, backend=backend, seed=7)
    encryptor = context.encryptor(seed=11)
    encoder = context.integer_encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode(3))
    ct_b = encryptor.encrypt(encoder.encode(5))
    return context, relin, ct_a, ct_b


def test_bench_plan_fused_eager_bit_identical_across_backends(benchmark):
    """Small-N correctness sweep: the per-op evaluator and the pipeline agree
    with the scalar oracle on every backend (pool-forced on parallel so the
    fused stages really dispatch)."""
    results = {}
    pooled = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    try:
        for name, backend in (("scalar", "scalar"), ("numpy", "numpy"), ("parallel", pooled)):
            context, relin, ct_a, ct_b = _chain_workload(64, backend)
            evaluator = context.evaluator()
            chain_evaluator = evaluator.mod_switch_to_next(
                evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
            )
            pipe = context.pipeline()
            chain_pipeline = (
                (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch()
            ).run()
            oracle = Evaluator(context.params, backend="scalar", passes="none")
            chain_oracle = oracle.mod_switch_to_next(
                oracle.relinearize(oracle.multiply(ct_a, ct_b), relin)
            )
            as_rows = lambda ct: [p.to_coeff_lists() for p in ct.polys]
            assert as_rows(chain_oracle) == as_rows(chain_evaluator) == as_rows(chain_pipeline)
            results[name] = as_rows(chain_evaluator)
        assert results["scalar"] == results["numpy"] == results["parallel"]

        context, relin, ct_a, ct_b = _chain_workload(64, "numpy")
        pipe = context.pipeline()

        def tiny_chain():
            return (
                (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch()
            ).run()

        benchmark(tiny_chain)
    finally:
        pooled.close()
