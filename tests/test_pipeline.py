"""Tests for fused evaluator execution and the fluent pipeline API.

Pins the user-facing half of the op-graph redesign:

* every evaluator operation is bit-for-bit identical to the oracle — the
  scalar backend running the raw emitted plan (``passes="none"``) one
  backend method per node — on scalar, numpy and pool-forced parallel
  backends;
* a whole ``multiply → relinearize → mod_switch`` expression compiles into
  **one** plan that executes in ≤ 3 pool dispatches with zero boundary
  conversions on the forced-pool parallel backend, and independent
  statements of one program share its stages;
* plans compile once per shape (``plan.cache_hits``) in a cache the per-op
  methods share, shared sub-expressions lower once, and the expression API
  validates pipelines and levels with the checks the per-op methods run;
* ``RnsPolynomial.__mul__`` matches the product taken in the NTT domain.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.backends.parallel import ParallelBackend
from repro.compiler import set_default_passes
from repro.he import Evaluator, HeContext, HEParams, bootstrap_circuit
from repro.rns.poly import RnsPolynomial

PARAMS = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def make_context(backend):
    return HeContext.create(PARAMS, backend=backend, seed=7)


def coeffs(ciphertext):
    return [poly.to_coeff_lists() for poly in ciphertext.polys]


def oracle(params=PARAMS):
    """The reference evaluator: raw emitted plans, one scalar call per node."""
    return Evaluator(params, backend="scalar", passes="none")


@pytest.fixture(params=["scalar", "numpy", "parallel"])
def context(request):
    backend = forced_parallel() if request.param == "parallel" else request.param
    ctx = make_context(backend)
    yield ctx
    if isinstance(ctx.backend, ParallelBackend):
        ctx.backend.close()


# ------------------------------------------------- evaluator == oracle, every op


def test_every_evaluator_op_bit_identical_between_modes(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    plain = encoder.encode([2, 0, 1])
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))
    fused = context.evaluator()
    reference = oracle()

    product_f = fused.multiply(ct_a, ct_b)
    product_r = reference.multiply(ct_a, ct_b)
    cases = [
        (product_f, product_r),
        (fused.add(ct_a, ct_b), reference.add(ct_a, ct_b)),
        (fused.sub(ct_a, ct_b), reference.sub(ct_a, ct_b)),
        (fused.add(ct_a, product_f), reference.add(ct_a, product_r)),  # mixed sizes
        (fused.sub(ct_a, product_f), reference.sub(ct_a, product_r)),
        (fused.negate(ct_a), reference.negate(ct_a)),
        (fused.square(ct_a), reference.square(ct_a)),
        (fused.add_plain(ct_a, plain), reference.add_plain(ct_a, plain)),
        (fused.multiply_plain(ct_a, plain), reference.multiply_plain(ct_a, plain)),
        (
            fused.relinearize(product_f, relin),
            reference.relinearize(product_r, relin),
        ),
        (fused.mod_switch_to_next(ct_a), reference.mod_switch_to_next(ct_a)),
    ]
    for index, (got, expected) in enumerate(cases):
        assert coeffs(got) == coeffs(expected), index
        assert got.level == expected.level, index
    # NTT accounting of single (cold) operations matches the raw plans,
    # except that add_plain pools the plaintext's image, so the later
    # multiply_plain of the same plaintext runs warm: it transforms none of
    # the rows its raw plan transforms again.
    assert fused.metrics.value("ntt.invocations") == (
        reference.metrics.value("ntt.invocations") - plain.basis.count
    )


def test_pipeline_chain_matches_eager_chain(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))

    reference = oracle()
    expected = reference.mod_switch_to_next(
        reference.relinearize(reference.multiply(ct_a, ct_b), relin)
    )

    pipe = context.pipeline()
    result = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch().run()
    assert coeffs(result) == coeffs(expected)
    assert result.level == expected.level == 1

    decoded = context.encoder().decode(context.decryptor().decrypt(result))
    t = PARAMS.plaintext_modulus
    assert decoded[:3] == [(x * y) % t for x, y in zip([1, 2, 3], [4, 5, 6])]


# ------------------------------------------------------ fusion acceptance


def test_pipeline_chain_three_dispatches_zero_conversions():
    """The acceptance pin: multiply → relinearize → mod_switch through the
    pool-forced parallel backend is ≤ 3 pool dispatches (one fused stage per
    cross-row barrier) and fully resident."""
    backend = forced_parallel()
    try:
        ctx = make_context(backend)
        encryptor = ctx.encryptor(seed=11)
        relin = ctx.relinearization_key()
        ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
        ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
        pipe = ctx.pipeline()
        expr = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch()

        backend.reset_dispatch_count()
        backend.reset_conversion_count()
        result = expr.run()
        assert backend.dispatch_count <= 3, backend.dispatch_count
        assert backend.dispatch_count >= 1, "chain never reached the pool"
        assert backend.conversion_count == 0, "chain left resident storage"

        # The per-op evaluator pays at most one dispatch per op too.
        evaluator = ctx.evaluator()
        backend.reset_dispatch_count()
        chained = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )
        assert backend.dispatch_count <= 3
        assert coeffs(chained) == coeffs(result)
    finally:
        backend.close()


@pytest.mark.parametrize("prime_count", (3, 6))
def test_bootstrap_circuit_three_dispatches_on_warm_runs(prime_count):
    """The optimised bootstrap circuit keeps one fused stage per cross-row
    barrier on the pool-forced parallel backend: re-batching reorders plan
    nodes, but the stage cuts follow dependency levels, not node order."""
    backend = forced_parallel()
    try:
        # Six primes is the benchmark's bootstrap shape.
        params = HEParams(
            n=64, plaintext_modulus=17, prime_bits=30, prime_count=prime_count
        )
        ctx = HeContext.create(params, backend=backend, seed=7)
        ct = ctx.encryptor(seed=11).encrypt(ctx.integer_encoder().encode(3))
        shape = {"c2s_terms": 4, "eval_depth": 1, "s2c_terms": 4}
        optimised = bootstrap_circuit(ctx, ctx.pipeline(), ct, **shape)
        optimised.run()  # cold: compiles and seeds the constant pool
        before = ctx.metrics()
        warm = optimised.run()
        diff = HeContext.metrics_diff(before, ctx.metrics())
        assert diff["pool.dispatches"] == 3, diff
        assert diff["conversions.rows"] == 0, diff
        assert diff["fallback.rows"] == 0, diff

        try:
            set_default_passes("none")
            raw_pipe = ctx.pipeline()
        finally:
            set_default_passes(None)
        raw = bootstrap_circuit(ctx, raw_pipe, ct, **shape).run()
        assert coeffs(warm) == coeffs(raw)
    finally:
        backend.close()


def test_two_statement_program_costs_the_dispatches_of_one_statement():
    """Stage cuts follow dependency levels, so two independent bootstrap
    circuits in one program share every stage, and their transforms merge."""
    backend = forced_parallel()
    try:
        params = HEParams(n=64, plaintext_modulus=17, prime_bits=30, prime_count=6)
        ctx = HeContext.create(params, backend=backend, seed=7)
        encryptor = ctx.encryptor(seed=11)
        cts = [encryptor.encrypt(ctx.integer_encoder().encode(v)) for v in (3, 5)]
        shape = {"c2s_terms": 4, "eval_depth": 1, "s2c_terms": 4}

        def warm_run(statements):
            program = ctx.program()
            for index, ct in enumerate(cts[:statements]):
                circuit = bootstrap_circuit(ctx, program.pipeline, ct, **shape)
                program.let("s%d" % index, circuit)
            program.run()  # cold: compiles and seeds the constant pool
            before = ctx.metrics()
            results = program.run()
            diff = HeContext.metrics_diff(before, ctx.metrics())
            return results, diff["pool.dispatches"]

        single, single_dispatches = warm_run(1)
        double, double_dispatches = warm_run(2)
        assert single_dispatches == double_dispatches == 3
        assert coeffs(double["s0"]) == coeffs(single["s0"])
        second = bootstrap_circuit(ctx, ctx.pipeline(), cts[1], **shape).run()
        assert coeffs(double["s1"]) == coeffs(second)
    finally:
        backend.close()


def test_pipeline_compiles_once_per_shape():
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    relin = ctx.relinearization_key()
    pipe = ctx.pipeline()
    results = []
    for seed in (1, 2, 3):
        rng_input = [seed, seed + 1, seed + 2]
        ct = encryptor.encrypt(ctx.encoder().encode(rng_input))
        expr = pipe.load(ct).square().relinearize(relin).mod_switch()
        results.append(expr.run())
    assert pipe.evaluator.metrics.value("plan.compiled") == 1
    assert pipe.evaluator.metrics.value("plan.cache_hits") == 2
    assert len({str(coeffs(result)) for result in results}) == 3


def test_per_op_methods_share_the_pipeline_plan_cache():
    """A per-op method is a one-expression pipeline run: the same expression
    run through a pipeline over the same evaluator reuses its plan."""
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
    evaluator = ctx.evaluator()
    per_op = evaluator.multiply(ct_a, ct_b)
    pipe = ctx.pipeline()
    pipe.evaluator = evaluator
    fused = (pipe.load(ct_a) * pipe.load(ct_b)).run()
    assert evaluator.metrics.value("plan.compiled") == 1
    assert evaluator.metrics.value("plan.cache_hits") == 1
    assert coeffs(fused) == coeffs(per_op)
    assert [p.domain for p in fused.polys] == [p.domain for p in per_op.polys]


def test_dropped_evaluators_leave_the_peak_gauge_without_a_collection():
    """Lowering leaves no reference cycle: once the last reference to an
    evaluator that compiled plans (per op or through a pipeline) is gone,
    the context's ``plan.peak_live_bytes`` gauge stops counting it, with the
    garbage collector off."""
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
    relin = ctx.relinearization_key()
    gc.disable()
    try:
        evaluator = ctx.evaluator()
        evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        pipe = ctx.pipeline()
        (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).run()
        assert ctx.metrics()["plan.peak_live_bytes"] > 0
        del evaluator, pipe
        assert ctx.metrics()["plan.peak_live_bytes"] == 0
    finally:
        gc.enable()


def test_pipeline_distinguishes_key_component_domains():
    """Key component domains are part of the compiled plan (coefficient
    components get forward-NTT nodes), so a same-shaped expression with an
    NTT-resident key must not reuse the coefficient-key plan."""
    from repro.he.keys import RelinearizationKey

    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    relin = ctx.relinearization_key()
    ntt_relin = RelinearizationKey(
        components=[(rk0.to_ntt(), rk1.to_ntt()) for rk0, rk1 in relin.components]
    )
    ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
    pipe = ctx.pipeline()
    first = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).run()
    second = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(ntt_relin).run()
    # Distinct plans, no aliasing.
    assert pipe.evaluator.metrics.value("plan.compiled") == 2
    assert coeffs(first) == coeffs(second)
    t = PARAMS.plaintext_modulus
    decoded = ctx.encoder().decode(ctx.decryptor().decrypt(second))
    assert decoded[:3] == [(x * y) % t for x, y in zip([1, 2, 3], [4, 5, 6])]


def test_shared_subexpressions_lower_once():
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
    pipe = ctx.pipeline()
    a, b = pipe.load(ct_a), pipe.load(ct_b)
    shared = a * b
    result = (shared + shared).run()
    reference = oracle()
    product = reference.multiply(ct_a, ct_b)
    assert coeffs(result) == coeffs(reference.add(product, product))


def test_pipeline_validates_usage():
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    pipe = ctx.pipeline()
    other = ctx.pipeline()
    with pytest.raises(TypeError, match="expects a Ciphertext"):
        pipe.load("not a ciphertext")
    with pytest.raises(ValueError, match="different pipelines"):
        pipe.load(ct) * other.load(ct)
    with pytest.raises(ValueError, match="different pipeline"):
        pipe.run(other.load(ct))

    # Level mismatches surface during lowering, like the per-op checks.
    evaluator = ctx.evaluator()
    switched = evaluator.mod_switch_to_next(ct)
    with pytest.raises(ValueError, match="different levels"):
        (pipe.load(ct) * pipe.load(switched)).run()
    with pytest.raises(ValueError, match="different levels"):
        (pipe.load(ct) + pipe.load(switched)).run()

    # Relinearising a size-2 ciphertext is a fused no-op copy.
    relinearised = pipe.load(ct).relinearize(relin).run()
    assert coeffs(relinearised) == coeffs(ct)

    # Switching past the last level raises exactly like the per-op path.
    last = evaluator.mod_switch_to_next(switched)
    with pytest.raises(ValueError, match="below a single prime"):
        pipe.load(last).mod_switch().run()


# --------------------------------------------------------- polynomial layer


@pytest.mark.parametrize("backend_name", ["scalar", "numpy"])
def test_poly_product_identical_between_modes(backend_name):
    """The one-plan coefficient-domain product equals the product taken
    step by step through the NTT domain."""
    ctx = make_context(backend_name)
    rng = random.Random(5)
    a = RnsPolynomial.random_uniform(ctx.basis, PARAMS.n, rng, backend=ctx.backend)
    b = RnsPolynomial.random_uniform(ctx.basis, PARAMS.n, rng, backend=ctx.backend)
    fused = a * b
    stepwise = (a.to_ntt() * b.to_ntt()).to_coefficient()
    assert fused == stepwise
    assert fused.domain == stepwise.domain
