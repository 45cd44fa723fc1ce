"""Tests for fused evaluator execution and the fluent pipeline API.

Pins the user-facing half of the op-graph redesign:

* every evaluator operation is bit-for-bit identical between ``fused`` and
  ``eager`` modes, on scalar, numpy and pool-forced parallel backends;
* a whole ``multiply → relinearize → mod_switch`` expression compiles into
  **one** plan that executes in ≤ 3 pool dispatches with zero boundary
  conversions on the forced-pool parallel backend;
* plans compile once per shape (`plan_cache_hits`), shared sub-expressions
  lower once, and the expression API validates pipelines/levels the same way
  the eager evaluator does;
* ``RnsPolynomial.__mul__`` products match between modes.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import set_default_execution_mode
from repro.backends.parallel import ParallelBackend
from repro.compiler import set_default_passes
from repro.he import HeContext, HEParams, bootstrap_circuit
from repro.rns.poly import RnsPolynomial

PARAMS = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def make_context(backend):
    return HeContext.create(PARAMS, backend=backend, seed=7)


def coeffs(ciphertext):
    return [poly.to_coeff_lists() for poly in ciphertext.polys]


@pytest.fixture(params=["scalar", "numpy", "parallel"])
def context(request):
    backend = forced_parallel() if request.param == "parallel" else request.param
    ctx = make_context(backend)
    yield ctx
    if isinstance(ctx.backend, ParallelBackend):
        ctx.backend.close()


# ------------------------------------------------- fused == eager, every op


def test_every_evaluator_op_bit_identical_between_modes(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    plain = encoder.encode([2, 0, 1])
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))
    fused = context.evaluator(mode="fused")
    eager = context.evaluator(mode="eager")
    assert fused.mode == "fused" and eager.mode == "eager"

    product_f = fused.multiply(ct_a, ct_b)
    product_e = eager.multiply(ct_a, ct_b)
    cases = [
        (product_f, product_e),
        (fused.add(ct_a, ct_b), eager.add(ct_a, ct_b)),
        (fused.sub(ct_a, ct_b), eager.sub(ct_a, ct_b)),
        (fused.add(ct_a, product_f), eager.add(ct_a, product_e)),  # mixed sizes
        (fused.sub(ct_a, product_f), eager.sub(ct_a, product_e)),
        (fused.negate(ct_a), eager.negate(ct_a)),
        (fused.square(ct_a), eager.square(ct_a)),
        (fused.add_plain(ct_a, plain), eager.add_plain(ct_a, plain)),
        (fused.multiply_plain(ct_a, plain), eager.multiply_plain(ct_a, plain)),
        (fused.relinearize(product_f, relin), eager.relinearize(product_e, relin)),
        (fused.mod_switch_to_next(ct_a), eager.mod_switch_to_next(ct_a)),
    ]
    for index, (got, expected) in enumerate(cases):
        assert coeffs(got) == coeffs(expected), index
        assert got.level == expected.level, index
    # NTT accounting matches between the modes for the headline ops.
    assert fused.ntt_invocations == eager.ntt_invocations


def test_pipeline_chain_matches_eager_chain(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))

    eager = context.evaluator(mode="eager")
    expected = eager.mod_switch_to_next(
        eager.relinearize(eager.multiply(ct_a, ct_b), relin)
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

        # The per-op fused evaluator pays at most one dispatch per op too.
        evaluator = ctx.evaluator(mode="fused")
        backend.reset_dispatch_count()
        chained = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )
        assert backend.dispatch_count <= 3
        assert coeffs(chained) == coeffs(result)

        # ... while the eager path pays one per backend method call.
        eager = ctx.evaluator(mode="eager")
        backend.reset_dispatch_count()
        eager.mod_switch_to_next(
            eager.relinearize(eager.multiply(ct_a, ct_b), relin)
        )
        assert backend.dispatch_count > 3
    finally:
        backend.close()


def test_bootstrap_circuit_three_dispatches_on_warm_runs():
    """The optimised bootstrap circuit keeps one fused stage per cross-row
    barrier on the pool-forced parallel backend: re-batching reorders plan
    nodes, and the stage cuts follow node order."""
    backend = forced_parallel()
    try:
        # Six primes, the benchmark's bootstrap shape.  With three, the two
        # shards' row split of the switched level no longer lines up and any
        # plan of this circuit runs op by op.
        params = HEParams(n=64, plaintext_modulus=17, prime_bits=30, prime_count=6)
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
    assert pipe.evaluator.plans_compiled == 1
    assert pipe.evaluator.plan_cache_hits == 2
    assert len({str(coeffs(result)) for result in results}) == 3


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
    assert pipe.evaluator.plans_compiled == 2  # distinct plans, no aliasing
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
    eager = ctx.evaluator(mode="eager")
    product = eager.multiply(ct_a, ct_b)
    assert coeffs(result) == coeffs(eager.add(product, product))


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

    # Level mismatches surface during lowering, like the eager checks.
    evaluator = ctx.evaluator(mode="eager")
    switched = evaluator.mod_switch_to_next(ct)
    with pytest.raises(ValueError, match="different levels"):
        (pipe.load(ct) * pipe.load(switched)).run()
    with pytest.raises(ValueError, match="different levels"):
        (pipe.load(ct) + pipe.load(switched)).run()

    # Relinearising a size-2 ciphertext is a fused no-op copy.
    relinearised = pipe.load(ct).relinearize(relin).run()
    assert coeffs(relinearised) == coeffs(ct)

    # Switching past the last level raises exactly like the eager path.
    last = evaluator.mod_switch_to_next(switched)
    with pytest.raises(ValueError, match="below a single prime"):
        pipe.load(last).mod_switch().run()


def test_evaluator_mode_resolution(monkeypatch):
    ctx = make_context("numpy")
    monkeypatch.delenv("REPRO_EXECUTION", raising=False)
    assert ctx.evaluator().mode == "fused"
    monkeypatch.setenv("REPRO_EXECUTION", "eager")
    assert ctx.evaluator().mode == "eager"
    assert ctx.evaluator(mode="fused").mode == "fused"
    try:
        set_default_execution_mode("fused")
        assert ctx.evaluator().mode == "fused"
    finally:
        set_default_execution_mode(None)


# --------------------------------------------------------- polynomial layer


@pytest.mark.parametrize("backend_name", ["scalar", "numpy"])
def test_poly_product_identical_between_modes(backend_name, monkeypatch):
    ctx = make_context(backend_name)
    rng = random.Random(5)
    a = RnsPolynomial.random_uniform(ctx.basis, PARAMS.n, rng, backend=ctx.backend)
    b = RnsPolynomial.random_uniform(ctx.basis, PARAMS.n, rng, backend=ctx.backend)
    monkeypatch.delenv("REPRO_EXECUTION", raising=False)
    fused = a * b
    monkeypatch.setenv("REPRO_EXECUTION", "eager")
    eager = a * b
    assert fused == eager
    assert fused.domain == eager.domain
