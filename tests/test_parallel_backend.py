"""Tests for the sharded multi-core ``parallel`` backend.

Pins the acceptance criteria of the parallel-execution subsystem:

* **bit-for-bit interchangeability** — every operation of the
  :class:`~repro.backends.base.ComputeBackend` interface matches the scalar
  and numpy backends exactly, on both word-size regimes (30-bit native,
  60-bit wide-word vectorised), whether the work is dispatched to the worker
  pool or runs inline below the crossover;
* **one shard protocol** — a node kernel above the crossover runs as a
  one-node plan (one dispatch, traced under ``plan.execute``), rows at or
  above the 2^62 storage window always run inline, and the fused-schedule
  cache stays bounded;
* **ownership** — foreign tensors are rejected in both directions;
* **residency** — a ``multiply → relinearize → mod_switch`` chain through
  the whole HE stack performs zero boundary conversions even when every
  operation is force-dispatched through the pool (payload rows cross
  process boundaries via shared memory, never via pickled lists);
* **lifecycle** — the pool is lazy (no workers before the first dispatch),
  survives a worker crash by rebuilding and retrying once, and the
  shared-memory arena releases segments when tensors die;
* **configuration** — shard-count resolution precedence, and a registered
  factory (``lambda: NumpyBackend(engine=spec)``) building the inline
  instance and every worker alike.

Pool-dispatching tests force the crossover down (``transform_threshold=1``)
so toy shapes exercise the sharded path; crossover tests use the defaults.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import SHARDS_ENV_VAR, get_backend, ops, set_default_shards
from repro.backends.engines import tile_rows
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import (
    DEFAULT_POINTWISE_THRESHOLD,
    DEFAULT_TRANSFORM_THRESHOLD,
    PLAN_INFO_CACHE_ENTRIES,
    ParallelBackend,
    ParallelTensor,
)
from repro.backends.pool import get_arena, resolve_shard_count
from repro.backends.scalar import ScalarBackend
from repro.he import Evaluator, HEParams, HeContext
from repro.modarith.primes import generate_ntt_primes
from repro.telemetry import TRACER
from repro.telemetry.tracer import ATTRS, NAME, PARENT, PHASE, SID

PRIME_BITS = (30, 60)  # native narrow regime and wide-word vectorised regime
N = 64


def random_rows(primes, n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for p in primes]


def forced_backend(shards=2):
    """A parallel backend whose every multi-row operation hits the pool."""
    return ParallelBackend(shards=shards, transform_threshold=1, pointwise_threshold=1)


@pytest.fixture(scope="module")
def pooled():
    backend = forced_backend()
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def references():
    return {"scalar": ScalarBackend(), "numpy": NumpyBackend()}


#: The nine node kernels, keyed by the span each one records; ``a`` and
#: ``b`` share a basis of distinct primes (modulus switching needs one).
NODE_KERNELS = {
    "op.forward_ntt": lambda backend, a, b: backend.forward_ntt_batch(a),
    "op.inverse_ntt": lambda backend, a, b: backend.inverse_ntt_batch(a),
    "op.add": lambda backend, a, b: backend.add(a, b),
    "op.sub": lambda backend, a, b: backend.sub(a, b),
    "op.mul": lambda backend, a, b: backend.mul(a, b),
    "op.neg": lambda backend, a, b: backend.neg(a),
    "op.scalar_mul": lambda backend, a, b: backend.scalar_mul(a, 123457),
    "op.digit_broadcast": lambda backend, a, b: backend.digit_broadcast(a, 1),
    "op.mod_switch": lambda backend, a, b: backend.mod_switch_drop_last(a, 257),
}


# ------------------------------------------------------------- cross-checks


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_transforms_bit_identical_to_scalar_and_numpy(bits, pooled, references):
    primes = generate_ntt_primes(bits, 2, N)
    batch = [p for p in primes for _ in range(3)]  # repeats: the Fig. 3 shape
    rows = random_rows(batch, N, seed=bits)
    expected = {}
    for name, backend in references.items():
        tensor = backend.from_rows(rows, batch)
        expected[name] = backend.forward_ntt_batch(tensor).to_rows()
    assert expected["scalar"] == expected["numpy"]

    before = pooled.dispatch_count
    tensor = pooled.from_rows(rows, batch)
    forward = pooled.forward_ntt_batch(tensor)
    assert pooled.dispatch_count > before, "transform did not shard"
    assert forward.to_rows() == expected["scalar"]
    assert pooled.inverse_ntt_batch(forward).to_rows() == rows


@pytest.mark.parametrize("bits", PRIME_BITS)
def test_pointwise_and_rns_ops_bit_identical(bits, pooled, references):
    numpy_backend = references["numpy"]
    primes = generate_ntt_primes(bits, 2, N)
    batch = [p for p in primes for _ in range(2)]
    rows_a = random_rows(batch, N, seed=10 + bits)
    rows_b = random_rows(batch, N, seed=20 + bits)
    a_np, b_np = numpy_backend.from_rows(rows_a, batch), numpy_backend.from_rows(rows_b, batch)
    a, b = pooled.from_rows(rows_a, batch), pooled.from_rows(rows_b, batch)

    assert pooled.add(a, b).to_rows() == numpy_backend.add(a_np, b_np).to_rows()
    assert pooled.sub(a, b).to_rows() == numpy_backend.sub(a_np, b_np).to_rows()
    assert pooled.mul(a, b).to_rows() == numpy_backend.mul(a_np, b_np).to_rows()
    assert pooled.neg(a).to_rows() == numpy_backend.neg(a_np).to_rows()
    assert (
        pooled.scalar_mul(a, 123457).to_rows()
        == numpy_backend.scalar_mul(a_np, 123457).to_rows()
    )
    assert (
        pooled.digit_broadcast(a, 1).to_rows()
        == numpy_backend.digit_broadcast(a_np, 1).to_rows()
    )
    # modulus switching needs a distinct-prime RNS basis
    basis = generate_ntt_primes(bits, 4, N)
    ms_rows = random_rows(basis, N, seed=30 + bits)
    switched = pooled.mod_switch_drop_last(pooled.from_rows(ms_rows, basis), 257)
    expected = numpy_backend.mod_switch_drop_last(
        numpy_backend.from_rows(ms_rows, basis), 257
    )
    assert switched.to_rows() == expected.to_rows()


def test_mixed_word_size_batch(pooled, references):
    """One batch spanning both regimes shards correctly."""
    primes = generate_ntt_primes(30, 2, N) + generate_ntt_primes(60, 2, N)
    rows = random_rows(primes, N, seed=3)
    expected = references["scalar"].forward_ntt_batch(
        references["scalar"].from_rows(rows, primes)
    ).to_rows()
    produced = pooled.forward_ntt_batch(pooled.from_rows(rows, primes)).to_rows()
    assert produced == expected


@pytest.mark.parametrize("span_name", sorted(NODE_KERNELS))
@pytest.mark.parametrize("bits", PRIME_BITS)
def test_node_kernels_dispatch_as_one_node_plans(bits, span_name, pooled, references):
    """Above the crossover a node kernel is a one-node plan: exactly one
    pool dispatch, bit-identical to numpy, and under tracing its
    ``pool.dispatch`` span sits under ``plan.stage``, then ``plan.execute``,
    then the kernel's own span."""
    call = NODE_KERNELS[span_name]
    basis = generate_ntt_primes(bits, 4, N)
    rows_a = random_rows(basis, N, seed=40 + bits)
    rows_b = random_rows(basis, N, seed=50 + bits)
    numpy_backend = references["numpy"]
    expected = call(
        numpy_backend,
        numpy_backend.from_rows(rows_a, basis),
        numpy_backend.from_rows(rows_b, basis),
    ).to_rows()
    a, b = pooled.from_rows(rows_a, basis), pooled.from_rows(rows_b, basis)
    before = pooled.dispatch_count
    TRACER.clear()
    TRACER.start()
    try:
        result = call(pooled, a, b)
    finally:
        TRACER.stop()
    events = TRACER.events()
    TRACER.clear()
    assert pooled.dispatch_count == before + 1
    assert result.to_rows() == expected
    begins = {event[SID]: event for event in events if event[PHASE] == "B"}
    (dispatch,) = [event for event in begins.values() if event[NAME] == "pool.dispatch"]
    ancestors = []
    parent = dispatch[PARENT]
    while parent is not None:
        ancestors.append(begins[parent][NAME])
        parent = begins[parent][PARENT]
    assert ancestors == ["plan.stage", "plan.execute", span_name]


def test_storage_overflow_rows_run_inline(pooled, references):
    """A batch holding a row whose prime is at or above the 2^62 storage
    window never reaches the pool: all nine node kernels run inline on the
    forced pool, bit-identical to the scalar oracle."""
    basis = generate_ntt_primes(30, 3, N) + generate_ntt_primes(63, 1, N)
    rows_a = random_rows(basis, N, seed=61)
    rows_b = random_rows(basis, N, seed=62)
    scalar = references["scalar"]
    scalar_a, scalar_b = scalar.from_rows(rows_a, basis), scalar.from_rows(rows_b, basis)
    a, b = pooled.from_rows(rows_a, basis), pooled.from_rows(rows_b, basis)
    assert a.big and a.segment is not None  # above the forced crossover
    before = pooled.dispatch_count
    for span_name, call in NODE_KERNELS.items():
        expected = call(scalar, scalar_a, scalar_b).to_rows()
        assert call(pooled, a, b).to_rows() == expected, span_name
    assert pooled.dispatch_count == before


def test_plan_info_cache_is_bounded():
    """The fused-schedule memo keeps at most PLAN_INFO_CACHE_ENTRIES plan
    shapes, least recently used out, and every result stays bit-identical."""
    backend = ParallelBackend(shards=2)  # default crossover: toy plans run inline
    try:
        primes = generate_ntt_primes(30, 2, N)
        rows = random_rows(primes, N, seed=23)
        tensor = backend.from_rows(rows, primes)
        scalar = ScalarBackend()
        scalar_tensor = scalar.from_rows(rows, primes)

        def scalar_mul_plan(value):
            graph = ops.OpGraph()
            graph.output("out", graph.scalar_mul(graph.input("a"), value))
            return graph.compile()

        hot = scalar_mul_plan(0)
        for value in range(1, PLAN_INFO_CACHE_ENTRIES + 45):
            for plan, factor in ((scalar_mul_plan(value), value), (hot, 0)):
                got = backend.execute(plan, {"a": tensor})["out"]
                assert got.to_rows() == scalar.scalar_mul(scalar_tensor, factor).to_rows()
            assert len(backend._plan_info_cache) <= PLAN_INFO_CACHE_ENTRIES
        assert len(backend._plan_info_cache) == PLAN_INFO_CACHE_ENTRIES
        assert any(key[0] == hot for key in backend._plan_info_cache)
        assert not backend.pool_running
    finally:
        backend.close()


def test_structural_ops_round_trip(pooled):
    primes = generate_ntt_primes(30, 2, N)
    batch = [p for p in primes for _ in range(3)]
    rows = random_rows(batch, N, seed=4)
    tensor = pooled.from_rows(rows, batch)
    first, second = pooled.split(tensor, [2, 4])
    assert first.count == 2 and second.count == 4
    # slices of a shared-memory tensor are views sharing the refcounted
    # segment (zero copy); concat reassembles the original bits
    assert first.segment is tensor.segment
    assert pooled.concat([first, second]).to_rows() == rows
    sliced = pooled.slice_rows(tensor, 1, 4)
    assert sliced.to_rows() == rows[1:4]
    duplicate = pooled.copy(tensor)
    assert pooled.tensor_equal(duplicate, tensor)
    assert duplicate.data is not tensor.data


# --------------------------------------------------------------- ownership


def test_foreign_tensors_rejected_both_directions(pooled, references):
    numpy_backend = references["numpy"]
    primes = generate_ntt_primes(30, 1, N)
    rows = random_rows(primes, N, seed=5)
    parallel_tensor = pooled.from_rows(rows, primes)
    numpy_tensor = numpy_backend.from_rows(rows, primes)
    with pytest.raises(ValueError):
        pooled.forward_ntt_batch(numpy_tensor)
    with pytest.raises(ValueError):
        numpy_backend.forward_ntt_batch(parallel_tensor)
    other = forced_backend()
    try:
        with pytest.raises(ValueError):
            other.neg(parallel_tensor)  # even another parallel instance
    finally:
        other.close()


def test_shape_validation(pooled):
    with pytest.raises(ValueError):
        pooled.from_rows([[1, 2], [3]], [17, 17])  # ragged
    with pytest.raises(ValueError):
        pooled.from_rows([[1, 2]], [17, 17])  # count mismatch
    with pytest.raises(ValueError):
        pooled.concat([])


# ------------------------------------------------- residency / zero copy


def test_forced_pool_chain_performs_zero_conversions():
    """multiply → relinearize → mod_switch through the whole HE stack with
    every operation sharded across the pool: payload rows travel via shared
    memory, so the parallel backend's conversion counter stays untouched."""
    backend = forced_backend()
    try:
        params = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)
        ctx = HeContext.create(params, backend=backend)
        encryptor = ctx.encryptor()
        evaluator = ctx.evaluator()
        relin = ctx.relinearization_key()
        ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
        ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
        dispatches = backend.dispatch_count
        before = backend.conversion_count
        switched = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )
        assert backend.conversion_count == before, "chain left resident storage"
        assert backend.dispatch_count > dispatches, "chain never sharded"
        t = params.plaintext_modulus
        decoded = ctx.encoder().decode(ctx.decryptor().decrypt(switched))
        assert decoded[:3] == [(x * y) % t for x, y in zip([1, 2, 3], [4, 5, 6])]
    finally:
        backend.close()


def test_pooled_transform_records_the_workers_kernel():
    """Each worker reports the kernel choices of its shards with its task
    reply, so a pooled transform records ``stockham`` for the workers'
    shapes although the coordinator's inline backend ran nothing."""
    backend = forced_backend()
    try:
        primes = generate_ntt_primes(30, 2, N)
        batch = primes * 2
        tensor = backend.from_rows(random_rows(batch, N, seed=5), batch)
        backend.forward_ntt_batch(tensor)
        assert backend.dispatch_count == 1
        assert backend.inner.engine_choices == {}
        # Each of the two workers transforms one basis repetition.
        expected = {(N, 30, tile_rows(1, 2, N)): "stockham"}
        assert backend.engine_choices == expected
        assert backend.metrics.snapshot()["ntt.engine_choices"] == expected
    finally:
        backend.close()


def test_dispatch_count_accounts_every_pool_round_trip():
    """`dispatch_count` is the pool round-trip odometer: one per per-op
    backend call above the crossover, one per fused plan stage, zero inline
    — and the fused multiply → relinearize → mod_switch chain reads ≤ 3
    (satellite acceptance of the op-graph redesign)."""
    backend = forced_backend()
    try:
        primes = generate_ntt_primes(30, 2, N)
        batch = [p for p in primes for _ in range(2)]
        tensor = backend.from_rows(random_rows(batch, N, seed=21), batch)
        assert backend.dispatch_count == 0
        forward = backend.forward_ntt_batch(tensor)  # per-op: 1 round trip
        assert backend.dispatch_count == 1
        backend.add(forward, forward)  # per-op: 1 more
        assert backend.dispatch_count == 2
        backend.reset_dispatch_count()
        assert backend.dispatch_count == 0

        params = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)
        ctx = HeContext.create(params, backend=backend)
        encryptor = ctx.encryptor()
        evaluator = ctx.evaluator()
        relin = ctx.relinearization_key()
        ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
        ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
        backend.reset_dispatch_count()
        backend.reset_conversion_count()
        chain = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )
        # One fused plan per op; relinearize costs one extra stage when its
        # digit source arrives as a plan input (single stage) — the chain
        # budget is one dispatch per homomorphic operation.
        assert 1 <= backend.dispatch_count <= 3, backend.dispatch_count
        assert backend.conversion_count == 0
        # The scalar backend's raw plans are the oracle (adopting onto it is
        # a counted conversion, so it runs after the counter checks).
        oracle = Evaluator(params, backend="scalar", passes="none")
        expected = oracle.mod_switch_to_next(
            oracle.relinearize(oracle.multiply(ct_a, ct_b), relin)
        )
        assert [p.to_coeff_lists() for p in chain.polys] == [
            p.to_coeff_lists() for p in expected.polys
        ]
    finally:
        backend.close()


def test_chain_bit_identical_across_all_three_backends():
    params = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)
    results = {}
    for name, backend in (
        ("scalar", "scalar"),
        ("numpy", "numpy"),
        ("parallel", forced_backend()),
    ):
        ctx = HeContext.create(params, backend=backend, seed=7)
        encryptor = ctx.encryptor(seed=11)
        evaluator = ctx.evaluator()
        relin = ctx.relinearization_key()
        ct = encryptor.encrypt(ctx.encoder().encode([9, 8, 7]))
        out = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.square(ct), relin)
        )
        results[name] = [poly.to_coeff_lists() for poly in out.polys]
        if isinstance(backend, ParallelBackend):
            backend.close()
    assert results["scalar"] == results["numpy"] == results["parallel"]


def test_big_row_fallback_runs_inline_and_is_mirrored(pooled):
    """Rows at or above the 2^62 storage window run inline on the forced
    pool (no dispatch), and the fallback rows the inner backend charges are
    mirrored onto the parallel backend's counters, matching the numpy
    backend's accounting for the same transform: no conversions, one
    fallback row per big row."""
    primes = generate_ntt_primes(30, 1, N) + generate_ntt_primes(63, 1, N)
    batch = [p for p in primes for _ in range(2)]
    rows = random_rows(batch, N, seed=17)
    big_rows = sum(p >= 1 << 62 for p in batch)

    numpy_backend = NumpyBackend()
    numpy_tensor = numpy_backend.from_rows(rows, batch)
    numpy_backend.reset_conversion_count()
    expected = numpy_backend.forward_ntt_batch(numpy_tensor).to_rows()
    assert numpy_backend.fallback_rows == big_rows

    tensor = pooled.from_rows(rows, batch)
    conversions = pooled.conversion_count
    fallback = pooled.fallback_rows
    dispatches = pooled.dispatch_count
    forward = pooled.forward_ntt_batch(tensor)
    assert pooled.dispatch_count == dispatches
    assert pooled.conversion_count == conversions
    assert pooled.fallback_rows - fallback == big_rows
    assert forward.to_rows() == expected


def test_wide_word_resident_across_process_boundary(pooled):
    """In the default wide regime, 60-bit transforms stay on the exact
    vectorised array path inside every worker: zero conversions and zero
    fallback rows are mirrored back across the pool."""
    primes = generate_ntt_primes(60, 2, N)
    batch = [p for p in primes for _ in range(2)]
    tensor = pooled.from_rows(random_rows(batch, N, seed=17), batch)
    conv_before = pooled.conversion_count
    fb_before = pooled.fallback_rows
    forward = pooled.forward_ntt_batch(tensor)
    pooled.inverse_ntt_batch(forward)
    assert pooled.conversion_count == conv_before
    assert pooled.fallback_rows == fb_before


def test_segments_released_when_tensors_die(pooled):
    import gc

    arena = get_arena()
    primes = generate_ntt_primes(30, 2, N)
    before = arena.live_segments
    tensor = pooled.from_rows(random_rows(primes, N, seed=6), primes)
    forward = pooled.forward_ntt_batch(tensor)
    assert arena.live_segments >= before + 2
    del tensor, forward
    gc.collect()
    # a sweep runs on the next allocation; live accounting is immediate
    assert arena.live_segments <= before


# ----------------------------------------------------------- pool lifecycle


def test_pool_is_lazy_below_the_crossover():
    backend = ParallelBackend(shards=2)  # default thresholds
    try:
        assert not backend.pool_running
        primes = generate_ntt_primes(30, 2, N)
        rows = random_rows([p for p in primes for _ in range(2)], N, seed=8)
        batch = [p for p in primes for _ in range(2)]
        tensor = backend.from_rows(rows, batch)
        forward = backend.forward_ntt_batch(tensor)
        assert backend.dispatch_count == 0, "toy shape paid the pool tax"
        assert not backend.pool_running
        assert tensor.segment is None, "sub-crossover tensor went to /dev/shm"
        # the inline path is still the real engine path, bit-for-bit
        reference = NumpyBackend()
        assert forward.to_rows() == reference.forward_ntt_batch(
            reference.from_rows(rows, batch)
        ).to_rows()
    finally:
        backend.close()


def test_thresholds_separate_transform_and_pointwise():
    assert DEFAULT_TRANSFORM_THRESHOLD < DEFAULT_POINTWISE_THRESHOLD
    backend = ParallelBackend(
        shards=2,
        transform_threshold=1,
        pointwise_threshold=1 << 40,  # pointwise effectively never dispatches
    )
    try:
        primes = generate_ntt_primes(30, 2, N)
        batch = [p for p in primes for _ in range(2)]
        tensor = backend.from_rows(random_rows(batch, N, seed=9), batch)
        backend.forward_ntt_batch(tensor)
        transforms = backend.dispatch_count
        assert transforms == 1
        backend.add(tensor, tensor)
        assert backend.dispatch_count == transforms  # stayed inline
    finally:
        backend.close()


def test_pool_restarts_after_worker_crash(pooled):
    primes = generate_ntt_primes(30, 2, N)
    batch = [p for p in primes for _ in range(2)]
    tensor = pooled.from_rows(random_rows(batch, N, seed=12), batch)
    expected = pooled.forward_ntt_batch(tensor).to_rows()
    restarts = pooled._pool.restarts
    pooled._pool.crash_for_test()  # kill a worker abruptly
    recovered = pooled.forward_ntt_batch(tensor).to_rows()
    assert recovered == expected
    assert pooled._pool.restarts == restarts + 1
    assert pooled.pool_running


def test_worker_exceptions_propagate(pooled):
    primes = generate_ntt_primes(30, 4, N)
    rows = random_rows(primes, N, seed=13)
    tensor = pooled.from_rows(rows, primes)
    with pytest.raises(ValueError):
        # t shares a factor with q_last -> not invertible, raised in-worker
        pooled.mod_switch_drop_last(tensor, primes[-1])


# ------------------------------------------------------------ configuration


def test_shard_count_resolution_precedence(monkeypatch):
    monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
    assert resolve_shard_count(5) == 5
    assert resolve_shard_count() >= 1  # cpu fallback
    monkeypatch.setenv(SHARDS_ENV_VAR, "3")
    assert resolve_shard_count() == 3
    try:
        set_default_shards(4)
        assert resolve_shard_count() == 4  # default beats env
        assert resolve_shard_count(2) == 2  # explicit beats default
    finally:
        set_default_shards(None)
    monkeypatch.setenv(SHARDS_ENV_VAR, "zero")
    with pytest.raises(ValueError):
        resolve_shard_count()
    monkeypatch.setenv(SHARDS_ENV_VAR, "-1")
    with pytest.raises(ValueError):
        resolve_shard_count()
    with pytest.raises(ValueError):
        resolve_shard_count(0)
    with pytest.raises(ValueError):
        set_default_shards(0)


def test_partition_balances_contiguously():
    assert ops._partition(6, 2) == [((0, 3),), ((3, 6),)]
    assert ops._partition(7, 3) == [((0, 3),), ((3, 5),), ((5, 7),)]
    # never more shards than rows: the other workers own nothing
    assert ops._partition(2, 8) == [((0, 1),), ((1, 2),)] + [()] * 6
    assert ops._partition(5, 1) == [((0, 5),)]


def test_registry_resolves_parallel_and_reports_env_overrides():
    backend = get_backend("parallel")
    assert isinstance(backend, ParallelBackend)
    assert get_backend("parallel") is backend  # cached singleton
    with pytest.raises(KeyError) as excinfo:
        get_backend("no-such-backend")
    message = str(excinfo.value)
    assert "parallel" in message
    assert "REPRO_BACKEND" in message
    assert "REPRO_SHARDS" in message


def test_parallel_cannot_wrap_itself():
    with pytest.raises(ValueError):
        ParallelBackend(inner="parallel")


def test_inner_backend_keeps_factory_configuration():
    """The inline inner instance is factory-built, so configuration applied
    by a registered factory (e.g. a pinned engine) reaches the
    sub-crossover path exactly as it reaches the workers."""
    from repro.backends import register_backend

    try:
        register_backend(
            "tuned-for-test", lambda: NumpyBackend(engine="stockham")
        )
    except ValueError:
        pass  # registered by an earlier run of this module
    backend = ParallelBackend(inner="tuned-for-test")
    try:
        assert backend.inner.engine == "stockham"
    finally:
        backend.close()


def test_registered_factory_pins_the_workers():
    """A pool whose registered factory builds ``NumpyBackend(engine=...)``
    runs that engine in every worker, bit for bit with the fixed kernel."""
    from repro.backends import register_backend

    try:
        register_backend("radix2-for-test", lambda: NumpyBackend(engine="radix2"))
    except ValueError:
        pass  # registered by an earlier run of this module
    backend = ParallelBackend(
        inner="radix2-for-test", shards=2, transform_threshold=1, pointwise_threshold=1
    )
    try:
        primes = generate_ntt_primes(30, 2, N)
        batch = [p for p in primes for _ in range(2)]
        rows = random_rows(batch, N, seed=14)
        tensor = backend.from_rows(rows, batch)
        TRACER.clear()
        TRACER.start()
        try:
            produced = backend.forward_ntt_batch(tensor).to_rows()
        finally:
            TRACER.stop()
        engines = {
            event[ATTRS].get("engine")
            for event in TRACER.events()
            if event[NAME] == "ntt.engine" and event[PHASE] == "B"
        }
        TRACER.clear()
        assert backend.dispatch_count >= 1
        assert engines == {"radix2"}  # recorded in the workers
        reference = NumpyBackend()
        expected = reference.forward_ntt_batch(reference.from_rows(rows, batch)).to_rows()
        assert produced == expected  # engines are bit-interchangeable
    finally:
        backend.close()


def test_shared_buffer_capability():
    backend = forced_backend()
    try:
        primes = generate_ntt_primes(30, 2, N)
        tensor = backend.from_rows(random_rows(primes, N, seed=15), primes)
        name, first_row, rows, n = tensor.shared_buffer()
        assert (first_row, rows, n) == (0, 2, N)
        view = backend.slice_rows(tensor, 1, 2)
        assert view.shared_buffer() == (name, 1, 1, N)
        # sub-crossover (heap) tensors report no shared storage
        small = ParallelBackend(shards=2)
        heap_tensor = small.from_rows(random_rows(primes, N, seed=16), primes)
        assert heap_tensor.shared_buffer() is None
        small.close()
        # and so does every non-parallel backend (the contract default)
        numpy_tensor = NumpyBackend().from_rows([[1] * 4], [17])
        assert numpy_tensor.shared_buffer() is None
    finally:
        backend.close()
