"""Residency of the ``parallel`` backend's pooled shared memory.

Pins what keeps a warm pooled run from re-creating and re-mapping segments:

* **what a warm run creates and maps** — once a plan shape is cached, a run
  creates only its plan-output segments (``shm.segments``) and each worker
  maps only those (``pool.segment_maps``): intermediate stage storage is
  reused across runs, workers keep their mappings, and a heap input moves
  into shared memory once; an encryption's randomness is one segment;
* **reuse is invisible** — results stay bit-for-bit with the scalar oracle,
  and a result returned by an earlier run is not overwritten by later ones;
* **exact drops** — the workers close exactly the segments the coordinator
  released: warm runs keep the arena and the workers' mapping tables flat,
  and after LRU churn of the plan-shape cache no worker holds a released
  segment;
* **lifecycle** — the run after a worker crash is bit-identical, and after
  ``close()`` plus ``get_arena().shutdown()`` no segment of the session is
  left.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import textwrap

from repro.backends import ops
from repro.backends.parallel import PLAN_INFO_CACHE_ENTRIES, ParallelBackend
from repro.backends.pool import get_arena
from repro.backends.scalar import ScalarBackend
from repro.he import HeContext, HEParams, bootstrap_circuit
from repro.modarith.primes import generate_ntt_primes

N = 64
PARAMS = HEParams(n=N, plaintext_modulus=17, prime_bits=30, prime_count=6)
SHAPE = {"c2s_terms": 4, "eval_depth": 1, "s2c_terms": 4}


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def coeffs(ciphertext):
    return [poly.to_coeff_lists() for poly in ciphertext.polys]


def random_rows(primes, n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for p in primes]


def circuit(backend, passes=None):
    """The bootstrap circuit on a fresh context; keys and ciphertext depend
    only on the seeds, so every backend builds the same operands."""
    ctx = HeContext.create(PARAMS, backend=backend, seed=7)
    ct = ctx.encryptor(seed=11).encrypt(ctx.integer_encoder().encode(3))
    pipe = ctx.pipeline()
    if passes is not None:
        pipe.evaluator = ctx.evaluator(passes=passes)
    return ctx, ct, bootstrap_circuit(ctx, pipe, ct, **SHAPE)


def oracle_coeffs(ct):
    """The scalar backend running the raw emitted plan."""
    _, scalar_ct, expr = circuit("scalar", passes="none")
    assert coeffs(scalar_ct) == coeffs(ct)
    return coeffs(expr.run())


def held_names(backend):
    """Each worker's mapped segment names, checked against the live arena."""
    held = backend._pool.mapped_for_test()
    live = get_arena()._segments
    for names in held:
        released = [name for name in names if name not in live]
        assert not released, released
    return held


def test_warm_runs_create_and_map_only_their_plan_outputs(monkeypatch):
    backend = forced_parallel()
    try:
        ctx, ct, expr = circuit(backend)
        plans = []
        execute = backend.execute

        def spy(plan, inputs):
            plans.append(plan)
            return execute(plan, inputs)

        monkeypatch.setattr(backend, "execute", spy)
        expr.run()  # first run: compiles the plan, allocates its stage storage
        results = []
        for _ in range(4):
            before = ctx.metrics()
            results.append(expr.run())
            diff = HeContext.metrics_diff(before, ctx.metrics())
            plan = plans[-1]
            outputs = {
                vid
                for _, vid in plan.outputs
                if not isinstance(plan.nodes[vid], ops.Input)
            }
            assert diff["pool.dispatches"] == 3, diff
            assert diff.get("shm.segments", 0) == len(outputs), diff
            assert diff.get("pool.segment_maps", 0) == len(outputs) * 2, diff
        expected = oracle_coeffs(ct)
        # The earliest result is read last: later runs must not overwrite it.
        for result in reversed(results):
            assert coeffs(result) == expected
    finally:
        backend.close()


def test_an_encryption_maps_its_randomness_as_one_segment():
    """u, e0 and e1 enter the pool as one stacked tensor (one segment), so
    an encryption creates 4 segments (the randomness, the heap plaintext
    and the two components) where three separate polynomials made 6."""
    backend = ParallelBackend(shards=2)
    try:
        ctx = HeContext.create(
            HEParams(n=4096, plaintext_modulus=17, prime_bits=30, prime_count=6),
            backend=backend,
            seed=7,
        )
        encoder, encryptor = ctx.integer_encoder(), ctx.encryptor(seed=11)
        encryptor.encrypt(encoder.encode(1))  # maps the public key's image
        before = ctx.metrics()
        ct = encryptor.encrypt(encoder.encode(3))
        diff = HeContext.metrics_diff(before, ctx.metrics())
        assert diff["pool.dispatches"] == 1, diff
        assert diff["conversions.rows"] <= 24, diff
        assert diff["shm.segments"] == 4, diff
        assert diff["pool.segment_maps"] == 8, diff
        assert encoder.decode(ctx.decryptor().decrypt(ct)) == 3
    finally:
        backend.close()


def test_heap_input_moves_into_shared_memory_once():
    primes = generate_ntt_primes(30, 4, N)
    rows = random_rows(primes, N, seed=5)
    graph = ops.OpGraph()
    graph.output("out", graph.inverse_ntt(graph.forward_ntt(graph.input("a"))))
    plan = graph.compile()
    backend = ParallelBackend(
        shards=2, transform_threshold=1 << 40, pointwise_threshold=1 << 40
    )
    try:
        heap = backend.from_rows(rows, primes)
        assert heap.segment is None
        backend._transform_threshold = 1  # dispatch with a heap input
        created = []
        for _ in range(3):
            before = backend.metrics.value("shm.segments")
            out = backend.execute(plan, {"a": heap})["out"]
            created.append(backend.metrics.value("shm.segments") - before)
            assert out.to_rows() == rows
        assert heap.segment is not None
        assert created == [2, 1, 1]  # the input once, then the output alone
        assert heap.to_rows() == rows
    finally:
        backend.close()


def test_warm_runs_keep_the_arena_and_the_worker_mappings_flat():
    backend = forced_parallel()
    try:
        _, _, expr = circuit(backend)
        arena = get_arena()
        for _ in range(3):
            expr.run()
        # Earlier tests' cyclic garbage may still hold segments; collect it
        # so only this loop can move the counts.
        gc.collect()
        live, in_use = arena.live_segments, arena.bytes_in_use
        held = [len(names) for names in held_names(backend)]
        for _ in range(200):
            expr.run()
        gc.collect()
        assert (arena.live_segments, arena.bytes_in_use) == (live, in_use)
        assert [len(names) for names in held_names(backend)] == held
    finally:
        backend.close()


def test_lru_churn_leaves_no_worker_holding_a_released_segment():
    """The churn of ``test_plan_info_cache_is_bounded``, pooled, on two-stage
    plans whose entries keep stage storage that eviction releases."""
    backend = forced_parallel()
    try:
        primes = generate_ntt_primes(30, 3, N)
        rows = random_rows(primes, N, seed=23)
        tensor = backend.from_rows(rows, primes)
        scalar = ScalarBackend()
        scalar_tensor = scalar.from_rows(rows, primes)

        def two_stage_plan(value):
            # The scaled transform is read across rows by the next stage, so
            # it is stage storage, not a plan output.
            graph = ops.OpGraph()
            scaled = graph.scalar_mul(graph.forward_ntt(graph.input("a")), value)
            graph.output("out", graph.digit_broadcast(scaled, 1))
            return graph.compile()

        hot = two_stage_plan(0)
        before = backend.metrics.value("shm.segments")
        churn = PLAN_INFO_CACHE_ENTRIES + 44
        for value in range(1, churn + 1):
            for plan in (two_stage_plan(value), hot):
                got = backend.execute(plan, {"a": tensor})["out"]
                expected = scalar.execute(plan, {"a": scalar_tensor})["out"]
                assert got.to_rows() == expected.to_rows()
        assert len(backend._plan_info_cache) == PLAN_INFO_CACHE_ENTRIES
        # One output per run, and one stage value per shape: the hot shape
        # reused its storage throughout.
        runs, shapes = 2 * churn, churn + 1
        assert backend.metrics.value("shm.segments") - before == runs + shapes
        for worker, names in enumerate(held_names(backend)):
            assert set(names) == set(backend._pool._sent[worker])
    finally:
        backend.close()


def test_run_after_a_worker_crash_is_bit_identical():
    backend = forced_parallel()
    try:
        ctx, _, expr = circuit(backend)
        expr.run()
        expected = coeffs(expr.run())
        restarts = backend._pool.restarts
        backend._pool.crash_for_test()  # kill a worker abruptly
        assert coeffs(expr.run()) == expected
        assert backend._pool.restarts == restarts + 1
        # The fresh workers have mapped the resident segments again; from
        # now on a run maps only its two plan outputs, on both workers.
        before = ctx.metrics()
        assert coeffs(expr.run()) == expected
        diff = HeContext.metrics_diff(before, ctx.metrics())
        assert diff.get("pool.segment_maps", 0) == 2 * 2, diff
        held_names(backend)
    finally:
        backend.close()


SHUTDOWN_SCRIPT = textwrap.dedent(
    """
    import json
    from multiprocessing import shared_memory

    from repro.backends.parallel import ParallelBackend
    from repro.backends.pool import get_arena
    from repro.he import HeContext, HEParams, bootstrap_circuit

    arena = get_arena()
    names = []
    allocate = arena.allocate

    def recording(nbytes):
        segment = allocate(nbytes)
        names.append(segment.name)
        return segment

    arena.allocate = recording
    backend = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    ctx = HeContext.create(HEParams(**{params}), backend=backend, seed=7)
    ct = ctx.encryptor(seed=11).encrypt(ctx.integer_encoder().encode(3))
    expr = bootstrap_circuit(ctx, ctx.pipeline(), ct, **{shape})
    kept = [expr.run() for _ in range(4)]
    backend.close()
    arena.shutdown()
    left = []
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        left.append(name)
        shm.close()
        shm.unlink()
    print(json.dumps([len(names), arena.live_segments, arena.bytes_in_use, left]))
    """
)


def test_close_and_arena_shutdown_leave_no_segment():
    """Runs in a child interpreter: an arena shutdown unlinks every segment
    of the process, including those other tests' objects still hold."""
    params = {
        "n": N,
        "plaintext_modulus": PARAMS.plaintext_modulus,
        "prime_bits": 30,
        "prime_count": 6,
    }
    script = SHUTDOWN_SCRIPT.format(params=params, shape=SHAPE)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    created, live, in_use, left = json.loads(done.stdout.splitlines()[-1])
    assert created > 0
    assert (live, in_use, left) == (0, 0, [])
