"""Value lifetimes in both plan executors.

Pins the free-at-last-use contract of :func:`repro.backends.ops.last_uses`:

* **memory** — ``ops.interpret`` and the pool workers' stage runner
  (``pool._run_plan_task``) drop each value after its last reader, so a
  long chain holds a couple of values at a time instead of all of them;
* **correctness** — the lifetime edge cases (a node reading a value twice,
  a value read in its own stage and by a later one, an output read by later
  nodes, an output that is an input, a dead node) stay bit-for-bit with the
  scalar oracle on the numpy, scalar and pool-forced parallel backends, and
  no executor writes a plan input, pooled key images included;
* **the static peak** — ``plan.peak_live_bytes`` in ``HeContext.metrics()``
  matches what a warm execution of bootstrap-30's reference plan allocates.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.backends import OpGraph, ops, pool
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.he import Ciphertext, HeContext, HEParams, bootstrap_circuit
from repro.modarith.primes import generate_ntt_primes

N = 4096
PRIMES = tuple(generate_ntt_primes(30, 6, N))
VALUE_BYTES = len(PRIMES) * N * 8
CHAIN_LENGTH = 16


def random_rows(primes, n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for p in primes]


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def add_chain(length=CHAIN_LENGTH):
    """``x + x + ... + x``: every node reads the previous value and ``x``."""
    graph = OpGraph()
    x = graph.input("x")
    value = x
    for _ in range(length):
        value = graph.add(value, x)
    graph.output("out", value)
    return graph.compile()


def traced_peak(run):
    """The tracemalloc peak of ``run()`` after one warm-up call."""
    run()  # kernel scratch, twiddle tables and column caches
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


# ------------------------------------------------------------- the helper


def test_last_uses_lists_each_value_at_its_last_reader():
    graph = OpGraph()
    x = graph.input("x")
    y = graph.input("y")
    square = graph.mul(x, x)
    dead = graph.neg(y)
    kept = graph.add(square, y)
    last = graph.sub(kept, square)
    graph.output("kept", kept)
    graph.output("last", last)
    plan = graph.compile()
    # Inputs and outputs are never released; the dead node goes at once.
    assert plan.releases == ((), (), (), (dead,), (), (square,))
    assert plan.releases is plan.releases  # computed once per plan object
    # Over one stage, a value only later stages read goes at its own node.
    assert ops.last_uses(plan, [kept, last]) == ((), (kept, last))


def test_peak_live_bytes_counts_inputs_operands_and_result():
    plan = add_chain()
    # x, the previous sum and the new sum are live together.
    assert ops.peak_live_bytes(plan, {"x": PRIMES}, N) == 3 * VALUE_BYTES


# ------------------------------------------------------------- memory bounds


def test_interpret_holds_at_most_three_values_of_a_chain():
    backend = NumpyBackend()
    plan = add_chain()
    x = backend.from_rows(random_rows(PRIMES, N, 1), PRIMES)
    peak, result = traced_peak(lambda: ops.interpret(backend, plan, {"x": x}))
    # Keeping every intermediate costs CHAIN_LENGTH values.
    assert peak <= 3 * VALUE_BYTES, peak / VALUE_BYTES
    oracle = ScalarBackend()
    reference = ops.interpret(
        oracle, plan, {"x": oracle.from_rows(backend.to_rows(x), PRIMES)}
    )
    assert backend.to_rows(result["out"]) == oracle.to_rows(reference["out"])


def test_worker_stage_runner_holds_at_most_three_values_of_a_chain():
    parallel = forced_parallel()  # its pool never starts: the task runs here
    plan = add_chain()
    rows = random_rows(PRIMES, N, 2)
    x = parallel._ensure_shared(parallel.from_rows(rows, PRIMES))
    info = parallel._plan_info(plan, (("x", x.primes),))
    (stage,), (outs,), (releases,) = (
        info["stages"], info["stage_outs"], info["releases"]
    )
    assert outs == [plan.outputs[0][1]]
    out = parallel._sharded_out(PRIMES, N)
    rowset = info["schedules"][0][0]  # worker 0's share
    task = {
        "n": N,
        "nodes": [(vid, plan.nodes[vid]) for vid in stage],
        "releases": releases,
        "rowsets": rowset,
        "primes": {vid: info["primes"][vid] for vid in rowset},
        "inputs": {0: parallel._ref(x)},
        "outputs": {vid: parallel._ref(out) for vid in outs},
    }
    share_rows = sum(hi - lo for lo, hi in rowset[outs[0]])
    inner = NumpyBackend()

    def run():
        mapped = {}
        try:
            pool._run_plan_task(inner, task, mapped)
        finally:
            for shm in mapped.values():
                shm.close()

    peak, _ = traced_peak(run)
    assert peak <= 3 * share_rows * N * 8, peak / (share_rows * N * 8)
    numpy = NumpyBackend()
    expected = ops.interpret(numpy, plan, {"x": numpy.from_rows(rows, PRIMES)})
    expected_rows = numpy.to_rows(expected["out"])
    for lo, hi in rowset[outs[0]]:
        assert out.data[lo:hi].tolist() == expected_rows[lo:hi]


# ---------------------------------------------------- lifetime edge cases


def square_in_ntt_domain(graph):
    """One node reading a value twice."""
    x = graph.input("x")
    image = graph.forward_ntt(x)
    graph.output("out", graph.inverse_ntt(graph.mul(image, image)))


def read_in_own_and_later_stage(graph):
    """A value read in its own stage and, across a stage cut, by a later one."""
    x = graph.input("x")
    image = graph.forward_ntt(x)
    doubled = graph.add(image, image)
    digits = graph.digit_broadcast(image, 1)  # cross-row: next stage
    graph.output("out", graph.add(digits, doubled))


def output_read_by_later_nodes(graph):
    x = graph.input("x")
    y = graph.input("y")
    product = graph.mul(x, y)
    graph.output("product", product)
    graph.output("sum", graph.add(product, y))
    graph.output("negated", graph.neg(product))


def output_that_is_an_input(graph):
    x = graph.input("x")
    y = graph.input("y")
    graph.output("x", x)
    graph.output("difference", graph.sub(x, y))


def dead_node(graph):
    x = graph.input("x")
    y = graph.input("y")
    graph.mul(x, y)  # read by nothing and not an output
    graph.output("out", graph.add(graph.forward_ntt(x), y))


EDGE_CASES = (
    square_in_ntt_domain,
    read_in_own_and_later_stage,
    output_read_by_later_nodes,
    output_that_is_an_input,
    dead_node,
)
EDGE_N = 64
EDGE_PRIMES = tuple(generate_ntt_primes(30, 4, EDGE_N))


@pytest.fixture(scope="module")
def backends():
    pooled = forced_parallel()
    yield {"scalar": ScalarBackend(), "numpy": NumpyBackend(), "parallel": pooled}
    pooled.close()


@pytest.mark.parametrize("backend_name", ("numpy", "scalar", "parallel"))
@pytest.mark.parametrize("build", EDGE_CASES, ids=lambda build: build.__name__)
def test_lifetime_edge_cases_match_the_scalar_oracle(build, backend_name, backends):
    graph = OpGraph()
    build(graph)
    plan = graph.compile()
    rows = {
        name: random_rows(EDGE_PRIMES, EDGE_N, seed)
        for seed, name in enumerate(plan.input_names)
    }
    oracle = backends["scalar"]
    expected = oracle.execute(
        plan,
        {name: oracle.from_rows(value, EDGE_PRIMES) for name, value in rows.items()},
    )
    backend = backends[backend_name]
    inputs = {
        name: backend.from_rows(value, EDGE_PRIMES) for name, value in rows.items()
    }
    dispatches = backend.metrics.value("pool.dispatches")
    outputs = backend.execute(plan, inputs)
    assert set(outputs) == set(plan.output_names)
    for name, tensor in outputs.items():
        assert backend.to_rows(tensor) == oracle.to_rows(expected[name]), name
    for name, tensor in inputs.items():
        assert backend.to_rows(tensor) == rows[name], name  # never written
    if backend_name == "parallel":
        # The fused path ran: one pool round trip per stage.
        stages = len(ops.split_stages(plan))
        assert backend.metrics.value("pool.dispatches") - dispatches == stages


@pytest.mark.parametrize("backend_name", ("numpy", "scalar", "parallel"))
def test_warm_runs_leave_inputs_and_pooled_key_images_unchanged(backend_name):
    backend = {
        "numpy": NumpyBackend, "scalar": ScalarBackend, "parallel": forced_parallel
    }[backend_name]()
    try:
        ctx = HeContext.create(
            HEParams(n=64, plaintext_modulus=17, prime_bits=30, prime_count=4),
            backend=backend,
        )
        encoder, encryptor = ctx.integer_encoder(), ctx.encryptor()
        a, b = (encryptor.encrypt(encoder.encode(value)) for value in (3, 5))
        key = ctx.relinearization_key()
        pipe = ctx.pipeline()
        expr = (pipe.load(a) * pipe.load(b)).relinearize(key)
        first = expr.run()  # cold: seeds the constant pool
        # Key switching binds the key's shift-major polynomials: their images
        # are the pooled ones, and neither layout of the key may be written.
        keys = [poly.tensor for pair in key.shift_major(ctx.backend) for poly in pair]
        images = [ctx._constant_pool.lookup(tensor) for tensor in keys]
        assert None not in images, "a relinearisation key image was not pooled"
        components = [poly.tensor for pair in key.components for poly in pair]
        tensors = (
            [poly.tensor for ct in (a, b) for poly in ct.polys]
            + components + keys + images
        )
        before = [backend.to_rows(tensor) for tensor in tensors]
        warm = [expr.run() for _ in range(2)]
        assert ctx.metrics()["plan.pool.hits"] > 0
        assert [backend.to_rows(tensor) for tensor in tensors] == before
        for result in warm:
            assert [backend.to_rows(p.tensor) for p in result.polys] == [
                backend.to_rows(p.tensor) for p in first.polys
            ]
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()


# ------------------------------------------------------- the static peak


def _bootstrap_reference_plan(monkeypatch, coefficient: bool):
    """The bootstrap circuit's one plan, its inputs and the context's gauge.

    The input ciphertext rests in the NTT domain as encrypted, or in the
    coefficient domain (the same polynomial, as a stored payload carries
    it).
    """
    backend = NumpyBackend()
    ctx = HeContext.create(
        HEParams(n=N, plaintext_modulus=17, prime_bits=30, prime_count=6),
        backend=backend,
    )
    ct = ctx.encryptor().encrypt(ctx.integer_encoder().encode(5))
    if coefficient:
        ct = Ciphertext(
            polys=[poly.to_coefficient() for poly in ct.polys],
            params=ct.params,
            level=ct.level,
        )
    pipe = ctx.pipeline()
    pipe.evaluator = ctx.evaluator(passes="none")
    expr = bootstrap_circuit(
        ctx, pipe, ct, seed=11, c2s_terms=4, eval_depth=1, s2c_terms=4
    )
    calls = []
    execute = backend.execute

    def spy(plan, inputs):
        calls.append((plan, inputs))
        return execute(plan, inputs)

    monkeypatch.setattr(backend, "execute", spy)
    expr.run()
    monkeypatch.undo()
    (plan, inputs), = calls
    return plan, inputs, ctx.metrics()["plan.peak_live_bytes"], execute


def test_peak_live_bytes_gauge_matches_bootstrap_reference_plan(monkeypatch):
    """bootstrap-30's shape: N=4096, six 30-bit primes, passes="none".

    The liveness bound is checked on a coefficient-domain input, whose plan
    transforms it forward as every plan did before ciphertexts rested in
    the NTT domain; an NTT-resident input skips those transforms and
    peaks no higher.  On both, the gauge matches the traced peak.
    """
    gauges = {}
    for coefficient in (True, False):
        plan, inputs, gauge, execute = _bootstrap_reference_plan(
            monkeypatch, coefficient
        )
        gauges[coefficient] = gauge
        input_primes = {name: tensor.primes for name, tensor in inputs.items()}
        every_value = sum(map(len, ops.infer_primes(plan, input_primes))) * N * 8
        assert gauge <= 7 << 20, gauge / (1 << 20)
        if coefficient:
            # Keeping every value alive would cost about 39 MiB.
            assert every_value > 6 * gauge
        input_bytes = sum(inputs[name].data.nbytes for name in plan.input_names)
        peak, _ = traced_peak(lambda: execute(plan, inputs))
        assert abs(peak + input_bytes - gauge) <= 0.1 * gauge, (
            (peak + input_bytes) / (1 << 20),
            gauge / (1 << 20),
        )
    assert gauges[False] <= gauges[True]
