"""Benchmark: plan-optimiser passes vs raw emitted plans.

The compiler subsystem's claim is the paper's lever applied one level up:
NTT/iNTT dominates HE time, so the cheapest transform is the one not run.
This module pins the acceptance criteria of the pass pipeline at a
paper-adjacent shape (``N = 2048``, np = 4):

* **at most 24 NTT rows per run** in steady state (cached plans), for the
  canonical ``multiply → relinearize → mod_switch`` chain and the
  bootstrap-shaped circuit over NTT-resident ciphertexts — I4 F12 I2 F6:
  c2's inverse, the off-diagonal digit rows, the dropped rows of the
  modulus switch and their corrections;
* **the raw plans run the same rows**: ciphertexts, the relinearisation key
  and the circuit's diagonals rest in the NTT domain, so the emitters
  transform only what the cross-row steps need and ``passes="none"`` runs
  those 24 rows too.  The default passes fold, merge and sweep the plumbing
  around them and fold the sums of products.  The counts are static
  properties of the compiled plans and repeat exactly;
* **no wall-time regression**: the optimised steady state must not be slower
  than the unoptimised one (the same transform work in fewer nodes, same
  dispatch structure);
* **every sum of products is one multiply-accumulate node**: the raw plans
  hold ``Mul`` nodes read only by an ``Add``, the optimised plans none;
* **the relinearisation digits are one kernel run**: at bootstrap-30's
  shape (N=4096, six 30-bit primes) the 30 digit rows are whole basis
  repetitions, one ``ntt.engine`` run on numpy and one per worker of a
  forced 2-shard pool.

Steady state is measured the honest way: the first run (compilation) is
excluded, then the metrics delta and best-of timing are taken over warm
executions only.  The CI parallel leg exports this module's timings as
``BENCH_passes.json`` (``--benchmark-json``); node counts of the raw and the
optimised plan ride along in ``extra_info``.
"""

from __future__ import annotations

import collections
import time

from repro.backends import ops
from repro.backends.parallel import ParallelBackend
from repro.compiler import set_default_passes
from repro.he import HeContext, HEParams, bootstrap_circuit
from repro.telemetry import TRACER

N = 2048
PRIME_COUNT = 4
PARAMS = HEParams(
    n=N, plaintext_modulus=65537, prime_bits=45, prime_count=PRIME_COUNT
)
#: Steady-state NTT rows per run of the optimised plans at this shape.
MAX_NTT_ROWS = {"chain": 24, "bootstrap": 24}
MAX_SLOWDOWN = 1.10


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _workload(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))
    return relin, ct_a, ct_b


def _steady_state(context, passes, make_runner):
    """(metrics delta, best-of seconds, compiled plan) for warm executions.

    ``passes`` selects the pipeline for the pipeline's evaluator via the
    process-wide default (restored immediately); the first run pays
    compilation so the measurement is the steady state every later
    execution lives in.
    """
    set_default_passes(passes)
    pipe = context.pipeline()
    set_default_passes(None)
    run = make_runner(pipe)
    run()  # first run: compile
    before = context.metrics()
    run()
    diff = HeContext.metrics_diff(before, context.metrics())
    seconds = _best_of(run)
    (plan, _specs, ntt_rows, *_rest), = pipe.evaluator._plan_cache.values()
    return diff, seconds, plan, ntt_rows


def _products_left_for_an_add(plan) -> list[int]:
    """``Mul`` nodes whose only reader is an ``Add`` (an unfused sum of products)."""
    readers = collections.defaultdict(set)
    for index, node in enumerate(plan.nodes):
        for operand in node.operands():
            readers[operand].add(index)
    outputs = {index for _, index in plan.outputs}
    return [
        index
        for index, node in enumerate(plan.nodes)
        if isinstance(node, ops.Mul)
        and index not in outputs
        and len(readers[index]) == 1
        and isinstance(plan.nodes[next(iter(readers[index]))], ops.Add)
    ]


def _report(label, off, on, t_off, t_on, raw_plan, optimised_plan):
    print()
    print("%s, N=%d, np=%d (steady state)" % (label, N, PRIME_COUNT))
    print(
        "  ntt.invocations : %5d raw -> %5d optimised"
        % (off["ntt.invocations"], on["ntt.invocations"])
    )
    print(
        "  plan nodes      : %5d raw -> %5d optimised"
        % (len(raw_plan), len(optimised_plan))
    )
    print(
        "  wall time       : %7.2f ms raw -> %7.2f ms optimised"
        % (t_off * 1e3, t_on * 1e3)
    )


def _check_rows(off, on, limit):
    """The optimised rows stay within ``limit``, and the raw plan runs the same."""
    assert on["ntt.invocations"] <= limit, (
        "default passes left %d steady-state NTT rows" % on["ntt.invocations"]
    )
    assert off["ntt.invocations"] == on["ntt.invocations"], (
        "the raw plan ran %d NTT rows, the optimised %d"
        % (off["ntt.invocations"], on["ntt.invocations"])
    )


def test_bench_passes_chain_ntt_reduction(benchmark):
    context = HeContext.create(PARAMS, backend="numpy", seed=7)
    relin, ct_a, ct_b = _workload(context)

    def make_runner(pipe):
        expr = (
            (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch()
        )
        return expr.run

    off, t_off, raw_plan, _ = _steady_state(context, "none", make_runner)
    on, t_on, optimised_plan, _ = _steady_state(context, "default", make_runner)
    _report(
        "multiply -> relinearize -> mod_switch",
        off, on, t_off, t_on, raw_plan, optimised_plan,
    )

    benchmark.extra_info["raw_plan_nodes"] = len(raw_plan)
    benchmark.extra_info["optimised_plan_nodes"] = len(optimised_plan)
    benchmark.extra_info["ntt_invocations_raw"] = off["ntt.invocations"]
    benchmark.extra_info["ntt_invocations_optimised"] = on["ntt.invocations"]

    _check_rows(off, on, MAX_NTT_ROWS["chain"])
    # Every sum of products is one multiply-accumulate node.
    assert _products_left_for_an_add(raw_plan)
    assert not _products_left_for_an_add(optimised_plan)
    assert t_on <= t_off * MAX_SLOWDOWN, (
        "optimised steady state regressed wall time: %.2f ms vs %.2f ms"
        % (t_on * 1e3, t_off * 1e3)
    )

    set_default_passes("default")
    pipe = context.pipeline()
    set_default_passes(None)
    run = make_runner(pipe)
    run()  # warm before the harness measures
    benchmark(run)


def test_bench_passes_bootstrap_circuit_ntt_reduction(benchmark):
    context = HeContext.create(PARAMS, backend="numpy", seed=7)
    _, ct, _ = _workload(context)

    def make_runner(pipe):
        expr = bootstrap_circuit(context, pipe, ct, seed=5)
        return expr.run

    off, t_off, raw_plan, _ = _steady_state(context, "none", make_runner)
    on, t_on, optimised_plan, warm_rows = _steady_state(
        context, "default", make_runner
    )
    _report(
        "bootstrap-shaped circuit", off, on, t_off, t_on, raw_plan, optimised_plan
    )

    benchmark.extra_info["raw_plan_nodes"] = len(raw_plan)
    benchmark.extra_info["optimised_plan_nodes"] = len(optimised_plan)
    benchmark.extra_info["ntt_invocations_raw"] = off["ntt.invocations"]
    benchmark.extra_info["ntt_invocations_optimised"] = on["ntt.invocations"]

    _check_rows(off, on, MAX_NTT_ROWS["bootstrap"])
    assert _products_left_for_an_add(raw_plan)
    assert not _products_left_for_an_add(optimised_plan)
    assert t_on <= t_off * MAX_SLOWDOWN

    # The static row count of the compiled plan agrees with the counter:
    # warm executions run exactly the transforms the optimised plan retains.
    assert warm_rows == on["ntt.invocations"]

    set_default_passes("default")
    pipe = context.pipeline()
    set_default_passes(None)
    run = make_runner(pipe)
    run()
    benchmark(run)


def _engine_rows_per_process(backend) -> dict[int, list[int]]:
    """Rows of every ``ntt.engine`` call of one warm bootstrap-30-shaped op, per process."""
    context = HeContext.create(
        HEParams(n=4096, plaintext_modulus=17, prime_bits=30, prime_count=6),
        backend=backend,
        seed=3,
    )
    ct = context.encryptor(seed=5).encrypt(context.integer_encoder().encode(5))
    expr = bootstrap_circuit(
        context, context.pipeline(), ct, seed=11, c2s_terms=4, eval_depth=1, s2c_terms=4
    )
    expr.run()
    expr.run()
    TRACER.clear()
    TRACER.start()
    try:
        expr.run()
    finally:
        TRACER.stop()
    calls = collections.defaultdict(list)
    for event in TRACER.events():
        if event[0] == "B" and event[1] == "ntt.engine":
            calls[event[3]].append(event[7]["rows"])
    TRACER.clear()
    return dict(calls)


def test_relinearisation_digit_batch_is_one_engine_run():
    """bootstrap-30's shape: the 30 digit rows (5 shifts x 6 primes) are
    whole repetitions of the basis, so the numpy kernel transforms them in
    one run, and each worker of a 2-shard pool its 15 rows in one run."""
    (rows,) = _engine_rows_per_process("numpy").values()
    assert rows.count(30) == 1 and sum(rows) == 48, rows
    pool = ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)
    try:
        workers = _engine_rows_per_process(pool)
    finally:
        pool.close()
    assert len(workers) == 2, workers
    for rows in workers.values():
        assert rows.count(15) == 1, workers
