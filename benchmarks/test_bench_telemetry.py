"""Benchmarks: telemetry overhead, disabled and enabled.

The tracing seam wraps every hot kernel (`forward_ntt_batch`, `mul`, ...)
and the plan executor, so the subsystem's contract is that the *disabled*
path costs nothing a workload can notice: one attribute check per call.
This module pins that contract on the fused multiply → relinearize →
mod_switch chain by timing the instrumented stack (tracing off) against
the same stack with the span wrappers stripped (``uninstrumented()``),
and asserting the overhead stays under 5%.

A second pin covers the *enabled* path end to end: a served HTTP request
with tracing **and** the sampling profiler on must stay within 10% of the
telemetry-off request — the budget that makes "run production with
observability on" a defensible default for the serving layer.

Both run at ``N = 2048, np = 4`` on the numpy backend with a pinned
engine — large enough that real arithmetic dominates, small enough that
best-of-N timing is cheap.  Results are checked bit-identical across the
two configurations before anything is timed.
"""

from __future__ import annotations

import time

from repro.backends.base import uninstrumented
from repro.backends.numpy_backend import NumpyBackend
from repro.he import HeContext, HEParams

N = 2048
PRIME_COUNT = 4
ENGINE = "high_radix"  # pin one engine: isolate the instrumentation
MAX_OVERHEAD = 1.05  # the <5% acceptance criterion
SERVED_MAX_OVERHEAD = 1.10  # tracing + profiler on a served request: <10%
BEST_OF = 9
ATTEMPTS = 3  # re-measure on a noisy-runner miss before failing


def _interleaved_best_of(a, b, repeats=BEST_OF):
    """Best-of timings for two callables with alternating samples, so a
    load spike on a shared runner hits both sides instead of biasing one."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _build_chain():
    params = HEParams(
        n=N, plaintext_modulus=17, prime_bits=30, prime_count=PRIME_COUNT
    )
    context = HeContext.create(
        params, backend=NumpyBackend(engine=ENGINE), seed=7
    )
    encryptor = context.encryptor(seed=11)
    evaluator = context.evaluator()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(context.integer_encoder().encode(3))
    ct_b = encryptor.encrypt(context.integer_encoder().encode(5))

    def chain():
        return evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )

    return chain


def test_bench_telemetry_disabled_overhead(benchmark):
    as_rows = lambda ct: [p.to_coeff_lists() for p in ct.polys]

    # Instrumented stack, tracing off — the production configuration.
    chain = _build_chain()
    wrapped_result = as_rows(chain())  # warm: plan compile, twiddle tables

    # Same stack with the span wrappers stripped off the backend methods.
    # uninstrumented() rebinds *class* attributes and method lookup is
    # dynamic, so which variant runs is decided per call by whether the
    # chain executes inside the context — the same warm backend serves
    # both timings.
    bare_chain = _build_chain()
    with uninstrumented():
        bare_result = as_rows(bare_chain())
    assert bare_result == wrapped_result

    def run_bare():
        with uninstrumented():
            bare_chain()

    ratio = float("inf")
    for attempt in range(ATTEMPTS):
        wrapped_s, bare_s = _interleaved_best_of(chain, run_bare)
        ratio = min(ratio, wrapped_s / bare_s)
        if ratio <= MAX_OVERHEAD:
            break

    print()
    print(
        "multiply -> relinearize -> mod_switch, N=%d, np=%d, numpy, "
        "engine=%s" % (N, PRIME_COUNT, ENGINE)
    )
    print("  uninstrumented        : %8.2f ms" % (bare_s * 1e3))
    print("  instrumented (off)    : %8.2f ms" % (wrapped_s * 1e3))
    print("  overhead              : %8.2f%%" % ((ratio - 1.0) * 100.0))
    benchmark(chain)
    assert ratio <= MAX_OVERHEAD, (
        "disabled telemetry costs %.1f%% (budget is %.0f%%)"
        % ((ratio - 1.0) * 100.0, (MAX_OVERHEAD - 1.0) * 100.0)
    )


def test_bench_served_request_observability_overhead(benchmark):
    """Tracing + sampling profiler on a served request: < 10% overhead.

    Times the full HTTP round trip (client serialise → server batch →
    execute → serialise back) against a live in-process server, with the
    tracer and profiler toggled per sample — interleaved like the disabled
    pin above, so runner noise hits both configurations equally.
    """
    from repro.service import ServerThread, ServiceClient
    from repro.telemetry import PROFILER, TRACER

    params = HEParams(
        n=N, plaintext_modulus=17, prime_bits=30, prime_count=PRIME_COUNT
    )
    context = HeContext.create(params, backend=NumpyBackend(engine=ENGINE), seed=7)
    encryptor = context.encryptor(seed=11)
    encoder = context.integer_encoder()
    ct_a = encryptor.encrypt(encoder.encode(3))
    ct_b = encryptor.encrypt(encoder.encode(5))
    ops = ["multiply", "relinearize", "mod_switch"]

    TRACER.stop()
    TRACER.clear()
    try:
        with ServerThread(
            backend="numpy", batch_window=0.0, max_batch=1
        ) as server:
            client = ServiceClient("127.0.0.1", server.port)

            def request():
                return client.compute_raw(params, ops, [ct_a, ct_b], seed=7)

            baseline = request()  # warm: tenant build, plan compile
            TRACER.start()
            PROFILER.start()
            try:
                traced = request()
            finally:
                TRACER.stop()
                PROFILER.stop()
            # Observability must never change results.
            assert traced["result"] == baseline["result"]
            TRACER.clear()

            ratio = float("inf")
            for attempt in range(ATTEMPTS):
                best_off = best_on = float("inf")
                for _ in range(BEST_OF):
                    start = time.perf_counter()
                    request()
                    best_off = min(best_off, time.perf_counter() - start)
                    TRACER.start()
                    PROFILER.start()
                    try:
                        start = time.perf_counter()
                        request()
                        best_on = min(best_on, time.perf_counter() - start)
                    finally:
                        TRACER.stop()
                        PROFILER.stop()
                    TRACER.clear()
                ratio = min(ratio, best_on / best_off)
                if ratio <= SERVED_MAX_OVERHEAD:
                    break

            print()
            print(
                "served %s, N=%d, np=%d, numpy, engine=%s"
                % ("+".join(ops), N, PRIME_COUNT, ENGINE)
            )
            print("  telemetry off         : %8.2f ms" % (best_off * 1e3))
            print("  tracing + profiler    : %8.2f ms" % (best_on * 1e3))
            print("  overhead              : %8.2f%%" % ((ratio - 1.0) * 100.0))
            benchmark(request)
    finally:
        TRACER.stop()
        TRACER.clear()
        PROFILER.stop()
        PROFILER.reset()
    assert ratio <= SERVED_MAX_OVERHEAD, (
        "served-request observability costs %.1f%% (budget is %.0f%%)"
        % ((ratio - 1.0) * 100.0, (SERVED_MAX_OVERHEAD - 1.0) * 100.0)
    )
