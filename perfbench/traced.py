"""The traced run: one workload attributed to the library's layers.

Separate from the timed runs.  Benchmark-side spans wrap every call this
run makes into the library (set-up steps, each op, HTTP requests, kernel
calls at the workloads' shapes) and are written to ``.perfbench/`` at the
end.  Program counters come from ``HeContext.metrics()``/``metrics_diff``
and ``GET /v1/metrics``; the NTT self share from the library's own
``telemetry.summarize`` over a window run with the library's tracer on.

Every traced run reports every per-layer metric.  The kernel rungs (modular
multiply, NTT, serialisation, ``execute_group``) are taken at fixed shapes
in every run, and chain-60 and bootstrap-30 take the service rung from a
short probe against a server at the serve-60 shape.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from common import OUT, Spans, Window, fault_counters, reap_children, spanned, write_record
from local import Bootstrap, Chain
from serve import CALLERS, OPS, ServeData, Served, service_probe
from repro.backends import wideops
from repro.backends.registry import build_backend
from repro.core.serialization import ciphertext_from_dict, ciphertext_to_dict
from repro.service.batching import execute_group
from repro.service.tenants import TenantCache
from repro.telemetry import TRACER, summarize
from repro.telemetry.metrics import MetricsRegistry

#: Row counts of the chain's NTT batches (N=4096, 6 primes; 90 rows per op):
#: forward 24 (both size-2 operands) and 36 (the relinearisation digits),
#: inverse 18 (the size-3 product) and 12 (the relinearised pair).
FORWARD_ROWS = (24, 36)
INVERSE_ROWS = (18, 12)
REPEATS = 5
#: Seconds of the service probe run by workloads without a server.
PROBE_SECONDS = 3.0


def timed(spans, name: str, call, repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` calls, after one untimed warm-up call."""
    call()
    samples = []
    for _ in range(repeats):
        with spans.span(name):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def autotune_seconds() -> float:
    """Total of the tracer's ``ntt.autotune`` spans: the auto-tuner's races."""
    return summarize(TRACER.events())["names"].get("ntt.autotune", {}).get("total", 0.0)


# -- kernel rungs ----------------------------------------------------------------


def random_rows(rng, primes, n: int) -> list[list[int]]:
    return [rng.integers(0, p, size=n, dtype=np.uint64).tolist() for p in primes]


def kernel_rungs(chain_params, boot_params, spans, seed: int) -> tuple[dict, dict]:
    """Modular multiply at 60 bits and the NTT engine at 60 and 30 bits."""
    rng = np.random.default_rng(seed)
    metrics: dict = {}
    choices: dict = {}
    n = chain_params.n
    chain_primes = chain_params.make_basis().primes
    p = chain_primes[0]
    a = rng.integers(0, p, size=(len(chain_primes), n), dtype=np.uint64)
    b = rng.integers(0, p, size=(len(chain_primes), n), dtype=np.uint64)
    seconds = timed(spans, "wideops.mulmod", lambda: wideops.mulmod(a, b, p), 30)
    metrics["wideops.mulmod_ns_per_elem.60"] = seconds / a.size * 1e9
    for params in (chain_params, boot_params):
        bits = params.prime_bits
        primes = params.make_basis().primes
        backend = build_backend("numpy")
        for direction, batches, method in (
            ("fwd", FORWARD_ROWS, backend.forward_ntt_batch),
            ("inv", INVERSE_ROWS, backend.inverse_ntt_batch),
        ):
            total = 0.0
            coefficients = 0
            for rows in batches:
                row_primes = [primes[i % len(primes)] for i in range(rows)]
                tensor = backend.from_rows(random_rows(rng, row_primes, n), row_primes)
                total += timed(
                    spans, "backend.%s_ntt_batch.%d" % (direction, bits),
                    lambda: method(tensor),
                )
                coefficients += rows * n
            metrics["ntt.%s_ns_per_coef.%d" % (direction, bits)] = total / coefficients * 1e9
        choices[bits] = backend.engine_choices
    return metrics, choices


def backend_rungs(spec, spans, seed: int) -> dict:
    """Pointwise and RNS backend ops on the workload's backend and shape."""
    rng = np.random.default_rng(seed + 1)
    backend = build_backend(spec.backend)
    if spec.shards is not None:
        backend.set_shards(spec.shards)
    try:
        n = spec.params.n
        primes = list(spec.params.make_basis().primes)
        pair = primes * 2  # a size-2 ciphertext
        a = backend.from_rows(random_rows(rng, pair, n), pair)
        b = backend.from_rows(random_rows(rng, pair, n), pair)
        one = backend.from_rows(random_rows(rng, primes, n), primes)
        t = spec.params.plaintext_modulus
        calls = {
            "backend.mul": lambda: backend.mul(a, b),
            "backend.add": lambda: backend.add(a, b),
            "backend.digit_broadcast": lambda: backend.digit_broadcast(one, 0),
            "backend.mod_switch": lambda: backend.mod_switch_drop_last(one, t),
        }
        return {name + "_ms": timed(spans, name, call, 20) * 1e3 for name, call in calls.items()}
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
        reap_children()


def serialization_rungs(serve_data, spans) -> dict:
    """One ciphertext at the serve shape through ``core.serialization``."""
    backend = build_backend("numpy")
    payload = serve_data.input_dicts[0][0]
    ciphertext = ciphertext_from_dict(payload, backend=backend)
    return {
        "serialization.to_dict_ms": timed(
            spans, "serialization.to_dict", lambda: ciphertext_to_dict(ciphertext)
        ) * 1e3,
        "serialization.from_dict_ms": timed(
            spans, "serialization.from_dict",
            lambda: ciphertext_from_dict(payload, backend=backend),
        ) * 1e3,
    }


def execute_group_rungs(serve_data, spans) -> tuple[dict, int]:
    """``execute_group`` called directly on a ``TenantCache`` tenant, k = 1 and 2."""
    cache = TenantCache(MetricsRegistry(), backend="numpy")
    try:
        tenant = cache.get(serve_data.params, serve_data.data.key_seed)
        backend = tenant.context.backend
        requests = [
            [ciphertext_from_dict(payload, backend=backend) for payload in pair]
            for pair in serve_data.input_dicts[:2]
        ]
        first = execute_group(tenant, OPS, requests[:1])[0]
        failed = int(ciphertext_to_dict(first) != serve_data.expected[0])
        metrics = {
            "service.execute_group_ms.k%d" % k: timed(
                spans, "service.execute_group.k%d" % k,
                lambda: execute_group(tenant, OPS, requests[:k]), 3,
            ) * 1e3
            for k in (1, 2)
        }
    finally:
        cache.close()
    return metrics, failed


# -- workload parts ----------------------------------------------------------------


def he_metrics(spans, import_s: float) -> dict:
    return {
        "he.context_create_s": statistics.median(spans.durations("he.context_create")),
        "he.relin_keygen_s": statistics.median(spans.durations("he.relin_keygen")),
        "he.encrypt_ms": statistics.median(spans.durations("he.encrypt")) * 1e3,
        "he.first_op_s": statistics.median(spans.durations("he.first_op")),
        "he.import_s": import_s,
    }


def trace_local(workload, seed: int, seconds: float, spans) -> tuple[dict, dict, int, int]:
    data = workload.data(seed)
    digests, failed_reference = workload.reference(data)
    TRACER.clear()
    TRACER.start()
    try:
        session, _, attempted, failed = workload.sessions(data, digests, 1, spans)
    finally:
        TRACER.stop()
    attempted += len(digests)
    failed += failed_reference
    metrics = {"ntt.autotune_s": autotune_seconds()}
    TRACER.clear()
    try:
        counts = workload.counted_ops(session)
        plain, os_metrics = workload.os_window(session, seconds / 2, spans)
        TRACER.start()
        try:
            traced = Window(seconds / 2, min_ops=20).run(spanned(session.op, spans, "op"))
        finally:
            TRACER.stop()
        metrics["ntt.self_share"] = summarize(TRACER.events())["ntt_share"]
        TRACER.clear()
        metrics["compiler.compile_ms"] = workload.compile_ms(session)
        choices = session.ctx.metrics().get("ntt.engine_choices")
    finally:
        session.close()
    attempted += counts.pop("_attempted") + plain.attempted + traced.attempted
    failed += counts.pop("_failed") + len(plain.failures) + len(traced.failures)
    metrics.update(counts)
    metrics.update(os_metrics)
    metrics["trace.overhead_pct"] = _overhead(plain, traced)
    return metrics, {"engine_choices": choices, "probes": plain.probes + traced.probes}, attempted, failed


def _overhead(plain: Window, traced: Window) -> float:
    return (
        statistics.median(traced.latencies) / statistics.median(plain.latencies) - 1.0
    ) * 100.0


def trace_serve(serve_data, seed: int, seconds: float, spans) -> tuple[dict, dict, int, int]:
    metrics: dict = {}
    attempted = len(serve_data.expected)
    failed = serve_data.failed
    with spans.span("service.session"):
        served = Served(serve_data, "trace-seed%d" % seed)
    sessions = [served]
    try:
        counts = served.counted_ops()
        service_before = served.server.metrics()
        before = fault_counters(served.server.pid)
        plain = Window(seconds / 2, callers=CALLERS, min_ops=20).run(
            spanned(served.op, spans, "http.compute")
        )
        after = fault_counters(served.server.pid)
        metrics.update(served.service_stats(service_before, plain))
        choices = served.tenant_metrics().get("ntt.engine_choices")
    finally:
        served.close()
    ops = max(plain.attempted, 1)
    metrics["os.minor_faults_per_op"] = (after[0] - before[0]) / ops
    metrics["os.sys_ms_per_op"] = (after[1] - before[1]) * 1e3 / ops
    with spans.span("service.session"):
        served = Served(
            serve_data, "trace-traced-seed%d" % seed,
            trace_path=os.path.join(OUT, "server-trace-seed%d.json" % seed),
        )
    sessions.append(served)
    try:
        ntt_before, total_before = served.ntt_totals()
        traced = Window(seconds / 2, callers=CALLERS, min_ops=20).run(
            spanned(served.op, spans, "http.compute")
        )
        ntt_after, total_after = served.ntt_totals()
    finally:
        served.close()
    metrics["ntt.self_share"] = (ntt_after - ntt_before) / (total_after - total_before)
    metrics["trace.overhead_pct"] = _overhead(plain, traced)
    attempted += counts.pop("_attempted") + plain.attempted + traced.attempted
    attempted += sum(session.attempted for session in sessions)
    failed += counts.pop("_failed") + len(plain.failures) + len(traced.failures)
    failed += sum(session.failed for session in sessions)
    metrics.update(counts)
    return metrics, {"engine_choices": choices, "probes": plain.probes + traced.probes}, attempted, failed


def trace(name: str, seed: int, seconds: float, import_s: float, workloads=None) -> tuple[dict, dict]:
    """Every per-layer metric of workload ``name``; returns ``(outcome, info)``.

    ``workloads`` maps ``"chain"`` and ``"bootstrap"`` to the workload
    objects whose shapes the run uses (the benchmark's own by default).
    """
    workloads = workloads or {"chain": Chain(), "bootstrap": Bootstrap()}
    chain = workloads["chain"]
    spans = Spans()
    if name == "serve-60":
        TRACER.clear()
        TRACER.start()
        try:
            serve_data = ServeData(seed, spans, keep_session=True, chain=chain)
        finally:
            TRACER.stop()
        metrics = {"ntt.autotune_s": autotune_seconds()}
        TRACER.clear()
        metrics["compiler.compile_ms"] = chain.compile_ms(serve_data.session)
        serve_data.session.close()
        part, info, attempted, failed = trace_serve(serve_data, seed, seconds, spans)
        metrics.update(part)
        spec = chain.spec
    else:
        workload = workloads["chain" if name == "chain-60" else "bootstrap"]
        metrics, info, attempted, failed = trace_local(workload, seed, seconds, spans)
        serve_data = ServeData(seed, chain=chain)
        attempted += len(serve_data.expected)
        failed += serve_data.failed
        service, probe_attempted, probe_failed = service_probe(serve_data, PROBE_SECONDS, spans)
        metrics.update(service)
        attempted += probe_attempted
        failed += probe_failed
        spec = workload.spec
    metrics.update(he_metrics(spans, import_s))
    kernels, kernel_choices = kernel_rungs(
        chain.spec.params, workloads["bootstrap"].spec.params, spans, seed
    )
    metrics.update(kernels)
    metrics.update(backend_rungs(spec, spans, seed))
    metrics.update(serialization_rungs(serve_data, spans))
    groups, group_failed = execute_group_rungs(serve_data, spans)
    metrics.update(groups)
    attempted += 1
    failed += group_failed
    probes = info.pop("probes")
    metrics["host.probe_ms"] = statistics.median(probes)
    info["kernel_engine_choices"] = kernel_choices
    info["spans"] = write_record("spans-%s-seed%d.json" % (name, seed), spans.table())
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, info
