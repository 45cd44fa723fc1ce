"""serve-60: the chain of chain-60 served by ``python -m repro.experiments serve``.

The server runs as its own process with default batching (5 ms window,
max batch 8).  Two client threads of this process keep two requests in
flight (a closed loop), sending request bodies encoded once up front.  The
client reads each reply by its ``Content-Length`` under a timeout; a reply
that is late, not 200 or not bit-for-bit the decrypt-checked result of its
input counts as one failed op.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time

from common import (
    NO_SPANS,
    OUT,
    SRC,
    BenchmarkError,
    Window,
    peak_rss_mb,
    timed_outcome,
)
from local import Chain
from repro.core.serialization import ciphertext_to_dict
from repro.service.protocol import build_request
from repro.service.tenants import params_hash

OPS = ("multiply", "relinearize", "mod_switch")
#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0
#: Seconds a fresh server may take to answer its health check.
START_TIMEOUT = 60.0
#: Requests kept in flight, equal to the cores the benchmark is sized for.
CALLERS = 2


def request(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    """One HTTP exchange; the reply body is read by its Content-Length."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """A ``python -m repro.experiments serve --backend numpy`` child process."""

    def __init__(self, tag: str, trace_path: str | None = None) -> None:
        self.port = free_port()
        command = [
            sys.executable, "-m", "repro.experiments", "serve",
            "--backend", "numpy", "--port", str(self.port),
        ]
        if trace_path is not None:
            command += ["--trace", trace_path]
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        os.makedirs(OUT, exist_ok=True)
        self._log = open(os.path.join(OUT, "server-%s.log" % tag), "wb")
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=self._log
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchmarkError("the server exited with code %d" % self.proc.returncode)
            try:
                status, _ = request(self.port, "GET", "/v1/healthz")
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.02)
        raise BenchmarkError("the server did not answer within %.0f s" % START_TIMEOUT)

    def metrics(self) -> dict:
        status, body = request(self.port, "GET", "/v1/metrics")
        if status != 200:
            raise BenchmarkError("GET /v1/metrics answered %d" % status)
        return json.loads(body)

    def stop(self) -> None:
        """Interrupt the server (it flushes its trace) and wait until it ends."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class ServeData:
    """Request bodies and expected results, from a decrypt-checked local chain.

    The chain's inputs come from the seed exactly as in chain-60; the local
    reference session runs the same chain on a fresh numpy backend and
    decrypt-checks every result once.
    """

    def __init__(self, seed: int, spans=NO_SPANS, keep_session: bool = False, chain=None) -> None:
        chain = chain or Chain()
        self.params = chain.spec.params
        self.data = chain.data(seed)
        self.session = chain.reference_session(self.data, spans)
        self.failed = self.session.failed
        self.expected = [ciphertext_to_dict(result) for result in self.session.results]
        self.input_dicts = [
            (ciphertext_to_dict(a), ciphertext_to_dict(b)) for a, b in self.session.inputs
        ]
        self.bodies = [
            json.dumps(
                build_request(self.params, OPS, list(pair), seed=self.data.key_seed)
            ).encode("utf-8")
            for pair in self.input_dicts
        ]
        self.tenant = params_hash(self.params, self.data.key_seed)
        if not keep_session:
            self.session.close()
            self.session = None

    def check(self, index: int, status: int, body: bytes) -> bool:
        return status == 200 and json.loads(body)["result"] == self.expected[index]


class Served:
    """One server session: launch, first verified reply, warm-up of every input."""

    def __init__(self, serve_data: ServeData, tag: str, trace_path: str | None = None) -> None:
        self.serve_data = serve_data
        self.attempted = 0
        self.failed = 0
        start = time.perf_counter()
        self.server = ServerProcess(tag, trace_path)
        try:
            self.server.wait_ready()
            self._verify(0)
            self.setup_s = time.perf_counter() - start
            for index in range(1, len(serve_data.bodies)):
                self._verify(index)
        except BaseException:
            self.server.stop()
            raise

    def _verify(self, index: int) -> None:
        self.attempted += 1
        try:
            ok = self.op(index)[1]
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            ok = False
        self.failed += not ok

    def op(self, index: int):
        slot = index % len(self.serve_data.bodies)
        start = time.perf_counter()
        status, body = request(self.server.port, "POST", "/v1/compute", self.serve_data.bodies[slot])
        latency = time.perf_counter() - start
        return latency, self.serve_data.check(slot, status, body)

    def tenant_metrics(self) -> dict:
        return self.server.metrics()["tenants"][self.serve_data.tenant]

    def counted_ops(self, ops: int = 8) -> dict:
        """Per-request program counters of the tenant over sequential requests."""
        before = self.tenant_metrics()
        failed = sum(not self.op(index)[1] for index in range(ops))
        after = self.tenant_metrics()

        def per_op(name):
            return (after.get(name, 0) - before.get(name, 0)) / ops

        return {
            "compiler.ntt_rows_per_op": per_op("ntt.invocations"),
            "compiler.pool_hits_per_op": per_op("plan.pool.hits"),
            "pool.dispatches_per_op": per_op("pool.dispatches"),
            "backend.conversions_per_op": per_op("conversions.rows"),
            "backend.fallback_rows_per_op": per_op("fallback.rows"),
            "pool.shm_peak_mb": (after.get("shm.bytes_in_use") or 0) / float(1 << 20),
            "_attempted": ops,
            "_failed": failed,
        }

    def service_stats(self, before: dict, window: Window) -> dict:
        """Server-side time per request in each stage, batch occupancy and the
        HTTP overhead over ``window`` (``before`` is ``server.metrics()`` at
        its start).  Means from the histograms' exact totals: their
        percentiles are log-bucket midpoints that repeat run after run."""
        after = self.server.metrics()

        def mean(scope, name):
            old = before[scope].get(name) or {"total": 0.0, "count": 0}
            new = after[scope][name]
            return (new["total"] - old["total"]) / (new["count"] - old["count"])

        scope = "tenants"
        before[scope] = before[scope][self.serve_data.tenant]
        after[scope] = after[scope][self.serve_data.tenant]
        stats = {
            "service.%s_ms" % stage: mean(scope, "service.latency.%s_seconds" % stage) * 1e3
            for stage in ("queue", "batch_wait", "execute", "serialize", "total")
        }
        client_ms = sum(window.latencies) / len(window.latencies) * 1e3
        stats["service.http_overhead_ms"] = client_ms - stats["service.total_ms"]
        stats["service.batch_occupancy"] = mean("server", "service.batch_size")
        return stats

    def ntt_totals(self) -> tuple[float, float]:
        """(NTT self seconds, total self seconds) traced so far by the server."""
        ntt = self.server.metrics()["ntt"]
        total = ntt.get("total_self_seconds") or 0.0
        return (ntt.get("measured_share") or 0.0) * total, total

    def close(self) -> None:
        self.server.stop()


def service_probe(serve_data: ServeData, seconds: float, spans=NO_SPANS) -> tuple[dict, int, int]:
    """The service rung for workloads that run no server of their own.

    A short two-caller window against a fresh server at the serve-60 shape;
    returns the ``service.*`` metrics with the ops attempted and failed.
    """
    with spans.span("service.probe"):
        served = Served(serve_data, "probe")
        try:
            before = served.server.metrics()
            window = Window(seconds, callers=CALLERS, min_ops=20).run(served.op)
            stats = served.service_stats(before, window)
        finally:
            served.close()
    return (
        stats,
        served.attempted + window.attempted,
        served.failed + len(window.failures),
    )


class Serve:
    """serve-60 driver (``chain`` gives the shape; chain-60's by default)."""

    sessions = 3

    def __init__(self, chain=None) -> None:
        self.chain = chain

    def measure(self, seed: int, seconds: float) -> tuple[dict, dict]:
        serve_data = ServeData(seed, chain=self.chain)
        attempted, failed = len(serve_data.expected), serve_data.failed
        setups = []
        served = None
        for number in range(self.sessions):
            if served is not None:
                served.close()
            served = Served(serve_data, "seed%d-%d" % (seed, number))
            setups.append(served.setup_s)
            attempted += served.attempted
            failed += served.failed
        try:
            window = Window(seconds, callers=CALLERS).run(served.op)
            rss = peak_rss_mb(served.server.pid)
            choices = served.tenant_metrics().get("ntt.engine_choices")
        finally:
            served.close()
        return timed_outcome(setups, window, rss, attempted, failed, choices)
