"""The asyncio HE server: stdlib HTTP/JSON over ``asyncio.start_server``.

Architecture (all stdlib, no web framework):

* the **event loop** owns connection handling, request parsing and the
  batching windows — it never executes HE work, so it stays responsive to
  new arrivals while a batch computes (that responsiveness is what lets
  batches form);
* one **HE executor thread** (``ThreadPoolExecutor(max_workers=1)``) owns
  every touch of backend state: tenant construction, ciphertext
  deserialisation, group execution, response serialisation.  One thread
  means zero backend locking and a meaningful serial baseline — parallelism
  comes from batch *width* on the sharded backend underneath, exactly the
  paper's claim;
* the :class:`~repro.service.batching.CrossRequestBatcher` sits between
  them, coalescing concurrent ``POST /v1/compute`` bodies for the same
  tenant + op chain + shape into one fused plan.

Routes:

* ``POST /v1/compute`` — one op chain over submitted ciphertexts;
* ``GET /v1/metrics`` — the server's root registry snapshot plus one
  snapshot per tenant as JSON, or the Prometheus text exposition format
  when the request ``Accept``\\ s ``text/plain``;
* ``GET /v1/trace/<request_id>`` — the reassembled span tree of one
  served request (requires tracing: ``serve --trace`` / ``REPRO_TRACE``);
* ``GET /v1/dashboard`` — a self-contained live HTML dashboard polling
  the JSON metrics;
* ``GET /v1/healthz`` — liveness plus build/runtime facts (uptime,
  protocol version, backend, shards, live tenant count).

Observability: every request carries a ``request_id`` (client-chosen or
server-minted), which names its root ``service.request`` span, its
access-log line (``--access-log`` / ``REPRO_ACCESS_LOG``) and every error
body.  Per-stage latencies (queue wait, batch-window wait, execute,
serialize, total) land in percentile histograms on the tenant registries.

:class:`ServerThread` hosts the whole loop on a daemon thread for tests,
benchmarks and the in-process load-generator example; ``main()`` is the
``python -m repro.experiments serve`` entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.serialization import ciphertext_from_dict, ciphertext_to_dict
from ..telemetry import (
    PROFILER,
    REQUEST_SPAN,
    TRACER,
    JsonLinesLog,
    enable_profiling,
    enable_tracing,
    maybe_enable_from_env,
    maybe_enable_profiling_from_env,
    profile_tag,
    request_tree,
    summarize,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..telemetry.prometheus import render_registries
from .batching import CrossRequestBatcher
from .dashboard import DASHBOARD_HTML
from .protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    jsonable,
    new_request_id,
    validate_request,
)
from .tenants import TenantCache

__all__ = ["HeServer", "ServerThread", "main"]

#: Largest request body accepted (a ciphertext at large parameters is a few
#: MB of residue strings, about 22 bytes each in format 2; this bounds hostile
#: payloads, not legitimate ones).
MAX_BODY_BYTES = 64 << 20

#: Set to a file path to JSON-lines-log every request the server handles.
ACCESS_LOG_ENV_VAR = "REPRO_ACCESS_LOG"

#: The NTT self-time share of GPU bootstrapping the paper reports; the
#: metrics payload carries it next to the live measured share.
PAPER_NTT_SHARE = 0.5004

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error"}

_JSON_TYPE = "application/json"


class HeServer:
    """The serving core: tenant cache + batcher + request handlers.

    Args:
        backend: Registry name each tenant's dedicated backend is built
            from (``None`` honours ``REPRO_BACKEND``).
        shards: Shard count for sharding tenant backends.
        max_batch: Cross-request batch width cap (``1`` disables
            coalescing — the serial baseline).
        batch_window: Seconds the first request of a group waits for
            companions before the batch flushes.
        access_log: Where to JSON-lines-log every handled request — a
            path, a ``write()``-able stream, or a prebuilt
            :class:`~repro.telemetry.log.JsonLinesLog` (``None`` disables).
    """

    def __init__(
        self,
        backend: str | None = None,
        shards: int | None = None,
        max_batch: int = 8,
        batch_window: float = 0.005,
        access_log=None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.metrics.declare(
            "service.requests",
            "service.errors",
            "service.errors.4xx",
            "service.errors.5xx",
            "service.batches",
            "service.batched_requests",
        )
        self.tenants = TenantCache(self.metrics, backend=backend, shards=shards)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-he"
        )
        self.batcher = CrossRequestBatcher(
            self._executor,
            metrics=self.metrics,
            window_s=batch_window,
            max_batch=max_batch,
        )
        self._started = time.perf_counter()
        if access_log is None or isinstance(access_log, JsonLinesLog):
            self.access_log = access_log
        else:
            self.access_log = JsonLinesLog(access_log)

    def close(self) -> None:
        """Release every tenant backend, the HE executor and the access log."""
        self.tenants.close()
        self._executor.shutdown(wait=True)
        if self.access_log is not None:
            self.access_log.close()

    # -- connection handling -----------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        try:
            status, content_type, body, log = await self._dispatch(reader)
            if self.access_log is not None:
                self.access_log.write(
                    "request",
                    status=status,
                    duration_ms=round((time.perf_counter() - started) * 1e3, 3),
                    **log,
                )
            writer.write(
                (
                    "HTTP/1.1 %d %s\r\n"
                    "Content-Type: %s\r\n"
                    "Content-Length: %d\r\n"
                    "Connection: close\r\n\r\n"
                    % (status, _REASONS.get(status, "Error"), content_type, len(body))
                ).encode("ascii")
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    def _count_error(self, status: int) -> None:
        self.metrics.inc("service.errors")
        if 400 <= status < 500:
            self.metrics.inc("service.errors.4xx")
        elif status >= 500:
            self.metrics.inc("service.errors.5xx")

    def _json(self, status: int, payload: dict, log: dict) -> tuple:
        return status, _JSON_TYPE, json.dumps(payload).encode("utf-8"), log

    def _error(self, status: int, message: str, log: dict) -> tuple:
        """An error response; the body always names the request id so a
        failure correlates with its access-log line and trace."""
        self._count_error(status)
        log["error"] = message
        return self._json(
            status, {"error": message, "request_id": log.get("request_id")}, log
        )

    async def _dispatch(self, reader: asyncio.StreamReader) -> tuple:
        """Route one request; returns ``(status, content type, body bytes,
        access-log fields)``."""
        # Mint a correlation id up front so even a request that dies during
        # parsing has one; _compute swaps in the client's own id.
        log: dict = {"request_id": new_request_id()}
        try:
            method, path, request_body, headers = await self._read_request(reader)
        except ServiceError as exc:
            return self._error(exc.status, exc.message, log)
        log["method"] = method
        log["path"] = path
        try:
            if method == "POST" and path == "/v1/compute":
                return self._json(200, await self._compute(request_body, log), log)
            if method == "GET" and path == "/v1/metrics":
                accept = headers.get("accept", "")
                if "text/plain" in accept or "openmetrics" in accept:
                    text = render_registries(
                        self.metrics,
                        {
                            key: tenant.registry
                            for key, tenant in self.tenants.tenants().items()
                        },
                    )
                    return (
                        200,
                        PROMETHEUS_CONTENT_TYPE,
                        text.encode("utf-8"),
                        log,
                    )
                return self._json(200, self._metrics_payload(), log)
            if method == "GET" and path == "/v1/healthz":
                return self._json(200, self._health_payload(), log)
            if method == "GET" and path.startswith("/v1/trace/"):
                request_id = path[len("/v1/trace/"):]
                log["request_id"] = request_id
                return self._json(200, self._trace_payload(request_id), log)
            if method == "GET" and path == "/v1/dashboard":
                return (
                    200,
                    "text/html; charset=utf-8",
                    DASHBOARD_HTML.encode("utf-8"),
                    log,
                )
            return self._error(404, "no route for %s %s" % (method, path), log)
        except ServiceError as exc:
            return self._error(exc.status, exc.message, log)
        except ValueError as exc:
            # HE-layer shape/ring rejections are client mistakes, not crashes.
            return self._error(400, str(exc), log)
        except Exception as exc:  # pragma: no cover - defensive
            return self._error(500, "%s: %s" % (type(exc).__name__, exc), log)

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bytes, dict]:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                raise ServiceError(400, "malformed HTTP request line")
            method, path = parts[0], parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("ascii", "replace").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length > MAX_BODY_BYTES:
                raise ServiceError(413, "request body exceeds %d bytes" % MAX_BODY_BYTES)
            body = await reader.readexactly(length) if length else b""
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(400, "malformed HTTP request: %s" % exc) from None
        return method, path, body, headers

    # -- routes ------------------------------------------------------------------
    async def _compute(self, body: bytes, log: dict) -> dict:
        arrived = time.perf_counter()
        self.metrics.inc("service.requests")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServiceError(400, "request body is not valid JSON: %s" % exc) from None
        params, seed, ops, ct_payloads, client_rid = validate_request(payload)
        request_id = client_rid if client_rid is not None else log["request_id"]
        log["request_id"] = request_id
        # The request root is opened with begin()/end(), never a context
        # manager: the handler is suspended across awaits, and a span held
        # on the thread-local stack across an await would misparent every
        # concurrently-running handler's spans.
        root = TRACER.begin(REQUEST_SPAN, request_id=request_id, ops="+".join(ops))
        try:
            loop = asyncio.get_running_loop()
            # Tenant construction and ciphertext reconstruction are backend
            # work — they run on the HE thread, keeping the loop free to
            # coalesce the requests arriving meanwhile.
            tenant, cts = await loop.run_in_executor(
                self._executor, self._prepare, params, seed, ct_payloads, arrived, root
            )
            log["tenant"] = tenant.key
            result, batch_size = await self.batcher.submit(
                tenant, ops, cts, request_id=request_id, root_sid=root
            )
            log["batch_size"] = batch_size
            response = await loop.run_in_executor(
                self._executor, self._serialize, tenant, result, root
            )
            tenant.registry.observe(
                "service.latency.total_seconds", time.perf_counter() - arrived
            )
            return {
                "format_version": PROTOCOL_VERSION,
                "request_id": request_id,
                "tenant": tenant.key,
                "batch_size": batch_size,
                "result": response,
            }
        finally:
            TRACER.end(root, REQUEST_SPAN)

    def _prepare(self, params, seed, ct_payloads, arrived, root):
        tenant = self.tenants.get(params, seed)
        # Queue wait: arrival on the loop until the HE thread picks it up.
        tenant.registry.observe(
            "service.latency.queue_seconds", time.perf_counter() - arrived
        )
        with profile_tag("tenant:%s" % tenant.key):
            with TRACER.span_under(root, "service.prepare", tenant=tenant.key):
                cts = [
                    ciphertext_from_dict(payload, backend=tenant.context.backend)
                    for payload in ct_payloads
                ]
        return tenant, cts

    def _serialize(self, tenant, result, root):
        started = time.perf_counter()
        with profile_tag("tenant:%s" % tenant.key):
            with TRACER.span_under(root, "service.serialize", tenant=tenant.key):
                payload = ciphertext_to_dict(result)
        tenant.registry.observe(
            "service.latency.serialize_seconds", time.perf_counter() - started
        )
        return payload

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            "format_version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.perf_counter() - self._started, 6),
            "backend": self.tenants.backend_name(),
            "shards": self.tenants.shards,
            "tenants": len(self.tenants.tenants()),
            "tracing": TRACER.enabled,
            "profiling": PROFILER.running,
        }

    def _trace_payload(self, request_id: str) -> dict:
        tree = request_tree(TRACER.events(), request_id)
        if tree is None:
            if not TRACER.enabled:
                raise ServiceError(
                    409,
                    "tracing is not enabled on this server "
                    "(start it with --trace or REPRO_TRACE)",
                )
            raise ServiceError(
                404,
                "no trace for request id %r (traces exist only for requests "
                "served while tracing was on)" % request_id,
            )
        return {
            "format_version": PROTOCOL_VERSION,
            "request_id": request_id,
            "trace": jsonable(tree),
        }

    @staticmethod
    def _tenant_payload(tenant) -> dict:
        """Context metrics plus the tenant registry's ``service.*`` stats
        (per-stage latency percentiles; what the dashboard charts)."""
        merged = dict(tenant.metrics())
        for name, value in tenant.registry.snapshot().items():
            if name.startswith("service."):
                merged[name] = value
        return jsonable(merged)

    def _metrics_payload(self) -> dict:
        payload = {
            "format_version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.perf_counter() - self._started, 6),
            "server": jsonable(self.metrics.snapshot()),
            "tenants": {
                key: self._tenant_payload(tenant)
                for key, tenant in self.tenants.tenants().items()
            },
        }
        # The measured NTT self-time share, live, next to the paper's
        # number — the dashboard's headline comparison.
        ntt = {"paper_share": PAPER_NTT_SHARE, "traced": TRACER.enabled}
        if TRACER.enabled:
            stats = summarize(TRACER.events())
            ntt["measured_share"] = stats["ntt_share"]
            ntt["total_self_seconds"] = stats["total_self_seconds"]
        else:
            ntt["measured_share"] = None
        payload["ntt"] = ntt
        return payload

    # -- serving -----------------------------------------------------------------
    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: "threading.Event | None" = None,
        stop: "asyncio.Event | None" = None,
        bound: "list | None" = None,
    ) -> None:
        """Accept connections until ``stop`` is set (forever when ``None``)."""
        server = await asyncio.start_server(self.handle_connection, host, port)
        try:
            if bound is not None:
                bound.append(server.sockets[0].getsockname()[1])
            if ready is not None:
                ready.set()
            if stop is None:
                async with server:
                    await server.serve_forever()
            else:
                async with server:
                    await stop.wait()
        finally:
            self.close()


class ServerThread:
    """Context manager hosting an :class:`HeServer` loop on a daemon thread.

    The with-block receives the started instance with :attr:`port` bound —
    what the tests, the service benchmark and the in-process load-generator
    example use to stand up a real server without blocking the caller.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **server_kwargs) -> None:
        self.host = host
        self.port = port
        self.server = HeServer(**server_kwargs)
        self._ready = threading.Event()
        self._bound: list[int] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.serve(
            self.host, self.port, ready=self._ready, stop=self._stop,
            bound=self._bound,
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failure = exc
            self._ready.set()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-he-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        if not self._bound:
            raise RuntimeError("server did not bind within 30s")
        self.port = self._bound[0]
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: ``python -m repro.experiments serve [options]``."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments serve",
        description="Serve homomorphic ciphertext ops over HTTP/JSON with "
        "cross-request batching.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8793)
    parser.add_argument(
        "--backend",
        default=None,
        help="registry backend name for tenant contexts (default: REPRO_BACKEND "
        "or the registry default)",
    )
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count for sharding backends")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="cross-request batch width cap (1 = no batching)")
    parser.add_argument("--batch-window", type=float, default=0.005,
                        help="batching window in seconds")
    parser.add_argument("--trace", default=None,
                        help="write a Chrome-trace JSON capture to this path")
    parser.add_argument("--profile", default=None,
                        help="write a collapsed-stack sampling profile "
                        "(flamegraph.pl input) to this path")
    parser.add_argument("--access-log", default=None,
                        help="JSON-lines access log path (default: "
                        "REPRO_ACCESS_LOG)")
    args = parser.parse_args(argv)
    if args.trace is not None:
        enable_tracing(args.trace)
    else:
        maybe_enable_from_env()
    if args.profile is not None:
        enable_profiling(args.profile)
    else:
        maybe_enable_profiling_from_env()
    access_log = args.access_log or os.environ.get(ACCESS_LOG_ENV_VAR) or None
    server = HeServer(
        backend=args.backend,
        shards=args.shards,
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        access_log=access_log,
    )
    print(
        "serving HE ops on http://%s:%d (backend=%s, max_batch=%d, window=%gs)"
        % (args.host, args.port, args.backend or "default", args.max_batch,
           args.batch_window),
        flush=True,
    )
    try:
        asyncio.run(server.serve(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI smoke
    raise SystemExit(main())
