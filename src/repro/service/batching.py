"""Cross-request batching: many in-flight requests, one wide fused plan.

The paper's throughput claim is that an HE workload is ``np x polys``
*independent* NTTs and the hardware wants them as one wide batch.  Inside a
single operation the evaluator already exploits that (every pending
polynomial rides one ``Concat -> ForwardNtt -> SliceRows`` node group); this
module applies the same claim **across requests**: ``k`` concurrent requests
for the same tenant and op chain become ``k`` :meth:`HeContext.pipeline`
expressions lowered together by :meth:`~repro.he.pipeline.Pipeline.run_many`
into *one* plan.  The compiler decides the width: stages are cut by
dependency level, so the riders' transforms share stages, and the
``batch_ntt`` pass merges them into nodes ``k`` times wider.  The shared
relinearisation key, which rests in the NTT domain, is bound once.  The
group plan is compiled once per ``(ops, k, shape)`` into the tenant
pipeline's plan cache, so steady-state traffic executes straight from the
cache.

Because every node is exact modular arithmetic on independent rows, the
batched plan is **bit-for-bit identical** to per-request execution — width
changes how the work is scheduled, never what is computed (the property the
service tests pin on all three backends).

:class:`CrossRequestBatcher` is the asyncio half: requests submitted within
one batching window (or until ``max_batch``) coalesce per group signature,
the group executes on the server's single HE executor thread, and each
caller's future resolves with its own slice of the result.
"""

from __future__ import annotations

import asyncio
import operator
import time
from concurrent.futures import Executor

from ..he.ciphertext import Ciphertext
from ..he.pipeline import CiphertextExpr
from ..telemetry import TRACER, profile_tag
from ..telemetry.metrics import MetricsRegistry
from .tenants import Tenant

__all__ = ["execute_group", "group_signature", "CrossRequestBatcher"]


# -- group execution (synchronous) ----------------------------------------------------

#: How each opening op combines its (lazy) ciphertext arguments.
_FIRST_OPS = {
    "multiply": operator.mul,
    "add": operator.add,
    "sub": operator.sub,
    "square": CiphertextExpr.square,
    "negate": operator.neg,
}


def group_signature(tenant_key: str, ops: tuple[str, ...], cts: list[Ciphertext]) -> tuple:
    """The coalescing key: requests with equal signatures share one plan.

    Captures everything that shapes the group plan — tenant, op chain, and
    per-input structure (component count, domains, prime chain).  Levels
    are deliberately absent: they are metadata carried per request.
    """
    return (
        tenant_key,
        tuple(ops),
        tuple(
            (
                len(ct.polys),
                tuple(poly.domain.value for poly in ct.polys),
                tuple(ct.basis.primes),
            )
            for ct in cts
        ),
    )


def execute_group(
    tenant: Tenant, ops: tuple[str, ...], requests: list[list[Ciphertext]]
) -> list[Ciphertext]:
    """Run the same op chain for every request as one fused plan.

    Args:
        tenant: The tenant whose pipeline/plan-cache/key material is used.
        ops: The validated op chain (``protocol.validate_request`` output).
        requests: One entry per request — the ciphertext arguments of the
            chain's first op.  All entries must share the same structure
            (the batcher's :func:`group_signature` guarantees it).

    Returns:
        One result ciphertext per request, in submission order, bit-for-bit
        equal to executing the chain per request.
    """
    if not requests:
        return []
    if len({group_signature(tenant.key, ops, request) for request in requests}) > 1:
        raise ValueError("cannot batch requests with different shapes")
    pipe = tenant.pipeline
    key = tenant.context.relinearization_key() if "relinearize" in ops else None
    exprs = []
    for request in requests:
        expr = _FIRST_OPS[ops[0]](*(pipe.load(ct) for ct in request))
        for op in ops[1:]:
            if op == "relinearize":
                expr = expr.relinearize(key)
            elif op == "mod_switch":
                expr = expr.mod_switch()
            else:  # negate
                expr = -expr
        exprs.append(expr)
    return pipe.run_many(exprs)


# -- asyncio coalescing ---------------------------------------------------------------


class _Item:
    """One rider of a batch: its inputs, its future, and its identity.

    ``request_id``/``root_sid`` carry the serving layer's observability
    context into the flush: the batch span is parented under the first
    rider's root and attributes itself to every rider's request id, and each
    rider's window wait is measured from its own ``submitted`` stamp.
    """

    __slots__ = ("cts", "future", "request_id", "root_sid", "submitted")

    def __init__(
        self,
        cts: "list[Ciphertext]",
        future: asyncio.Future,
        request_id: str | None,
        root_sid: str | None,
    ) -> None:
        self.cts = cts
        self.future = future
        self.request_id = request_id
        self.root_sid = root_sid
        self.submitted = time.perf_counter()


class _Group:
    __slots__ = ("tenant", "ops", "items", "timer", "flushed")

    def __init__(self, tenant: Tenant, ops: tuple[str, ...]) -> None:
        self.tenant = tenant
        self.ops = ops
        self.items: list[_Item] = []
        self.timer: asyncio.Task | None = None
        self.flushed = False


class CrossRequestBatcher:
    """Coalesce concurrent compute requests into :func:`execute_group` calls.

    The first request of a group signature opens a batching window of
    ``window_s`` seconds; requests with the same signature arriving within
    it join the group.  The group flushes when the window elapses or
    ``max_batch`` requests have joined, whichever is first.  With
    ``max_batch=1`` every request executes alone — the serial baseline the
    service benchmark compares against.

    Args:
        executor: The (single-thread) executor all HE work runs on.
        metrics: Registry receiving ``service.batches`` /
            ``service.batched_requests`` and the ``service.batch_size``
            histogram (the server passes its root).
        window_s: Batching window in seconds.
        max_batch: Flush-now threshold; also the width cap of group plans.
    """

    def __init__(
        self,
        executor: Executor,
        metrics: MetricsRegistry | None = None,
        window_s: float = 0.005,
        max_batch: int = 8,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._executor = executor
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics.declare("service.batches", "service.batched_requests")
        self.window_s = window_s
        self.max_batch = max_batch
        self._pending: dict[tuple, _Group] = {}

    async def submit(
        self,
        tenant: Tenant,
        ops: tuple[str, ...],
        cts: list[Ciphertext],
        request_id: str | None = None,
        root_sid: str | None = None,
    ) -> tuple[Ciphertext, int]:
        """Queue one request; resolves to ``(result, batch size it rode in)``.

        ``request_id``/``root_sid`` (the server's correlation id and open
        ``service.request`` span) attribute the shared batch span to every
        rider and parent it under the first rider's request tree.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        item = _Item(cts, future, request_id, root_sid)
        if self.max_batch == 1:
            group = _Group(tenant, ops)
            group.items.append(item)
            self._launch_flush(None, group, loop)
            return await future
        signature = group_signature(tenant.key, ops, cts)
        group = self._pending.get(signature)
        if group is None:
            group = _Group(tenant, ops)
            self._pending[signature] = group
            group.timer = loop.create_task(self._timed_flush(signature, group))
        group.items.append(item)
        if len(group.items) >= self.max_batch:
            self._launch_flush(signature, group, loop)
        return await future

    async def _timed_flush(self, signature: tuple, group: _Group) -> None:
        try:
            await asyncio.sleep(self.window_s)
        except asyncio.CancelledError:
            return
        if not group.flushed:
            self._launch_flush(signature, group, asyncio.get_running_loop())

    def _launch_flush(
        self, signature: tuple | None, group: _Group, loop: asyncio.AbstractEventLoop
    ) -> None:
        group.flushed = True
        if signature is not None and self._pending.get(signature) is group:
            del self._pending[signature]
        if group.timer is not None and group.timer is not asyncio.current_task():
            group.timer.cancel()
        loop.create_task(self._flush(group, loop))

    async def _flush(self, group: _Group, loop: asyncio.AbstractEventLoop) -> None:
        items = group.items
        requests = [item.cts for item in items]
        size = len(items)
        flush_started = time.perf_counter()
        registry = group.tenant.registry
        for item in items:
            registry.observe(
                "service.latency.batch_wait_seconds",
                flush_started - item.submitted,
            )
        # One batch span shared by every rider: parented under the *first*
        # rider's request root, attributed to all of them via request_ids
        # (spantree.request_tree grafts it into the other riders' trees).
        first_root = next(
            (item.root_sid for item in items if item.root_sid is not None), None
        )
        rider_ids = tuple(
            item.request_id for item in items if item.request_id is not None
        )

        def run():
            with profile_tag("tenant:%s" % group.tenant.key):
                with TRACER.span_under(
                    first_root,
                    "service.batch",
                    tenant=group.tenant.key,
                    size=size,
                    ops="+".join(group.ops),
                    request_ids=rider_ids,
                ):
                    return execute_group(group.tenant, group.ops, requests)

        try:
            results = await loop.run_in_executor(self._executor, run)
        except Exception as exc:
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        registry.observe(
            "service.latency.execute_seconds", time.perf_counter() - flush_started
        )
        self._metrics.inc("service.batches")
        self._metrics.inc("service.batched_requests", size)
        self._metrics.observe("service.batch_size", size)
        for item, result in zip(items, results):
            if not item.future.done():
                item.future.set_result((result, size))
