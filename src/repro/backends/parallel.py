"""Sharded multi-core backend: the paper's wide-batch claim on every CPU.

The GPU realises Fig. 3's ``np x (number of polynomials)`` independent NTTs
as one device-wide launch; this backend realises the same batch-parallelism
with what every CI machine has — cores.  :class:`ParallelBackend` wraps an
*inner* backend (default ``numpy``) and shards every residue-matrix
operation — batched forward/inverse NTT, pointwise add/sub/neg/mul and
multiply-accumulate, scalar multiplication, RNS digit decomposition and
modulus switching — by
contiguous row groups over the ``(prime, polynomial)`` batch axis across a
persistent pool of worker processes (:mod:`repro.backends.pool`).

There is one shard protocol: :meth:`ParallelBackend.execute` cuts a plan
into stages and sends one task per worker per stage.  A node kernel
(``forward_ntt_batch``, ``add``, ...) above the crossover builds a one-node
plan and runs it through ``execute``.

Three properties make the sharding pay rather than tax:

* **Zero-pickle, resident payloads** — :class:`ParallelTensor` storage
  for every modulus below the uint64 window lives in a refcounted
  ``multiprocessing.shared_memory`` segment; a stage task pickles only
  segment names, row ranges, node records and primes, and the worker maps
  the same physical pages for input and output.  The pages stay put
  between runs: each worker keeps every segment it maps until the
  coordinator releases it, each cached plan shape reuses its intermediate
  stage storage, and a heap input moves into shared memory once.  A warm
  run of a cached plan creates only its plan-output segments.  Rows whose
  prime is at or above the 2^62 storage window (never generated by this
  repository's parameter sets) are exact Python lists and always run
  inline.
* **Work-threshold crossover** — small shapes never see the pool: below
  ``transform_threshold`` (transforms) / ``pointwise_threshold``
  (everything else, measured in residues ``count * n``) the operation runs
  inline on the embedded inner backend, so toy parameter sets pay no pool
  tax and storage stays on the heap below the crossover.
* **Warm shards** — each worker holds one long-lived inner backend, so its
  twiddle tables are built once per worker and every later shard reuses
  them; workers and the inline path build their inner backends from the
  same registered factory, so they run the same array kernel.

Shard count resolution: explicit ``shards=`` argument >
:func:`repro.backends.pool.set_default_shards` > ``REPRO_SHARDS`` >
``os.cpu_count() - 1`` (at least 1; a single-shard backend never
dispatches).  Bit-for-bit interchangeability with the scalar and numpy
backends — at 30- and 60-bit primes — is pinned by
``tests/test_parallel_backend.py``; the multi-core speedup and the
crossover by ``benchmarks/test_bench_parallel.py``.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from ..telemetry import TRACER
from . import ops
from .base import ComputeBackend, ResidueRows, ResidueTensor
from .numpy_backend import STORAGE_LIMIT, store_rows
from .pool import (
    ShmRef,
    WorkerPool,
    _inner_tensor,
    _result_parts,
    get_arena,
    resolve_shard_count,
)
from .registry import build_backend

__all__ = [
    "DEFAULT_POINTWISE_THRESHOLD",
    "DEFAULT_TRANSFORM_THRESHOLD",
    "PLAN_INFO_CACHE_ENTRIES",
    "ParallelBackend",
    "ParallelTensor",
]

#: Residue count (``rows * n``) above which transforms go to the pool.  A
#: forward NTT does O(n log n) work per row, so the pool's per-dispatch
#: overhead amortises at moderate sizes (N=4096 from a batch of 8 up).
DEFAULT_TRANSFORM_THRESHOLD = 1 << 15
#: Residue count above which pointwise/RNS operations go to the pool.  These
#: are O(1) array ops per residue — the pool only wins once matrices are
#: enormous, so the crossover sits much higher than for transforms.
DEFAULT_POINTWISE_THRESHOLD = 1 << 21
#: Plan shapes whose fused schedule a backend instance keeps, least
#: recently used first out.
PLAN_INFO_CACHE_ENTRIES = 256


class ParallelTensor(ResidueTensor):
    """Residue tensor whose uint64 storage may live in shared memory.

    Above the backend's shared-memory threshold ``data`` is a view into a
    refcounted :class:`~repro.backends.pool.SharedSegment` (``segment``,
    with ``offset_rows`` locating the view for worker-side mapping); below
    it, a plain heap ndarray (``segment is None``) — small tensors never
    touch ``/dev/shm``.  Rows wider than the storage window are exact
    Python rows in ``big`` with zero placeholder rows in ``data``, exactly
    as on the numpy backend.
    """

    __slots__ = ("data", "big", "segment", "offset_rows", "__weakref__")

    def __init__(
        self, backend, primes, n, data, big=None, segment=None, offset_rows=0
    ) -> None:
        super().__init__(backend, primes, n)
        self.data = data
        self.big: dict[int, list[int]] = big if big is not None else {}
        self.segment = None
        self.offset_rows = offset_rows
        if segment is not None:
            self._hold(segment)

    def _hold(self, segment) -> None:
        """Take this tensor's reference on the segment its ``data`` views."""
        self.segment = segment
        segment.incref()
        weakref.finalize(self, segment.decref)

    def shared_buffer(self) -> ShmRef | None:
        if self.segment is None:
            return None
        return (self.segment.name, self.offset_rows, self.count, self.n)


class ParallelBackend(ComputeBackend):
    """Shard every batched operation of an inner backend across processes.

    Args:
        inner: Registry name of the backend each worker (and the inline
            path) executes — any registered backend except ``parallel``
            itself.  Every one of them is built by the registered factory,
            so a factory such as ``lambda: NumpyBackend(engine=spec)`` pins
            the inline path and the workers alike.
        shards: Worker/shard count; ``None`` applies the documented
            resolution (default > ``REPRO_SHARDS`` > ``cpu_count - 1``).
        transform_threshold: ``rows * n`` at which transforms dispatch.
        pointwise_threshold: ``rows * n`` at which everything else does.
    """

    name = "parallel"

    def __init__(
        self,
        inner: str = "numpy",
        shards: int | None = None,
        transform_threshold: int = DEFAULT_TRANSFORM_THRESHOLD,
        pointwise_threshold: int = DEFAULT_POINTWISE_THRESHOLD,
    ) -> None:
        super().__init__()
        if inner == self.name:
            raise ValueError("the parallel backend cannot wrap itself")
        self._inner_name = inner
        # A fresh factory-built instance, like each worker's own.
        self._inner = build_backend(inner)
        self._shards = resolve_shard_count(shards)
        self._transform_threshold = transform_threshold
        self._pointwise_threshold = pointwise_threshold
        self._shm_threshold = min(transform_threshold, pointwise_threshold)
        self._pool = WorkerPool(self._shards, inner)
        # Fused scheduling memo: (plan, bound input primes, shard count) →
        # the derived stages/row schedules.  Everything in the value is a
        # pure function of the key, so repeated executions of a cached plan
        # (the hot path the evaluator's plan cache creates) skip the
        # per-call scheduling work entirely.  Least recently used entries
        # go beyond PLAN_INFO_CACHE_ENTRIES: pooled one-node plans land here
        # too, and a ScalarMul node carries its scalar.
        self._plan_info_cache: OrderedDict[tuple, dict] = OrderedDict()
        # Where pool page faults come from: segments this backend created,
        # and segments sent to a worker that did not hold them yet.
        self.metrics.declare("shm.segments", "pool.segment_maps")
        # Kernel choices the workers reported with their task replies.
        self._pool_engine_choices: dict = {}
        self.metrics.set_gauge("shm.bytes_in_use", lambda: get_arena().bytes_in_use)
        self.metrics.set_gauge("ntt.engine_choices", lambda: self.engine_choices)

    # -- introspection ---------------------------------------------------------
    @property
    def inner(self) -> ComputeBackend:
        """The embedded inner backend executing the inline (sub-crossover) path."""
        return self._inner

    @property
    def shards(self) -> int:
        """Resolved shard/worker count of this backend instance."""
        return self._shards

    @property
    def dispatch_count(self) -> int:
        """Pool round trips so far — the fusion acceptance counter.

        One dispatch is one synchronous submit-and-gather of a task set
        across the worker pool: one plan *stage* (a node kernel above the
        crossover is a one-node plan, so one stage), the CPU analogue of a
        GPU kernel launch.
        Worker-side work never dispatches further (workers hold plain inner
        backends), so — like :attr:`conversion_count`, whose worker-side
        deltas are mirrored here per dispatch — the counter is complete
        across the process boundary: a chain that dispatched N times reads
        exactly N, wherever the work ran.  Shim over
        ``metrics.value("pool.dispatches")``.
        """
        return self.metrics.value("pool.dispatches")

    def reset_dispatch_count(self) -> None:
        """Zero the pool round-trip counter (test/benchmark helper)."""
        self.metrics.zero("pool.dispatches")

    @property
    def pool_running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool.running

    def set_shards(self, count: int | None) -> None:
        """Re-resolve the shard count and rebuild the pool at the new width."""
        self._shards = resolve_shard_count(count)
        self._pool.dispose()
        self._pool = WorkerPool(self._shards, self._inner_name)

    def close(self) -> None:
        """Shut down the worker processes (the next dispatch restarts them)."""
        self._pool.dispose()

    @property
    def engine_choices(self):
        """Shapes run on a fixed kernel, inline or in the pool workers.

        The coordinator's inline inner backend records its own shapes; each
        worker reports the shapes its shards ran with the first task reply
        after it ran them, and the records merge here.
        """
        choices = dict(self._pool_engine_choices)
        choices.update(getattr(self._inner, "engine_choices", {}))
        return choices

    def warm_twiddles(self, n: int, primes: Sequence[int]) -> None:
        self._inner.warm_twiddles(n, primes)

    # -- storage ---------------------------------------------------------------
    def _allocate(self, count: int, n: int, force_shm: bool = False):
        elements = count * n
        if elements and (force_shm or elements >= self._shm_threshold):
            segment = get_arena().allocate(elements * 8)
            self.metrics.inc("shm.segments")
            data = np.frombuffer(
                segment.shm.buf, dtype=np.uint64, count=elements
            ).reshape(count, n)
            return data, segment
        return np.zeros((count, n), dtype=np.uint64), None

    def _ref(self, tensor: ParallelTensor) -> ShmRef:
        # The task-payload descriptor IS the contract capability — one
        # layout, defined once on the tensor.
        return tensor.shared_buffer()

    def _dispatchable(self, tensor: ParallelTensor, threshold: int) -> bool:
        # Rows at or above the storage window (``big``) always run inline.
        return (
            self._shards > 1
            and tensor.segment is not None
            and not tensor.big
            and tensor.count >= 2
            and tensor.count * tensor.n >= threshold
        )

    # -- inline bridging (sub-crossover path through the inner backend) -------
    def _inline(self, operation):
        """Run an inner-backend operation, mirroring its boundary crossings.

        The embedded inner backend charges its own conversion and fallback
        counters (a non-array inner crosses the list boundary per op; the
        numpy inner charges its per-prime fallback for rows at or above the
        2^62 storage window, which only ever run here); mirroring the deltas
        keeps this backend's counters honest to the ``base.py`` contract —
        the resident array path stays at zero either way.
        """
        before = self._inner.conversion_count
        fallback_before = self._inner.fallback_rows
        result = operation()
        self._count_conversion(self._inner.conversion_count - before)
        self._count_fallback(self._inner.fallback_rows - fallback_before)
        return result

    def _to_inner(self, tensor: ParallelTensor):
        # Zero-copy for an array inner backend (inner operations never
        # mutate their inputs, so the handle may alias our storage);
        # list-boundary entry otherwise — shared with the worker runtime.
        return _inner_tensor(
            self._inner, tensor.primes, tensor.n, tensor.data, tensor.big
        )

    def _from_inner(self, result) -> ParallelTensor:
        data, big = _result_parts(self._inner, result)
        elements = result.count * result.n
        if elements and elements >= self._shm_threshold:
            stored, segment = self._allocate(result.count, result.n)
            stored[:] = data
            data = stored
        else:
            # Adopt the result array: the embedded inner backend is private
            # to this instance and its operations return fresh storage, so
            # no copy is needed on the sub-crossover (heap) path.
            segment = None
        return ParallelTensor(self, result.primes, result.n, data, dict(big), segment)

    # -- boundary conversions --------------------------------------------------
    def from_rows(self, rows: ResidueRows, primes: Sequence[int]) -> ParallelTensor:
        self._check_rows_shape(rows, primes)
        self._count_conversion(len(rows))
        n = len(rows[0]) if rows else 0
        data, segment = self._allocate(len(rows), n)
        return ParallelTensor(self, primes, n, data, store_rows(data, rows, primes), segment)

    def to_rows(self, tensor: ResidueTensor) -> list[list[int]]:
        self._check_owned(tensor)
        self._count_conversion(tensor.count)
        rows = tensor.data.tolist()
        for index, row in tensor.big.items():
            rows[index] = list(row)
        return rows

    # -- fused plan execution --------------------------------------------------
    def _ensure_shared(self, tensor: ParallelTensor) -> ParallelTensor:
        """The tensor, backed by a mappable segment (migrating heap storage).

        Sub-crossover tensors live on the heap; a fused dispatch needs every
        plan input in shared memory, so a heap input's rows move into a
        segment once (a memcpy — no boundary conversion is charged) and the
        tensor is re-pointed at them.  Tensors are immutable, so no reader
        can tell; later runs find it shared and the heap copy is freed.
        """
        if tensor.segment is None and tensor.count:
            data, segment = self._allocate(tensor.count, tensor.n, force_shm=True)
            data[:] = tensor.data
            tensor.data = data
            tensor._hold(segment)
        return tensor

    def _plan_info(self, plan, input_primes: tuple) -> dict:
        """Derive (once per plan shape) everything static about a fused run.

        The inferred per-value primes, stage cuts, stage outputs, each
        stage's release lists (:func:`repro.backends.ops.last_uses` over the
        stage) and per-worker row schedules depend only on ``(plan, bound
        input primes, shard count)`` — cached so repeated executions of an
        evaluator-cached plan pay zero scheduling overhead.  ``schedules``
        is ``None`` when the scheduler found misaligned operand row sets
        (the caller falls back to per-op interpretation).  A pooled run
        also parks its reusable stage storage in the entry (``storage``,
        see :meth:`_stage_out`), so the storage dies with the entry when
        the LRU evicts it.
        """
        key = (plan, input_primes, self._shards)
        info = self._plan_info_cache.get(key)
        if info is not None:
            self._plan_info_cache.move_to_end(key)
            return info
        primes = ops.infer_primes(plan, dict(input_primes))
        replicated = ops.replicated_values(plan)
        stages = ops.split_stages(plan, replicated)
        stage_outs = ops.stage_outputs(plan, stages)
        available = {
            index
            for index, node in enumerate(plan.nodes)
            if isinstance(node, ops.Input)
        }
        schedules: list | None = []
        for stage in stages:
            schedule = ops.shard_stage(
                plan, stage, primes, available, self._shards, replicated
            )
            if schedule is None:
                schedules = None
                break
            schedules.append(schedule)
            available.update(stage)
        info = {
            "primes": primes,
            "max_count": max((len(value_primes) for value_primes in primes), default=0),
            # A correction node can map onto primes no input carries.
            "big": any(p >= STORAGE_LIMIT for value in primes for p in value),
            "has_transform": any(
                isinstance(node, (ops.ForwardNtt, ops.InverseNtt))
                for node in plan.nodes
            ),
            "stages": stages,
            "stage_outs": stage_outs,
            # Per stage: the values each worker computes in full, and the
            # operands they read in full (whose primes every task carries).
            "replicated": [
                tuple(vid for vid in stage if vid in replicated) for stage in stages
            ],
            "replicated_reads": [
                {
                    operand
                    for vid in stage
                    if vid in replicated
                    for operand in plan.nodes[vid].operands()
                }
                for stage in stages
            ],
            "plan_outputs": {index for _, index in plan.outputs},
            "releases": [ops.last_uses(plan, stage) for stage in stages],
            "schedules": schedules,
        }
        self._plan_info_cache[key] = info
        if len(self._plan_info_cache) > PLAN_INFO_CACHE_ENTRIES:
            self._plan_info_cache.popitem(last=False)
        return info

    def execute(self, plan, inputs) -> dict[str, ResidueTensor]:
        """Execute a plan as fused per-worker stages.

        (Tracing wrapper; the execution itself is :meth:`_execute_plan`.)
        This is the backend's one way into the pool: a node kernel above the
        crossover runs as a one-node plan through here, so every pool task
        is a plan stage.  The plan is cut into stages at cross-row nodes
        (:func:`repro.backends.ops.split_stages`) whose source the workers
        cannot compute in full from plan inputs themselves
        (:func:`repro.backends.ops.replicated_values`); each stage is one pool
        round trip submitting **one task per worker** that carries the whole
        stage's node records, their release lists and that worker's row
        ranges for every value.  Intermediates stay on the workers' heaps,
        each dropped after its last reader in the stage; only stage outputs
        (values a later stage or the caller needs) are materialised into
        shared memory, each written as soon as a worker produces it.  Plan
        outputs get fresh segments; every other stage output is written
        into storage the cached plan shape keeps from run to run.  Plan
        inputs, the key pairs included, are read and never written; a
        heap input moves into shared memory on its first run.  A
        ``multiply → relinearize → mod_switch`` chain therefore costs one
        dispatch per homomorphic op instead of one per backend method — the
        CPU analogue of replaying a captured GPU graph.

        Falls back to the generic per-op interpreter (which also frees each
        value after its last reader) for plans fusion cannot shard: a
        single-shard backend, inputs with rows at or above the 2^62 storage
        window, or operand row sets the scheduler cannot align.  Each node
        kernel it calls then runs inline or as a one-node plan, and a
        one-node plan always schedules.  Plans below the work-threshold
        crossover run inline on the embedded inner backend without touching
        the pool at all.
        """
        if not TRACER.enabled:
            return self._execute_plan(plan, inputs)
        with TRACER.span(
            "plan.execute", backend=self.name, nodes=len(plan.nodes)
        ):
            return self._execute_plan(plan, inputs)

    def _execute_plan(self, plan, inputs) -> dict[str, ResidueTensor]:
        tensors: dict[str, ParallelTensor] = ops.gather_inputs(plan, inputs)
        for tensor in tensors.values():
            self._check_owned(tensor)
        lengths = {tensor.n for tensor in tensors.values()}
        if len(lengths) > 1:
            raise ValueError("all tensors in a plan must share n")
        n = lengths.pop() if lengths else 0
        if (
            self._shards <= 1
            or not n
            or any(tensor.big for tensor in tensors.values())
        ):
            # Nothing to fuse across — skip the scheduling work entirely.
            return ops.interpret(self, plan, inputs)
        info = self._plan_info(
            plan, tuple((name, tensor.primes) for name, tensor in tensors.items())
        )
        peak = info["max_count"] * n
        threshold = (
            self._transform_threshold
            if info["has_transform"]
            else self._pointwise_threshold
        )
        if peak < threshold:
            inner_inputs = {
                name: self._to_inner(tensor) for name, tensor in tensors.items()
            }
            return self._inline(
                lambda: {
                    name: self._from_inner(result)
                    for name, result in self._inner.execute(
                        plan, inner_inputs
                    ).items()
                }
            )
        primes = info["primes"]
        if info["big"] or info["schedules"] is None:
            # Rows at or above the storage window, or operand row sets that
            # misalign — dispatch nothing and run the plan correctly, one op
            # at a time.
            return ops.interpret(self, plan, inputs)

        storage: dict[int, ParallelTensor] = {
            index: self._ensure_shared(tensors[node.name])
            for index, node in enumerate(plan.nodes)
            if isinstance(node, ops.Input)
        }
        # Stage values the caller never sees reuse this shape's storage from
        # run to run.  The run takes it out of the entry until it succeeds,
        # so an overlapping run of the same shape allocates its own.
        kept: dict[int, ParallelTensor] = info.pop("storage", None) or {}
        stages = zip(
            info["stages"],
            info["stage_outs"],
            info["releases"],
            info["schedules"],
            info["replicated"],
            info["replicated_reads"],
        )
        for stage_index, (
            stage, outs, releases, schedule, replicated, replicated_reads
        ) in enumerate(stages):
            produced = {vid: self._stage_out(kept, info, vid, n) for vid in outs}
            referenced: set[int] = set()
            for vid in stage:
                referenced.update(plan.nodes[vid].operands())
            stage_inputs = {
                vid: storage[vid]
                for vid in referenced
                if vid in storage and storage[vid].segment is not None
            }
            tasks = {}
            for worker, rowset in enumerate(schedule):
                if not any(rowset[vid] for vid in stage if vid not in replicated):
                    continue  # this worker owns no rows of anything produced
                task_primes = {vid: primes[vid] for vid in rowset}
                task_primes.update((vid, primes[vid]) for vid in replicated_reads)
                tasks[worker] = {
                    "n": n,
                    "nodes": [(vid, plan.nodes[vid]) for vid in stage],
                    "releases": releases,
                    "rowsets": rowset,
                    "replicated": replicated,
                    "primes": task_primes,
                    "inputs": {
                        vid: self._ref(tensor) for vid, tensor in stage_inputs.items()
                    },
                    "outputs": {vid: self._ref(produced[vid]) for vid in outs},
                }
            if tasks:
                if TRACER.enabled:
                    with TRACER.span(
                        "plan.stage",
                        stage=stage_index,
                        nodes=len(stage),
                        tasks=len(tasks),
                    ):
                        self._dispatch(tasks)
                else:
                    self._dispatch(tasks)
            storage.update(produced)
        info["storage"] = kept
        return {name: storage[vid] for name, vid in plan.outputs}

    # -- shard dispatch --------------------------------------------------------
    def _dispatch(self, tasks: dict[int, dict]) -> None:
        """One pool round trip: run a task set, mirror worker-side counters.

        ``tasks`` maps a worker index to that worker's task.  Boundary
        crossings charged by the workers' inner backends (a non-array inner
        converts per op) are mirrored onto this backend's conversion counter
        so sharding is invisible to the accounting contract, the segments
        the workers had to map onto ``pool.segment_maps``, and the kernel
        choices they report onto :attr:`engine_choices`; the round trip
        itself is charged to :attr:`dispatch_count`.

        Under tracing, every task is flagged so workers record spans and
        ship them back with their results; those spans are ingested here
        under this round trip's ``pool.dispatch`` span, clamped into its
        submit/gather interval — that is how pool work appears in traces,
        nested correctly with per-worker PID attribution.
        """
        if not TRACER.enabled:
            for result in self._pool.run(tasks):
                self._mirror(result)
            self.metrics.inc("pool.dispatches")
            return
        with TRACER.span("pool.dispatch", tasks=len(tasks)) as span:
            for task in tasks.values():
                task["trace"] = True
            lo = time.perf_counter()
            results = self._pool.run(tasks)
            hi = time.perf_counter()
            for result in results:
                self._mirror(result)
                if result["spans"]:
                    TRACER.ingest(result["spans"], span.sid, lo, hi)
            self.metrics.inc("pool.dispatches")

    def _mirror(self, result: dict) -> None:
        self._count_conversion(result["conversions"])
        self.metrics.inc("pool.segment_maps", result["maps"])
        self._pool_engine_choices.update(result["engine_choices"])

    def _sharded_out(self, primes, n: int) -> ParallelTensor:
        # Dispatched outputs are always shared-memory-backed: workers write
        # their rows straight into the segment's pages.
        data, segment = self._allocate(len(primes), n, force_shm=True)
        return ParallelTensor(self, primes, n, data, {}, segment)

    def _stage_out(self, kept: dict, info: dict, vid: int, n: int) -> ParallelTensor:
        """Storage for stage value ``vid`` of one run.

        A plan output gets a fresh segment: the caller holds it, and a later
        run must not overwrite it.  Any other stage value reuses its
        ``kept`` tensor, allocated on the shape's first run at this ``n``.
        """
        primes = info["primes"][vid]
        if vid in info["plan_outputs"]:
            return self._sharded_out(primes, n)
        tensor = kept.get(vid)
        if tensor is None or tensor.n != n:
            tensor = kept[vid] = self._sharded_out(primes, n)
        return tensor

    # -- node kernels ----------------------------------------------------------
    def _kernel(self, node, tensors, threshold: int, method, *args) -> ParallelTensor:
        """Run one node kernel: inline below the crossover, else a one-node plan.

        ``node`` reads ``tensors`` as values ``0 .. len(tensors) - 1``, the
        plan's inputs, so the plan always schedules: its operands get the
        canonical partition.  Below the crossover — or with a single shard,
        or rows at or above the storage window — ``method`` (the inner
        backend's kernel) runs on the inner tensors plus ``args``.
        """
        if all(self._dispatchable(tensor, threshold) for tensor in tensors):
            names = tuple("x%d" % index for index in range(len(tensors)))
            plan = ops.Plan(
                tuple(map(ops.Input, names)) + (node,), (("out", len(names)),)
            )
            return self.execute(plan, dict(zip(names, tensors)))["out"]
        return self._inline(
            lambda: self._from_inner(
                method(*[self._to_inner(tensor) for tensor in tensors], *args)
            )
        )

    def forward_ntt_batch(self, tensor: ResidueTensor) -> ParallelTensor:
        self._check_owned(tensor)
        return self._kernel(
            ops.ForwardNtt(0),
            (tensor,),
            self._transform_threshold,
            self._inner.forward_ntt_batch,
        )

    def inverse_ntt_batch(self, tensor: ResidueTensor) -> ParallelTensor:
        self._check_owned(tensor)
        return self._kernel(
            ops.InverseNtt(0),
            (tensor,),
            self._transform_threshold,
            self._inner.inverse_ntt_batch,
        )

    def add(self, a: ResidueTensor, b: ResidueTensor) -> ParallelTensor:
        self._check_pair(a, b)
        return self._kernel(
            ops.Add(0, 1), (a, b), self._pointwise_threshold, self._inner.add
        )

    def sub(self, a: ResidueTensor, b: ResidueTensor) -> ParallelTensor:
        self._check_pair(a, b)
        return self._kernel(
            ops.Sub(0, 1), (a, b), self._pointwise_threshold, self._inner.sub
        )

    def mul(self, a: ResidueTensor, b: ResidueTensor) -> ParallelTensor:
        self._check_pair(a, b)
        return self._kernel(
            ops.Mul(0, 1), (a, b), self._pointwise_threshold, self._inner.mul
        )

    def inner_product(self, pairs, addends=()) -> ParallelTensor:
        tensors = self._check_operands(pairs, addends)
        factors = 2 * len(pairs)

        def inner(*operands):
            return self._inner.inner_product(
                list(zip(operands[0:factors:2], operands[1:factors:2])),
                operands[factors:],
            )

        node = ops.InnerProduct(
            tuple((index, index + 1) for index in range(0, factors, 2)),
            tuple(range(factors, len(tensors))),
        )
        return self._kernel(node, tensors, self._pointwise_threshold, inner)

    def neg(self, a: ResidueTensor) -> ParallelTensor:
        self._check_owned(a)
        return self._kernel(
            ops.Neg(0), (a,), self._pointwise_threshold, self._inner.neg
        )

    def scalar_mul(self, a: ResidueTensor, scalar: int) -> ParallelTensor:
        self._check_owned(a)
        return self._kernel(
            ops.ScalarMul(0, scalar),
            (a,),
            self._pointwise_threshold,
            self._inner.scalar_mul,
            scalar,
        )

    # -- structural operations -------------------------------------------------
    def concat(self, tensors: Sequence[ResidueTensor]) -> ParallelTensor:
        if not tensors:
            raise ValueError("cannot concatenate an empty tensor sequence")
        n = tensors[0].n
        primes: list[int] = []
        for tensor in tensors:
            self._check_owned(tensor)
            if tensor.n != n:
                raise ValueError("all tensors in a concat must share n")
            primes.extend(tensor.primes)
        data, segment = self._allocate(len(primes), n)
        big: dict[int, list[int]] = {}
        offset = 0
        for tensor in tensors:
            if tensor.count:
                data[offset : offset + tensor.count] = tensor.data
            for index, row in tensor.big.items():
                big[offset + index] = list(row)
            offset += tensor.count
        return ParallelTensor(self, primes, n, data, big, segment)

    def split(
        self, tensor: ResidueTensor, counts: Sequence[int]
    ) -> list[ParallelTensor]:
        self._check_owned(tensor)
        if sum(counts) != tensor.count:
            raise ValueError(
                "split counts sum to %d but tensor has %d rows"
                % (sum(counts), tensor.count)
            )
        pieces = []
        offset = 0
        for count in counts:
            pieces.append(self.slice_rows(tensor, offset, offset + count))
            offset += count
        return pieces

    def slice_rows(
        self, tensor: ResidueTensor, start: int, stop: int
    ) -> ParallelTensor:
        self._check_owned(tensor)
        big = {
            index - start: list(row)
            for index, row in tensor.big.items()
            if start <= index < stop
        }
        if tensor.segment is not None:
            # Zero-copy view into the refcounted segment: the slice holds a
            # reference, so the pages outlive the parent tensor.
            return ParallelTensor(
                self,
                tensor.primes[start:stop],
                tensor.n,
                tensor.data[start:stop],
                big,
                tensor.segment,
                tensor.offset_rows + start,
            )
        return ParallelTensor(
            self, tensor.primes[start:stop], tensor.n, tensor.data[start:stop].copy(), big
        )

    def copy(self, tensor: ResidueTensor) -> ParallelTensor:
        self._check_owned(tensor)
        data, segment = self._allocate(tensor.count, tensor.n)
        if tensor.count:
            data[:] = tensor.data
        return ParallelTensor(
            self,
            tensor.primes,
            tensor.n,
            data,
            {index: list(row) for index, row in tensor.big.items()},
            segment,
        )

    def tensor_equal(self, a: ResidueTensor, b: ResidueTensor) -> bool:
        self._check_owned(a)
        self._check_owned(b)
        return (
            a.primes == b.primes
            and np.array_equal(a.data, b.data)
            and a.big == b.big
        )

    # -- RNS compound operations ----------------------------------------------
    def digit_broadcast(self, tensor: ResidueTensor, index: int) -> ParallelTensor:
        self._check_owned(tensor)
        if not 0 <= index < tensor.count:
            raise ValueError("digit index %d out of range" % index)
        return self._kernel(
            ops.DigitBroadcast(0, index),
            (tensor,),
            self._pointwise_threshold,
            self._inner.digit_broadcast,
            index,
        )

    def mod_switch_drop_last(
        self, tensor: ResidueTensor, plaintext_modulus: int
    ) -> ParallelTensor:
        self._check_owned(tensor)
        if tensor.count < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        return self._kernel(
            ops.ModSwitchDropLast(0, plaintext_modulus),
            (tensor,),
            self._pointwise_threshold,
            self._inner.mod_switch_drop_last,
            plaintext_modulus,
        )

    def mod_switch_correction(
        self, tensor: ResidueTensor, plaintext_modulus: int, primes: Sequence[int]
    ) -> ParallelTensor:
        self._check_owned(tensor)
        if tensor.count != 1:
            raise ValueError("a modulus-switch correction reads exactly one row")
        return self._kernel(
            ops.ModSwitchCorrection(0, plaintext_modulus, tuple(primes)),
            (tensor,),
            self._pointwise_threshold,
            self._inner.mod_switch_correction,
            plaintext_modulus,
            tuple(primes),
        )

    # -- validation ------------------------------------------------------------
    def _check_owned(self, tensor: ResidueTensor) -> None:
        super()._check_owned(tensor)
        if not isinstance(tensor, ParallelTensor):  # pragma: no cover - defensive
            raise ValueError("ParallelBackend operates on ParallelTensor handles only")
