"""Process-pool and shared-memory plumbing for the ``parallel`` backend.

The paper's central claim (Section III / Fig. 3) is that an HE workload is
``np x (number of polynomials)`` *independent* NTTs whose throughput comes
from executing them as one wide batch on massively parallel hardware.  The
:class:`~repro.backends.parallel.ParallelBackend` realises that claim on
every multi-core CPU by sharding the batch axis across worker *processes*
(the GIL rules out threads for this workload); this module owns the three
mechanisms that make the sharding pay:

* :class:`SharedArena` — refcounted ``multiprocessing.shared_memory``
  segments backing the resident ``uint64`` residue matrices, so shard
  payloads cross process boundaries with **zero pickling**: a task pickles a
  few integers (segment name, row range, primes) and the worker maps the
  same physical pages.  Segments are released when the last tensor viewing
  them is garbage-collected, with an ``atexit`` sweep for whatever survives
  the session.  Every release path is PID-guarded: under the default
  ``fork`` start method the workers inherit the parent's arena *and* its
  ``weakref.finalize`` registry, and without the guard a worker exiting
  would unlink segments the parent still uses.
* the worker runtime — each worker process holds one long-lived *inner*
  backend (default ``numpy``) built by the pool initialiser, so twiddle
  tables persist across tasks: a shard of a repeated shape reuses the
  tables its first shard built.
* :class:`WorkerPool` — a persistent ``ProcessPoolExecutor`` wrapper that
  survives worker crashes: a :class:`BrokenProcessPool` disposes the
  executor and transparently retries the shard set once on a fresh pool
  (shard writes target disjoint output rows, so a retry is idempotent).

Shard-count resolution (first match wins): explicit argument >
:func:`set_default_shards` > the ``REPRO_SHARDS`` environment variable >
``os.cpu_count() - 1`` (always at least 1).
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

try:  # Only the worker/arena payload paths need NumPy; resolution does not.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from ..telemetry import TRACER

__all__ = [
    "SHARDS_ENV_VAR",
    "SharedArena",
    "SharedSegment",
    "WorkerPool",
    "get_arena",
    "plan_shards",
    "resolve_shard_count",
    "set_default_shards",
]

#: Environment variable consulted when no shard count is chosen explicitly.
SHARDS_ENV_VAR = "REPRO_SHARDS"

_default_shards: int | None = None


def set_default_shards(count: int | None) -> None:
    """Install (or with ``None`` clear) the process-wide default shard count."""
    if count is not None and count < 1:
        raise ValueError("shard count must be at least 1, got %d" % count)
    global _default_shards
    _default_shards = count


def resolve_shard_count(explicit: int | None = None) -> int:
    """Resolve a shard count by the documented precedence.

    ``explicit`` argument > :func:`set_default_shards` > ``REPRO_SHARDS``
    (read at call time) > ``os.cpu_count() - 1``, clamped to at least 1.
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("shard count must be at least 1, got %d" % explicit)
        return explicit
    if _default_shards is not None:
        return _default_shards
    env = os.environ.get(SHARDS_ENV_VAR)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(
                "%s must be a positive integer, got %r" % (SHARDS_ENV_VAR, env)
            ) from None
        if count < 1:
            raise ValueError(
                "%s must be a positive integer, got %r" % (SHARDS_ENV_VAR, env)
            )
        return count
    return max(1, (os.cpu_count() or 1) - 1)


def plan_shards(count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``count`` rows into at most ``shards`` contiguous balanced ranges.

    Row groups stay contiguous over the ``(prime, polynomial)`` batch axis —
    the inner backend splits each shard into runs of consecutive basis
    primes, so a shard that starts mid-basis is handled like any mixed batch.
    """
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    ranges = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# ------------------------------------------------------------ shared memory


class SharedSegment:
    """One refcounted shared-memory segment owned by a :class:`SharedArena`.

    Tensors viewing the segment hold one reference each (slices of a tensor
    share its segment); the segment is closed and unlinked when the count
    reaches zero.  All mutation is PID-guarded: a forked worker inheriting
    the object must never release the parent's memory.
    """

    __slots__ = ("arena", "shm", "refs", "owner_pid")

    def __init__(self, arena: "SharedArena", shm: shared_memory.SharedMemory) -> None:
        self.arena = arena
        self.shm = shm
        self.refs = 0
        self.owner_pid = os.getpid()

    @property
    def name(self) -> str:
        return self.shm.name

    def incref(self) -> None:
        self.refs += 1

    def decref(self) -> None:
        if os.getpid() != self.owner_pid:  # pragma: no cover - fork inheritance
            return
        self.refs -= 1
        if self.refs <= 0:
            self.arena.release(self)


class SharedArena:
    """Allocator and registry for the process's shared-memory segments.

    One module-level instance backs every
    :class:`~repro.backends.parallel.ParallelBackend`; an ``atexit`` hook
    unlinks whatever segments are still live when the interpreter exits, so
    a crashed session cannot leak ``/dev/shm`` entries.
    """

    def __init__(self) -> None:
        self._segments: dict[str, SharedSegment] = {}
        self._deferred: list[shared_memory.SharedMemory] = []
        self._owner_pid = os.getpid()
        self._bytes_in_use = 0

    @property
    def live_segments(self) -> int:
        """Number of segments currently allocated (test/diagnostic helper)."""
        return len(self._segments)

    @property
    def bytes_in_use(self) -> int:
        """Bytes of live shared memory (the ``shm.bytes_in_use`` gauge)."""
        return self._bytes_in_use

    def allocate(self, nbytes: int) -> SharedSegment:
        """Create a zero-initialised segment of at least ``nbytes`` bytes."""
        if self._deferred:
            self._sweep_deferred()
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        segment = SharedSegment(self, shm)
        self._segments[shm.name] = segment
        # shm.size is the mapped size (page-rounded), so the gauge reports
        # actual occupancy, not the requested byte count.
        self._bytes_in_use += shm.size
        return segment

    def release(self, segment: SharedSegment) -> None:
        """Unlink a segment; closing may be deferred until its views die.

        Tensor finalizers fire while the dying tensor — and therefore its
        ndarray view of the segment — is still alive, so the close here
        routinely raises ``BufferError``; such segments are parked on a
        deferred list and re-closed on the next allocation (by which point
        the view is gone).  The unlink itself always happens immediately:
        the name disappears and the pages are freed as soon as the last
        mapping closes.
        """
        if self._segments.pop(segment.name, None) is not None:
            self._bytes_in_use -= segment.shm.size
        try:
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            segment.shm.close()
        except BufferError:
            self._deferred.append(segment.shm)

    def _sweep_deferred(self) -> None:
        still_viewed = []
        for shm in self._deferred:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                still_viewed.append(shm)
        self._deferred = still_viewed

    @staticmethod
    def _disarm(shm: shared_memory.SharedMemory) -> None:
        # Drop the buffer/mapping references so neither a late finalizer nor
        # SharedMemory.__del__ can raise during interpreter teardown; the OS
        # reclaims the mapping when the process exits.
        shm._buf = None
        shm._mmap = None

    def shutdown(self) -> None:
        """Unlink every live segment (atexit sweep; no-op in forked children).

        Runs in an arbitrary order relative to the ``weakref.finalize``
        exit hook, so it handles both sides: segments still held by live
        tensors are unlinked and disarmed here (the finalizers then find a
        closed handle), and segments the finalizers already released land
        on the deferred list and are disarmed below.
        """
        if os.getpid() != self._owner_pid:  # pragma: no cover - fork inheritance
            return
        for segment in list(self._segments.values()):
            self._segments.pop(segment.name, None)
            try:
                segment.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            try:
                segment.shm.close()
            except BufferError:
                self._disarm(segment.shm)
        for shm in self._deferred:
            try:
                shm.close()
            except BufferError:
                self._disarm(shm)
        self._deferred = []
        self._bytes_in_use = 0


_ARENA = SharedArena()
atexit.register(_ARENA.shutdown)


def get_arena() -> SharedArena:
    """The module-level arena shared by every parallel backend instance."""
    return _ARENA


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup responsibility.

    On Python 3.13+ the ``track=False`` keyword keeps the attach out of the
    resource tracker entirely.  Before 3.13 the attach registers with the
    tracker as well (bpo-38119) — harmless here because forked workers share
    the parent's tracker process, whose cache is a set: the duplicate
    register collapses and the parent's eventual unlink balances it.  (An
    explicit unregister would *corrupt* the shared cache and break the
    parent's own cleanup.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` keyword
        return shared_memory.SharedMemory(name=name)


#: A picklable view descriptor: ``(segment name, first row, rows, n)``.
ShmRef = tuple[str, int, int, int]


def _attach_view(ref: ShmRef, shms: list) -> "np.ndarray":
    """Map a :data:`ShmRef` into this process as a ``(rows, n)`` uint64 view."""
    name, row_offset, rows, n = ref
    shm = _attach(name)
    shms.append(shm)
    return np.frombuffer(
        shm.buf, dtype=np.uint64, count=rows * n, offset=row_offset * n * 8
    ).reshape(rows, n)


# ------------------------------------------------------------ worker runtime

#: The worker's long-lived inner backend, built once per process by
#: :func:`_init_worker` so twiddle tables persist across tasks.
_WORKER_BACKEND = None


def _disarm_inherited_segments() -> None:
    """Neutralise segment handles copied into this worker by ``fork``.

    The parent's open ``SharedMemory`` objects (and the tensors viewing
    them) are duplicated into a forked worker's address space; they must
    never be closed or unlinked from here — the PID guards prevent that —
    but their ``__del__`` at worker exit would still raise ``BufferError``
    over the inherited views.  Dropping the buffer/mapping references makes
    those destructors no-ops; the worker maps segments it actually needs
    freshly, by name, per task.
    """
    arena = _ARENA
    for segment in list(arena._segments.values()):
        segment.shm._buf = None
        segment.shm._mmap = None
    arena._segments.clear()


def _init_worker(inner_name: str, engine_spec: str | None) -> None:
    from .registry import get_backend

    _disarm_inherited_segments()
    # The fork copied the parent's tracer (enabled flag, captured events,
    # span stack); a worker must start clean or it would re-ship parent
    # spans with every shard result.
    TRACER.reset_after_fork()
    global _WORKER_BACKEND
    backend = get_backend(inner_name)
    if engine_spec is not None:
        backend.set_engine(engine_spec)
    _WORKER_BACKEND = backend


def _inner_tensor(backend, primes: Sequence[int], n: int, data, big: dict):
    """Wrap shard rows into a tensor native to the worker's inner backend.

    The NumPy backend gets a zero-copy handle over the shared-memory view
    (its operations never mutate inputs, so aliasing is safe); any other
    inner backend enters through its own ``from_rows`` boundary.
    """
    from .numpy_backend import NumpyBackend, NumpyTensor

    if isinstance(backend, NumpyBackend):
        return NumpyTensor(backend, tuple(primes), n, data, dict(big))
    rows = data.tolist()
    for index, row in big.items():
        rows[index] = list(row)
    return backend.from_rows(rows, primes)


def _result_parts(backend, result):
    """Split an inner-backend result into (uint64 array, big-row dict)."""
    from .numpy_backend import STORAGE_LIMIT, NumpyBackend

    if isinstance(backend, NumpyBackend):
        return result.data, result.big
    rows = backend.to_rows(result)
    data = np.zeros((len(rows), result.n), dtype=np.uint64)
    big: dict[int, list[int]] = {}
    for index, (row, p) in enumerate(zip(rows, result.primes)):
        if p < STORAGE_LIMIT:
            data[index] = np.asarray(row, dtype=np.uint64)
        else:  # pragma: no cover - no parameter set generates ≥62-bit primes
            big[index] = row
    return data, big


def _run_plan_task(backend, task: dict, shms: list) -> None:
    """Execute one worker's share of a fused plan stage.

    The task carries the stage's node records (:mod:`repro.backends.ops`),
    this worker's row ranges for every value the stage touches, shared-memory
    refs for the stage's materialised inputs and outputs, and the inferred
    modulus tuple per value.  Intermediates live on this worker's heap only —
    they never cross a process boundary; the worker writes exactly the output
    rows it owns into the preallocated output segments.
    """
    from . import ops

    n = task["n"]
    rowsets: dict[int, tuple] = task["rowsets"]
    primes: dict[int, tuple] = task["primes"]
    views = {vid: _attach_view(ref, shms) for vid, ref in task["inputs"].items()}
    out_views = {vid: _attach_view(ref, shms) for vid, ref in task["outputs"].items()}
    local: dict[int, "np.ndarray"] = {}
    empty = np.zeros((0, n), dtype=np.uint64)

    def owned_rows(vid: int) -> "np.ndarray":
        if vid in local:
            return local[vid]
        ranges = rowsets[vid]
        if not ranges:
            return empty
        view = views[vid]
        if len(ranges) == 1:
            lo, hi = ranges[0]
            return view[lo:hi]
        return np.concatenate([view[lo:hi] for lo, hi in ranges], axis=0)

    def owned_primes(vid: int) -> tuple[int, ...]:
        value_primes = rowsets[vid], primes[vid]
        return tuple(p for lo, hi in value_primes[0] for p in value_primes[1][lo:hi])

    def owned_index(vid: int) -> list[int]:
        return [row for lo, hi in rowsets[vid] for row in range(lo, hi)]

    def compute(result) -> "np.ndarray":
        data, big = _result_parts(backend, result)
        if big:  # pragma: no cover - the coordinator precludes big rows
            raise RuntimeError("fused plan stage produced unexpected big rows")
        return data

    def inner(vid: int):
        return _inner_tensor(backend, owned_primes(vid), n, owned_rows(vid), {})

    for vid, node in task["nodes"]:
        if not rowsets[vid]:
            local[vid] = empty
            continue
        if isinstance(node, (ops.Add, ops.Sub, ops.Mul)):
            method = getattr(backend, node.kind)
            local[vid] = compute(method(inner(node.a), inner(node.b)))
        elif isinstance(node, ops.ForwardNtt):
            local[vid] = compute(backend.forward_ntt_batch(inner(node.src)))
        elif isinstance(node, ops.InverseNtt):
            local[vid] = compute(backend.inverse_ntt_batch(inner(node.src)))
        elif isinstance(node, ops.Neg):
            local[vid] = compute(backend.neg(inner(node.src)))
        elif isinstance(node, ops.ScalarMul):
            local[vid] = compute(backend.scalar_mul(inner(node.src), node.scalar))
        elif isinstance(node, ops.Copy):
            local[vid] = owned_rows(node.src).copy()
        elif isinstance(node, ops.Concat):
            # Source spans ascend with position, so stacking each source's
            # (ascending) owned rows in order yields the output's owned rows
            # in ascending global order — the layout the row sets describe.
            local[vid] = np.concatenate(
                [owned_rows(src) for src in node.srcs], axis=0
            )
        elif isinstance(node, ops.SliceRows):
            source = owned_rows(node.src)
            positions = [
                pos
                for pos, row in enumerate(owned_index(node.src))
                if node.start <= row < node.stop
            ]
            local[vid] = source[positions]
        elif isinstance(node, ops.DigitBroadcast):
            # Cross-row: the staging rule guarantees the source is a
            # materialised stage input, so the one needed row is readable
            # directly from shared memory regardless of who owns it.
            source_view = views[node.src]
            shard_primes = (primes[node.src][node.index],) + owned_primes(vid)
            data = np.zeros((len(shard_primes), n), dtype=np.uint64)
            data[0] = source_view[node.index]
            shard = _inner_tensor(backend, shard_primes, n, data, {})
            local[vid] = compute(backend.digit_broadcast(shard, 0))[1:]
        elif isinstance(node, ops.ModSwitchDropLast):
            # Cross-row: every owned output row pairs its own source row
            # with the source's (materialised) last row.
            source_view = views[node.src]
            last = len(primes[node.src]) - 1
            rows = np.concatenate(
                [source_view[lo:hi] for lo, hi in rowsets[vid]]
                + [source_view[last : last + 1]],
                axis=0,
            )
            shard_primes = owned_primes(vid) + (primes[node.src][last],)
            shard = _inner_tensor(backend, shard_primes, n, rows, {})
            local[vid] = compute(
                backend.mod_switch_drop_last(shard, node.plaintext_modulus)
            )
        else:  # pragma: no cover - defensive
            raise ValueError("unknown fused plan node %r" % type(node).__name__)

    for vid, view in out_views.items():
        data = local[vid]
        offset = 0
        for lo, hi in rowsets[vid]:
            view[lo:hi] = data[offset : offset + (hi - lo)]
            offset += hi - lo


def _run_task(backend, task: dict, shms: list) -> dict[int, list[int]] | None:
    op = task["op"]
    if op == "plan":
        _run_plan_task(backend, task, shms)
        return None
    n = task["n"]
    lo, hi = task["lo"], task["hi"]
    primes = task["primes"]
    out_view = _attach_view(task["out"], shms)
    a_view = _attach_view(task["a"], shms)

    if op in ("forward", "inverse", "neg", "scalar_mul", "add", "sub", "mul"):
        a = _inner_tensor(backend, primes, n, a_view[lo:hi], task["a_big"])
        if op == "forward":
            result = backend.forward_ntt_batch(a)
        elif op == "inverse":
            result = backend.inverse_ntt_batch(a)
        elif op == "neg":
            result = backend.neg(a)
        elif op == "scalar_mul":
            result = backend.scalar_mul(a, task["scalar"])
        else:
            b_view = _attach_view(task["b"], shms)
            b = _inner_tensor(backend, primes, n, b_view[lo:hi], task["b_big"])
            result = getattr(backend, op)(a, b)
        data, big = _result_parts(backend, result)
        out_view[lo:hi] = data
        return {lo + index: row for index, row in big.items()} or None

    if op == "digit":
        # The shard tensor is [source row] + [this shard's target rows]; the
        # inner digit_broadcast of index 0 then emits the per-prime digits
        # for every row, and row 0 (source mod its own prime) is discarded.
        source_big = task["source_big"]
        data = np.zeros((hi - lo + 1, n), dtype=np.uint64)
        if source_big is None:
            data[0] = a_view[task["index"]]
        big = {0: source_big} if source_big is not None else {}
        shard = _inner_tensor(backend, primes, n, data, big)
        result = backend.digit_broadcast(shard, 0)
        data, big = _result_parts(backend, result)
        out_view[lo:hi] = data[1:]
        return {lo + index - 1: row for index, row in big.items() if index >= 1} or None

    if op == "mod_switch":
        # The shard tensor is [this shard's rows] + [the dropped last row];
        # the RNS modulus switch is per-row given the last row, so the inner
        # implementation produces exactly this shard's switched rows.
        count = task["a"][2]
        data = np.concatenate([a_view[lo:hi], a_view[count - 1 : count]], axis=0)
        big = dict(task["a_big"])
        if task["last_big"] is not None:
            big[hi - lo] = task["last_big"]
        shard = _inner_tensor(backend, primes, n, data, big)
        result = backend.mod_switch_drop_last(shard, task["t"])
        data, big = _result_parts(backend, result)
        out_view[lo:hi] = data
        return {lo + index: row for index, row in big.items()} or None

    raise ValueError("unknown shard op %r" % op)  # pragma: no cover - defensive


def _exec_shard(task: dict) -> dict:
    """Worker entry point: run one shard task against the inner backend.

    Returns ``{"conversions": rows, "fallback": rows, "big": {...} | None,
    "spans": [...]}``: ``big`` holds the shard's big-row results (exact
    Python lists for rows whose prime exceeds the uint64 storage window —
    the documented chunked-pickle fallback; the uint64 payload is written
    straight into the output segment's pages), and ``conversions`` /
    ``fallback`` are the list/native boundary crossings and per-prime
    big-int fallback rows the inner backend charged while computing the
    shard, which the parent mirrors onto the parallel backend's own
    counters so the accounting contract of ``base.py`` holds across
    process boundaries.  When the coordinator set
    ``task["trace"]``, ``spans`` carries the events this worker recorded
    under a ``pool.task`` root span; the coordinator ingests them under
    its dispatch span (:meth:`repro.telemetry.Tracer.ingest`), which is
    how pool work shows up in traces with per-worker attribution.
    """
    backend = _WORKER_BACKEND
    if backend is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool used before initialisation")
    shms: list[shared_memory.SharedMemory] = []
    before = backend.conversion_count
    fallback_before = backend.fallback_rows
    trace = task.get("trace", False)
    spans: list[tuple] = []
    try:
        if trace:
            TRACER.start()
            mark = TRACER.mark()
            try:
                with TRACER.span("pool.task", worker=os.getpid(), op=task["op"]):
                    big = _run_task(backend, task, shms)
                spans = TRACER.events_since(mark)
            finally:
                TRACER.stop()
                TRACER.clear()
        else:
            big = _run_task(backend, task, shms)
        return {
            "conversions": backend.conversion_count - before,
            "fallback": backend.fallback_rows - fallback_before,
            "big": big,
            "spans": spans,
        }
    finally:
        for shm in shms:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - traceback kept a view
                pass


def _crash_for_test() -> None:  # pragma: no cover - runs in the worker
    """Test hook: die without cleanup, breaking the executor mid-flight."""
    os._exit(42)


# ------------------------------------------------------------------- pool


class WorkerPool:
    """A persistent, crash-recovering pool of inner-backend workers.

    The executor is created lazily on first use and disposed whenever the
    configuration changes (engine pin, shard count) or a worker dies; a
    broken pool is rebuilt and the shard set retried exactly once — shard
    writes land in disjoint output rows, so the retry is idempotent.
    """

    def __init__(
        self, workers: int, inner_name: str, engine_spec: str | None = None
    ) -> None:
        self.workers = max(1, workers)
        self.inner_name = inner_name
        self.engine_spec = engine_spec
        self._executor: ProcessPoolExecutor | None = None
        self.restarts = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.inner_name, self.engine_spec),
            )
        return self._executor

    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._executor is not None

    def run(self, tasks: Sequence[dict]) -> list[dict[int, list[int]] | None]:
        """Execute every shard task, restarting the pool once on a crash."""
        last_error: BaseException | None = None
        for _ in range(2):
            executor = self._ensure()
            try:
                futures = [executor.submit(_exec_shard, task) for task in tasks]
                return [future.result() for future in futures]
            except BrokenProcessPool as exc:
                last_error = exc
                self.dispose()
                self.restarts += 1
        raise RuntimeError(
            "parallel worker pool crashed twice running %d shard task(s)"
            % len(tasks)
        ) from last_error

    def crash_for_test(self) -> None:
        """Kill one worker abruptly (used by the recovery regression test)."""
        executor = self._ensure()
        try:
            executor.submit(_crash_for_test).result()
        except BrokenProcessPool:
            pass  # expected: the pool is now broken and must self-heal

    def set_engine(self, spec: str | None) -> None:
        """Re-pin the workers' inner engine (takes effect on next dispatch)."""
        self.engine_spec = spec
        self.dispose()

    def dispose(self) -> None:
        """Shut the executor down; the next dispatch builds a fresh one."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
