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
  payloads cross process boundaries with **zero pickling**: a task pickles
  segment names, row ranges, node records and primes, and the worker maps
  the same physical pages.  Segments are released when the last tensor
  viewing them is garbage-collected, with an ``atexit`` sweep for whatever
  survives the session.  Every release path is PID-guarded: under the default
  ``fork`` start method the workers inherit the parent's arena *and* its
  ``weakref.finalize`` registry, and without the guard a worker exiting
  would unlink segments the parent still uses.
* the worker runtime — each worker process holds one long-lived *inner*
  backend (default ``numpy``) that the pool initialiser builds from the
  name's registered factory (a factory such as ``lambda:
  NumpyBackend(engine=spec)`` is the one way to pin the workers' kernel),
  so twiddle tables persist across tasks: a shard of a repeated shape
  reuses the tables its first shard built.  Every task is one worker's share of a
  plan stage (:func:`_run_plan_task`); the backend's node kernels reach
  the pool as one-node plans.  Segment mappings are resident too: a worker
  maps a segment the first time a task names it and keeps the mapping
  until a later task's ``drop`` list says the coordinator released it.
* :class:`WorkerPool` — one single-process worker per shard, reached
  over its own pipe, so shard ``i`` always runs on worker ``i``, and a
  record per worker of the segments it was sent, from which each task's
  ``drop`` list is derived.  A worker crash (a closed pipe) disposes every
  worker and the records and transparently retries the shard set once on
  fresh workers (shard writes target disjoint output rows, so a retry is
  idempotent).

Shard-count resolution (first match wins): explicit argument >
:func:`set_default_shards` > the ``REPRO_SHARDS`` environment variable >
``os.cpu_count() - 1`` (always at least 1).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import traceback
from collections.abc import Mapping, Sequence
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
        # shm.size is what the platform reports: the requested size on Linux
        # (a 1000-byte segment reports 1000), page-rounded on some others.
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


def _attach_view(ref: ShmRef, mapped: dict) -> "np.ndarray":
    """A :data:`ShmRef` as a ``(rows, n)`` uint64 view in this process.

    ``mapped`` is the process's mapping table (segment name →
    ``SharedMemory``); a segment is attached only if the table lacks it.
    """
    name, row_offset, rows, n = ref
    shm = mapped.get(name)
    if shm is None:
        shm = mapped[name] = _attach(name)
    return np.frombuffer(
        shm.buf, dtype=np.uint64, count=rows * n, offset=row_offset * n * 8
    ).reshape(rows, n)


def _unmap(mapped: dict, names: Sequence[str]) -> None:
    """Close the mappings of ``names`` and forget them."""
    for name in names:
        shm = mapped.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a traceback kept a view
            # The view keeps the pages mapped until it dies; the name must
            # leave the table now, because the coordinator may reuse it.
            SharedArena._disarm(shm)
            shm.close()


# ------------------------------------------------------------ worker runtime

#: The worker's long-lived inner backend, built once per process by
#: :func:`_init_worker` so twiddle tables persist across tasks.
_WORKER_BACKEND = None

#: The worker's mapping table (segment name → ``SharedMemory``): each
#: segment is mapped once and kept until a task's ``drop`` list names it.
_WORKER_MAPPED: dict[str, shared_memory.SharedMemory] = {}

#: The kernel choices (shape → engine) this worker has reported so far: a
#: task reply carries only the ones it has not, so warm tasks ship nothing.
_WORKER_REPORTED: dict = {}


def _disarm_inherited_segments() -> None:
    """Neutralise segment handles copied into this worker by ``fork``.

    The parent's open ``SharedMemory`` objects (and the tensors viewing
    them) are duplicated into a forked worker's address space; they must
    never be closed or unlinked from here — the PID guards prevent that —
    but their ``__del__`` at worker exit would still raise ``BufferError``
    over the inherited views.  Dropping the buffer/mapping references makes
    those destructors no-ops; the worker maps the segments its tasks name
    into its own table (``_WORKER_MAPPED``), once each.
    """
    arena = _ARENA
    for segment in list(arena._segments.values()):
        segment.shm._buf = None
        segment.shm._mmap = None
    arena._segments.clear()


def _init_worker(inner_name: str) -> None:
    from .registry import build_backend

    _disarm_inherited_segments()
    # A fork copies the parent's mapping table; this worker starts empty.
    _WORKER_MAPPED.clear()
    _WORKER_REPORTED.clear()
    # The fork copied the parent's tracer (enabled flag, captured events,
    # span stack); a worker must start clean or it would re-ship parent
    # spans with every shard result.
    TRACER.reset_after_fork()
    global _WORKER_BACKEND
    # A fresh instance, not the registry's (fork-inherited) one: what it
    # records, its kernel choices included, is this worker's own.
    _WORKER_BACKEND = build_backend(inner_name)


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


def _run_plan_task(backend, task: dict, mapped: dict) -> None:
    """Execute one worker's share of a fused plan stage.

    The task carries the stage's node records (:mod:`repro.backends.ops`),
    each node's release list (:func:`~repro.backends.ops.last_uses` over the
    stage), this worker's row ranges for every value the stage touches,
    shared-memory refs for the stage's materialised inputs and outputs, and
    the inferred modulus tuple per value.  Segments missing from the
    mapping table ``mapped`` are attached into it and stay mapped after the
    task; the caller owns closing them.  Intermediates live on this
    worker's heap only — they never cross a process boundary — and each is
    dropped after its last reader in the stage.  A replicated value
    (:func:`~repro.backends.ops.replicated_values`) is computed in full
    from its operands' full rows, so a cross-row node can read it in the
    same stage.  The worker writes exactly the output rows it owns into the
    preallocated output segments, each as soon as it is produced.  Input
    views are read, never kept or written.
    """
    from . import ops

    n = task["n"]
    rowsets: dict[int, tuple] = task["rowsets"]
    primes: dict[int, tuple] = task["primes"]
    replicated = task.get("replicated", ())
    views = {vid: _attach_view(ref, mapped) for vid, ref in task["inputs"].items()}
    out_views = {
        vid: _attach_view(ref, mapped) for vid, ref in task["outputs"].items()
    }
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

    def full_rows(vid: int) -> "np.ndarray":
        """Every row of a materialised or replicated value."""
        return local[vid] if vid in local else views[vid]

    def replicate(node) -> "np.ndarray":
        """All rows of a replicated value, computed by ``node``."""
        if isinstance(node, ops.SliceRows):
            return full_rows(node.src)[node.start : node.stop]
        if isinstance(node, ops.Concat):
            return np.concatenate([full_rows(src) for src in node.srcs], axis=0)
        source = _inner_tensor(backend, primes[node.src], n, full_rows(node.src), {})
        return compute(backend.inverse_ntt_batch(source))

    def produce(vid: int, node) -> "np.ndarray":
        """This worker's rows of value ``vid``, computed by ``node``."""
        if vid in replicated:
            return replicate(node)
        if not rowsets[vid]:
            return empty
        if isinstance(node, (ops.Add, ops.Sub, ops.Mul)):
            method = getattr(backend, node.kind)
            return compute(method(inner(node.a), inner(node.b)))
        if isinstance(node, ops.ForwardNtt):
            return compute(backend.forward_ntt_batch(inner(node.src)))
        if isinstance(node, ops.InverseNtt):
            return compute(backend.inverse_ntt_batch(inner(node.src)))
        if isinstance(node, ops.Neg):
            return compute(backend.neg(inner(node.src)))
        if isinstance(node, ops.ScalarMul):
            return compute(backend.scalar_mul(inner(node.src), node.scalar))
        if isinstance(node, ops.Copy):
            return owned_rows(node.src).copy()
        if isinstance(node, ops.Concat):
            # Source spans ascend with position, so stacking each source's
            # (ascending) owned rows in order yields the output's owned rows
            # in ascending global order — the layout the row sets describe.
            return np.concatenate([owned_rows(src) for src in node.srcs], axis=0)
        if isinstance(node, ops.SliceRows):
            if node.src in local:
                positions = [
                    pos
                    for pos, row in enumerate(owned_index(node.src))
                    if node.start <= row < node.stop
                ]
                return owned_rows(node.src)[positions]
            # A slice of a materialised value reads the rows it owns
            # straight from the source.
            source, start = full_rows(node.src), node.start
            return np.concatenate(
                [source[start + lo : start + hi] for lo, hi in rowsets[vid]], axis=0
            )
        if isinstance(node, ops.DigitBroadcast):
            # Cross-row: the staging rule guarantees the source is a
            # materialised stage input or replicated here, so the one
            # needed row is readable regardless of who owns it.
            shard_primes = (primes[node.src][node.index],) + owned_primes(vid)
            data = np.zeros((len(shard_primes), n), dtype=np.uint64)
            data[0] = full_rows(node.src)[node.index]
            shard = _inner_tensor(backend, shard_primes, n, data, {})
            return compute(backend.digit_broadcast(shard, 0))[1:]
        if isinstance(node, ops.ModSwitchCorrection):
            # Cross-row: every owned output row reads the source's one
            # (materialised or replicated) row.
            shard = _inner_tensor(
                backend, primes[node.src], n, full_rows(node.src), {}
            )
            return compute(
                backend.mod_switch_correction(
                    shard, node.plaintext_modulus, owned_primes(vid)
                )
            )
        if isinstance(node, ops.ModSwitchDropLast):
            # Cross-row: every owned output row pairs its own source row
            # with the source's (materialised or replicated) last row.
            source_view = full_rows(node.src)
            last = len(primes[node.src]) - 1
            rows = np.concatenate(
                [source_view[lo:hi] for lo, hi in rowsets[vid]]
                + [source_view[last : last + 1]],
                axis=0,
            )
            shard_primes = owned_primes(vid) + (primes[node.src][last],)
            shard = _inner_tensor(backend, shard_primes, n, rows, {})
            return compute(
                backend.mod_switch_drop_last(shard, node.plaintext_modulus)
            )
        raise ValueError(  # pragma: no cover - defensive
            "unknown fused plan node %r" % type(node).__name__
        )

    def write_out(vid: int) -> None:
        view, data, offset = out_views[vid], local[vid], 0
        for lo, hi in rowsets[vid]:
            view[lo:hi] = data[offset : offset + (hi - lo)]
            offset += hi - lo

    for (vid, node), released in zip(task["nodes"], task["releases"]):
        local[vid] = produce(vid, node)
        if vid in out_views:
            write_out(vid)
        for dead in released:
            del local[dead]


def _exec_shard(task: dict) -> dict:
    """Worker entry point: run one plan-stage task against the inner backend.

    Every task is one worker's share of a plan stage
    (:func:`_run_plan_task`); its rows are written straight into the output
    segments' pages.  First the worker closes the mappings named in
    ``task["drop"]`` (segments the coordinator has released since this
    worker's last task); then it maps only the segments it does not hold.
    Returns ``{"conversions": rows, "maps": segments, "spans": [...],
    "engine_choices": {...}}``:
    ``conversions`` are the list/native boundary crossings a non-array
    inner backend charged while computing the shard, which the parent
    mirrors onto the parallel backend's own counter so the accounting
    contract of ``base.py`` holds across process boundaries (a tensor
    with rows of primes at or above 2^62, the only rows the NumPy backend
    runs through its counted fallback, never reaches a worker); ``maps``
    counts the segments this task had to map, and ``engine_choices`` the
    kernel choices of the inner backend this worker has not reported yet
    (so a warm task ships none).  When the coordinator set
    ``task["trace"]``, ``spans`` carries the events this worker recorded
    under a ``pool.task`` root span; the coordinator ingests them under
    its dispatch span (:meth:`repro.telemetry.Tracer.ingest`), which is
    how pool work shows up in traces with per-worker attribution.
    """
    backend = _WORKER_BACKEND
    if backend is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool used before initialisation")
    _unmap(_WORKER_MAPPED, task["drop"])
    held = len(_WORKER_MAPPED)
    before = backend.conversion_count
    spans: list[tuple] = []
    if task.get("trace", False):
        TRACER.start()
        mark = TRACER.mark()
        try:
            with TRACER.span(
                "pool.task", worker=os.getpid(), nodes=len(task["nodes"])
            ):
                _run_plan_task(backend, task, _WORKER_MAPPED)
            spans = TRACER.events_since(mark)
        finally:
            TRACER.stop()
            TRACER.clear()
    else:
        _run_plan_task(backend, task, _WORKER_MAPPED)
    choices = {
        shape: engine
        for shape, engine in getattr(backend, "engine_choices", {}).items()
        if _WORKER_REPORTED.get(shape) != engine
    }
    _WORKER_REPORTED.update(choices)
    return {
        "conversions": backend.conversion_count - before,
        "maps": len(_WORKER_MAPPED) - held,
        "spans": spans,
        "engine_choices": choices,
    }


def _crash_for_test(_argument) -> None:  # pragma: no cover - in the worker
    """Test hook: die without cleanup, killing the worker mid-flight."""
    os._exit(42)


def _mapped_for_test(drop: Sequence[str]) -> list[str]:  # pragma: no cover
    """Test hook: apply a drop list, then name the segments still mapped."""
    _unmap(_WORKER_MAPPED, drop)
    return sorted(_WORKER_MAPPED)


def _serve(conn, inner_name: str) -> None:
    """A worker process's loop over its pipe to the coordinator.

    Each message is ``(function, argument)``; the reply is ``(True,
    result)`` or ``(False, exception, formatted traceback)``.  A ``None``
    message or a closed pipe ends the worker.
    """
    _init_worker(inner_name)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        function, argument = message
        try:
            reply = (True, function(argument))
        except Exception as exc:  # shipped to the coordinator, re-raised there
            reply = (False, exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the coordinator closed the pipe and no longer waits
            return
        except Exception:  # pragma: no cover - an unpicklable result
            conn.send((False, RuntimeError(traceback.format_exc()), ""))


# ------------------------------------------------------------------- pool


class _Worker:
    """One worker process and the coordinator's end of its pipe."""

    def __init__(self, inner_name: str) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(child, inner_name), daemon=True
        )
        self.process.start()
        child.close()

    def stop(self) -> None:
        """Ask the worker to exit and reap it.

        The pipe is closed before the join, so a worker still finishing an
        abandoned task fails to send its reply and exits instead of
        blocking.
        """
        try:
            self.conn.send(None)
        except OSError:  # already dead
            pass
        self.conn.close()
        self.process.join()


class WorkerPool:
    """A persistent, crash-recovering pool of inner-backend workers.

    One single-process worker per shard, started lazily on first use, so
    shard ``i`` always runs on worker ``i`` and finds the segments its
    earlier tasks mapped.  A round trip sends each worker its task over
    its own pipe and then gathers every reply; nothing else runs in the
    coordinator (no queue or manager threads).  The pool records, per
    worker, each segment it has sent (name → :class:`SharedSegment`); every
    task carries ``drop``, the recorded names whose arena entry is gone or
    now belongs to another segment (names can be reused).  A worker
    therefore holds at most the coordinator's live segments plus those
    released since its last task.

    The workers and the records are disposed whenever the shard count
    changes or a worker dies; a dead worker (a closed pipe) rebuilds the
    pool and retries the shard set exactly once — shard writes land in
    disjoint output rows, so the retry is idempotent.  An exception raised by a task is re-raised here once every
    reply is in, with the worker's traceback as its cause.
    """

    def __init__(self, workers: int, inner_name: str) -> None:
        self.workers = max(1, workers)
        self.inner_name = inner_name
        self._procs: list[_Worker] | None = None
        self._sent: list[dict[str, SharedSegment]] = []
        # One round trip at a time: the pipes carry one reply per message,
        # and runs from several threads must not interleave their drops.
        self._lock = threading.Lock()
        self.restarts = 0

    def _ensure(self) -> list[_Worker]:
        if self._procs is None:
            self._procs = [_Worker(self.inner_name) for _ in range(self.workers)]
            self._sent = [{} for _ in range(self.workers)]
        return self._procs

    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._procs is not None

    def _drop(self, worker: int) -> list[str]:
        """Forget and return ``worker``'s names the arena no longer backs."""
        sent, live = self._sent[worker], _ARENA._segments
        gone = [name for name, seg in sent.items() if live.get(name) is not seg]
        for name in gone:
            del sent[name]
        return gone

    def _prepare(self, worker: int, task: dict) -> dict:
        """Attach ``worker``'s drop list to a task and record what it sends."""
        task["drop"] = self._drop(worker)
        sent, live = self._sent[worker], _ARENA._segments
        for name, *_ in (*task["inputs"].values(), *task["outputs"].values()):
            sent[name] = live.get(name)
        return task

    def _round_trip(self, messages) -> list:
        """Send each ``(worker, message)``, then gather every reply in order.

        A dead worker surfaces as ``EOFError`` / ``OSError``.  Any other
        interruption leaves replies in flight, so the pool is rebuilt.
        """
        workers = self._ensure()
        try:
            for worker, message in messages:
                workers[worker].conn.send(message)
            replies = [workers[worker].conn.recv() for worker, _ in messages]
        except (EOFError, OSError):
            raise
        except BaseException:
            self._dispose()
            raise
        for reply in replies:
            if not reply[0]:
                raise reply[1] from RuntimeError("in the pool worker:\n" + reply[2])
        return [reply[1] for reply in replies]

    def run(self, tasks: Mapping[int, dict]) -> list[dict]:
        """Execute every stage task (worker index → task) and gather results.

        Restarts the pool once when a worker has died.
        """
        last_error: BaseException | None = None
        with self._lock:
            for _ in range(2):
                self._ensure()
                messages = [
                    (worker, (_exec_shard, self._prepare(worker, task)))
                    for worker, task in tasks.items()
                ]
                try:
                    return self._round_trip(messages)
                except (EOFError, OSError) as exc:
                    # Without its frames: through this one they would keep
                    # the failed send's buffer alive in a reference cycle.
                    last_error = exc.with_traceback(None)
                    self._dispose()
                    self.restarts += 1
        raise RuntimeError(
            "parallel worker pool crashed twice running %d shard task(s)"
            % len(tasks)
        ) from last_error

    def crash_for_test(self) -> None:
        """Kill one worker abruptly (used by the recovery regression test)."""
        with self._lock:
            try:
                self._round_trip([(0, (_crash_for_test, None))])
            except EOFError:
                pass  # expected: the next run must find it dead and self-heal

    def mapped_for_test(self) -> list[list[str]]:
        """Each worker's mapped segment names once its drop list is applied."""
        with self._lock:
            self._ensure()
            messages = [
                (worker, (_mapped_for_test, self._drop(worker)))
                for worker in range(self.workers)
            ]
            try:
                return self._round_trip(messages)
            except (EOFError, OSError):
                self._dispose()
                raise

    def dispose(self) -> None:
        """Stop the workers; the next dispatch starts fresh ones."""
        with self._lock:
            self._dispose()

    def _dispose(self) -> None:
        if self._procs is not None:
            for worker in self._procs:
                worker.stop()
            self._procs = None
            self._sent = []
