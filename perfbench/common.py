"""Shared machinery of the repository benchmark.

Timed closed-loop windows, benchmark-side spans, the host probe, process
statistics and result digests.  Nothing here imports the library: ``run.py``
times that import on its own before any workload module loads.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from multiprocessing import resource_tracker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where runs leave their records (span tables, server logs); ignored by git.
OUT = os.path.join(ROOT, ".perfbench")

#: Fewest verified ops a timed window accepts: the p90 then has at least ten
#: samples beyond it.
MIN_OPS = 100
#: A window that cannot reach MIN_OPS stops after this many times --seconds.
WINDOW_CAP = 3.0
#: Seconds between host probes inside a timed window.
PROBE_EVERY = 0.5


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (broken checkout, dead server)."""


# -- spans ---------------------------------------------------------------------


class Spans:
    """Benchmark-side spans around calls into the library, kept in memory.

    Each record is ``[name, start, end, parent index]``; parents are tracked
    per thread, so the serve load generator's two callers nest correctly.
    Self time is a span's duration minus the durations of its direct
    children.  A disabled recorder costs one attribute check per span.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.records)
            self.records.append(
                [name, time.perf_counter(), None, stack[-1] if stack else None]
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.records[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [
            end - start
            for span_name, start, end, _ in self.records
            if span_name == name and end is not None
        ]

    def table(self) -> dict:
        """Per-name ``{count, total_s, self_s}`` over every closed span."""
        children: dict[int, float] = {}
        for _, start, end, parent in self.records:
            if parent is not None and end is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        table: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.records):
            if end is None:
                continue
            entry = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += max(0.0, end - start - children.get(index, 0.0))
        return table


NO_SPANS = Spans(enabled=False)


# -- host probe ----------------------------------------------------------------


def host_probe() -> float:
    """Milliseconds for a fixed NumPy loop plus a pure-Python loop.

    Runs no library code, so a run taken while the host is slow shows a
    larger figure beside its own numbers.
    """
    import numpy as np

    start = time.perf_counter()
    values = np.arange(1 << 16, dtype=np.float64)
    for _ in range(8):
        values = np.sqrt(values * values + 1.0)
    total = 0
    for index in range(20000):
        total += index * index
    return (time.perf_counter() - start) * 1e3


# -- timed windows -------------------------------------------------------------


class Window:
    """One closed-loop timed window.

    ``op(index)`` runs one operation and returns ``(latency seconds, ok)``;
    an exception counts as a failed op.  With ``callers > 1`` that many
    threads each keep one op in flight.  The window lasts ``seconds`` and at
    least ``min_ops`` verified ops (capped at :data:`WINDOW_CAP` times
    ``seconds``).  Host probes run every :data:`PROBE_EVERY` seconds: between
    ops for one caller (their time is left out of the throughput
    denominator), from the idle main thread for several.
    """

    def __init__(self, seconds: float, callers: int = 1, min_ops: int = MIN_OPS) -> None:
        self.seconds = seconds
        self.callers = callers
        self.min_ops = min_ops
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.probes: list[float] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)

    def _call(self, op, index: int) -> None:
        try:
            latency, ok = op(index)
        except Exception as exc:  # any failure of the program is one failed op
            self.failures.append("%s: %s" % (type(exc).__name__, exc))
            return
        if ok:
            self.latencies.append(latency)
        else:
            self.failures.append("result mismatch on op %d" % index)

    def _done(self, started: float) -> bool:
        waited = time.perf_counter() - started
        return (
            waited >= self.seconds and len(self.latencies) >= self.min_ops
        ) or waited >= WINDOW_CAP * self.seconds

    def _probe(self) -> float:
        begin = time.perf_counter()
        self.probes.append(host_probe())
        return time.perf_counter() - begin

    def run(self, op) -> "Window":
        if self.callers == 1:
            return self._run_serial(op)
        return self._run_threads(op)

    def _run_serial(self, op) -> "Window":
        started = time.perf_counter()
        probing = 0.0
        next_probe = started
        index = 0
        while not self._done(started):
            if time.perf_counter() >= next_probe:
                probing += self._probe()
                next_probe = time.perf_counter() + PROBE_EVERY
            self._call(op, index)
            index += 1
        self.elapsed = time.perf_counter() - started - probing
        return self

    def _run_threads(self, op) -> "Window":
        stop = threading.Event()
        counter = iter(range(1 << 62))
        lock = threading.Lock()

        def caller() -> None:
            while not stop.is_set():
                with lock:
                    index = next(counter)
                self._call(op, index)

        threads = [
            threading.Thread(target=caller, name="perfbench-caller-%d" % n, daemon=True)
            for n in range(self.callers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        while not self._done(started):
            self._probe()
            time.sleep(PROBE_EVERY)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise BenchmarkError("a load-generator caller did not finish")
        self.elapsed = time.perf_counter() - started
        return self

    def summary(self) -> dict:
        """Latency percentiles (ms), throughput (ops/s) and the probe median."""
        if len(self.latencies) < 2:
            raise BenchmarkError(
                "the timed window completed only %d verified op(s)" % len(self.latencies)
            )
        return {
            "latency_ms_p50": statistics.median(self.latencies) * 1e3,
            "latency_ms_p90": statistics.quantiles(
                self.latencies, n=10, method="inclusive"
            )[-1] * 1e3,
            "throughput_ops_s": len(self.latencies) / self.elapsed,
            "ops": len(self.latencies),
            "host_probe_ms": statistics.median(self.probes) if self.probes else None,
        }


# -- process statistics --------------------------------------------------------


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of a process in MiB (this process by default)."""
    if pid is None or pid == os.getpid():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("no VmHWM line for process %d" % pid)


def unshared_peak_mb(pid: int) -> float:
    """Peak RSS of a forked process less the pages it now shares, in MiB.

    A forked pool worker's RSS includes every page it inherited from the
    process that forked it, and how many those are depends on how much
    freed memory that process's heap still held at the fork (bimodal,
    about 44 or 80 MiB for bootstrap-30).  Summing plain peaks counts those
    pages once per worker; this counts what the worker added to them.
    """
    shared_kb = 0
    with open("/proc/%d/smaps_rollup" % pid) as handle:
        for line in handle:
            if line.startswith(("Shared_Clean:", "Shared_Dirty:")):
                shared_kb += int(line.split()[1])
    return peak_rss_mb(pid) - shared_kb / 1024.0


def proc_stat(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command name.

    They start at field 3 of proc(5): the state is ``[0]``, the parent PID
    ``[1]``, the session ``[3]``, minflt ``[7]`` and stime ``[12]``.
    """
    with open("/proc/%d/stat" % pid) as handle:
        data = handle.read()
    return data[data.rindex(")") + 2 :].split()


def processes_where(field: int, value: int) -> list[int]:
    """PIDs of every process whose :func:`proc_stat` ``field`` is ``value``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = proc_stat(int(entry))
        except OSError:  # ended while listed
            continue
        if int(fields[field]) == value:
            pids.append(int(entry))
    return pids


def fault_counters(pid: int | None = None) -> tuple[int, float]:
    """``(minor page faults, system CPU seconds)`` of a process so far."""
    if pid is None or pid == os.getpid():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_minflt, usage.ru_stime
    fields = proc_stat(pid)
    return int(fields[7]), int(fields[12]) / os.sysconf("SC_CLK_TCK")


def worker_pids() -> list[int]:
    """PIDs of this process's live multiprocessing children (pool workers)."""
    return [child.pid for child in multiprocessing.active_children()]


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every multiprocessing child to exit; terminate stragglers."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:  # reaped elsewhere already
        return True


def stop_processes(grace: float = 10.0) -> None:
    """End every process this run started, and wait until each has ended.

    Pool workers are multiprocessing children and are joined first.  The
    resource tracker that the first shared-memory segment starts is not one
    of them: it ignores SIGTERM and ends only when its pipe closes, which
    ``_stop`` does before it waits for the tracker.  Live segments are
    unlinked before that, because an unlink afterwards would start a new
    tracker.  A child still running after ``grace`` seconds (the server of
    a failed run) is sent SIGTERM, and after as long again SIGKILL.
    """
    reap_children()
    gc.collect()
    pool = sys.modules.get("repro.backends.pool")
    if pool is not None:
        pool.get_arena().shutdown()
    resource_tracker._resource_tracker._stop()
    pids = processes_where(1, os.getpid())
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, sig)
        deadline = time.monotonic() + grace
        while pids and time.monotonic() < deadline:
            pids = [pid for pid in pids if not _reaped(pid)]
            if pids:
                time.sleep(0.01)
        if not pids:
            return
    raise BenchmarkError("child processes %s did not end" % pids)


# -- results -------------------------------------------------------------------


def ct_digest(ciphertext) -> str:
    """Backend-independent digest of a ciphertext (level, primes, residues).

    Goes through the public ``to_coeff_lists`` boundary, so it is only used
    outside counted windows: on a session's first result per input.
    """
    digest = hashlib.sha256()
    digest.update(repr(ciphertext.level).encode())
    for poly in ciphertext.polys:
        digest.update(repr((poly.basis.primes, poly.domain.value)).encode())
        digest.update(repr(poly.to_coeff_lists()).encode())
    return digest.hexdigest()


def same_ciphertext(backend, result, reference) -> bool:
    """Bit-for-bit equality of two ciphertexts resident on ``backend``."""
    return (
        result.level == reference.level
        and len(result.polys) == len(reference.polys)
        and all(
            mine.basis.primes == theirs.basis.primes
            and mine.domain == theirs.domain
            and backend.tensor_equal(mine.tensor, theirs.tensor)
            for mine, theirs in zip(result.polys, reference.polys)
        )
    )


def spanned(op, spans: Spans, name: str):
    """``op`` wrapped in a benchmark-side span per call."""
    def run(index):
        with spans.span(name):
            return op(index)

    return run


def timed_outcome(setups, window: Window, rss_mb: float, attempted: int, failed: int,
                  engine_choices) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed run, and what explains them."""
    summary = window.summary()
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": summary["latency_ms_p50"],
        "latency_ms_p90": summary["latency_ms_p90"],
        "throughput_ops_s": summary["throughput_ops_s"],
        "peak_rss_mb": rss_mb,
    }
    info = {
        "ops": summary["ops"],
        "host_probe_ms": summary["host_probe_ms"],
        "setup_samples_s": setups,
        "engine_choices": engine_choices,
        "failures": window.failures[:5],
    }
    outcome = {
        "metrics": metrics,
        "attempted": attempted + window.attempted,
        "failed": failed + len(window.failures),
    }
    return outcome, info


def write_record(name: str, payload: dict) -> str:
    """Write a run record under :data:`OUT`; returns its path."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
    return path
