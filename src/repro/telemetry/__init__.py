"""Zero-dependency telemetry for the execution stack: spans + metrics + export.

The paper this repo reproduces is a workload characterization — its whole
contribution is *measurement* — so the reproduction ships its own
measurement plane instead of ad-hoc counters:

* :data:`TRACER` (:mod:`repro.telemetry.tracer`) — process-wide span
  recording across plan compile/execute, fused stages, per-node kernels,
  NTT engines, boundary conversions and pool round trips, with worker
  spans shipped back across the process boundary.
* :class:`MetricsRegistry` (:mod:`repro.telemetry.metrics`) — named
  counters/gauges/histograms behind ``HeContext.metrics()`` /
  ``reset_metrics()``.
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto)
  and the NTT-share text summary.

Three equivalent ways to turn tracing on:

* ``REPRO_TRACE=trace.json python examples/fused_pipeline.py`` — any
  entry point that builds an :class:`~repro.he.context.HeContext`
  (the trace file is written at interpreter exit);
* ``HeContext.create(params, trace="trace.json")``;
* ``python -m repro.experiments --trace trace.json ...``.

When tracing is off the entire subsystem collapses to one attribute
check per instrumented call — no events, no allocation (pinned by
``benchmarks/test_bench_telemetry.py``).
"""

from __future__ import annotations

import atexit
import os

from .export import chrome_trace, format_summary, summarize, write_chrome_trace
from .log import JsonLinesLog
from .metrics import MetricsRegistry
from .profiler import (
    PROFILE_ENV_VAR,
    PROFILER,
    SamplingProfiler,
    disable_profiling,
    enable_profiling,
    flush_profile,
    maybe_enable_profiling_from_env,
    profile_tag,
)
from .spantree import REQUEST_SPAN, request_ids, request_tree, span_index
from .tracer import NULL_SPAN, TRACER, Span, Tracer

__all__ = [
    "JsonLinesLog",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROFILE_ENV_VAR",
    "PROFILER",
    "REQUEST_SPAN",
    "SamplingProfiler",
    "Span",
    "TRACE_ENV_VAR",
    "TRACER",
    "Tracer",
    "chrome_trace",
    "disable_profiling",
    "disable_tracing",
    "enable_profiling",
    "enable_tracing",
    "flush_profile",
    "flush_trace",
    "format_summary",
    "maybe_enable_from_env",
    "maybe_enable_profiling_from_env",
    "profile_tag",
    "request_ids",
    "request_tree",
    "span_index",
    "summarize",
    "write_chrome_trace",
]

#: Set to a file path to capture a Chrome trace of the whole process.
TRACE_ENV_VAR = "REPRO_TRACE"

_trace_path: str | None = None
_flush_registered = False
_flush_pid: int | None = None


def enable_tracing(path: str | None = None) -> None:
    """Start span capture; with ``path``, also write a Chrome trace at exit.

    Idempotent — re-enabling updates the output path without dropping
    events already captured.
    """
    global _trace_path, _flush_registered, _flush_pid
    if path is not None:
        _trace_path = path
        if not _flush_registered:
            _flush_registered = True
            _flush_pid = os.getpid()
            atexit.register(flush_trace)
    TRACER.start()


def disable_tracing() -> None:
    """Stop span capture (captured events stay readable until ``clear``)."""
    TRACER.stop()


def maybe_enable_from_env() -> None:
    """Enable tracing if :data:`TRACE_ENV_VAR` names an output path.

    A no-op when tracing is already on, so an explicit
    ``HeContext.create(trace=...)`` wins over the environment.
    """
    if TRACER.enabled:
        return
    path = os.environ.get(TRACE_ENV_VAR)
    if path:
        enable_tracing(path)


def flush_trace() -> None:
    """Write the captured events to the registered trace path (if any).

    PID-guarded: forked pool workers inherit the atexit hook but must
    never clobber the coordinator's trace file.
    """
    if _trace_path is None or os.getpid() != _flush_pid:
        return
    write_chrome_trace(_trace_path, TRACER.events())
