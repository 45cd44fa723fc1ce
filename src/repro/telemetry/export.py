"""Exporters for captured span events: Chrome trace JSON and a text summary.

Two consumers, two formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``{"traceEvents": [...]}``), loadable in
  Perfetto or ``chrome://tracing``.  Worker spans ingested from pool
  processes keep their own ``pid``, so the viewer shows one track per
  worker under named process rows.
* :func:`summarize` / :func:`format_summary` — per-span-name **self
  time** (inclusive minus direct children), the measured counterpart of
  the paper's kernel-share breakdown.  Self time is what makes the NTT
  share honest: a fused ``plan.execute`` span *contains* its ``op.*``
  spans, so naive inclusive sums would double-count every nested level.
"""

from __future__ import annotations

import json

from .tracer import ATTRS, NAME, PARENT, PHASE, PID, SID, TID, TS

__all__ = [
    "chrome_trace",
    "format_summary",
    "summarize",
    "write_chrome_trace",
]

#: Span names whose self time counts as NTT work in :func:`summarize`.
#: ``ntt.`` prefixed spans (the engine kernels) are matched by prefix.
_NTT_NAMES = frozenset({"op.forward_ntt", "op.inverse_ntt"})


def _is_ntt(name: str) -> bool:
    return name in _NTT_NAMES or name.startswith("ntt.")


def chrome_trace(events: list[tuple]) -> dict:
    """Convert raw tracer events into a Chrome trace-event JSON object.

    Timestamps become microseconds relative to the earliest event, which
    keeps the JSON compact and sidesteps viewers that choke on large
    absolute ``CLOCK_MONOTONIC`` values.  A ``process_name`` metadata
    event labels each PID so pool workers are identifiable in the UI.
    """
    if not events:
        return {"traceEvents": []}
    base = min(event[TS] for event in events)
    pids = []
    trace_events = []
    for event in sorted(events, key=lambda ev: ev[TS]):
        if event[PID] not in pids:
            pids.append(event[PID])
        entry = {
            "ph": event[PHASE],
            "name": event[NAME],
            "ts": (event[TS] - base) * 1e6,
            "pid": event[PID],
            "tid": event[TID],
            "cat": "repro",
        }
        args = dict(event[ATTRS]) if event[ATTRS] else {}
        args["sid"] = event[SID]
        if event[PARENT] is not None:
            args["parent"] = event[PARENT]
        entry["args"] = args
        trace_events.append(entry)
    # The first PID to appear is the coordinator (it opens the outermost
    # span before any worker records anything).
    meta = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": "main" if index == 0 else "pool worker %d" % pid},
        }
        for index, pid in enumerate(pids)
    ]
    return {"traceEvents": meta + trace_events}


def write_chrome_trace(path: str, events: list[tuple]) -> None:
    """Serialize :func:`chrome_trace` output to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(events), handle)


def summarize(events: list[tuple]) -> dict:
    """Per-name time accounting from balanced begin/end events.

    Returns ``{"names": {name: {count, total, self}}, "total_self_seconds",
    "ntt_self_seconds", "ntt_share"}``.  ``self`` is inclusive duration
    minus the inclusive duration of *direct* children (linked by the
    parent sid), so summing self time over all names partitions wall
    time exactly once.  Unbalanced spans (a begin whose end was never
    recorded — e.g. a capture stopped mid-span) are dropped.
    """
    begins: dict[str, tuple] = {}
    durations: dict[str, float] = {}
    spans = []  # (sid, name, duration, parent)
    for event in events:
        if event[PHASE] == "B":
            begins[event[SID]] = event
        elif event[PHASE] == "E":
            begin = begins.pop(event[SID], None)
            if begin is None:
                continue
            duration = event[TS] - begin[TS]
            durations[event[SID]] = duration
            spans.append((event[SID], event[NAME], duration, begin[PARENT]))

    child_time: dict[str, float] = {}
    for sid, _name, duration, parent in spans:
        if parent is not None and parent in durations:
            child_time[parent] = child_time.get(parent, 0.0) + duration

    names: dict[str, dict] = {}
    total_self = 0.0
    ntt_self = 0.0
    for sid, name, duration, _parent in spans:
        self_time = max(duration - child_time.get(sid, 0.0), 0.0)
        stats = names.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        stats["count"] += 1
        stats["total"] += duration
        stats["self"] += self_time
        total_self += self_time
        if _is_ntt(name):
            ntt_self += self_time

    return {
        "names": names,
        "total_self_seconds": total_self,
        "ntt_self_seconds": ntt_self,
        "ntt_share": (ntt_self / total_self) if total_self > 0.0 else 0.0,
    }


def format_summary(stats: dict) -> str:
    """Render :func:`summarize` output as the text table the CLI prints.

    The closing line reports the measured NTT time share — the span-level
    counterpart of the paper's finding that (i)NTT dominates HE kernel
    time (50.04% of bootstrapping on the paper's GPU baseline).
    """
    names = stats["names"]
    total = stats["total_self_seconds"]
    lines = [
        "span name                     count     self ms    share",
        "---------                     -----     -------    -----",
    ]
    ordered = sorted(names.items(), key=lambda item: -item[1]["self"])
    for name, entry in ordered:
        share = (entry["self"] / total) if total > 0.0 else 0.0
        lines.append(
            "%-28s %6d %11.3f %7.1f%%"
            % (name, entry["count"], entry["self"] * 1e3, share * 100.0)
        )
    lines.append(
        "measured NTT time share: %.1f%% of %.3f ms traced "
        "(paper reports 50.04%% of GPU bootstrapping in (i)NTT)"
        % (stats["ntt_share"] * 100.0, total * 1e3)
    )
    return "\n".join(lines)
