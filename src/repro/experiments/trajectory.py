"""Reader of the committed performance ledger, ``BENCH_trajectory.json``.

Each ledger entry compares one change with its parent on one benchmark
workload: the change-to-parent ratio of every end-to-end median, from
alternating pairs run in one session, and the exact per-op counts of one
traced run per side.  Absolute timings drift between sessions, so the
reader never compares them across entries.  It chains each metric's ratios
into a cumulative line per workload (the product of the ratios since the
first entry), and it flags every entry whose counts moved: NTT rows, pool
hits, dispatches, conversions and fallback rows repeat exactly, so a change
in them is a change in the work, not noise.

Usage::

    python -m repro.experiments trajectory
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["COUNTS", "LEDGER", "count_changes", "cumulative", "format_trajectory", "main"]

#: The ledger at the root of the repository.
LEDGER = Path(__file__).resolve().parents[3] / "BENCH_trajectory.json"
#: The traced counts that repeat exactly from run to run.
COUNTS = (
    "compiler.ntt_rows_per_op",
    "compiler.pool_hits_per_op",
    "pool.dispatches_per_op",
    "backend.conversions_per_op",
    "backend.fallback_rows_per_op",
)


def cumulative(entries: list[dict]) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: running product of ratios, one per entry}}``."""
    lines: dict[str, dict[str, list[float]]] = {}
    for entry in entries:
        metrics = lines.setdefault(entry["workload"], {})
        for metric, record in entry["end_to_end"].items():
            line = metrics.setdefault(metric, [])
            line.append((line[-1] if line else 1.0) * record["ratio"])
    return lines


def count_changes(entries: list[dict]) -> list[tuple[str, str, str, float, float]]:
    """``(workload, parent commit, count, parent, change)`` for every count that moved."""
    changes = []
    for entry in entries:
        counts = entry.get("traced", {}).get("counts", {})
        for name in COUNTS:
            record = counts.get(name)
            if record is not None and record["parent"] != record["change"]:
                changes.append(
                    (entry["workload"], entry["parent"], name, record["parent"], record["change"])
                )
    return changes


def format_trajectory(ledger: dict) -> str:
    """The cumulative lines and the count changes, as plain text."""
    entries = ledger["entries"]
    out = ["end-to-end medians, change over parent, chained over the entries:"]
    for workload, metrics in cumulative(entries).items():
        out.append("  %s" % workload)
        for metric, line in metrics.items():
            out.append(
                "    %-18s %s" % (metric, "  ".join("%.3fx" % value for value in line))
            )
    out.append("counts that changed (they repeat exactly, so every change is real):")
    changes = count_changes(entries)
    for workload, parent, name, before, after in changes:
        out.append(
            "  %-12s %-28s %g -> %g  (over parent %s)"
            % (workload, name, before, after, parent[:8])
        )
    if not changes:
        out.append("  none")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python -m repro.experiments trajectory", file=sys.stderr)
        return 2
    try:
        ledger = json.loads(LEDGER.read_text())
    except (OSError, ValueError) as exc:
        print("error: cannot read %s: %s" % (LEDGER, exc), file=sys.stderr)
        return 1
    print(format_trajectory(ledger))
    return 0
