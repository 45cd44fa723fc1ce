"""The performance ledger and its reader (``python -m repro.experiments trajectory``)."""

from __future__ import annotations

import json
import math

from repro.experiments import trajectory
from repro.experiments.__main__ import main

END_TO_END = ("setup_s", "latency_ms_p50", "latency_ms_p90", "throughput_ops_s", "peak_rss_mb")


def ledger() -> dict:
    return json.loads(trajectory.LEDGER.read_text())


def test_every_committed_entry_carries_ratios_runs_and_counts():
    entries = ledger()["entries"]
    assert entries
    for entry in entries:
        assert set(END_TO_END) <= set(entry["end_to_end"])
        for metric in END_TO_END:
            record = entry["end_to_end"][metric]
            assert math.isclose(
                record["ratio"], record["change_median"] / record["parent_median"],
                rel_tol=1e-3,
            ), (entry["workload"], metric)
        sides = [run["side"] for run in entry["runs"]]
        assert sides.count("parent") == sides.count("change") == len(entry["seeds"])
        assert all("cpu_steal_ticks" in run and "host_probe_ms" in run for run in entry["runs"])
        assert set(trajectory.COUNTS) <= set(entry["traced"]["counts"])


def test_cumulative_lines_chain_each_workloads_ratios():
    entries = ledger()["entries"]
    lines = trajectory.cumulative(entries)
    for workload, metrics in lines.items():
        own = [entry for entry in entries if entry["workload"] == workload]
        for metric, line in metrics.items():
            assert len(line) == len(own)
            assert math.isclose(
                line[-1], math.prod(entry["end_to_end"][metric]["ratio"] for entry in own)
            )
    synthetic = [
        {"workload": "w", "end_to_end": {"m": {"ratio": 0.5}}},
        {"workload": "w", "end_to_end": {"m": {"ratio": 0.8}}},
    ]
    assert trajectory.cumulative(synthetic) == {"w": {"m": [0.5, 0.4]}}


def test_count_changes_name_every_count_that_moved():
    changes = trajectory.count_changes(ledger()["entries"])
    moved = {(workload, name) for workload, _, name, _, _ in changes}
    assert ("bootstrap-30", "compiler.ntt_rows_per_op") in moved
    assert all(before != after for *_, before, after in changes)
    assert ("bootstrap-30", "pool.dispatches_per_op") not in moved


def test_the_cli_prints_the_lines_and_rejects_arguments(capsys):
    assert main(["trajectory"]) == 0
    out = capsys.readouterr().out
    assert "latency_ms_p50" in out and "compiler.ntt_rows_per_op" in out
    assert main(["trajectory", "--seconds"]) == 2
