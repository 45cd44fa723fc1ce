"""Tests for the experiment harness: every paper table/figure regenerates with the right shape."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, format_experiment, format_table, run_all, run_experiment
from repro.experiments import (
    ablation_ot_base,
    ablation_word_size,
    fig01_modmul,
    fig03_batching,
    fig04_high_radix,
    fig05_dft_high_radix,
    fig07_coalescing,
    fig08_table_size,
    fig09_preload,
    fig11_per_thread,
    fig12_radix_combos,
    fig13_batch_sweep,
    prior_work,
    table2_summary,
)
from repro.experiments.report import ExperimentResult
from repro.gpu.costmodel import GpuCostModel

MODEL = GpuCostModel()


# ---------------------------------------------------------------- report plumbing


def test_format_table_and_experiment():
    result = ExperimentResult(
        experiment_id="X",
        title="demo",
        columns=["a", "b"],
        rows=[{"a": 1, "b": 2.5}, {"a": 10, "b": None}],
        notes=["hello"],
    )
    text = format_experiment(result)
    assert "X — demo" in text
    assert "note: hello" in text
    assert "2.500" in text
    assert result.column("a") == [1, 10]
    assert result.row_by("a", 10)["b"] is None
    with pytest.raises(KeyError):
        result.row_by("a", 99)
    assert format_table(["only"], []) == "only"


def test_registry_contains_all_paper_artifacts():
    for key in ("fig1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig11", "fig12",
                "fig13", "table2", "prior_work"):
        assert key in EXPERIMENTS
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_run_all_produces_one_result_per_experiment():
    results = run_all(MODEL)
    assert len(results) == len(EXPERIMENTS)
    for result in results:
        assert isinstance(result, ExperimentResult)
        assert result.rows
        assert result.columns


# ---------------------------------------------------------------- per-figure shapes


def test_fig1_shoup_vs_native_ratio():
    result = fig01_modmul.run(MODEL)
    shoup = result.row_by("modmul", "Shoup")
    assert 2.0 < shoup["model speedup vs native"] < 3.2  # paper: 2.37x


def test_fig3_batching_saturates():
    result = fig03_batching.run(MODEL)
    first, last = result.rows[0], result.rows[-1]
    assert last["batch"] == 21
    assert 1.5 < last["NTT speedup vs batch=1"] < 2.5  # paper: 1.92x
    assert 1.5 < last["DFT speedup vs batch=1"] < 2.5  # paper: 1.84x
    assert last["NTT DRAM utilization"] > 0.8  # paper: 86.7%
    assert first["NTT DRAM utilization"] < last["NTT DRAM utilization"]


def test_fig4_best_radix_and_collapse():
    result = fig04_high_radix.run(MODEL)
    for log_n in (16, 17):
        subset = [r for r in result.rows if r["logN"] == log_n]
        best = min(subset, key=lambda r: r["model time (us)"])
        assert best["radix"] == 16  # paper's best radix
        radix2 = next(r for r in subset if r["radix"] == 2)
        assert 2.0 < radix2["model time (us)"] / best["model time (us)"] < 3.5  # paper: 2.41x
    radix32 = result.row_by("radix", 32)
    assert radix32["DRAM utilization"] < 0.7


def test_fig4_measured_engine_columns():
    """Every radix row carries a positive measured-engine time from the backend path."""
    result = fig04_high_radix.run(MODEL)
    for row in result.rows:
        assert row["measured time (ms)"] > 0
        assert row["measured speedup vs radix-2"] > 0
    radix2 = result.row_by("radix", 2)
    assert radix2["measured speedup vs radix-2"] == pytest.approx(1.0)


def test_fig5_dft_best_radix():
    result = fig05_dft_high_radix.run(MODEL)
    subset = [r for r in result.rows if r["logN"] == 17]
    best = min(subset, key=lambda r: r["model time (us)"])
    assert best["radix"] == 32  # paper's best DFT radix
    assert all(r["measured NTT time (ms)"] > 0 for r in result.rows)


def test_fig7_coalescing_gain():
    result = fig07_coalescing.run(MODEL)
    for row in result.rows:
        assert 1.1 < row["speedup from coalescing"] < 1.5  # paper mean: 21.6%


def test_fig8_twiddle_growth():
    result = fig08_table_size.run(MODEL)
    ratios = result.column("twiddle / input ratio")
    assert ratios[-1] == pytest.approx(0.5)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert result.rows[-1]["twiddle bytes (with Shoup)"] == result.rows[-1]["input bytes"]


def test_fig9_preload_gain():
    result = fig09_preload.run(MODEL)
    for row in result.rows:
        assert 1.0 < row["speedup from preloading"] < 1.3  # paper mean: 8.4%


def test_fig11_smem_beats_register_and_per_thread_ordering():
    result = fig11_per_thread.run(MODEL)
    for row in result.rows:
        assert row["NTT 8-pt (us)"] < row["NTT 2-pt (us)"]
        assert row["NTT 8-pt OT last-1 (us)"] < row["NTT 8-pt (us)"]
        assert row["DFT 8-pt (us)"] < row["NTT 8-pt (us)"]


def test_fig12_ot_speedup_and_traffic():
    result = fig12_radix_combos.run(MODEL)
    for row in result.rows:
        assert 1.04 < row["OT speedup"] < 1.20  # paper: 8-10%
        assert 0.10 < row["DRAM reduction"] < 0.30  # paper: 23.5-25.1%
        assert row["BW util w/ OT"] < row["BW util w/o OT"]  # paper: utilisation drops
        # measured companion: the scaled four-step split really ran
        assert row["measured four-step (ms)"] > 0
        k1, k2 = (int(v) for v in row["measured split"].split("x"))
        assert k1 >= 2 and k2 >= 1 and (k1 * k2) & (k1 * k2 - 1) == 0


def test_fig12_scaled_split_preserves_product():
    for log_n, splits in fig12_radix_combos.SPLITS_BY_LOGN.items():
        for k1, k2 in splits:
            for measure_log_n in (8, 12):
                m1, m2 = fig12_radix_combos.scaled_split(log_n, k1, k2, measure_log_n)
                assert m1 * m2 == 1 << measure_log_n
                assert m1 >= 2 and m2 >= 1


def test_fig13_linear_in_np():
    result = fig13_batch_sweep.run(MODEL)
    saturated = [r for r in result.rows if r["np"] >= 21]
    per_prime = [r["model time per prime (us)"] for r in saturated]
    assert max(per_prime) / min(per_prime) < 1.05  # linear once saturated
    assert all(r["measured time (ms)"] > 0 for r in result.rows)


def test_table2_speedups_in_range():
    result = table2_summary.run(MODEL)
    assert len(result.rows) == 4
    for row in result.rows:
        assert 3.0 < row["SMEM w/o OT speedup"] < 5.5   # paper 3.4-4.3x
        assert row["SMEM w/ OT speedup"] > row["SMEM w/o OT speedup"]  # OT helps
        assert 3.3 < row["SMEM w/ OT speedup"] < 6.0    # paper 3.8-4.7x
        # absolute modelled times are within 35% of the paper's measurements
        assert row["radix-2 (us)"] == pytest.approx(row["paper radix-2 (us)"], rel=0.35)
        assert row["SMEM w/o OT (us)"] == pytest.approx(row["paper SMEM w/o OT (us)"], rel=0.35)


def test_prior_work_speedups():
    result = prior_work.run(MODEL)
    for row in result.rows:
        assert 4.0 < row["model speedup"] < 9.0  # paper: 6.48-6.56x


def test_word_size_ablation_small_difference():
    result = ablation_word_size.run(MODEL)
    times = result.column("model time (us)")
    difference = abs(times[0] - times[1]) / max(times)
    assert difference < 0.15  # paper: ~5%


def test_word_size_ablation_measured_columns():
    """Both word-size rows carry a real measured time from the production
    forward_ntt_batch path — the 60-bit row rides the wide-word window."""
    result = ablation_word_size.run(MODEL)
    assert all(row["measured (ms)"] > 0 for row in result.rows)
    assert any("wide-word" in note for note in result.notes)


def test_word_size_ablation_honours_prime_bits_override():
    from repro.experiments.measured import set_measure_prime_bits

    set_measure_prime_bits(32)
    try:
        result = ablation_word_size.run(MODEL)
        assert any("x 32-bit rows (wide-word" in note for note in result.notes)
    finally:
        set_measure_prime_bits(None)


def test_ntt_share_measured_share_is_sane():
    from repro.experiments import ntt_share

    result = ntt_share.run(MODEL)
    for row in result.rows:
        assert 0.0 < row["measured NTT share"] < 1.0
        assert row["measured NTT (ms)"] < row["measured total (ms)"]
    assert any("30-bit primes" in note for note in result.notes)


def test_ntt_share_note_names_how_the_scalar_backend_ran(monkeypatch):
    """On the scalar oracle nothing is vectorised, and the note says so."""
    from repro.experiments import ntt_share

    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    result = ntt_share.run(MODEL)
    (note,) = [note for note in result.notes if note.startswith("measured columns")]
    assert "on the scalar backend" in note
    assert "vectorised" not in note
    assert "pure-Python" in note
    assert 0.0 < result.rows[0]["measured NTT share"] < 1.0


def test_ntt_share_note_reports_the_measured_word_size(capsys):
    from repro.experiments.__main__ import main
    from repro.experiments.measured import measure_prime_bits, set_measure_prime_bits

    try:
        assert main(["--p-bits", "60", "ntt_share"]) == 0
        assert measure_prime_bits() == 60
    finally:
        set_measure_prime_bits(None)
    out = capsys.readouterr().out
    assert "60-bit primes" in out
    assert "30-bit primes" not in out


# ------------------------------------------------------------------- CLI


def test_cli_runs_selected_experiment(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out


def test_cli_rejects_unknown_keys_and_backends(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig99"]) == 2
    assert main(["--backend", "no-such-backend", "fig8"]) == 2
    assert main(["--engine", "no-such-engine", "fig8"]) == 2
    assert main(["--engine", "stockham:4", "fig8"]) == 2  # malformed parameter
    assert main(["--p-bits", "70", "fig8"]) == 2  # beyond the wide-word ceiling
    assert main(["--p-bits", "5", "fig8"]) == 2  # no NTT primes that small
    assert main(["--backend", "parallel", "--shards", "0", "fig8"]) == 2
    assert main(["--backend", "parallel", "--engine", "no-such", "fig8"]) == 2
    # --shards without the sharding backend is rejected, not ignored
    assert main(["--backend", "numpy", "--shards", "2", "fig8"]) == 2
    # rejected invocations leak no process-wide defaults: resolution still
    # follows the environment precedence, not the arguments just refused
    import os

    from repro.backends import get_backend

    assert get_backend().name == (os.environ.get("REPRO_BACKEND") or "numpy")
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    assert "parallel backend:" in out  # --list reports shard/worker info


def test_cli_exits_nonzero_when_an_experiment_raises(capsys, monkeypatch):
    """A raising experiment is reported on stderr, the rest still run, exit is 1."""
    from repro.experiments import registry
    from repro.experiments.__main__ import main

    def boom(model=None):
        raise RuntimeError("synthetic failure")

    broken = dict(registry.EXPERIMENTS)
    broken["fig8"] = boom
    monkeypatch.setattr(registry, "EXPERIMENTS", broken)
    monkeypatch.setattr("repro.experiments.__main__.EXPERIMENTS", broken)
    assert main(["fig8", "fig9"]) == 1
    captured = capsys.readouterr()
    assert "synthetic failure" in captured.err
    assert "Figure 9" in captured.out  # later experiments still ran


def test_ot_base_ablation_prefers_moderate_bases():
    result = ablation_ot_base.run(MODEL)
    by_base = {row["OT base"]: row["time (us)"] for row in result.rows}
    assert min(by_base, key=by_base.get) in (256, 1024)  # paper: 1024
    assert by_base[16] > by_base[1024]  # tiny bases pay too many regenerations/refetches
    stored = {row["OT base"]: row["stored twiddles per prime"] for row in result.rows}
    assert stored[1024] == 1024 + (1 << 17) // 1024
