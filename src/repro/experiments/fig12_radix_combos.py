"""Figure 12 — SMEM radix combinations across N, and the effect of OT.

Three sub-figures, all at np = 21 with the 8-point-per-thread SMEM NTT:

* (a) execution time for every Kernel-1 x Kernel-2 split the paper lists per
  logN in {14, 15, 16, 17}, with and without on-the-fly twiddling — the
  spread between splits is small (<= 7.5% / 15.7% / 16.3% for logN 16/15/14).
* (b) the speedup and DRAM-bandwidth utilisation of the best split with and
  without OT (9.3% average speedup, 16.7% lower utilisation with OT).
* (c) the DRAM access volume with and without OT (24-25% reduction).
"""

from __future__ import annotations

from ..core.on_the_fly import OnTheFlyConfig
from ..gpu.costmodel import GpuCostModel
from ..kernels.base import KernelModelResult
from ..kernels.smem import smem_ntt_model
from .measured import measured_forward_ms, measurement_backend, measurement_shape
from .report import ExperimentResult

__all__ = [
    "SPLITS_BY_LOGN",
    "PAPER_TRAFFIC_REDUCTION",
    "PAPER_MEAN_SPEEDUP",
    "run",
    "best_split",
    "scaled_split",
]

#: Kernel-1 x Kernel-2 combinations plotted by Figure 12(a) for each logN.
SPLITS_BY_LOGN = {
    14: ((256, 64), (128, 128), (64, 256), (32, 512)),
    15: ((512, 64), (256, 128), (128, 256), (64, 512)),
    16: ((512, 128), (256, 256), (128, 512), (64, 1024)),
    17: ((512, 256), (256, 512), (128, 1024), (64, 2048)),
}
BATCH = 21
OT_STAGES = 2
PAPER_TRAFFIC_REDUCTION = {14: 0.251, 15: 0.245, 16: 0.235, 17: 0.245}
PAPER_MEAN_SPEEDUP = 0.093


def best_split(
    log_n: int, model: GpuCostModel, ot: OnTheFlyConfig | None = None, batch: int = BATCH
) -> tuple[tuple[int, int], KernelModelResult]:
    """Return the best-performing Kernel-1 x Kernel-2 split for ``log_n``."""
    n = 1 << log_n
    best_pair = None
    best_result = None
    for kernel1, kernel2 in SPLITS_BY_LOGN[log_n]:
        result = smem_ntt_model(
            n, batch, model, kernel1_size=kernel1, kernel2_size=kernel2,
            per_thread_points=8, ot=ot,
        )
        if best_result is None or result.time_us < best_result.time_us:
            best_pair, best_result = (kernel1, kernel2), result
    return best_pair, best_result


def scaled_split(log_n: int, kernel1: int, kernel2: int, measure_log_n: int) -> tuple[int, int]:
    """Scale a Kernel-1 x Kernel-2 split down to the measurement transform size.

    Drops the excess stages as evenly as possible from both kernels so the
    split's *shape* (the K1:K2 ratio) survives, which is what the four-step
    engine sweep compares.
    """
    drop = log_n - measure_log_n
    if drop <= 0:
        return kernel1, kernel2
    k1 = max(2, kernel1 >> ((drop + 1) // 2))
    n = 1 << measure_log_n
    return k1, n // k1


def run(model: GpuCostModel | None = None) -> ExperimentResult:
    """Reproduce Figure 12 (SMEM radix combinations, OT speedup and traffic).

    Each model row additionally carries the measured execution of the same
    kernel split on the real data plane: the two-kernel decomposition is the
    four-step transform, so the ``four_step:<K1>`` engine (split scaled to
    the measurement size) runs through the production backend path next to
    the cost-model numbers.
    """
    model = model if model is not None else GpuCostModel()
    ot_config = OnTheFlyConfig(base=1024, ot_stages=OT_STAGES)
    backend_name = measurement_backend(engine="radix2").name
    measure_log_n, measure_batch = measurement_shape(backend_name)
    measured_radix2_ms = measured_forward_ms(engine="radix2")

    rows: list[dict[str, object]] = []
    summary_notes: list[str] = []
    speedups = []
    for log_n, splits in SPLITS_BY_LOGN.items():
        n = 1 << log_n
        for kernel1, kernel2 in splits:
            without_ot = smem_ntt_model(
                n, BATCH, model, kernel1_size=kernel1, kernel2_size=kernel2, per_thread_points=8
            )
            with_ot = smem_ntt_model(
                n, BATCH, model, kernel1_size=kernel1, kernel2_size=kernel2,
                per_thread_points=8, ot=ot_config,
            )
            k1m, k2m = scaled_split(log_n, kernel1, kernel2, measure_log_n)
            measured_ms = measured_forward_ms(engine="four_step:%d" % k1m)
            rows.append(
                {
                    "logN": log_n,
                    "Kernel-1 x Kernel-2": "%dx%d" % (kernel1, kernel2),
                    "time w/o OT (us)": without_ot.time_us,
                    "time w/ OT (us)": with_ot.time_us,
                    "OT speedup": without_ot.time_us / with_ot.time_us,
                    "DRAM w/o OT (MB)": without_ot.dram_mb,
                    "DRAM w/ OT (MB)": with_ot.dram_mb,
                    "DRAM reduction": 1.0 - with_ot.dram_mb / without_ot.dram_mb,
                    "BW util w/o OT": without_ot.bandwidth_utilization,
                    "BW util w/ OT": with_ot.bandwidth_utilization,
                    "measured split": "%dx%d" % (k1m, k2m),
                    "measured four-step (ms)": measured_ms,
                    "measured vs radix-2": measured_radix2_ms / measured_ms,
                }
            )

        (_, best_without) = best_split(log_n, model, ot=None)
        (_, best_with) = best_split(log_n, model, ot=ot_config)
        speedup = best_without.time_us / best_with.time_us
        speedups.append(speedup)
        summary_notes.append(
            "logN=%d best split: OT speedup %.1f%% (paper %.1f%%), DRAM reduction %.1f%% (paper %.1f%%)"
            % (
                log_n,
                100 * (speedup - 1),
                100 * ({17: 0.081, 16: 0.098, 15: 0.092, 14: 0.101}[log_n]),
                100 * (1 - best_with.dram_mb / best_without.dram_mb),
                100 * PAPER_TRAFFIC_REDUCTION[log_n],
            )
        )
    mean_speedup = sum(speedups) / len(speedups)
    summary_notes.append(
        "mean OT speedup across logN: %.1f%% (paper average 9.3%%)" % (100 * (mean_speedup - 1))
    )
    summary_notes.append(
        "paper: spread between radix combinations is at most 7.5/15.7/16.3 percent for logN 16/15/14"
    )
    summary_notes.append(
        "measured columns: the four_step engine (split scaled to N=2^%d, batch=%d) "
        "through the %s backend, vs the measured radix2 engine baseline (%.3f ms); "
        "OT is a twiddle-memory policy with no CPU counterpart, so only the "
        "split axis is measured" % (measure_log_n, measure_batch, backend_name, measured_radix2_ms)
    )
    return ExperimentResult(
        experiment_id="Figure 12",
        title="SMEM implementation across Kernel-1 x Kernel-2 splits and N, with and without OT (np = 21)",
        columns=list(rows[0].keys()),
        rows=rows,
        notes=summary_notes,
    )
