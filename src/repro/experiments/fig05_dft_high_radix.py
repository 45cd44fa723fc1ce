"""Figure 5 — register-based high-radix DFT: time, DRAM traffic, occupancy.

The DFT counterpart of Figure 4, using the paper's custom radix-2^k FFT with
a batch of 21 complex sequences.  The DFT's best radix is 32 (one step higher
than the NTT's 16) because a DFT thread needs no modulus or Shoup-companion
registers, so its occupancy survives one more doubling of the radix; the
paper quantifies the gap as 31.2% lower occupancy for NTT at radix-32.

The measured companion runs on the real data plane: each radix row carries
the measured time of the matching ``high_radix`` *NTT* engine through the
production backend path, and the notes report the measured batched complex
FFT (``np.fft``, this machine's DFT) at the same shape — the NTT-vs-DFT
comparison the figure pair makes, executed instead of modelled.
"""

from __future__ import annotations

from ..gpu.costmodel import GpuCostModel
from ..kernels.high_radix import high_radix_dft_model, high_radix_ntt_model
from .fig04_high_radix import engine_for_radix
from .measured import (
    measured_fft_ms,
    measured_forward_ms,
    measurement_backend,
    measurement_shape,
)
from .report import ExperimentResult

__all__ = ["RADICES", "PAPER_BEST_RADIX", "PAPER_OCCUPANCY_GAP", "run"]

RADICES = (2, 4, 8, 16, 32, 64, 128)
LOG_NS = (16, 17)
BATCH = 21
PAPER_BEST_RADIX = 32
PAPER_OCCUPANCY_GAP = 0.312
PAPER_BEST_TIME_US = 364.2  # radix-32, N = 2^17 (Figure 5(b))


def run(model: GpuCostModel | None = None) -> ExperimentResult:
    """Reproduce Figure 5 (high-radix DFT sweep) with measured companions."""
    model = model if model is not None else GpuCostModel()
    backend_name = measurement_backend(engine=engine_for_radix(2)).name
    measure_log_n, measure_batch = measurement_shape(backend_name)
    measured_ntt = {
        radix: measured_forward_ms(engine=engine_for_radix(radix))
        for radix in RADICES
    }
    fft_ms = measured_fft_ms(log_n=measure_log_n, batch=measure_batch)

    rows: list[dict[str, object]] = []
    for log_n in LOG_NS:
        n = 1 << log_n
        for radix in RADICES:
            result = high_radix_dft_model(n, BATCH, radix, model)
            rows.append(
                {
                    "logN": log_n,
                    "radix": radix,
                    "model time (us)": result.time_us,
                    "DRAM access (MB)": result.dram_mb,
                    "occupancy": result.occupancy,
                    "DRAM utilization": result.bandwidth_utilization,
                    "measured NTT time (ms)": measured_ntt[radix],
                }
            )

    n17 = 1 << 17
    ntt32 = high_radix_ntt_model(n17, BATCH, 32, model).occupancy
    dft32 = high_radix_dft_model(n17, BATCH, 32, model).occupancy
    best = {}
    for log_n in LOG_NS:
        subset = [r for r in rows if r["logN"] == log_n]
        best[log_n] = min(subset, key=lambda r: r["model time (us)"])["radix"]
    notes = [
        "paper: best DFT radix is 32 (time 364.2 us at N=2^17); model best radix: %s" % best,
        "paper: NTT occupancy is 31.2%% lower than DFT at radix-32; model: %.1f%% lower"
        % (100 * (1 - ntt32 / dft32)),
        "measured NTT column: the matching high_radix engine through the %s "
        "backend at N=2^%d, batch=%d (same value for both logN row groups)"
        % (backend_name, measure_log_n, measure_batch),
    ]
    if fft_ms is not None:
        best_ntt_ms = min(measured_ntt.values())
        notes.append(
            "measured DFT at the same shape (np.fft batched complex FFT): "
            "%.3f ms — %.2fx faster than the best measured NTT engine "
            "(%.3f ms); the paper's DFT-faster-than-NTT gap is a "
            "modular-reduction cost, visible here too"
            % (fft_ms, best_ntt_ms / fft_ms, best_ntt_ms)
        )
    return ExperimentResult(
        experiment_id="Figure 5",
        title="Register-based high-radix DFT: time, DRAM access, occupancy (batch = 21)",
        columns=list(rows[0].keys()),
        rows=rows,
        notes=notes,
    )
