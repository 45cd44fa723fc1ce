"""Figure 4 — register-based high-radix NTT: time, DRAM traffic, occupancy.

The paper sweeps the register radix from 2 to 128 for N = 2^16 and 2^17 at
np = 21.  Radix-16 performs best (2.41x over radix-2 on average); higher
radices reduce DRAM traffic further but collapse occupancy, dropping the
achieved bandwidth (59.9% at radix-32), and radix-64/128 spill to local
memory.

Since the engine layer exists, the same radix sweep also runs on the *real*
data plane: each row carries a measured column from executing the
``high_radix:<radix>`` engine (radix-2 rows run the ``radix2`` baseline
engine) through the production backend path at the measurement shape.  On a
CPU a tile sits in cache for every stage, so every ``high_radix:<radix>``
runs the same lazy Cooley-Tukey sweep and the radix shapes only the GPU
model's passes: the measured sweep is flat where the model collapses — the
comparison the table is for.  Each engine is measured on
``NumpyBackend(engine=spec)`` whatever ``--backend`` names; the notes name
the backend that ran.
"""

from __future__ import annotations

from ..gpu.costmodel import GpuCostModel
from ..kernels.high_radix import high_radix_ntt_model
from ..kernels.radix2 import radix2_ntt_model
from .measured import (
    measure_prime_bits,
    measured_forward_ms,
    measurement_backend,
    measurement_shape,
)
from .report import ExperimentResult

__all__ = ["RADICES", "PAPER_BEST_RADIX", "PAPER_SPEEDUP_OVER_RADIX2", "engine_for_radix", "run"]

RADICES = (2, 4, 8, 16, 32, 64, 128)
LOG_NS = (16, 17)
BATCH = 21
PAPER_BEST_RADIX = 16
PAPER_SPEEDUP_OVER_RADIX2 = 2.41
PAPER_RADIX32_BANDWIDTH_UTILIZATION = 0.599


def engine_for_radix(radix: int) -> str:
    """The engine spec realising one radix row of the sweep."""
    return "radix2" if radix == 2 else "high_radix:%d" % radix


def run(model: GpuCostModel | None = None) -> ExperimentResult:
    """Reproduce Figure 4 (high-radix NTT sweep) with measured-engine columns."""
    model = model if model is not None else GpuCostModel()
    backend_name = measurement_backend(engine=engine_for_radix(2)).name
    measure_log_n, measure_batch = measurement_shape(backend_name)
    measured = {
        radix: measured_forward_ms(engine=engine_for_radix(radix))
        for radix in RADICES
    }

    rows: list[dict[str, object]] = []
    for log_n in LOG_NS:
        n = 1 << log_n
        radix2_time = None
        for radix in RADICES:
            if radix == 2:
                result = radix2_ntt_model(n, BATCH, model)
            else:
                result = high_radix_ntt_model(n, BATCH, radix, model)
            if radix == 2:
                radix2_time = result.time_us
            rows.append(
                {
                    "logN": log_n,
                    "radix": radix,
                    "model time (us)": result.time_us,
                    "DRAM access (MB)": result.dram_mb,
                    "occupancy": result.occupancy,
                    "DRAM utilization": result.bandwidth_utilization,
                    "model speedup vs radix-2": radix2_time / result.time_us,
                    "measured time (ms)": measured[radix],
                    "measured speedup vs radix-2": measured[2] / measured[radix],
                }
            )

    best = {}
    for log_n in LOG_NS:
        subset = [r for r in rows if r["logN"] == log_n]
        best[log_n] = min(subset, key=lambda r: r["model time (us)"])
    measured_best = min(measured, key=measured.__getitem__)
    return ExperimentResult(
        experiment_id="Figure 4",
        title="Register-based high-radix NTT: time, DRAM access, occupancy (np = 21)",
        columns=list(rows[0].keys()),
        rows=rows,
        notes=[
            "paper: best radix is 16 with a 2.41x average speedup over radix-2; "
            "model best radix: %s"
            % {log_n: best[log_n]["radix"] for log_n in LOG_NS},
            "paper: DRAM bandwidth utilisation falls to 59.9%% at radix-32 (N=2^17); "
            "model: %.1f%%"
            % (
                100
                * next(
                    r["DRAM utilization"]
                    for r in rows
                    if r["logN"] == 17 and r["radix"] == 32
                )
            ),
            "paper: radix-32 has 15.5 percent fewer DRAM accesses than radix-16 at N=2^17 yet runs slower",
            "measured column: batched forward NTT through the %s backend's "
            "high_radix engines at N=2^%d, batch=%d, %d-bit primes (same "
            "value for both logN row groups); every high_radix:R runs the same "
            "lazy Cooley-Tukey sweep (the radix shapes only the GPU model's "
            "passes), so the radix-4..128 rows differ by noise; measured best "
            "radix: %d"
            % (backend_name, measure_log_n, measure_batch, measure_prime_bits(),
               measured_best),
        ],
    )
