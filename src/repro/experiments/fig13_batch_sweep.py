"""Figure 13 — best SMEM NTT execution time versus batch size (np) at N = 2^17.

Each batch size corresponds to a ciphertext modulus size logQ ≈ np x 60 bits.
Because a batch of 21 already saturates the GPU, the execution time grows
linearly in np across the bootstrappable range.

The measured companion sweeps the same np axis on the real data plane: one
residue row per distinct prime (the RNS workload shape), transformed through
the production backend path on its own transform — the fixed ``stockham``
array kernel, or the scalar oracle's one transform — the configuration a
user actually runs.  The cost-model columns stay as the GPU projection.
"""

from __future__ import annotations

from ..backends.engines import ARRAY_ENGINE
from ..gpu.costmodel import GpuCostModel
from ..kernels.smem import smem_ntt_model
from .measured import (
    measure_prime_bits,
    measured_forward_ms,
    measurement_backend,
    measurement_shape,
)
from .report import ExperimentResult

__all__ = ["BATCH_SIZES", "PRIME_BITS", "run"]

#: Batch sizes (np) swept, spanning the bootstrappable-parameter range.
BATCH_SIZES = (3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45)
PRIME_BITS = 60
LOG_N = 17


def run(model: GpuCostModel | None = None) -> ExperimentResult:
    """Reproduce Figure 13 (execution time vs np) with a measured np sweep."""
    model = model if model is not None else GpuCostModel()
    n = 1 << LOG_N
    backend_name = measurement_backend().name
    measure_log_n, _ = measurement_shape(backend_name)

    rows: list[dict[str, object]] = []
    reference = None
    measured_reference = None
    for batch in BATCH_SIZES:
        result = smem_ntt_model(n, batch, model, kernel1_size=256, kernel2_size=512)
        measured_ms = measured_forward_ms(
            log_n=measure_log_n, batch=batch, distinct_primes=batch, repeats=1
        )
        if reference is None:
            reference = result.time_us / batch
            measured_reference = measured_ms / batch
        rows.append(
            {
                "np": batch,
                "logQ (~bits)": batch * PRIME_BITS,
                "model time (us)": result.time_us,
                "model time per prime (us)": result.time_us / batch,
                "linearity vs smallest np": (result.time_us / batch) / reference,
                "measured time (ms)": measured_ms,
                "measured per prime (ms)": measured_ms / batch,
                "measured linearity": (measured_ms / batch) / measured_reference,
            }
        )
    return ExperimentResult(
        experiment_id="Figure 13",
        title="Best SMEM NTT execution time vs batch size np at N = 2^17 (logQ = 60 x np)",
        columns=list(rows[0].keys()),
        rows=rows,
        notes=[
            "paper: execution time increases linearly with the batch size because np = 21 already "
            "saturates the GPU; the model's per-prime time varies by %.1f%% across np >= 21"
            % (
                100
                * (
                    max(r["model time per prime (us)"] for r in rows if r["np"] >= 21)
                    / min(r["model time per prime (us)"] for r in rows if r["np"] >= 21)
                    - 1
                )
            ),
            "measured columns: np distinct %d-bit primes, one row each, batched "
            "forward NTT through the %s backend at N=2^%d on its own transform "
            "(the fixed %s array kernel; the scalar oracle runs its one "
            "transform); a CPU has no occupancy knee, so measured time is "
            "near-linear across the whole sweep"
            % (measure_prime_bits(), backend_name, measure_log_n, ARRAY_ENGINE),
        ],
    )
