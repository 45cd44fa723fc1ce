"""Introduction claim — the NTT's share of a ciphertext multiplication.

The paper motivates the study with the observation that NTT/iNTT dominate HE
computation: 34% of ciphertext multiplication on the HPCA'19 FPGA design at
``(N, logQ) = (2^12, 180)`` [31], and **50.04%** of ciphertext multiplication
with SEAL on a CPU at ``(N, logQ) = (2^15, 2881)``.

This extension experiment estimates the same share for the SEAL-scale data
point from the memory traffic of the two halves of an RNS ciphertext
multiplication (both halves are bandwidth-bound at these sizes, so traffic
share ≈ time share):

* **NTT half** — 9 batched transforms (4 forward for the operands, 3 inverse
  for the results, 2 inside key switching), each moving the double-CRT data
  plus its twiddle tables (the SMEM two-kernel traffic model).
* **non-NTT half** — the element-wise (dyadic) products/accumulations plus
  the key-switching base-conversion passes, modelled as
  ``6 + np/4`` streaming passes over the double-CRT data (hybrid key
  switching converts between digit bases of roughly ``np/4`` primes).

The FPGA data point of [31] is not reproduced: its 34% reflects a fixed-
function pipeline whose non-NTT units are not comparable to a streaming GPU
model (noted in DESIGN.md).
"""

from __future__ import annotations

from ..gpu.costmodel import GpuCostModel
from ..kernels.base import NTT_ELEMENT_BYTES
from ..kernels.smem import smem_ntt_model
from .measured import traced_ntt_share
from .report import ExperimentResult

__all__ = ["SCENARIOS", "run"]

#: (label, logN, np, paper share) — the SEAL motivation data point.
SCENARIOS = (
    ("SEAL on CPU (N=2^15, logQ=2881)", 15, 48, 0.5004),
)

#: NTT batches per ciphertext multiplication: 4 forward (two polynomials per
#: operand), 3 inverse (result components), 2 inside key switching.
NTT_BATCHES_PER_MULTIPLICATION = 9
#: Streaming passes of the non-NTT work that do not depend on np.
DYADIC_PASSES = 6


def non_ntt_passes(np_count: int) -> int:
    """Streaming passes over the double-CRT data outside the NTTs."""
    return DYADIC_PASSES + np_count // 4


def run(model: GpuCostModel | None = None) -> ExperimentResult:
    """Estimate — and measure — the NTT share of one ciphertext multiplication.

    Beside the traffic-model estimate, the row carries the *measured* share:
    the engines' span self time inside a real ``multiply → relinearize``
    chain run through :class:`repro.he.context.HeContext` on the production
    path, over the self time of every span of the chain.
    """
    model = model if model is not None else GpuCostModel()
    measured = traced_ntt_share()

    rows: list[dict[str, object]] = []
    for label, log_n, np_count, paper_share in SCENARIOS:
        n = 1 << log_n
        ntt_batch = smem_ntt_model(n, np_count, model)
        ntt_bytes = ntt_batch.dram_bytes * NTT_BATCHES_PER_MULTIPLICATION
        # One non-NTT pass streams the data in (two operands) and out once.
        pass_bytes = 3 * n * np_count * NTT_ELEMENT_BYTES
        other_bytes = pass_bytes * non_ntt_passes(np_count)
        share = ntt_bytes / (ntt_bytes + other_bytes)
        rows.append(
            {
                "scenario": label,
                "logN": log_n,
                "np": np_count,
                "NTT traffic (MB)": ntt_bytes / 1e6,
                "other traffic (MB)": other_bytes / 1e6,
                "model NTT share": share,
                "paper NTT share": paper_share,
                "measured NTT share": measured["share"],
                "measured NTT (ms)": measured["ntt_ms"],
                "measured total (ms)": measured["total_ms"],
            }
        )
    return ExperimentResult(
        experiment_id="Section I (NTT share)",
        title="Share of NTT/iNTT in one RNS ciphertext multiplication",
        columns=list(rows[0].keys()),
        rows=rows,
        notes=[
            "paper: NTT/iNTT consume 50.04 percent of ciphertext multiplication with SEAL at "
            "(2^15, logQ=2881); both halves are bandwidth-bound, so the modelled traffic share "
            "approximates the time share.",
            "the 34 percent figure for the HPCA'19 FPGA design [31] is not modelled (fixed-function "
            "pipeline, not comparable to a streaming GPU model).",
            "measured columns: multiply -> relinearize through HeContext on the %s backend at "
            "(N=%d, np=%d, %d-bit primes), NTT span self-time over the self-time of every "
            "span of the chain (repro.telemetry; the --trace summary's arithmetic); %s, so "
            "the share is the honest software analogue of the paper's claim rather than a "
            "reproduction of its exact setup."
            % (
                measured["backend"], measured["n"], measured["np"], measured["prime_bits"],
                _other_half(measured["backend"]),
            ),
        ],
    )


def _other_half(backend: str) -> str:
    """How the measured chain's non-NTT half ran on ``backend``."""
    if backend == "scalar":
        return (
            "the scalar oracle runs both halves as pure-Python big-int loops, transforms "
            "and pointwise/key-switch work alike"
        )
    return "the pointwise/key-switch half is vectorised too"
