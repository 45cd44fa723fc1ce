"""Model of the register-based high-radix NTT and DFT kernels (Section VI-B).

A radix-``R`` register implementation lets one thread pull ``R`` points into
registers, execute ``log2 R`` radix-2 stages locally, and write the points
back — dividing the number of main-memory passes by ``log2 R`` at the cost of
``O(R)`` live registers.  Past radix-16 (NTT) / radix-32 (DFT) the register
demand crushes occupancy, the achievable DRAM bandwidth falls, and at
radix-64/128 the NTT thread exceeds the 255-register cap and spills to local
memory — the behaviour Figures 4 and 5 chart.
"""

from __future__ import annotations

from ..gpu.costmodel import GpuCostModel, KernelLaunch
from ..gpu.memory import TrafficCounter
from ..transforms.bitrev import is_power_of_two, log2_exact
from .base import (
    DEFAULT_THREADS_PER_BLOCK,
    DFT_ELEMENT_BYTES,
    KernelModelResult,
    NTT_ELEMENT_BYTES,
    TWIDDLE_ENTRY_BYTES_DFT,
    TWIDDLE_ENTRY_BYTES_NTT,
    dft_registers_for_radix,
    ntt_registers_for_radix,
    run_launches,
)

__all__ = ["high_radix_ntt_model", "high_radix_dft_model", "plan_stage_groups"]


def plan_stage_groups(n: int, radix: int) -> list[int]:
    """Split the ``log2(n)`` stages into passes of ``log2(radix)`` stages each.

    The final pass absorbs the remainder when ``log2(n)`` is not a multiple of
    ``log2(radix)`` — matching the paper's Kernel-1/Kernel-2 handling where
    the last per-thread NTT may be smaller.

    Args:
        n: Transform length (power of two).
        radix: Per-pass radix (power of two, ``2 <= radix <= n``).

    Returns:
        A list of per-pass stage counts summing to ``log2(n)``.
    """
    if not is_power_of_two(n):
        raise ValueError("n must be a power of two")
    if not is_power_of_two(radix) or radix < 2:
        raise ValueError("radix must be a power of two >= 2")
    total_stages = log2_exact(n)
    per_pass = log2_exact(radix)
    if per_pass > total_stages:
        raise ValueError("radix %d exceeds transform size %d" % (radix, n))
    groups = [per_pass] * (total_stages // per_pass)
    remainder = total_stages % per_pass
    if remainder:
        groups.append(remainder)
    return groups


def _pass_twiddle_entries(first_stage_m: int, stage_count: int) -> int:
    """Distinct twiddle factors consumed by ``stage_count`` stages starting at ``m``."""
    total = 0
    m = first_stage_m
    for _ in range(stage_count):
        total += m
        m *= 2
    return total


def high_radix_ntt_model(
    n: int,
    batch: int,
    radix: int,
    model: GpuCostModel,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
) -> KernelModelResult:
    """Model the register-based radix-``radix`` NTT for a batch of ``batch`` primes."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    groups = plan_stage_groups(n, radix)
    slots_per_butterfly = model.calibration.shoup_butterfly_slots

    launches: list[KernelLaunch] = []
    first_stage_m = 1
    for index, stage_count in enumerate(groups):
        pass_radix = 1 << stage_count
        threads_total = (n // pass_radix) * batch
        butterflies = (n // 2) * stage_count * batch
        traffic = TrafficCounter()
        traffic.add_data_read(n * batch * NTT_ELEMENT_BYTES)
        traffic.add_data_write(n * batch * NTT_ELEMENT_BYTES)
        traffic.add_twiddle_read(
            _pass_twiddle_entries(first_stage_m, stage_count) * batch * TWIDDLE_ENTRY_BYTES_NTT
        )
        launches.append(
            KernelLaunch(
                name="radix%d-pass%d" % (radix, index + 1),
                traffic=traffic,
                compute_slots=butterflies * slots_per_butterfly,
                threads_total=threads_total,
                threads_per_block=threads_per_block,
                # The register demand of each pass follows the radix that pass
                # actually executes (the trailing remainder pass is smaller).
                registers_per_thread=ntt_registers_for_radix(pass_radix),
            )
        )
        first_stage_m <<= stage_count
    return run_launches("radix-%d" % radix, launches, model)


def high_radix_dft_model(
    n: int,
    batch: int,
    radix: int,
    model: GpuCostModel,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
) -> KernelModelResult:
    """Model the register-based radix-``radix`` DFT (complex single-precision) counterpart.

    The two NTT-vs-DFT differences of Section IV appear here: the twiddle
    table is *shared* across the whole batch (one table regardless of
    ``batch``) and the arithmetic is floating point, so threads need fewer
    registers and fewer issue slots per butterfly.
    """
    if batch < 1:
        raise ValueError("batch must be at least 1")
    groups = plan_stage_groups(n, radix)
    slots_per_butterfly = model.calibration.dft_butterfly_slots

    launches: list[KernelLaunch] = []
    first_stage_m = 1
    for index, stage_count in enumerate(groups):
        pass_radix = 1 << stage_count
        threads_total = (n // pass_radix) * batch
        butterflies = (n // 2) * stage_count * batch
        traffic = TrafficCounter()
        traffic.add_data_read(n * batch * DFT_ELEMENT_BYTES)
        traffic.add_data_write(n * batch * DFT_ELEMENT_BYTES)
        traffic.add_twiddle_read(
            _pass_twiddle_entries(first_stage_m, stage_count) * TWIDDLE_ENTRY_BYTES_DFT
        )
        launches.append(
            KernelLaunch(
                name="dft-radix%d-pass%d" % (radix, index + 1),
                traffic=traffic,
                compute_slots=butterflies * slots_per_butterfly,
                threads_total=threads_total,
                threads_per_block=threads_per_block,
                registers_per_thread=dft_registers_for_radix(pass_radix),
            )
        )
        first_stage_m <<= stage_count
    return run_launches("dft-radix-%d" % radix, launches, model)
