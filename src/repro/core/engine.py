"""The planned NTT engine: a functional model of on-the-fly twiddling.

:class:`NTTEngine` executes forward/inverse negacyclic NTTs for a single
``(n, p)`` pair under an :class:`repro.core.plan.NTTPlan`, combining

* the precomputed twiddle table (:class:`repro.core.twiddle.TwiddleTable`),
* optional on-the-fly twiddling for the last stages
  (:class:`repro.core.on_the_fly.OnTheFlyTwiddleGenerator`), and
* the pass structure implied by the plan (radix-2 / high-radix / SMEM split),

and reports what it did in an :class:`ExecutionReport`: butterflies executed,
twiddle factors fetched from the resident table versus regenerated, how many
main-memory passes the data made, and how many bytes of twiddle table are
resident.  The functional results are bit-exact regardless of the plan — the
plan only changes the execution structure — which the test suite verifies by
comparing every plan against the reference radix-2 transform.

Timing estimates are *not* produced here; they are the job of the GPU cost
model (:mod:`repro.gpu`) driven by the kernel descriptions in
:mod:`repro.kernels`, which consume the same plan objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..modarith.modops import add_mod, inv_mod, mul_mod, sub_mod
from ..modarith.roots import primitive_root_of_unity
from ..modarith.word import WORD32, WORD64, WordSpec
from ..transforms.bitrev import log2_exact
from .on_the_fly import OnTheFlyTwiddleGenerator
from .plan import NTTAlgorithm, NTTPlan
from .twiddle import TwiddleTable

__all__ = ["ExecutionReport", "NTTEngine"]


@dataclass
class ExecutionReport:
    """What one transform execution did, in hardware-relevant units.

    Attributes:
        n: Transform length.
        passes: Main-memory round trips made by the coefficient data.
        butterflies: Radix-2 butterflies executed.
        table_fetches: Twiddle factors read from the resident precomputed table.
        regenerated: Twiddle factors produced on the fly (OT).
        regeneration_muls: Extra modular multiplications spent regenerating them.
        resident_table_entries: Twiddle factors held in memory for this direction.
        resident_table_bytes: Bytes those entries occupy (with Shoup companions).
    """

    n: int
    passes: int
    butterflies: int = 0
    table_fetches: int = 0
    regenerated: int = 0
    regeneration_muls: int = 0
    resident_table_entries: int = 0
    resident_table_bytes: int = 0

    @property
    def total_twiddle_uses(self) -> int:
        """Twiddle factors consumed, from any source."""
        return self.table_fetches + self.regenerated


class NTTEngine:
    """Forward/inverse negacyclic NTT for one modulus under a configurable plan.

    Args:
        n: Transform length (power of two).
        p: Prime modulus, ``p ≡ 1 (mod 2n)``.
        plan: Execution plan; defaults to the paper's best SMEM configuration
            without OT.
        psi: Primitive ``2n``-th root of unity; derived when omitted.
    """

    def __init__(
        self,
        n: int,
        p: int,
        plan: NTTPlan | None = None,
        psi: int | None = None,
    ) -> None:
        self.plan = plan if plan is not None else NTTPlan(n=n)
        if self.plan.n != n:
            raise ValueError("plan is for n=%d but engine was given n=%d" % (self.plan.n, n))
        self.n = n
        self.p = p
        self.word: WordSpec = WORD64 if self.plan.word_size_bits == 64 else WORD32
        self.psi = psi if psi is not None else primitive_root_of_unity(2 * n, p)
        self.table = TwiddleTable(n=n, p=p, psi=self.psi, word=self.word)
        self._log_n = log2_exact(n)
        if self.plan.ot is not None and self.plan.ot.ot_stages > 0:
            self._ot_forward = OnTheFlyTwiddleGenerator(
                n, p, self.psi, self.plan.ot, inverse=False, word=self.word
            )
            self._ot_inverse = OnTheFlyTwiddleGenerator(
                n, p, self.psi, self.plan.ot, inverse=True, word=self.word
            )
            self._ot_threshold = n >> min(self.plan.ot.ot_stages, self._log_n)
        else:
            self._ot_forward = None
            self._ot_inverse = None
            self._ot_threshold = n  # nothing covered

    # -- resident-table accounting -------------------------------------------------
    def resident_table_entries(self) -> int:
        """Twiddle factors stored in memory for one direction under this plan."""
        if self._ot_forward is None:
            return self.n
        # Uncovered stages keep their slice of the full table; covered stages
        # are served by the factored OT tables.
        uncovered = self._ot_threshold
        return uncovered + self._ot_forward.stored_entries

    def resident_table_bytes(self) -> int:
        """Bytes of resident twiddle data for one direction (with Shoup companions)."""
        return self.resident_table_entries() * 2 * (self.word.bits // 8)

    # -- execution --------------------------------------------------------------------
    def forward(self, values: Sequence[int]) -> list[int]:
        """Forward negacyclic NTT (bit-reversed output)."""
        result, _ = self.forward_with_report(values)
        return result

    def inverse(self, values: Sequence[int]) -> list[int]:
        """Inverse negacyclic NTT (bit-reversed input, natural output)."""
        result, _ = self.inverse_with_report(values)
        return result

    def forward_with_report(self, values: Sequence[int]) -> tuple[list[int], ExecutionReport]:
        """Forward NTT returning both the result and an :class:`ExecutionReport`."""
        a = self._validated_copy(values)
        report = self._new_report()
        self._run_forward(a, report)
        return a, report

    def inverse_with_report(self, values: Sequence[int]) -> tuple[list[int], ExecutionReport]:
        """Inverse NTT returning both the result and an :class:`ExecutionReport`."""
        a = self._validated_copy(values)
        report = self._new_report()
        self._run_inverse(a, report)
        return a, report

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Negacyclic polynomial product ``a * b mod (X^n + 1, p)`` via this engine."""
        fa = self.forward(a)
        fb = self.forward(b)
        pointwise = [mul_mod(x, y, self.p) for x, y in zip(fa, fb)]
        return self.inverse(pointwise)

    # -- internals ----------------------------------------------------------------------
    def _validated_copy(self, values: Sequence[int]) -> list[int]:
        if len(values) != self.n:
            raise ValueError("expected %d coefficients, got %d" % (self.n, len(values)))
        return [v % self.p for v in values]

    def _new_report(self) -> ExecutionReport:
        return ExecutionReport(
            n=self.n,
            passes=self.plan.passes,
            resident_table_entries=self.resident_table_entries(),
            resident_table_bytes=self.resident_table_bytes(),
        )

    def _forward_twiddle(self, index: int, report: ExecutionReport) -> int:
        if self._ot_forward is not None and index >= self._ot_threshold:
            before = self._ot_forward.regeneration_muls
            value, _ = self._ot_forward.twiddle(index)
            report.regeneration_muls += self._ot_forward.regeneration_muls - before
            report.regenerated += 1
            return value
        report.table_fetches += 1
        return self.table.forward[index]

    def _inverse_twiddle(self, index: int, report: ExecutionReport) -> int:
        if self._ot_inverse is not None and index >= self._ot_threshold:
            before = self._ot_inverse.regeneration_muls
            value, _ = self._ot_inverse.twiddle(index)
            report.regeneration_muls += self._ot_inverse.regeneration_muls - before
            report.regenerated += 1
            return value
        report.table_fetches += 1
        return self.table.inverse[index]

    def _run_forward(self, a: list[int], report: ExecutionReport) -> None:
        n, p = self.n, self.p
        t = n // 2
        m = 1
        while m < n:
            for j in range(m):
                psi = self._forward_twiddle(m + j, report)
                start = 2 * j * t
                for k in range(start, start + t):
                    b_hat = mul_mod(a[k + t], psi, p)
                    a[k + t] = sub_mod(a[k], b_hat, p)
                    a[k] = add_mod(a[k], b_hat, p)
                report.butterflies += t
            m *= 2
            t //= 2

    def _run_inverse(self, a: list[int], report: ExecutionReport) -> None:
        n, p = self.n, self.p
        t = 1
        m = n // 2
        while m >= 1:
            for j in range(m):
                psi = self._inverse_twiddle(m + j, report)
                start = 2 * j * t
                for k in range(start, start + t):
                    u = a[k]
                    v = a[k + t]
                    a[k] = add_mod(u, v, p)
                    a[k + t] = mul_mod(sub_mod(u, v, p), psi, p)
                report.butterflies += t
            m //= 2
            t *= 2
        n_inv = inv_mod(n, p)
        for i in range(n):
            a[i] = mul_mod(a[i], n_inv, p)
