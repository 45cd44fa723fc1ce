"""The plan-compiler subsystem: optimiser passes over the op-graph IR.

The paper's headline is that NTT/iNTT dominates HE computation time; after
the op-graph IR made execution declarative, the biggest remaining lever is
to *not run* redundant transforms at all.  This package supplies that
layer, between plan emission and ``backend.execute``:

* :mod:`repro.compiler.passes` — named rewrite passes over
  :class:`~repro.backends.ops.Plan` (structure folding, CSE, dead-value
  elimination, folding of sums of products into multiply-accumulate
  nodes, and re-batching of the surviving transforms), each independently
  testable and registered with a one-line description.  Ciphertexts, keys
  and the bootstrap circuit's diagonals rest in the NTT domain, so no pass
  has a transform round trip to cancel or a constant's transform to hoist.
* :mod:`repro.compiler.manager` — :class:`PassManager` (fixpoint driving,
  ``plan.pass.*`` spans and counters) and the selection precedence
  ``explicit > set_default_passes > default``.
* :mod:`repro.compiler.program` — :class:`HeProgram`, the whole-program
  front end compiling many named statements into one fused plan.

Every consumer of plans runs the default pipeline before caching
(:meth:`Evaluator._run_plan <repro.he.evaluator.Evaluator._run_plan>`, and
through it :mod:`repro.he.pipeline` and the serving layer's coalesced
cross-request plans).  Optimised plans are bit-for-bit equal to their
unoptimised forms on every backend — passes rewrite structure, never
values.
"""

from .manager import (
    DEFAULT_PASSES,
    OptimizedPlan,
    PassManager,
    count_ntt_rows,
    default_passes_spec,
    parse_passes,
    resolve_passes,
    set_default_passes,
)
from .passes import (
    PASS_REGISTRY,
    PassContext,
    PlanPass,
    available_passes,
    pass_descriptions,
    register_pass,
)
from .program import HeProgram

__all__ = [
    "DEFAULT_PASSES",
    "HeProgram",
    "OptimizedPlan",
    "PASS_REGISTRY",
    "PassContext",
    "PassManager",
    "PlanPass",
    "available_passes",
    "count_ntt_rows",
    "default_passes_spec",
    "parse_passes",
    "pass_descriptions",
    "register_pass",
    "resolve_passes",
    "set_default_passes",
]
