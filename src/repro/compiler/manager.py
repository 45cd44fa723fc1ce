"""The pass manager: pass selection, fixpoint driving, telemetry flushing.

Selection follows the repo-wide precedence idiom (mirroring backends,
engines, shards and execution mode): an explicit argument beats the
process-wide :func:`set_default_passes`, which beats the
``REPRO_PASSES`` environment variable, which beats the built-in
:data:`DEFAULT_PASSES` pipeline.  A spec is a comma-separated string
(``"cse,dead_values"``), an iterable of names, ``"none"`` (optimisation
off) or ``"default"``.

:meth:`PassManager.run` drives the selected passes to a structural
fixpoint (bounded rounds — each round is a few linear scans, and the
combinations that need a second round are pass-interaction products such
as residency exposing slice folds exposing dead transforms), then applies
the ``after_fixpoint`` passes (``batch_ntt``) once each, records a
``plan.pass.<name>`` span per application, and flushes the per-pass
counters (``plan.pass.<pass>.<stat>``) into the caller's metrics registry
so a before/after benchmark is just a diff of two
``HeContext.metrics()`` snapshots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..backends import ops
from ..telemetry import TRACER
from .passes import PASS_REGISTRY, PassContext, _with_operands

__all__ = [
    "DEFAULT_PASSES",
    "OptimizedPlan",
    "PASSES_ENV_VAR",
    "PassManager",
    "count_ntt_rows",
    "default_passes_spec",
    "materialize_derived",
    "parse_passes",
    "resolve_passes",
    "set_default_passes",
]

#: Environment variable consulted by :func:`resolve_passes`.
PASSES_ENV_VAR = "REPRO_PASSES"

#: The default pipeline, in application order: sinking inverse transforms
#: through linear nodes first (it exposes round trips), cancellation next
#: (it sees the emitters' raw concat/slice batching), structure folding to
#: clean up the plumbing it leaves, CSE over the cleaned graph, residency
#: hoisting of constant transforms, dead-value elimination to sweep
#: everything the earlier passes orphaned, and last the folding of every
#: sum of products into one multiply-accumulate node (over the cleaned,
#: deduplicated graph, so a product CSE merged is read once).  ``batch_ntt``
#: re-batches the surviving transforms once, after the fixpoint: inside the
#: loop it would merge duplicate transforms CSE has not merged yet.
DEFAULT_PASSES = (
    "sink_inverse_ntt",
    "cancel_ntt_pairs",
    "fold_structure",
    "cse",
    "ntt_residency",
    "dead_values",
    "fuse_inner_products",
    "batch_ntt",
)

#: Fixpoint bound: rewrites only ever shrink or re-batch, so convergence is
#: fast; the bound guards against a (buggy) oscillating pass pair.
_MAX_ROUNDS = 4

_default_passes: tuple[str, ...] | None = None


def _unknown_pass_error(name: str) -> KeyError:
    return KeyError(
        "unknown plan pass %r (registered: %s; select with --passes on the "
        "experiments CLI or the %s environment variable; 'none' disables "
        "plan optimisation)" % (name, ", ".join(PASS_REGISTRY), PASSES_ENV_VAR)
    )


def parse_passes(spec) -> tuple[str, ...]:
    """Normalise a pass spec into a validated tuple of registered names.

    Accepts a comma-separated string, an iterable of names, ``"none"``/``""``
    (no passes) or ``"default"``.  Unknown names raise :class:`KeyError`
    listing the registry — the same shape as the backend/engine registries.
    """
    if isinstance(spec, str):
        text = spec.strip()
        if text.lower() in ("", "none"):
            return ()
        if text.lower() == "default":
            return DEFAULT_PASSES
        names = [item.strip() for item in text.split(",") if item.strip()]
    else:
        names = [str(name) for name in spec]
    for name in names:
        if name not in PASS_REGISTRY:
            raise _unknown_pass_error(name)
    return tuple(names)


def set_default_passes(spec) -> None:
    """Set (or with ``None`` clear) the process-wide default pass pipeline."""
    global _default_passes
    _default_passes = None if spec is None else parse_passes(spec)


def default_passes_spec() -> tuple[str, ...] | None:
    """The process-wide default pipeline (``None`` when unset)."""
    return _default_passes


def resolve_passes(explicit=None) -> tuple[str, ...]:
    """The pass pipeline under the documented precedence.

    ``explicit`` > :func:`set_default_passes` > ``REPRO_PASSES`` >
    :data:`DEFAULT_PASSES`.  An explicit empty sequence (or ``"none"``)
    disables optimisation.
    """
    if explicit is not None:
        return parse_passes(explicit)
    if _default_passes is not None:
        return _default_passes
    env = os.environ.get(PASSES_ENV_VAR)
    if env is not None:
        return parse_passes(env)
    return DEFAULT_PASSES


def count_ntt_rows(plan: ops.Plan, input_primes) -> int:
    """Residue rows moved through the plan's transform nodes per execution.

    The static quantity behind the evaluator's ``ntt.invocations`` counter —
    recomputed after optimisation so the metric reports transforms actually
    executed, not transforms emitted.
    """
    primes = ops.infer_primes(plan, dict(input_primes))
    return sum(
        len(primes[node.src])
        for node in plan.nodes
        if isinstance(node, (ops.ForwardNtt, ops.InverseNtt))
    )


def materialize_derived(
    plan: ops.Plan, derived, input_primes
) -> tuple[ops.Plan, tuple[tuple[str, str], ...]]:
    """The cold-start variant of a residency-optimised plan.

    The optimised plan reads ``<source>@ntt`` derived inputs the constant
    pool supplies; on the very first execution the pool is empty.  Rather
    than paying separate backend calls to fill it (extra dispatches the
    fusion pins forbid), this builds a plan that computes every derived
    value **in-plan** — all constant sources stacked into one wide batched
    forward transform, the same shape the original emitters produced — and
    additionally exports each image as a ``const:<derived>`` output.  The
    caller executes it once, seeds the pool from those outputs, and every
    later execution runs the warm plan with pooled bindings.

    Returns ``(cold plan, ((output name, source input name), ...))``.
    """
    if not derived:
        return plan, ()
    nodes: list[ops.OpNode] = []
    source_positions: dict[str, int] = {}
    for _, source in derived:
        if source not in source_positions:
            source_positions[source] = len(nodes)
            nodes.append(ops.Input(source))
    order = list(source_positions)
    if len(order) == 1:
        stacked = source_positions[order[0]]
    else:
        stacked = len(nodes)
        nodes.append(ops.Concat(tuple(source_positions[s] for s in order)))
    transformed = len(nodes)
    nodes.append(ops.ForwardNtt(stacked))
    image_of: dict[str, int] = {}
    offset = 0
    for source in order:
        count = len(input_primes[source])
        if len(order) == 1:
            image_of[source] = transformed
        else:
            image_of[source] = len(nodes)
            nodes.append(ops.SliceRows(transformed, offset, offset + count))
        offset += count
    derived_sources = dict(derived)
    remap: dict[int, int] = {}
    for index, node in enumerate(plan.nodes):
        if isinstance(node, ops.Input):
            if node.name in derived_sources:
                remap[index] = image_of[derived_sources[node.name]]
                continue
            if node.name in source_positions:
                remap[index] = source_positions[node.name]
                continue
        remap[index] = len(nodes)
        nodes.append(
            _with_operands(node, tuple(remap[op] for op in node.operands()))
        )
    outputs = list(
        (name, remap[index]) for name, index in plan.outputs
    )
    const_outputs = []
    for derived_name, source in derived:
        output_name = "const:%s" % derived_name
        outputs.append((output_name, image_of[source]))
        const_outputs.append((output_name, source))
    return ops.Plan(tuple(nodes), tuple(outputs)), tuple(const_outputs)


def _apply(name: str, plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rewrite = PASS_REGISTRY[name].rewrite
    if not TRACER.enabled:
        return rewrite(plan, ctx)
    with TRACER.span("plan.pass." + name, nodes=len(plan)):
        return rewrite(plan, ctx)


@dataclass(frozen=True)
class OptimizedPlan:
    """The result of one optimisation run.

    Attributes:
        plan: The rewritten (or, at fixpoint-from-the-start, original) plan.
        derived_inputs: ``(derived name, source input name)`` pairs invented
            by the residency pass; bind each derived name to the NTT image
            of the source tensor (see
            :meth:`repro.compiler.pool.ConstantPool.forward_ntt`).
        stats: Per-pass rewrite counters for this run
            (``plan.pass.<pass>.<stat>``).
    """

    plan: ops.Plan
    derived_inputs: tuple[tuple[str, str], ...] = ()
    stats: dict = field(default_factory=dict)


class PassManager:
    """Drives a resolved pass pipeline over plans.

    Args:
        passes: Pass spec resolved once at construction via
            :func:`resolve_passes` (``None`` applies the documented
            precedence) — matching how evaluators pin their backend and
            execution mode at construction time.
    """

    def __init__(self, passes=None) -> None:
        self.passes = resolve_passes(passes)

    def run(
        self, plan: ops.Plan, *, input_primes=None, constant_inputs=(), metrics=None
    ) -> OptimizedPlan:
        """Optimise ``plan`` to a structural fixpoint of the pipeline.

        Passes registered ``after_fixpoint`` run once each, after the
        fixpoint rounds of the others, whatever their place in the spec.
        """
        ctx = PassContext(input_primes=input_primes, constant_inputs=constant_inputs)
        rounds = [n for n in self.passes if not PASS_REGISTRY[n].after_fixpoint]
        final = [n for n in self.passes if PASS_REGISTRY[n].after_fixpoint]
        for _ in range(_MAX_ROUNDS):
            before = plan
            for name in rounds:
                plan = _apply(name, plan, ctx)
            if plan == before:
                break
        for name in final:
            plan = _apply(name, plan, ctx)
        if metrics is not None:
            for key, amount in ctx.stats.items():
                if amount:
                    metrics.inc(key, amount)
        return OptimizedPlan(
            plan=plan,
            derived_inputs=tuple(ctx.derived_inputs.items()),
            stats=dict(ctx.stats),
        )
