"""The optimiser passes: named, independently-testable plan rewrites.

Each pass is a pure function ``(plan, PassContext) -> plan`` over the
:mod:`repro.backends.ops` SSA IR, registered under a stable name with a
one-line description (the experiments CLI's ``--list`` prints the table).
All of them share one discipline, enforced by :class:`_Rewriter`:

* **Never alias into an output slot.**  The IR explicitly permits a backend
  to return input handles unchanged, so the emitters insert ``Copy`` nodes
  where callers need fresh storage.  A pass that forwards a value into an
  output position therefore materialises a ``Copy`` there — internal reads
  alias freely (reads are side-effect free on every backend), outputs never
  do.
* **Preserve batching.**  The emitted plans' performance shape is
  ``Concat -> transform -> SliceRows`` wide batches; a rewrite that breaks
  one wide transform into per-row transforms would "win" the node count
  while losing the paper's headline batching effect.  Partial rewrites
  (hoisting *some* rows of a batch) keep the surviving rows grouped in a
  single transform node.
* **Return the input plan unchanged when nothing applies** — the manager
  detects the fixpoint structurally.

The transforms are *row-wise* (each residue row transforms independently),
so ``T(Concat(xs)) == Concat(T(x) for x in xs)``: that is what lets
:func:`batch_ntt` merge independent transforms into one.  No pass moves a
transform across arithmetic.  Ciphertexts, keys and the bootstrap
circuit's diagonals rest in the NTT domain and no emitter ends an op in an
inverse transform, so an emitted plan holds no transform round trip, no
linear node over inverse-transform rows and no transform of a constant.

The emitters leave independent transforms apart (each relinearisation
digit shift is its own transform, and a fused program transforms each
statement's operands on their own); :func:`batch_ntt` runs once after the
fixpoint and merges those at one dependency level into wide batches.  The
last fixpoint pass, :func:`fuse_inner_products`, folds every tree of
``Add`` over ``Mul`` into one :class:`~repro.backends.ops.InnerProduct`,
whose kernels sum the products before reducing; the emitters keep
emitting ``Mul`` and ``Add``, so a plan compiled with ``passes="none"``
stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..backends import ops

__all__ = [
    "PASS_REGISTRY",
    "PassContext",
    "PlanPass",
    "available_passes",
    "pass_descriptions",
    "register_pass",
]


class PassContext:
    """Shared state for one optimisation run (all passes, all rounds).

    Attributes:
        input_primes: Per-input modulus tuples when the caller knows them
            (bindings are in hand at compile time).  Row-count-dependent
            folds are skipped for values whose counts cannot be derived.
        stats: Telemetry counters (``plan.pass.<pass>.<stat>``) accumulated
            across every pass application of the run.
    """

    def __init__(self, input_primes=None) -> None:
        self.input_primes: dict[str, tuple[int, ...]] = {
            name: tuple(primes) for name, primes in dict(input_primes or {}).items()
        }
        self.stats: dict[str, int] = {}

    def tally(self, pass_name: str, stat: str, amount: int = 1) -> None:
        key = "plan.pass.%s.%s" % (pass_name, stat)
        self.stats[key] = self.stats.get(key, 0) + amount


@dataclass(frozen=True)
class PlanPass:
    """A registered rewrite: name, one-line description, the function.

    ``after_fixpoint`` passes run once, after the fixpoint rounds of the
    others (see :meth:`repro.compiler.manager.PassManager.run`).
    """

    name: str
    description: str
    rewrite: Callable
    after_fixpoint: bool = False


PASS_REGISTRY: dict[str, PlanPass] = {}


def register_pass(name: str, description: str, *, after_fixpoint: bool = False):
    def decorate(fn):
        PASS_REGISTRY[name] = PlanPass(name, description, fn, after_fixpoint)
        return fn

    return decorate


def available_passes() -> tuple[str, ...]:
    """Registered pass names, in registration (default-pipeline) order."""
    return tuple(PASS_REGISTRY)


def pass_descriptions() -> list[tuple[str, str]]:
    """``(name, one-line description)`` for every registered pass."""
    return [(p.name, p.description) for p in PASS_REGISTRY.values()]


def _with_operands(node: ops.OpNode, operands: tuple[int, ...]) -> ops.OpNode:
    """The same node with its operand indices replaced (attributes kept)."""
    if isinstance(node, ops.Input):
        return node
    if isinstance(node, (ops.ForwardNtt, ops.InverseNtt, ops.Neg, ops.Copy)):
        return type(node)(operands[0])
    if isinstance(node, (ops.Add, ops.Sub, ops.Mul)):
        return type(node)(operands[0], operands[1])
    if isinstance(node, ops.InnerProduct):
        factors = 2 * len(node.pairs)
        return ops.InnerProduct(
            tuple(zip(operands[0:factors:2], operands[1:factors:2])),
            tuple(operands[factors:]),
        )
    if isinstance(node, ops.ScalarMul):
        return ops.ScalarMul(operands[0], node.scalar)
    if isinstance(node, ops.Concat):
        return ops.Concat(tuple(operands))
    if isinstance(node, ops.SliceRows):
        return ops.SliceRows(operands[0], node.start, node.stop)
    if isinstance(node, ops.DigitBroadcast):
        return ops.DigitBroadcast(operands[0], node.shift)
    if isinstance(node, ops.ModSwitchDropLast):
        return ops.ModSwitchDropLast(operands[0], node.plaintext_modulus)
    if isinstance(node, ops.ModSwitchCorrection):
        return ops.ModSwitchCorrection(
            operands[0], node.plaintext_modulus, node.primes
        )
    raise ops._unknown_node_error(node)


def _row_count(node: ops.OpNode, counts: list, ctx: PassContext) -> int | None:
    """Rows of ``node``'s value given its operands' ``counts`` (``None``: unknown)."""
    if isinstance(node, ops.Input):
        primes = ctx.input_primes.get(node.name)
        return None if primes is None else len(primes)
    if isinstance(node, ops.SliceRows):
        return node.stop - node.start
    if isinstance(node, ops.Concat):
        total = 0
        for src in node.srcs:
            count = counts[src]
            if count is None:
                return None
            total += count
        return total
    if isinstance(node, (ops.Add, ops.Sub, ops.Mul, ops.InnerProduct)):
        # Every operand has the node's rows: the first one known will do.
        return next(
            (counts[op] for op in node.operands() if counts[op] is not None), None
        )
    if isinstance(node, ops.ModSwitchDropLast):
        count = counts[node.src]
        return None if count is None else count - 1
    if isinstance(node, ops.ModSwitchCorrection):
        return len(node.primes)
    operands = node.operands()
    return counts[operands[0]] if operands else None


def _row_counts(plan: ops.Plan, ctx: PassContext) -> list[int | None]:
    counts: list[int | None] = []
    for node in plan.nodes:
        counts.append(_row_count(node, counts, ctx))
    return counts


class _Rewriter:
    """Forward-scan plan rebuilder shared by every pass.

    Keeps two maps from old value indices into the plan under construction:
    ``read_map`` (what consumers read — aliases freely) and ``out_map``
    (what output slots reference — an aliased value that is also an output
    gets a fresh ``Copy`` so the no-aliased-outputs contract holds).  Row
    counts of new values are tracked where statically known, enabling the
    count-dependent folds.
    """

    def __init__(self, plan: ops.Plan, ctx: PassContext) -> None:
        self.plan = plan
        self.ctx = ctx
        self.output_values = {index for _, index in plan.outputs}
        self.nodes: list[ops.OpNode] = []
        self.counts: list[int | None] = []
        self.read_map: dict[int, int] = {}
        self.out_map: dict[int, int] = {}

    def emit(self, node: ops.OpNode) -> int:
        self.nodes.append(node)
        self.counts.append(_row_count(node, self.counts, self.ctx))
        return len(self.nodes) - 1

    def read(self, old: int) -> int:
        return self.read_map[old]

    def mapped(self, node: ops.OpNode) -> tuple[int, ...]:
        return tuple(self.read_map[op] for op in node.operands())

    def keep(self, old: int, node: ops.OpNode) -> int:
        """Emit a (rewritten) node for old value ``old``."""
        new = self.emit(node)
        self.read_map[old] = new
        self.out_map[old] = new
        return new

    def alias(self, old: int, new: int) -> None:
        """Old value ``old`` now reads existing value ``new`` (no new node).

        If ``old`` is an output, a ``Copy`` is materialised for the output
        slot so the plan never returns an aliased handle it did not before.
        """
        self.read_map[old] = new
        if old in self.output_values:
            self.out_map[old] = self.emit(ops.Copy(new))
        else:
            self.out_map[old] = new

    def finish(self) -> ops.Plan:
        outputs = tuple(
            (name, self.out_map[index]) for name, index in self.plan.outputs
        )
        rebuilt = ops.Plan(tuple(self.nodes), outputs)
        return self.plan if rebuilt == self.plan else rebuilt


@register_pass(
    "fold_structure",
    "collapse copy chains, fold slice-of-concat / full-range slices and "
    "flatten nested concats (the data-movement cleanup other passes expose)",
)
def fold_structure(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rw = _Rewriter(plan, ctx)
    for index, node in enumerate(plan.nodes):
        mapped = rw.mapped(node)
        if isinstance(node, ops.Copy):
            # Copy propagation: internal consumers read the source directly
            # (alias() re-materialises a Copy where an output needs one).
            if index not in rw.output_values:
                ctx.tally("fold_structure", "copies_forwarded")
            rw.alias(index, mapped[0])
            continue
        if isinstance(node, ops.Concat):
            parts: list[int] = []
            for src in mapped:
                inner = rw.nodes[src]
                if isinstance(inner, ops.Concat):
                    ctx.tally("fold_structure", "concats_flattened")
                    parts.extend(inner.srcs)
                else:
                    parts.append(src)
            if len(parts) == 1:
                ctx.tally("fold_structure", "concats_folded")
                rw.alias(index, parts[0])
            else:
                rw.keep(index, ops.Concat(tuple(parts)))
            continue
        if isinstance(node, ops.SliceRows):
            src, start, stop = mapped[0], node.start, node.stop
            inner = rw.nodes[src]
            if (
                isinstance(inner, ops.SliceRows)
                and 0 <= start <= stop <= inner.stop - inner.start
            ):
                ctx.tally("fold_structure", "slices_composed")
                start, stop = inner.start + start, inner.start + stop
                src = inner.src
                inner = rw.nodes[src]
            count = rw.counts[src]
            if count is not None and (start, stop) == (0, count):
                ctx.tally("fold_structure", "slices_folded")
                rw.alias(index, src)
                continue
            if isinstance(inner, ops.Concat):
                # A slice inside one concat segment reads that segment alone
                # (landing exactly on it, the slice folds away).
                offset = 0
                for part in inner.srcs:
                    part_count = rw.counts[part]
                    if part_count is None or offset > start:
                        break
                    if stop <= offset + part_count:
                        src, start, stop = part, start - offset, stop - offset
                        break
                    offset += part_count
                if (start, stop) == (0, rw.counts[src]):
                    ctx.tally("fold_structure", "slices_folded")
                    rw.alias(index, src)
                    continue
            rw.keep(index, ops.SliceRows(src, start, stop))
            continue
        rw.keep(index, _with_operands(node, mapped))
    return rw.finish()


def _cse_key(node: ops.OpNode, mapped: tuple[int, ...]) -> tuple:
    if isinstance(node, (ops.Add, ops.Mul)):
        # Modular add/mul commute exactly — canonicalise the operand order.
        a, b = mapped
        return (node.kind, (a, b) if a <= b else (b, a))
    if isinstance(node, ops.InnerProduct):
        # A sum of products is the same whatever the order of its terms and
        # of each product's factors.
        factors = 2 * len(node.pairs)
        pairs = zip(mapped[0:factors:2], mapped[1:factors:2])
        return (
            node.kind,
            tuple(sorted((min(pair), max(pair)) for pair in pairs)),
            tuple(sorted(mapped[factors:])),
        )
    if isinstance(node, ops.ScalarMul):
        return (node.kind, mapped[0], node.scalar)
    if isinstance(node, ops.SliceRows):
        return (node.kind, mapped[0], node.start, node.stop)
    if isinstance(node, ops.DigitBroadcast):
        return (node.kind, mapped[0], node.shift)
    if isinstance(node, ops.ModSwitchDropLast):
        return (node.kind, mapped[0], node.plaintext_modulus)
    if isinstance(node, ops.ModSwitchCorrection):
        return (node.kind, mapped[0], node.plaintext_modulus, node.primes)
    return (node.kind,) + tuple(mapped)


@register_pass(
    "cse",
    "merge structurally identical values (commutative-aware), deduplicating "
    "repeated transforms and products across fused expressions",
)
def cse(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rw = _Rewriter(plan, ctx)
    seen: dict[tuple, int] = {}
    for index, node in enumerate(plan.nodes):
        if isinstance(node, ops.Copy):
            # A Copy exists precisely to produce distinct storage — merging
            # two copies would re-introduce the aliasing it prevents.
            rw.keep(index, ops.Copy(rw.read(node.src)))
            continue
        if isinstance(node, ops.Input):
            key: tuple = ("input", node.name)
        else:
            key = _cse_key(node, rw.mapped(node))
        hit = seen.get(key)
        if hit is not None:
            ctx.tally("cse", "values_merged")
            rw.alias(index, hit)
            continue
        seen[key] = rw.keep(index, _with_operands(node, rw.mapped(node)))
    return rw.finish()


@register_pass(
    "dead_values",
    "drop nodes (and unused plan inputs) no output transitively reads",
)
def dead_values(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    live: set[int] = set()
    stack = [index for _, index in plan.outputs]
    while stack:
        value = stack.pop()
        if value in live:
            continue
        live.add(value)
        stack.extend(plan.nodes[value].operands())
    if len(live) == len(plan.nodes):
        return plan
    remap: dict[int, int] = {}
    nodes: list[ops.OpNode] = []
    for index, node in enumerate(plan.nodes):
        if index not in live:
            continue
        remap[index] = len(nodes)
        nodes.append(
            _with_operands(node, tuple(remap[op] for op in node.operands()))
        )
    ctx.tally("dead_values", "values_removed", len(plan.nodes) - len(nodes))
    return ops.Plan(
        tuple(nodes),
        tuple((name, remap[index]) for name, index in plan.outputs),
    )


def _sum_terms(node: ops.OpNode) -> tuple[tuple, tuple]:
    """``(pairs, addends)`` of a sum node: an ``Add`` or an ``InnerProduct``."""
    if isinstance(node, ops.Add):
        return (), (node.a, node.b)
    return node.pairs, node.addends


@register_pass(
    "fuse_inner_products",
    "fold each tree of Add nodes over Mul nodes into one InnerProduct "
    "multiply-accumulate node (a Mul or inner Add only when its sole reader "
    "is in the tree)",
)
def fuse_inner_products(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    sums = (ops.Add, ops.InnerProduct)
    outputs = {index for _, index in plan.outputs}
    readers: list[set[int]] = [set() for _ in plan.nodes]
    for index, node in enumerate(plan.nodes):
        for operand in node.operands():
            readers[operand].add(index)

    def absorbable(value: int) -> bool:
        """Whether ``value`` is a product or sum only one sum reads, as an addend."""
        if value in outputs or len(readers[value]) != 1:
            return False
        if not isinstance(plan.nodes[value], (ops.Mul, *sums)):
            return False
        (reader,) = readers[value]
        if not isinstance(plan.nodes[reader], sums):
            return False
        pairs, _ = _sum_terms(plan.nodes[reader])
        return all(value not in pair for pair in pairs)

    def expand(value: int, pairs: list, addends: list, absorbed: set) -> None:
        """Collect a sum's terms, folding in every absorbable addend."""
        tree_pairs, tree_addends = _sum_terms(plan.nodes[value])
        pairs.extend(tree_pairs)
        for operand in tree_addends:
            node = plan.nodes[operand]
            if not absorbable(operand):
                addends.append(operand)
                continue
            absorbed.add(operand)
            if isinstance(node, ops.Mul):
                pairs.append((node.a, node.b))
            else:
                expand(operand, pairs, addends, absorbed)

    fused: dict[int, ops.InnerProduct] = {}
    absorbed: set[int] = set()
    for index, node in enumerate(plan.nodes):
        if not isinstance(node, sums) or absorbable(index):
            continue
        pairs: list = []
        addends: list = []
        inner: set[int] = set()
        expand(index, pairs, addends, inner)
        if pairs and inner:
            fused[index] = ops.InnerProduct(tuple(pairs), tuple(addends))
            absorbed |= inner
    if not fused:
        return plan
    ctx.tally("fuse_inner_products", "nodes_fused", len(fused))
    ctx.tally("fuse_inner_products", "nodes_absorbed", len(absorbed))
    rw = _Rewriter(plan, ctx)
    for index, node in enumerate(plan.nodes):
        if index in absorbed:
            continue  # its one reader, later in the plan, reads its terms
        node = fused.get(index, node)
        rw.keep(index, _with_operands(node, rw.mapped(node)))
    return rw.finish()


@register_pass(
    "batch_ntt",
    "merge independent transforms of one kind at the same dependency level "
    "into one Concat -> transform -> SliceRows batch (runs once, after the "
    "fixpoint)",
    after_fixpoint=True,
)
def batch_ntt(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    # Merges until no two transforms share a key, so a second application
    # finds nothing to do.
    while True:
        batched = _batch_transforms(plan, ctx)
        if batched is plan:
            return plan
        plan = batched


def _batch_transforms(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    """One round of :func:`batch_ntt` (the input plan when nothing merges).

    Transforms merge when they share a fused stage, a kind and a transform
    depth (transforms on any path to a node, itself included); two
    transforms at one depth never read each other.  A replicated transform
    (:func:`repro.backends.ops.replicated_values`) merges only with
    replicated ones, so merging never moves a cross-row node to a later
    stage.  Stages are dependency levels
    (:func:`repro.backends.ops.split_stages`), so independent statements
    and requests share them and their transforms merge.  A
    merged batch lands in its members' stage, so the parallel backend's
    dispatches do not grow.  The plan is re-emitted stage by stage in depth
    order, so every member's source exists where the batch is emitted.
    """
    transforms = (ops.ForwardNtt, ops.InverseNtt)
    replicated = ops.replicated_values(plan)
    stage_of: dict[int, int] = {}
    for position, stage in enumerate(ops.split_stages(plan, replicated)):
        for index in stage:
            stage_of[index] = position
    depth: list[int] = []
    for node in plan.nodes:
        deepest = max((depth[op] for op in node.operands()), default=0)
        depth.append(deepest + isinstance(node, transforms))
    counts = _row_counts(plan, ctx)
    groups: dict[tuple, list[int]] = {}
    for index, node in enumerate(plan.nodes):
        if isinstance(node, transforms) and counts[index] is not None:
            key = (stage_of[index], depth[index], node.kind, index in replicated)
            groups.setdefault(key, []).append(index)
    batches = {members[0]: members for members in groups.values() if len(members) > 1}
    if not batches:
        return plan
    merged = {index for members in batches.values() for index in members}
    order = sorted(
        range(len(plan.nodes)), key=lambda i: (stage_of.get(i, -1), depth[i], i)
    )
    rw = _Rewriter(plan, ctx)
    for index in order:
        node = plan.nodes[index]
        if index not in merged:
            rw.keep(index, _with_operands(node, rw.mapped(node)))
            continue
        members = batches.get(index)
        if members is None:
            continue  # emitted with the first member of its batch
        parts: list[int] = []
        for member in members:
            src = rw.read(plan.nodes[member].src)
            inner = rw.nodes[src]
            parts.extend(inner.srcs if isinstance(inner, ops.Concat) else (src,))
        wide = rw.emit(type(node)(rw.emit(ops.Concat(tuple(parts)))))
        offset = 0
        for member in members:
            rw.keep(member, ops.SliceRows(wide, offset, offset + counts[member]))
            offset += counts[member]
        ctx.tally("batch_ntt", "transforms_merged", len(members))
    return dead_values(rw.finish(), ctx)
