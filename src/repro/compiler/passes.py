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
  (cancelling or hoisting *some* rows of a batch) keep the surviving rows
  grouped in a single transform node.
* **Return the input plan unchanged when nothing applies** — the manager
  detects the fixpoint structurally.

The passes rely on two pieces of NTT mathematics:

* the transforms are *row-wise* (each residue row transforms
  independently), so they commute with the row-shuffling nodes —
  ``SliceRows(InverseNtt(y), a, b) == InverseNtt(SliceRows(y, a, b))`` and
  ``T(Concat(xs)) == Concat(T(x) for x in xs)``.  That is what lets
  :func:`cancel_ntt_pairs` see through the slice/concat plumbing the
  batching emitters wrap around every transform;
* the transforms are *linear* modulo each row's prime, so
  ``InverseNtt(a) + InverseNtt(b) == InverseNtt(a + b)`` exactly (and
  likewise for ``Sub``, ``Neg`` and ``ScalarMul``).  That is what lets
  :func:`sink_inverse_ntt` accumulate sums of products in the NTT domain
  and pay one inverse transform for the sum instead of one per term.

Sinking and cancellation leave the surviving transforms scattered over
several narrow nodes; :func:`batch_ntt` runs once after the fixpoint and
restores the wide batches.  The last fixpoint pass,
:func:`fuse_inner_products`, folds every tree of ``Add`` over ``Mul`` into
one :class:`~repro.backends.ops.InnerProduct`, whose kernels sum the
products before reducing; the emitters keep emitting ``Mul`` and ``Add``,
so a plan compiled with ``passes="none"`` stays the reference.
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
        constant_inputs: Input names whose bound tensors are stable across
            executions of the plan (relinearisation-key components, repeated
            plaintexts) — the values :func:`ntt_residency` may hoist.
        derived_inputs: ``{derived name: source name}`` for inputs invented
            by :func:`ntt_residency`; the evaluator binds each derived name
            to the NTT image of the source tensor via the constant pool.
        stats: Telemetry counters (``plan.pass.<pass>.<stat>``) accumulated
            across every pass application of the run.
    """

    def __init__(self, input_primes=None, constant_inputs=()) -> None:
        self.input_primes: dict[str, tuple[int, ...]] = {
            name: tuple(primes) for name, primes in dict(input_primes or {}).items()
        }
        self.constant_inputs = frozenset(constant_inputs)
        self.derived_inputs: dict[str, str] = {}
        self.stats: dict[str, int] = {}

    def add_derived(self, derived: str, source: str) -> None:
        self.derived_inputs[derived] = source
        if source in self.input_primes:
            self.input_primes[derived] = self.input_primes[source]

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

    def resolve(self, new: int) -> int:
        """Follow ``Copy`` chains in the new plan to the underlying value."""
        node = self.nodes[new]
        while isinstance(node, ops.Copy):
            new = node.src
            node = self.nodes[new]
        return new

    def finish(self) -> ops.Plan:
        outputs = tuple(
            (name, self.out_map[index]) for name, index in self.plan.outputs
        )
        rebuilt = ops.Plan(tuple(self.nodes), outputs)
        return self.plan if rebuilt == self.plan else rebuilt


def _emit_grouped_transform(
    rw: _Rewriter, transform: type, run: list[int]
) -> int:
    """One transform node over a (re-batched) run of concat parts."""
    if len(run) == 1:
        return rw.emit(transform(run[0]))
    return rw.emit(transform(rw.emit(ops.Concat(tuple(run)))))


def _gather(rw: _Rewriter, pieces) -> int:
    """One value holding rows ``lo:hi`` of each ``(new value, lo, hi)`` in turn."""
    values = [
        value
        if (lo, hi) == (0, rw.counts[value])
        else rw.emit(ops.SliceRows(value, lo, hi))
        for value, lo, hi in pieces
    ]
    return values[0] if len(values) == 1 else rw.emit(ops.Concat(tuple(values)))


#: Nodes that commute with the (linear) transforms.  ``Mul`` is not one: the
#: transforms turn a pointwise product into a negacyclic convolution.
_LINEAR_NODES = (ops.Add, ops.Sub, ops.Neg, ops.ScalarMul)


def _slice_segments(segments, start: int, stop: int) -> list:
    """Rows ``start:stop`` of a value held as ``(base, lo, hi)`` row segments."""
    out = []
    offset = 0
    for base, lo, hi in segments:
        a, b = max(start, offset), min(stop, offset + hi - lo)
        if a < b:
            out.append((base, lo + a - offset, lo + b - offset))
        offset += hi - lo
    return out


def _join_segments(segments) -> list:
    """Coalesce neighbouring segments that continue one base's rows."""
    out: list = []
    for base, lo, hi in segments:
        if out and out[-1][0] == base and out[-1][2] == lo:
            out[-1] = (base, out[-1][1], hi)
        else:
            out.append((base, lo, hi))
    return out


def _inverse_views(plan: ops.Plan, counts, sunk) -> dict[int, list]:
    """Row segments of every value made only of inverse-transform rows.

    The bases are the ``InverseNtt`` nodes and the linear nodes in ``sunk``
    (each becomes one); ``SliceRows`` and ``Concat`` over such values
    re-expose their bases' rows.
    """
    views: dict[int, list] = {}
    for index, node in enumerate(plan.nodes):
        count = counts[index]
        if isinstance(node, ops.InverseNtt) or index in sunk:
            if count is not None and (
                index not in sunk or all(op in views for op in node.operands())
            ):
                views[index] = [(index, 0, count)]
        elif isinstance(node, ops.SliceRows) and node.src in views:
            views[index] = _slice_segments(views[node.src], node.start, node.stop)
        elif isinstance(node, ops.Concat) and all(src in views for src in node.srcs):
            views[index] = _join_segments(
                [segment for src in node.srcs for segment in views[src]]
            )
    return views


def _row_readers(plan: ops.Plan, views) -> dict[tuple[int, int], set[int]]:
    """``{(base, row): nodes reading it}``, with ``-1`` for a plan output.

    Slices and concats that are views pass rows on; they read nothing.
    """
    readers: dict[tuple[int, int], set[int]] = {}

    def read(reader: int, value: int) -> None:
        for base, lo, hi in views.get(value, ()):
            for row in range(lo, hi):
                readers.setdefault((base, row), set()).add(reader)

    for index, node in enumerate(plan.nodes):
        if index in views and isinstance(node, (ops.SliceRows, ops.Concat)):
            continue
        for operand in set(node.operands()):
            read(index, operand)
    for _, value in plan.outputs:
        read(-1, value)
    return readers


def _sinkable(plan: ops.Plan, counts):
    """The linear nodes to sink, with the views and row readers they imply.

    Starts from every linear node and drops, until nothing more drops, each
    one that reads an operand that is not an inverse view, shares a row it
    reads with another reader (that inverse transform must stay alive), or
    reads fewer distinct rows than it produces (its own inverse transform
    would add rows).  Every row a sunk node reads is therefore freed, so
    the static transform rows never grow.
    """
    sunk = {
        index
        for index, node in enumerate(plan.nodes)
        if isinstance(node, _LINEAR_NODES) and counts[index] is not None
    }
    while True:
        views = _inverse_views(plan, counts, sunk)
        readers = _row_readers(plan, views)
        unsafe = set()
        for index in sunk:
            if index not in views:
                unsafe.add(index)
                continue
            rows = {
                (base, row)
                for operand in plan.nodes[index].operands()
                for base, lo, hi in views[operand]
                for row in range(lo, hi)
            }
            if len(rows) < counts[index] or any(
                readers[row] != {index} for row in rows
            ):
                unsafe.add(index)
        if not unsafe:
            return sunk, views, readers
        sunk -= unsafe


def _runs(rows: list[int]) -> list[tuple[int, int]]:
    """Sorted rows as maximal ``(lo, hi)`` runs."""
    runs: list[list[int]] = []
    for row in rows:
        if runs and runs[-1][1] == row:
            runs[-1][1] = row + 1
        else:
            runs.append([row, row + 1])
    return [(lo, hi) for lo, hi in runs]


@register_pass(
    "sink_inverse_ntt",
    "rewrite linear nodes over inverse transforms as the same node in the NTT "
    "domain plus one inverse transform, and narrow transforms to the rows "
    "still read",
)
def sink_inverse_ntt(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    counts = _row_counts(plan, ctx)
    sunk, views, readers = _sinkable(plan, counts)
    live = {key for key, who in readers.items() if who - sunk}
    # A base whose remaining readers see only some of its rows keeps just
    # those rows (a slice of a transform is the transform of the slice).
    narrowed: dict[int, list[int]] = {}
    for base in views:
        if base in sunk or isinstance(plan.nodes[base], ops.InverseNtt):
            rows = [row for row in range(counts[base]) if (base, row) in live]
            if 0 < len(rows) < counts[base]:
                narrowed[base] = rows
    if not sunk and not narrowed:
        return plan

    rw = _Rewriter(plan, ctx)
    image: dict[int, int] = {}  # old value -> new value of its NTT image
    kept: dict[int, int] = {}  # narrowed base -> its narrowed transform
    feeds_sunk = {op for index in sunk for op in plan.nodes[index].operands()}
    for index, node in enumerate(plan.nodes):
        segments = views.get(index)
        if index in sunk:
            image[index] = rw.emit(
                _with_operands(node, tuple(image[op] for op in node.operands()))
            )
            rw.keep(index, ops.InverseNtt(image[index]))
        elif segments is not None and isinstance(node, ops.InverseNtt):
            image[index] = rw.read(node.src)
            rw.keep(index, ops.InverseNtt(image[index]))
        elif (
            segments is not None
            and any(base in narrowed for base, _, _ in segments)
            and all(
                (base, row) in live
                for base, lo, hi in segments
                for row in range(lo, hi)
            )
        ):
            pieces = []
            for base, lo, hi in segments:
                if base in narrowed:
                    start = narrowed[base].index(lo)
                    pieces.append((kept[base], start, start + hi - lo))
                else:
                    pieces.append((rw.read(base), lo, hi))
            rw.alias(index, _gather(rw, pieces))
        else:
            rw.keep(index, _with_operands(node, rw.mapped(node)))
        if index in narrowed:
            ctx.tally("sink_inverse_ntt", "transforms_narrowed")
            runs = _runs(narrowed[index])
            rows = _gather(rw, [(image[index], lo, hi) for lo, hi in runs])
            kept[index] = rw.emit(ops.InverseNtt(rows))
        if index in feeds_sunk and index not in image:
            # Emitted where the view was, so a view a later stage reads
            # stays a stage output of the earlier one.
            image[index] = _gather(
                rw, [(image[base], lo, hi) for base, lo, hi in segments]
            )
    if sunk:
        ctx.tally("sink_inverse_ntt", "nodes_sunk", len(sunk))
    return rw.finish()


@register_pass(
    "cancel_ntt_pairs",
    "cancel inverse(forward(x)) / forward(inverse(x)) transform pairs, "
    "including per-row through the batching concat/slice plumbing",
)
def cancel_ntt_pairs(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rw = _Rewriter(plan, ctx)

    def cancel_target(value: int, opposite: type) -> int | None:
        """New value equal to transforming ``value``, if it round-trips.

        ``T(T'(y)) == y`` directly, and — transforms being row-wise —
        ``T(SliceRows(T'(y), a, b)) == SliceRows(y, a, b)``.
        """
        base = rw.resolve(value)
        node = rw.nodes[base]
        if isinstance(node, opposite):
            return rw.resolve(node.src)
        if isinstance(node, ops.SliceRows):
            inner = rw.resolve(node.src)
            inner_node = rw.nodes[inner]
            if isinstance(inner_node, opposite):
                return rw.emit(
                    ops.SliceRows(rw.resolve(inner_node.src), node.start, node.stop)
                )
        return None

    for index, node in enumerate(plan.nodes):
        if not isinstance(node, (ops.ForwardNtt, ops.InverseNtt)):
            rw.keep(index, _with_operands(node, rw.mapped(node)))
            continue
        transform = type(node)
        opposite = ops.InverseNtt if transform is ops.ForwardNtt else ops.ForwardNtt
        src = rw.read(node.src)
        target = cancel_target(src, opposite)
        if target is not None:
            ctx.tally("cancel_ntt_pairs", "pairs_cancelled")
            rw.alias(index, target)
            continue
        base = rw.resolve(src)
        base_node = rw.nodes[base]
        if isinstance(base_node, ops.Concat):
            targets = [cancel_target(part, opposite) for part in base_node.srcs]
            if any(target is not None for target in targets):
                # Cancel the round-tripping parts; keep the surviving parts
                # grouped in (at most a few) wide transforms so the batch
                # structure the emitters built is preserved.
                segments: list[int] = []
                run: list[int] = []
                for part, target in zip(base_node.srcs, targets):
                    if target is None:
                        run.append(part)
                        continue
                    if run:
                        segments.append(_emit_grouped_transform(rw, transform, run))
                        run = []
                    segments.append(target)
                if run:
                    segments.append(_emit_grouped_transform(rw, transform, run))
                ctx.tally(
                    "cancel_ntt_pairs",
                    "pairs_cancelled",
                    sum(target is not None for target in targets),
                )
                if len(segments) == 1:
                    rw.alias(index, segments[0])
                else:
                    rw.keep(index, ops.Concat(tuple(segments)))
                continue
        rw.keep(index, transform(src))
    return rw.finish()


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
    "ntt_residency",
    "hoist forward NTTs of constant inputs (relinearisation keys, repeated "
    "plaintexts) out of the plan into the per-context constant pool",
)
def ntt_residency(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    if not ctx.constant_inputs:
        return plan
    rw = _Rewriter(plan, ctx)
    resident: dict[str, int] = {}

    def resident_input(name: str) -> int:
        derived = name + "@ntt"
        value = resident.get(derived)
        if value is None:
            ctx.add_derived(derived, name)
            value = rw.emit(ops.Input(derived))
            resident[derived] = value
        return value

    def constant_name(value: int) -> str | None:
        node = rw.nodes[rw.resolve(value)]
        if isinstance(node, ops.Input) and node.name in ctx.constant_inputs:
            return node.name
        return None

    for index, node in enumerate(plan.nodes):
        if not isinstance(node, ops.ForwardNtt):
            rw.keep(index, _with_operands(node, rw.mapped(node)))
            continue
        src = rw.read(node.src)
        name = constant_name(src)
        if name is not None:
            ctx.tally("ntt_residency", "transforms_hoisted")
            rw.alias(index, resident_input(name))
            continue
        base = rw.resolve(src)
        base_node = rw.nodes[base]
        if isinstance(base_node, ops.Concat):
            names = [constant_name(part) for part in base_node.srcs]
            if any(name is not None for name in names):
                # Split the constants out of the batch; the surviving rows
                # stay grouped in wide transforms (the emitters put the
                # constants at the batch edges, so one contiguous run of
                # non-constant rows is the common case).
                segments: list[int] = []
                run: list[int] = []
                for part, name in zip(base_node.srcs, names):
                    if name is None:
                        run.append(part)
                        continue
                    if run:
                        segments.append(
                            _emit_grouped_transform(rw, ops.ForwardNtt, run)
                        )
                        run = []
                    ctx.tally("ntt_residency", "transforms_hoisted")
                    segments.append(resident_input(name))
                if run:
                    segments.append(_emit_grouped_transform(rw, ops.ForwardNtt, run))
                if len(segments) == 1:
                    rw.alias(index, segments[0])
                else:
                    rw.keep(index, ops.Concat(tuple(segments)))
                continue
        rw.keep(index, ops.ForwardNtt(src))
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
