"""Declarative operation graphs: the plan IR every backend executes.

The paper's GPU throughput comes from amortising launch overhead across wide
batches of NTT and pointwise kernels; the CPU realisation pays an analogous
per-call tax — one pool round trip per ``ComputeBackend`` method on the
``parallel`` backend.  This module is the seam that removes it: instead of a
chain of per-op method calls, callers describe a whole ciphertext operation
as a small graph of declarative op records and hand it to
:meth:`repro.backends.base.ComputeBackend.execute` in one shot — the way
SEAL-style libraries and GPU runtimes expose streams/graphs rather than
one-kernel-at-a-time launches.

Three layers live here:

* **The IR** — one frozen record per operation (:class:`ForwardNtt`,
  :class:`Add`, :class:`DigitBroadcast`, ...), each naming its operands by
  *value index* (the producing node's position in the plan).  Records are
  plain picklable dataclasses so a whole plan crosses a process boundary as
  a few hundred bytes.
* **The builder** — :class:`OpGraph` appends nodes in SSA style (operands
  must already exist, so construction order *is* topological order) and
  :meth:`OpGraph.compile` freezes the result into an immutable, hashable
  :class:`Plan` with named inputs and outputs.
* **The tooling every backend shares** — :func:`interpret` (the generic
  plan interpreter: one backend call per node, which is how the scalar and
  numpy backends execute plans — each transform node still routes through
  the backend's NTT-engine selection), :func:`infer_primes`
  (static shape inference), :func:`last_uses` (value lifetimes: both plan
  executors drop each value after its last reader) with
  :func:`peak_live_bytes`, and the scheduling helpers the ``parallel``
  backend uses to run a whole plan as one fused task per worker:
  :func:`split_stages` cuts a plan into stages by dependency level and
  :func:`shard_stage` derives each worker's row ranges for every value of
  a stage.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "NODE_NAMES",
    "Add",
    "Concat",
    "Copy",
    "DigitBroadcast",
    "ForwardNtt",
    "Input",
    "InverseNtt",
    "ModSwitchDropLast",
    "Mul",
    "Neg",
    "OpGraph",
    "OpNode",
    "Plan",
    "ScalarMul",
    "SliceRows",
    "Sub",
    "gather_inputs",
    "infer_primes",
    "interpret",
    "last_uses",
    "node_name",
    "peak_live_bytes",
    "shard_stage",
    "split_stages",
]


# ------------------------------------------------------------------- the IR


@dataclass(frozen=True)
class OpNode:
    """Base record of one plan operation.

    Operand fields hold *value indices*: the position, in the plan's node
    tuple, of the node that produces the operand.  Every node produces
    exactly one value, so node index and value index coincide.
    """

    kind = "abstract"

    def operands(self) -> tuple[int, ...]:
        """Value indices this node reads (structural traversal helper)."""
        return ()


@dataclass(frozen=True)
class Input(OpNode):
    """A plan input: bound to a caller-supplied tensor at execution time."""

    name: str
    kind = "input"


@dataclass(frozen=True)
class ForwardNtt(OpNode):
    """Forward negacyclic NTT of every row of ``src``."""

    src: int
    kind = "forward_ntt"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class InverseNtt(OpNode):
    """Inverse negacyclic NTT of every row of ``src``."""

    src: int
    kind = "inverse_ntt"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class Add(OpNode):
    """Element-wise ``(a + b) mod p``."""

    a: int
    b: int
    kind = "add"

    def operands(self) -> tuple[int, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Sub(OpNode):
    """Element-wise ``(a - b) mod p``."""

    a: int
    b: int
    kind = "sub"

    def operands(self) -> tuple[int, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Mul(OpNode):
    """Element-wise ``(a * b) mod p`` — the ⊙ of the NTT-domain pipeline."""

    a: int
    b: int
    kind = "mul"

    def operands(self) -> tuple[int, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Neg(OpNode):
    """Element-wise ``(-a) mod p``."""

    src: int
    kind = "neg"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class ScalarMul(OpNode):
    """Multiply every row by one integer scalar (reduced per modulus)."""

    src: int
    scalar: int
    kind = "scalar_mul"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class Copy(OpNode):
    """Deep copy — fresh storage, no aliasing."""

    src: int
    kind = "copy"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class Concat(OpNode):
    """Stack values row-wise into one wide batch (primes concatenate)."""

    srcs: tuple[int, ...]
    kind = "concat"

    def operands(self) -> tuple[int, ...]:
        return self.srcs


@dataclass(frozen=True)
class SliceRows(OpNode):
    """Rows ``start:stop`` of ``src`` as a new value."""

    src: int
    start: int
    stop: int
    kind = "slice_rows"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class DigitBroadcast(OpNode):
    """RNS digit decomposition: broadcast row ``index`` across the basis.

    A *cross-row* node: computing any output row needs read access to one
    specific source row, so the fused scheduler requires the source value to
    be fully materialised (a stage input) and otherwise cuts the plan into
    stages at this node.
    """

    src: int
    index: int
    kind = "digit_broadcast"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True)
class ModSwitchDropLast(OpNode):
    """Exact RNS modulus switch dropping the last prime.

    A *cross-row* node: every output row needs the source's last row, so the
    same materialisation rule as :class:`DigitBroadcast` applies.
    """

    src: int
    plaintext_modulus: int
    kind = "mod_switch_drop_last"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


#: Node kinds that need full access to their source value (not just the rows
#: a worker owns) — the stage boundaries of fused execution.
CROSS_ROW_NODES = (DigitBroadcast, ModSwitchDropLast)

#: Every valid plan node kind, in declaration order, derived from the node
#: classes themselves (error messages and the registry's diagnostics list
#: these — a new node class only needs adding here once).
NODE_CLASSES = (
    Input,
    ForwardNtt,
    InverseNtt,
    Add,
    Sub,
    Mul,
    Neg,
    ScalarMul,
    Copy,
    Concat,
    SliceRows,
    DigitBroadcast,
    ModSwitchDropLast,
)
NODE_NAMES = tuple(node_class.kind for node_class in NODE_CLASSES)


def node_name(node: OpNode) -> str:
    """The registry name of a node record (``"forward_ntt"``, ...)."""
    return node.kind


# ------------------------------------------------------------ builder / plan


@dataclass(frozen=True)
class Plan:
    """A compiled, immutable operation graph.

    Attributes:
        nodes: Topologically ordered op records; node index == value index.
        outputs: ``(name, value index)`` pairs naming the result tensors.
    """

    nodes: tuple[OpNode, ...]
    outputs: tuple[tuple[str, int], ...]

    @property
    def input_names(self) -> tuple[str, ...]:
        """Names of the plan's inputs, in declaration order."""
        return tuple(
            node.name for node in self.nodes if isinstance(node, Input)
        )

    @property
    def output_names(self) -> tuple[str, ...]:
        """Names of the plan's outputs, in declaration order."""
        return tuple(name for name, _ in self.outputs)

    @cached_property
    def releases(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the values to drop once it has run (see :func:`last_uses`).

        Computed once per plan object; outputs live to the end.
        """
        outputs = {index for _, index in self.outputs}
        return last_uses(self, range(len(self.nodes)), outputs)

    def __len__(self) -> int:
        return len(self.nodes)


class OpGraph:
    """SSA-style builder for :class:`Plan` objects.

    Every method appends one node and returns its value index; operands must
    be indices returned earlier, so the node list is topologically ordered by
    construction.  Mark results with :meth:`output` and freeze with
    :meth:`compile`.
    """

    def __init__(self) -> None:
        self._nodes: list[OpNode] = []
        self._outputs: list[tuple[str, int]] = []
        self._input_names: set[str] = set()

    def _append(self, node: OpNode) -> int:
        for operand in node.operands():
            self._check_ref(operand)
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _check_ref(self, value: int) -> None:
        if not isinstance(value, int) or not 0 <= value < len(self._nodes):
            raise ValueError(
                "operand %r is not the index of an existing node (have %d)"
                % (value, len(self._nodes))
            )

    # -- node constructors -----------------------------------------------------
    def input(self, name: str) -> int:
        """Declare a named plan input (bound to a tensor at execution)."""
        if name in self._input_names:
            raise ValueError("duplicate plan input name %r" % name)
        self._input_names.add(name)
        return self._append(Input(name))

    def forward_ntt(self, src: int) -> int:
        return self._append(ForwardNtt(src))

    def inverse_ntt(self, src: int) -> int:
        return self._append(InverseNtt(src))

    def add(self, a: int, b: int) -> int:
        return self._append(Add(a, b))

    def sub(self, a: int, b: int) -> int:
        return self._append(Sub(a, b))

    def mul(self, a: int, b: int) -> int:
        return self._append(Mul(a, b))

    def neg(self, src: int) -> int:
        return self._append(Neg(src))

    def scalar_mul(self, src: int, scalar: int) -> int:
        return self._append(ScalarMul(src, scalar))

    def copy(self, src: int) -> int:
        return self._append(Copy(src))

    def concat(self, srcs: Sequence[int]) -> int:
        if not srcs:
            raise ValueError("cannot concatenate an empty value sequence")
        return self._append(Concat(tuple(srcs)))

    def slice_rows(self, src: int, start: int, stop: int) -> int:
        if not 0 <= start <= stop:
            raise ValueError("invalid slice bounds [%d, %d)" % (start, stop))
        return self._append(SliceRows(src, start, stop))

    def split(self, src: int, counts: Sequence[int]) -> list[int]:
        """Sugar: consecutive :class:`SliceRows` covering ``counts`` rows each."""
        pieces = []
        offset = 0
        for count in counts:
            pieces.append(self.slice_rows(src, offset, offset + count))
            offset += count
        return pieces

    def digit_broadcast(self, src: int, index: int) -> int:
        if index < 0:
            raise ValueError("digit index %d out of range" % index)
        return self._append(DigitBroadcast(src, index))

    def mod_switch_drop_last(self, src: int, plaintext_modulus: int) -> int:
        return self._append(ModSwitchDropLast(src, plaintext_modulus))

    # -- compilation -----------------------------------------------------------
    def output(self, name: str, value: int) -> None:
        """Name a value as a plan output."""
        self._check_ref(value)
        if any(existing == name for existing, _ in self._outputs):
            raise ValueError("duplicate plan output name %r" % name)
        self._outputs.append((name, value))

    def compile(self) -> Plan:
        """Freeze the graph into an immutable, hashable :class:`Plan`."""
        if not self._outputs:
            raise ValueError("a plan needs at least one output")
        return Plan(tuple(self._nodes), tuple(self._outputs))


# -------------------------------------------------------- shape inference


def infer_primes(
    plan: Plan, input_primes: Mapping[str, Sequence[int]]
) -> list[tuple[int, ...]]:
    """Statically infer the per-row modulus tuple of every plan value.

    Mirrors the per-op backend methods' validation (prime mismatches on pairs,
    out-of-range digit indices, under-length modulus switches) so a malformed
    plan fails *before* any backend work is dispatched.
    """
    primes: list[tuple[int, ...]] = []
    for index, node in enumerate(plan.nodes):
        if isinstance(node, Input):
            if node.name not in input_primes:
                raise _unbound_input_error(node.name, plan)
            primes.append(tuple(input_primes[node.name]))
        elif isinstance(node, (Add, Sub, Mul)):
            if primes[node.a] != primes[node.b]:
                raise ValueError(
                    "plan node %d (%s): tensor prime mismatch: %d vs %d rows "
                    "over different moduli"
                    % (index, node.kind, len(primes[node.a]), len(primes[node.b]))
                )
            primes.append(primes[node.a])
        elif isinstance(node, (ForwardNtt, InverseNtt, Neg, ScalarMul, Copy)):
            primes.append(primes[node.src])
        elif isinstance(node, Concat):
            # OpGraph.concat rejects this at build time; a directly
            # constructed (or pass-rewritten) plan must fail here, before
            # any backend sees a zero-row tensor.
            if not node.srcs:
                raise ValueError(
                    "plan node %d: cannot concatenate an empty value sequence"
                    % index
                )
            merged: list[int] = []
            for src in node.srcs:
                merged.extend(primes[src])
            primes.append(tuple(merged))
        elif isinstance(node, SliceRows):
            count = len(primes[node.src])
            if not 0 <= node.start <= node.stop <= count:
                raise ValueError(
                    "plan node %d: slice [%d, %d) out of range for %d rows"
                    % (index, node.start, node.stop, count)
                )
            primes.append(primes[node.src][node.start : node.stop])
        elif isinstance(node, DigitBroadcast):
            if not 0 <= node.index < len(primes[node.src]):
                raise ValueError("digit index %d out of range" % node.index)
            primes.append(primes[node.src])
        elif isinstance(node, ModSwitchDropLast):
            if len(primes[node.src]) < 2:
                raise ValueError("cannot modulus-switch below a single prime")
            primes.append(primes[node.src][:-1])
        else:
            raise _unknown_node_error(node)
    return primes


def _unbound_input_error(name: str, plan: Plan) -> ValueError:
    return ValueError(
        "plan input %r was not bound (expected inputs: %s)"
        % (name, ", ".join(plan.input_names))
    )


def gather_inputs(plan: Plan, inputs: Mapping[str, object]) -> dict[str, object]:
    """Bind every plan input, raising uniformly on a missing name."""
    bound = {}
    for name in plan.input_names:
        try:
            bound[name] = inputs[name]
        except KeyError:
            raise _unbound_input_error(name, plan) from None
    return bound


# ------------------------------------------------------------ value lifetimes


def last_uses(
    plan: Plan, nodes: Sequence[int], keep: Collection[int] = ()
) -> tuple[tuple[int, ...], ...]:
    """Per entry of ``nodes``, the values whose last reader it is.

    ``nodes`` are value indices in execution order: the whole plan, or one
    stage of it.  A value produced among ``nodes`` is listed at the last
    node of ``nodes`` that reads it, or at its own node when none does (a
    dead node, or a stage output only later stages read).  Plan inputs are
    never listed — the caller owns them, pooled key images included — and
    neither are the values in ``keep``.
    """
    last: dict[int, int] = {}
    for position, index in enumerate(nodes):
        if not isinstance(plan.nodes[index], Input) and index not in keep:
            last[index] = position
        for operand in plan.nodes[index].operands():
            if operand in last:
                last[operand] = position
    releases: list[list[int]] = [[] for _ in nodes]
    for value, position in last.items():
        releases[position].append(value)
    return tuple(tuple(values) for values in releases)


def peak_live_bytes(
    plan: Plan, input_primes: Mapping[str, Sequence[int]], n: int
) -> int:
    """The static peak of live value bytes while :func:`interpret` runs a plan.

    Every value holds ``rows × n`` 8-byte words.  Inputs are live
    throughout, a node's operands and its result are live together, and
    each value dies after its last reader (:attr:`Plan.releases`).
    """
    rows = [len(primes) for primes in infer_primes(plan, input_primes)]
    live = sum(
        rows[index]
        for index, node in enumerate(plan.nodes)
        if isinstance(node, Input)
    )
    peak = live
    for index, released in enumerate(plan.releases):
        if not isinstance(plan.nodes[index], Input):
            live += rows[index]
            peak = max(peak, live)
        live -= sum(rows[value] for value in released)
    return peak * n * 8


def _unknown_node_error(node: object) -> KeyError:
    return KeyError(
        "unknown plan node %r (valid nodes: %s)"
        % (type(node).__name__, ", ".join(NODE_NAMES))
    )


# ------------------------------------------------------ generic interpreter


def interpret(backend, plan: Plan, inputs: Mapping[str, object]) -> dict[str, object]:
    """Execute a plan one backend call per node — the reference path.

    This is the generic interpreter behind
    :meth:`repro.backends.base.ComputeBackend.execute`: correct on every
    backend (each node dispatches through the backend's own engine routing
    and fallback machinery), with no cross-op fusion.  Each value is dropped
    once its last reader has run (:attr:`Plan.releases`), so at most the
    plan's :func:`peak_live_bytes` of values are alive at a time; inputs
    are the caller's and are neither dropped nor written.  Backends that
    can do better — the ``parallel`` backend's one-task-per-worker fused
    stages — override ``execute`` and fall back to this interpreter for
    plans they cannot shard.
    """
    bound = gather_inputs(plan, inputs)
    # Full static validation up front (prime mismatches, out-of-range slices
    # and digits, empty concats): optimiser-rewritten plans take the same
    # fail-before-dispatch path here as on the sharding backends, which
    # already validate through their schedulers.
    infer_primes(plan, {name: tensor.primes for name, tensor in bound.items()})
    values: list[object] = [None] * len(plan.nodes)
    for index, (node, released) in enumerate(zip(plan.nodes, plan.releases)):
        if isinstance(node, Input):
            tensor = bound[node.name]
            backend._check_owned(tensor)
            values[index] = tensor
        elif isinstance(node, ForwardNtt):
            values[index] = backend.forward_ntt_batch(values[node.src])
        elif isinstance(node, InverseNtt):
            values[index] = backend.inverse_ntt_batch(values[node.src])
        elif isinstance(node, Add):
            values[index] = backend.add(values[node.a], values[node.b])
        elif isinstance(node, Sub):
            values[index] = backend.sub(values[node.a], values[node.b])
        elif isinstance(node, Mul):
            values[index] = backend.mul(values[node.a], values[node.b])
        elif isinstance(node, Neg):
            values[index] = backend.neg(values[node.src])
        elif isinstance(node, ScalarMul):
            values[index] = backend.scalar_mul(values[node.src], node.scalar)
        elif isinstance(node, Copy):
            values[index] = backend.copy(values[node.src])
        elif isinstance(node, Concat):
            values[index] = backend.concat([values[src] for src in node.srcs])
        elif isinstance(node, SliceRows):
            values[index] = backend.slice_rows(
                values[node.src], node.start, node.stop
            )
        elif isinstance(node, DigitBroadcast):
            values[index] = backend.digit_broadcast(values[node.src], node.index)
        elif isinstance(node, ModSwitchDropLast):
            values[index] = backend.mod_switch_drop_last(
                values[node.src], node.plaintext_modulus
            )
        else:
            raise _unknown_node_error(node)
        for dead in released:
            values[dead] = None
    return {name: values[index] for name, index in plan.outputs}


# --------------------------------------------------------- fused scheduling
#
# Everything below is shape arithmetic for the parallel backend: given a plan
# and the row counts of its values, derive (a) where the plan must be cut
# into sequentially dispatched stages and (b) which rows of every value each
# worker owns inside a stage.  Row sets are tuples of sorted, disjoint,
# non-empty ``(lo, hi)`` ranges; an empty tuple means the worker owns no rows
# of that value.


def _partition(count: int, workers: int) -> list[tuple[tuple[int, int], ...]]:
    """Contiguous balanced row ranges for ``count`` rows, padded to ``workers``."""
    ranges: list[tuple[tuple[int, int], ...]] = []
    if count:
        shards = min(workers, count)
        base, extra = divmod(count, shards)
        start = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            ranges.append(((start, start + size),))
            start += size
    while len(ranges) < workers:
        ranges.append(())
    return ranges


def _shift(ranges: tuple[tuple[int, int], ...], offset: int):
    return tuple((lo + offset, hi + offset) for lo, hi in ranges)


def _clip(ranges: tuple[tuple[int, int], ...], start: int, stop: int):
    """Intersect with ``[start, stop)`` and rebase to that window's origin."""
    clipped = []
    for lo, hi in ranges:
        lo, hi = max(lo, start), min(hi, stop)
        if lo < hi:
            clipped.append((lo - start, hi - start))
    return tuple(clipped)


def _merge(ranges):
    """Normalise to sorted, disjoint, non-adjacent ranges."""
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def rowset_size(ranges) -> int:
    """Total number of rows covered by a row set."""
    return sum(hi - lo for lo, hi in ranges)


def split_stages(plan: Plan) -> list[list[int]]:
    """Cut a plan into sequentially dispatched stages by dependency level.

    A cross-row node (:data:`CROSS_ROW_NODES`) can only run when its source
    value is fully materialised — a plan input or an output of an earlier
    stage — so it goes one stage after the stage that produces its source.
    Every other node joins the latest stage among its operands.  Independent
    statements therefore share stages however their nodes interleave in
    plan order, and each stage lists its nodes in plan order.  Plans without
    cross-row reads of intermediates (a whole homomorphic multiply, for
    instance) come back as one stage: one pool dispatch.
    """
    stage_of: dict[int, int] = {}
    for index, node in enumerate(plan.nodes):
        if isinstance(node, Input):
            continue
        stage = max((stage_of.get(src, 0) for src in node.operands()), default=0)
        if isinstance(node, CROSS_ROW_NODES) and node.src in stage_of:
            stage = stage_of[node.src] + 1
        stage_of[index] = stage
    # A level above 0 is only reached from a node one level down, so the
    # levels in use run 0..max without gaps.
    stages: list[list[int]] = [[] for _ in set(stage_of.values())]
    for index, stage in stage_of.items():
        stages[stage].append(index)
    return stages


def stage_outputs(plan: Plan, stages: Sequence[Sequence[int]]) -> list[list[int]]:
    """Which values each stage must materialise (shared memory, not worker-local).

    A stage output is a value produced in the stage that a later stage reads
    or that the plan itself returns; everything else stays local to the
    worker that computed it.
    """
    plan_outs = {index for _, index in plan.outputs}
    outs: list[list[int]] = []
    for position, stage in enumerate(stages):
        later: set[int] = set()
        for later_stage in stages[position + 1 :]:
            for node_index in later_stage:
                later.update(plan.nodes[node_index].operands())
        outs.append(
            [index for index in stage if index in plan_outs or index in later]
        )
    return outs


def shard_stage(
    plan: Plan,
    stage: Sequence[int],
    primes: Sequence[tuple[int, ...]],
    materialised: set[int],
    workers: int,
) -> list[dict[int, tuple[tuple[int, int], ...]]] | None:
    """Derive each worker's row ranges for every value a stage touches.

    Materialised values get the canonical contiguous partition; produced
    values derive their ownership from their operands (concatenation shifts,
    slices clip, row-independent ops inherit, a modulus switch partitions
    its own rows canonically).  Returns ``None`` when a
    pointwise pair's operands end up with different ownership — the caller
    then falls back to per-op interpretation instead of dispatching a
    misaligned schedule.
    """
    rowsets: dict[int, list] = {}

    def resolve(value: int):
        owned = rowsets.get(value)
        if owned is None:
            if value not in materialised:  # pragma: no cover - defensive
                raise ValueError("stage reads value %d before it exists" % value)
            owned = _partition(len(primes[value]), workers)
            rowsets[value] = owned
        return owned

    for index in stage:
        node = plan.nodes[index]
        if isinstance(node, (Add, Sub, Mul)):
            left, right = resolve(node.a), resolve(node.b)
            if left != right:
                return None
            rowsets[index] = left
        elif isinstance(node, (ForwardNtt, InverseNtt, Neg, ScalarMul, Copy)):
            rowsets[index] = resolve(node.src)
        elif isinstance(node, Concat):
            parts = [resolve(src) for src in node.srcs]
            combined = []
            for worker in range(workers):
                pieces: list[tuple[int, int]] = []
                offset = 0
                for src, part in zip(node.srcs, parts):
                    pieces.extend(_shift(part[worker], offset))
                    offset += len(primes[src])
                combined.append(_merge(pieces))
            rowsets[index] = combined
        elif isinstance(node, SliceRows):
            source = resolve(node.src)
            rowsets[index] = [
                _clip(source[worker], node.start, node.stop)
                for worker in range(workers)
            ]
        elif isinstance(node, DigitBroadcast):
            # Requires full access to the source; ownership of the output is
            # the canonical partition of the (equal-count) source value.
            rowsets[index] = resolve(node.src)
        elif isinstance(node, ModSwitchDropLast):
            # Cross-row like DigitBroadcast: each worker reads its own rows
            # and the source's last row, so the output gets the canonical
            # partition of its own (one fewer) rows.
            resolve(node.src)
            rowsets[index] = _partition(len(primes[node.src]) - 1, workers)
        else:
            raise _unknown_node_error(node)
    return [
        {value: tuple(owned[worker]) for value, owned in rowsets.items()}
        for worker in range(workers)
    ]
