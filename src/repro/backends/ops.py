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
  :class:`Add`, :class:`InnerProduct`, :class:`DigitBroadcast`, ...), each
  naming its operands by *value index* (the producing node's position in
  the plan).  Records are plain picklable dataclasses so a whole plan
  crosses a process boundary as a few hundred bytes.  The emitters build
  sums of products from ``Mul`` and ``Add``; the optimiser's
  ``fuse_inner_products`` pass folds each such tree into one
  :class:`InnerProduct`, the multiply-accumulate node every backend runs
  as one row-local pass.
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
  :func:`split_stages` cuts a plan into stages by dependency level,
  :func:`replicated_values` names the values every worker computes in
  full, and :func:`shard_stage` derives each worker's row ranges for every
  value of a stage.
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
    "InnerProduct",
    "InverseNtt",
    "ModSwitchCorrection",
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
    "replicated_values",
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
class InnerProduct(OpNode):
    """Element-wise ``(Σ_t a_t * b_t + Σ addends) mod p``, fully reduced.

    ``pairs`` holds the ``(a_t, b_t)`` value pairs (at least one; a pair or
    an operand may repeat) and ``addends`` the values added unmultiplied.
    Every operand has the node's primes.  It is row-local, like ``Mul``:
    the multiply-accumulate of key switching and of plaintext-diagonal
    sums, reduced once (or once per word of headroom) instead of once per
    product and per partial sum.
    """

    pairs: tuple[tuple[int, int], ...]
    addends: tuple[int, ...] = ()
    kind = "inner_product"

    def operands(self) -> tuple[int, ...]:
        return tuple(value for pair in self.pairs for value in pair) + self.addends


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
    """RNS digits by shift: row ``i`` is source row ``(i + shift) mod L``, mod ``p_i``.

    ``L`` is the source's row count.  Row ``j`` of a coefficient-domain
    residue matrix is the digit of prime ``j``, so shift ``g`` lays the
    digits out along a diagonal: output row ``i`` holds digit ``(i + g) mod
    L`` reduced mod the row's own prime.  Shifts ``1 .. L-1`` together hold
    every off-diagonal digit row, each value one whole repetition of the
    basis, and shift 0 is the source itself — so key switching transforms
    its digits as one run of whole basis repetitions.

    A *cross-row* node: computing an output row needs read access to another
    source row, so the fused scheduler requires the source value to be fully
    materialised (a stage input) or replicated, and otherwise cuts the plan
    into stages at this node.
    """

    src: int
    shift: int
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


@dataclass(frozen=True)
class ModSwitchCorrection(OpNode):
    """The correction term of an exact modulus switch, over the kept primes.

    ``src`` is the dropped prime's one residue row ``w`` in the coefficient
    domain; row ``i`` of the result is ``t*u_c mod primes[i]``, where ``u``
    is ``-w * t^{-1} mod q_last`` and ``u_c`` its centred representative —
    the term :class:`ModSwitchDropLast` adds before dividing by ``q_last``.
    An NTT-domain switch forward-transforms it and finishes pointwise:
    ``(x_i + NTT(corr_i)) * q_last^{-1} mod p_i``.  A *cross-row* node: every
    output row reads the source's one row.
    """

    src: int
    plaintext_modulus: int
    primes: tuple[int, ...]
    kind = "mod_switch_correction"

    def operands(self) -> tuple[int, ...]:
        return (self.src,)


#: Node kinds that need full access to their source value (not just the rows
#: a worker owns) — the stage boundaries of fused execution.
CROSS_ROW_NODES = (DigitBroadcast, ModSwitchDropLast, ModSwitchCorrection)

#: Node kinds a worker may compute in full from plan inputs, so that a
#: cross-row node can read the result in the same stage (see
#: :func:`replicated_values`): row moves and the inverse transform.
REPLICABLE_NODES = (SliceRows, Concat, InverseNtt)

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
    InnerProduct,
    Neg,
    ScalarMul,
    Copy,
    Concat,
    SliceRows,
    DigitBroadcast,
    ModSwitchDropLast,
    ModSwitchCorrection,
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

    def inner_product(
        self, pairs: Sequence[tuple[int, int]], addends: Sequence[int] = ()
    ) -> int:
        if not pairs:
            raise ValueError("an inner product needs at least one pair")
        return self._append(
            InnerProduct(tuple((a, b) for a, b in pairs), tuple(addends))
        )

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

    def digit_broadcast(self, src: int, shift: int) -> int:
        if shift < 0:
            raise ValueError("digit index %d out of range" % shift)
        return self._append(DigitBroadcast(src, shift))

    def mod_switch_drop_last(self, src: int, plaintext_modulus: int) -> int:
        return self._append(ModSwitchDropLast(src, plaintext_modulus))

    def mod_switch_correction(
        self, src: int, plaintext_modulus: int, primes: Sequence[int]
    ) -> int:
        return self._append(ModSwitchCorrection(src, plaintext_modulus, tuple(primes)))

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
        elif isinstance(node, InnerProduct):
            if not node.pairs:
                raise ValueError(
                    "plan node %d: an inner product needs at least one pair" % index
                )
            first = primes[node.pairs[0][0]]
            for operand in node.operands():
                if primes[operand] != first:
                    raise ValueError(
                        "plan node %d (%s): tensor prime mismatch: %d vs %d rows "
                        "over different moduli"
                        % (index, node.kind, len(first), len(primes[operand]))
                    )
            primes.append(first)
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
            if not 0 <= node.shift < len(primes[node.src]):
                raise ValueError("digit index %d out of range" % node.shift)
            primes.append(primes[node.src])
        elif isinstance(node, ModSwitchDropLast):
            if len(primes[node.src]) < 2:
                raise ValueError("cannot modulus-switch below a single prime")
            primes.append(primes[node.src][:-1])
        elif isinstance(node, ModSwitchCorrection):
            if len(primes[node.src]) != 1 or not node.primes:
                raise ValueError(
                    "plan node %d: a modulus-switch correction maps one dropped "
                    "row onto at least one kept prime" % index
                )
            primes.append(node.primes)
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
        elif isinstance(node, InnerProduct):
            values[index] = backend.inner_product(
                [(values[a], values[b]) for a, b in node.pairs],
                [values[value] for value in node.addends],
            )
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
            values[index] = backend.digit_broadcast(values[node.src], node.shift)
        elif isinstance(node, ModSwitchDropLast):
            values[index] = backend.mod_switch_drop_last(
                values[node.src], node.plaintext_modulus
            )
        elif isinstance(node, ModSwitchCorrection):
            values[index] = backend.mod_switch_correction(
                values[node.src], node.plaintext_modulus, node.primes
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


def replicated_values(plan: Plan) -> frozenset[int]:
    """The values every worker of a fused stage computes in full.

    A cross-row node reads rows other workers own, so its source must
    exist in full before the node runs.  When that source is an inverse
    transform (or a row move) of plan inputs alone — an NTT-resident
    ciphertext's ``c2`` before its digits are broadcast, or its dropped rows
    before a modulus switch — each worker computes it in full itself: a few
    transform rows run on every worker instead of a pool round trip.  A
    value qualifies when its node is one of :data:`REPLICABLE_NODES`, every
    operand is a plan input or qualifies, and every reader is a cross-row
    node or qualifies (so it is never a plan or stage output).
    """
    readers: list[list[int]] = [[] for _ in plan.nodes]
    for index, node in enumerate(plan.nodes):
        for operand in node.operands():
            readers[operand].append(index)
    outputs = {index for _, index in plan.outputs}
    replicated = {
        index
        for index, node in enumerate(plan.nodes)
        if isinstance(node, REPLICABLE_NODES) and index not in outputs
    }
    changed = True
    while changed:
        changed = False
        for index in sorted(replicated, reverse=True):
            fed = all(
                isinstance(plan.nodes[operand], Input) or operand in replicated
                for operand in plan.nodes[index].operands()
            )
            read = readers[index] and all(
                isinstance(plan.nodes[reader], CROSS_ROW_NODES)
                or reader in replicated
                for reader in readers[index]
            )
            if not (fed and read):
                replicated.discard(index)
                changed = True
    return frozenset(replicated)


def split_stages(
    plan: Plan, replicated: Collection[int] | None = None
) -> list[list[int]]:
    """Cut a plan into sequentially dispatched stages by dependency level.

    A cross-row node (:data:`CROSS_ROW_NODES`) can only run when its source
    value is fully materialised — a plan input or an output of an earlier
    stage — or computed in full by every worker
    (:func:`replicated_values`, computed here when ``replicated`` is
    ``None``), so otherwise it goes one stage after the stage that produces
    its source.  Every other node joins the latest stage among its
    operands.  Independent statements therefore share stages however their
    nodes interleave in plan order, and each stage lists its nodes in plan
    order.  Plans without cross-row reads of intermediates (a whole
    homomorphic multiply, for instance) come back as one stage: one pool
    dispatch.
    """
    if replicated is None:
        replicated = replicated_values(plan)
    stage_of: dict[int, int] = {}
    for index, node in enumerate(plan.nodes):
        if isinstance(node, Input):
            continue
        stage = max((stage_of.get(src, 0) for src in node.operands()), default=0)
        if (
            isinstance(node, CROSS_ROW_NODES)
            and node.src in stage_of
            and node.src not in replicated
        ):
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
    replicated: Collection[int] | None = None,
) -> list[dict[int, tuple[tuple[int, int], ...]]] | None:
    """Derive each worker's row ranges for every value a stage touches.

    Produced values derive their ownership from their operands
    (concatenation shifts, slices clip, row-independent ops inherit, the
    cross-row nodes partition their own rows canonically), and all operands
    of a pointwise node (``Add``, ``Sub``, ``Mul``, ``InnerProduct``) share
    one ownership.  Every worker
    holds all rows of a replicated value (:func:`replicated_values`,
    computed here when ``replicated`` is ``None``), read from its operands
    in full, so those operands take no ownership from it.  A slice of a
    materialised value is read straight from the source's rows, so as an
    operand of a pointwise node another of whose operands is already owned
    it takes that ownership.  A materialised
    value is readable whole by every worker, so it is owned the way its
    first reader in the stage needs: as an operand of a pointwise node
    another of whose operands is already owned, as the missing piece of a
    concatenation whose produced parts already follow the canonical
    partition of its rows, and otherwise canonically.  Returns ``None``
    when a pointwise node's operands end up with different ownership — the
    caller then falls back to per-op interpretation instead of dispatching
    a misaligned schedule.
    """
    if replicated is None:
        replicated = replicated_values(plan)
    rowsets: dict[int, list] = {}
    #: Slices of materialised values, owned when first read.
    readable_slices: set[int] = set()

    def sliced(node: SliceRows) -> list:
        source = resolve(node.src)
        return [
            _clip(source[worker], node.start, node.stop) for worker in range(workers)
        ]

    def resolve(value: int):
        owned = rowsets.get(value)
        if owned is None:
            if value in readable_slices:
                owned = sliced(plan.nodes[value])
            elif value in materialised:
                owned = _partition(len(primes[value]), workers)
            else:  # pragma: no cover - defensive
                raise ValueError("stage reads value %d before it exists" % value)
            rowsets[value] = owned
        return owned

    def complete(srcs) -> None:
        """Own a concat's unread materialised parts by its canonical partition.

        Applies only when the parts already owned are owned that way, so a
        row computed here and a row read from shared memory pair up as
        they do in the canonical partition of the whole concatenation.
        """
        target = _partition(sum(len(primes[src]) for src in srcs), workers)
        homes: dict[int, list] = {}
        offset = 0
        for src in srcs:
            count = len(primes[src])
            window = [_clip(owned, offset, offset + count) for owned in target]
            owned = rowsets[src] if src in rowsets else homes.setdefault(src, window)
            if owned != window:
                return
            offset += count
        rowsets.update(homes)

    for index in stage:
        node = plan.nodes[index]
        if index in replicated:
            rowsets[index] = [((0, len(primes[index])),)] * workers
        elif isinstance(node, (Add, Sub, Mul, InnerProduct)):
            operands = node.operands()
            owned = next((rowsets[op] for op in operands if op in rowsets), None)
            if owned is not None:
                for operand in operands:
                    rowsets.setdefault(operand, owned)
            first, *rest = (resolve(operand) for operand in operands)
            if any(other != first for other in rest):
                return None
            rowsets[index] = first
        elif isinstance(node, (ForwardNtt, InverseNtt, Neg, ScalarMul, Copy)):
            rowsets[index] = resolve(node.src)
        elif isinstance(node, Concat):
            for src in node.srcs:
                if src in readable_slices:
                    resolve(src)
            if any(src in rowsets for src in node.srcs) and not all(
                src in rowsets for src in node.srcs
            ):
                complete(node.srcs)
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
            if node.src in materialised:
                readable_slices.add(index)
            else:
                rowsets[index] = sliced(node)
        elif isinstance(node, CROSS_ROW_NODES):
            # Cross-row: each worker reads what it needs of the (fully
            # materialised or replicated) source, so the output gets the
            # canonical partition of its own rows.
            resolve(node.src)
            rowsets[index] = _partition(len(primes[index]), workers)
        else:
            raise _unknown_node_error(node)
    for value in readable_slices:
        resolve(value)
    return [
        {value: tuple(owned[worker]) for value, owned in rowsets.items()}
        for worker in range(workers)
    ]
