"""The :class:`ComputeBackend` interface — the seam every residue-matrix
operation of the RNS/HE stack goes through — and the :class:`ResidueTensor`
handle that keeps residue data *resident* in backend-native storage.

The paper's headline observation (Section III, Fig. 3) is that an HE workload
is ``np x (number of polynomials)`` *independent* NTTs and that throughput
comes from executing them as one wide batch over data that never leaves the
device.  The interface mirrors both halves of that observation:

* **Batching** — every operation takes whole residue matrices (rows may share
  a modulus, which is exactly what lets the evaluator fuse the transforms of
  several polynomials of a ciphertext into a single call).
* **Residency** — operations consume and produce opaque
  :class:`ResidueTensor` handles.  Data enters native storage once (at
  :meth:`ComputeBackend.from_rows`) and leaves it once (at
  :meth:`ComputeBackend.to_rows`); everything in between — transforms,
  pointwise arithmetic, digit decomposition, modulus switching — stays in
  whatever layout the backend prefers.

The ResidueTensor contract
--------------------------

A :class:`ResidueTensor` is an **opaque, immutable-by-convention handle**
owned by exactly one backend instance.  The contract every backend must obey:

1. **Ownership** — a tensor may only be passed to methods of the backend that
   created it; backends must reject foreign tensors (``ValueError``) instead
   of guessing at their layout.
2. **Shape** — a tensor logically holds ``count`` rows of ``n`` residues;
   ``tensor.primes[i]`` is the modulus of row ``i`` (repeats allowed).  Rows
   are canonically reduced: every stored residue lies in ``[0, p_i)``.
3. **Value semantics** — operations return *new* tensors; a backend must not
   mutate an input tensor in place.  :meth:`ComputeBackend.copy` yields an
   independent tensor whose storage is not aliased.
4. **Explicit boundaries** — the only conversions between Python
   ``list[list[int]]`` and native storage happen in :meth:`from_rows` /
   :meth:`to_rows` (and, for vectorised backends, wherever a row must
   leave or enter the native array mid-chain).  Every such
   materialisation increments :attr:`ComputeBackend.conversion_count`,
   by the number of rows converted, so callers — and the regression tests —
   can assert that a chain of operations stayed resident.  Rows processed
   through a per-prime big-int fallback (primes of 2^62 or more, which a
   vectorised backend holds as Python rows) are charged to
   :attr:`ComputeBackend.fallback_rows`, making residual slow-path work
   directly observable (``HeContext.metrics()`` / ``/v1/metrics``).
5. **Optional shared-buffer capability** — a tensor whose storage other
   processes can map directly reports it via
   :meth:`ResidueTensor.shared_buffer`; the default (``None``) means the
   storage is private to this process.  This is how the ``parallel``
   backend's shards cross process boundaries with zero pickling of payload
   data; consumers must treat a ``None`` as "fall back to the counted
   list boundary", never as an error.

The wide-word exactness window
------------------------------

Vectorised backends guarantee **exact** modular arithmetic over the full
storage window ``p < 2^62`` — not just where a native ``uint64`` product is
safe (``p < 2^31``).  The contract, shared by every engine array path and
every pointwise/RNS kernel (see :mod:`repro.backends.wideops`):

* products against *constants* (twiddles, ``n^{-1}``, ``t``, ``q^{-1}``) use
  Shoup's precomputed-companion reduction — 32-bit limb decomposition with
  uint64 carries for any ``p < 2^62``, or the float64 two-product quotient
  trick for ``p < 2^50`` (the prime size alone selects the strategy);
* general element-wise products split the 128-bit product into limb halves
  and fold the high half in with the same Shoup machinery;
* every kernel returns *fully reduced* residues, which is what keeps every
  engine and strategy bit-for-bit interchangeable with the big-int
  reference path.

The window has no knob; primes at or above ``2^62`` always take the exact
big-int path.

Implementations:

* :class:`repro.backends.scalar.ScalarBackend` — the exact big-int reference
  path; its native storage *is* the list-of-lists, so residency is free.
* :class:`repro.backends.numpy_backend.NumpyBackend` — one resident
  ``uint64`` ndarray per tensor, every op one array pass over all of its
  rows for primes below 2^62, with a per-prime exact scalar fallback above.
* :class:`repro.backends.parallel.ParallelBackend` — shards every batched
  operation of an inner backend across a persistent process pool, one task
  per worker per plan stage, with shared-memory-backed tensors above a
  work-threshold crossover.

Backends are interchangeable bit-for-bit: the cross-check suite in
``tests/test_backends.py`` pins every implementation against
:class:`repro.transforms.cooley_tukey.NegacyclicTransformer`.
"""

from __future__ import annotations

import abc
import contextlib
import functools
from collections.abc import Mapping, Sequence

from ..telemetry import TRACER
from ..telemetry.metrics import MetricsRegistry
from . import ops

__all__ = ["ComputeBackend", "ResidueTensor", "ResidueRows", "python_row", "uninstrumented"]

#: A batch of residue rows in boundary (Python list) form: ``rows[i]`` holds
#: integers reduced mod ``primes[i]`` (:meth:`ComputeBackend.from_rows` also
#: takes 1-D NumPy rows).  Only :meth:`ComputeBackend.from_rows` /
#: :meth:`ComputeBackend.to_rows` traffic in this type.
ResidueRows = Sequence[Sequence[int]]


def python_row(row: Sequence[int]) -> Sequence[int]:
    """A residue row as Python ints: an array row is converted once."""
    tolist = getattr(row, "tolist", None)
    return row if tolist is None else tolist()


class ResidueTensor:
    """Opaque handle to a backend-resident residue matrix.

    Subclasses add the actual storage (Python rows, a ``uint64`` ndarray, a
    device buffer, ...).  User code never touches the storage — it moves
    handles between backend operations and crosses the boundary explicitly
    via :meth:`to_rows` when big-int values are genuinely needed
    (CRT reconstruction, serialisation, decoding).

    Attributes:
        backend: The backend instance that owns this tensor.
        primes: One modulus per row (repeats allowed).
        n: Row length (residues per row).
    """

    __slots__ = ("backend", "primes", "n")

    def __init__(
        self, backend: "ComputeBackend", primes: Sequence[int], n: int
    ) -> None:
        self.backend = backend
        self.primes = tuple(primes)
        self.n = n

    @property
    def count(self) -> int:
        """Number of residue rows."""
        return len(self.primes)

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(count, n)`` shape of the residue matrix."""
        return (len(self.primes), self.n)

    def to_rows(self) -> list[list[int]]:
        """Materialise to Python lists — an explicit, counted boundary."""
        return self.backend.to_rows(self)

    def shared_buffer(self) -> tuple[str, int, int, int] | None:
        """Descriptor of this tensor's cross-process-mappable storage, if any.

        Backends whose storage lives in named shared memory return a
        ``(segment name, first row, rows, n)`` tuple another process can map
        without copying (the ``parallel`` backend's zero-pickle payload
        path).  The default is ``None``: storage is private to this process
        and data must cross through the counted :meth:`to_rows` boundary.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(backend=%r, shape=%dx%d)" % (
            type(self).__name__,
            self.backend.name,
            len(self.primes),
            self.n,
        )


#: Kernel methods auto-wrapped with tracing spans on every concrete backend
#: subclass (see :meth:`ComputeBackend.__init_subclass__`).  Mapping is
#: method name → span name; boundary crossings get their own ``boundary.*``
#: namespace so the summary separates data movement from compute.
_TRACED_KERNELS = {
    "forward_ntt_batch": "op.forward_ntt",
    "inverse_ntt_batch": "op.inverse_ntt",
    "add": "op.add",
    "sub": "op.sub",
    "neg": "op.neg",
    "mul": "op.mul",
    "inner_product": "op.inner_product",
    "scalar_mul": "op.scalar_mul",
    "digit_broadcast": "op.digit_broadcast",
    "mod_switch_drop_last": "op.mod_switch",
    "mod_switch_correction": "op.mod_switch",
    "from_rows": "boundary.from_rows",
    "to_rows": "boundary.to_rows",
}

#: Every wrap applied by ``__init_subclass__``: ``(cls, attr, original,
#: wrapper)`` — consumed by :func:`uninstrumented` to restore the pristine
#: methods for overhead baselines.
_INSTRUMENTED: list[tuple] = []


def _traced(method, span_name: str):
    """Wrap a kernel method with a tracing span (single-check fast path)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if not TRACER.enabled:
            return method(self, *args, **kwargs)
        with TRACER.span(span_name, backend=self.name):
            return method(self, *args, **kwargs)

    wrapper._repro_traced = True
    return wrapper


@contextlib.contextmanager
def uninstrumented():
    """Temporarily restore every auto-wrapped kernel to its original.

    The telemetry overhead benchmark uses this as its baseline: comparing
    the (tracing-off) wrapped stack against the never-wrapped stack pins
    the cost of the disabled fast path itself.
    """
    for cls, attr, original, _wrapper in _INSTRUMENTED:
        setattr(cls, attr, original)
    try:
        yield
    finally:
        for cls, attr, _original, wrapper in _INSTRUMENTED:
            setattr(cls, attr, wrapper)


class ComputeBackend(abc.ABC):
    """Abstract batched compute backend over resident residue tensors.

    Every operation consumes and produces :class:`ResidueTensor` handles
    owned by this backend.  All rows of a tensor may be batched into one wide
    operation by the implementation; callers are encouraged to
    :meth:`concat` the largest batch they can assemble (e.g. all polynomials
    of a ciphertext at once) — that is where the paper's speedup lives.

    **Execution model.**  The primary entrypoint is :meth:`execute`: callers
    describe a whole chain of operations as a declarative
    :class:`repro.backends.ops.Plan` and the backend runs it in one shot,
    which is what lets implementations fuse across operations (the
    ``parallel`` backend dispatches one task per worker per plan stage
    instead of one pool round trip per method).  The per-operation methods
    below (``forward_ntt_batch``, ``add``, ...) are the **node kernels** a
    backend implements: each is semantically a one-node plan (the
    ``parallel`` backend runs it as one above its crossover), the generic
    interpreter executes plans through them, and
    ``tests/test_ops_plans.py`` pins the two surfaces bit-for-bit against
    each other.  Callers composing multi-op chains should emit a plan
    instead: chains of per-op calls cannot be fused and pay per-op dispatch
    overhead on sharding backends.
    """

    #: Registry name of the backend (``"scalar"``, ``"numpy"``, ...).
    name: str = "abstract"

    def __init__(self) -> None:
        #: The backend's metrics namespace.  Counters live here; the legacy
        #: per-concern properties below are thin shims over it.
        self.metrics = MetricsRegistry()
        self.metrics.declare("conversions.rows", "pool.dispatches", "fallback.rows")

    def __init_subclass__(cls, **kwargs) -> None:
        """Auto-instrument every concrete kernel a subclass defines.

        Each method named in :data:`_TRACED_KERNELS` that the subclass
        itself implements is wrapped with a tracing span.  Only
        ``cls.__dict__`` entries are wrapped (inherited methods were
        already wrapped on the class that defined them), and re-wrapping
        is guarded so reloads stay idempotent.  This keeps every backend
        — including the pool's worker-side instances — instrumented
        without a single hand-written span in the implementations.
        """
        super().__init_subclass__(**kwargs)
        for attr, span_name in _TRACED_KERNELS.items():
            method = cls.__dict__.get(attr)
            if method is None or getattr(method, "_repro_traced", False):
                continue
            wrapper = _traced(method, span_name)
            setattr(cls, attr, wrapper)
            _INSTRUMENTED.append((cls, attr, method, wrapper))

    # -- boundary conversions (the only list <-> native crossings) -------------
    @property
    def conversion_count(self) -> int:
        """Residue rows materialised across the list/native boundary so far.

        Incremented by :meth:`from_rows`, :meth:`to_rows` and (for vectorised
        backends) the per-prime scalar fallback.  A chain of operations that
        stayed fully resident leaves this counter unchanged — the acceptance
        test of the resident data plane.  Shim over
        ``metrics.value("conversions.rows")``.
        """
        return self.metrics.value("conversions.rows")

    def reset_conversion_count(self) -> None:
        """Zero the boundary-conversion counter (test/benchmark helper)."""
        self.metrics.zero("conversions.rows")

    def _count_conversion(self, rows: int) -> None:
        self.metrics.inc("conversions.rows", rows)

    @property
    def fallback_rows(self) -> int:
        """Residue rows processed through a per-prime big-int fallback so far.

        Zero on backends whose native path is exact for every modulus they
        store (the scalar reference, and the vectorised backends inside the
        wide-word window) — the observability counter behind the 60-bit
        zero-fallback chain tests.  Shim over
        ``metrics.value("fallback.rows")``.
        """
        return self.metrics.value("fallback.rows")

    def _count_fallback(self, rows: int) -> None:
        self.metrics.inc("fallback.rows", rows)

    @abc.abstractmethod
    def from_rows(self, rows: ResidueRows, primes: Sequence[int]) -> ResidueTensor:
        """Enter native storage: build a tensor from Python residue rows.

        Rows are reduced modulo their prime on entry, so unreduced (but
        non-negative) inputs are accepted.  A row may also be a 1-D NumPy
        integer array (the bulk samplers' output), which the array backends
        store without a list round trip.  Counts ``len(rows)`` conversions.
        """

    @abc.abstractmethod
    def to_rows(self, tensor: ResidueTensor) -> list[list[int]]:
        """Leave native storage: materialise a tensor to Python residue rows.

        Counts ``tensor.count`` conversions.
        """

    # -- plan execution (the primary entrypoint) -------------------------------
    def execute(
        self, plan: "ops.Plan", inputs: Mapping[str, ResidueTensor]
    ) -> dict[str, ResidueTensor]:
        """Execute a compiled operation plan and return its named outputs.

        ``inputs`` binds each of the plan's :class:`~repro.backends.ops.Input`
        names to a tensor owned by this backend.  The base implementation is
        the generic interpreter — one method call per node, so every
        node still routes through this backend's engine selection and
        fallback machinery; backends that can fuse across nodes override
        this.  A plan that returns an input unchanged returns the same
        handle (no defensive copy — insert an explicit ``copy`` node when
        fresh storage is required).
        """
        if not TRACER.enabled:
            return ops.interpret(self, plan, inputs)
        with TRACER.span("plan.execute", backend=self.name, nodes=len(plan.nodes)):
            return ops.interpret(self, plan, inputs)

    # -- transforms (node kernels: one-node plans) -----------------------------
    @abc.abstractmethod
    def forward_ntt_batch(self, tensor: ResidueTensor) -> ResidueTensor:
        """Forward negacyclic NTT of every row (bit-reversed output).

        Row ``i`` is transformed under ``tensor.primes[i]``
        (``p ≡ 1 (mod 2n)``); repeats allowed and encouraged — a backend may
        move every row of the tensor through the butterfly stages as one
        batch (the NumPy backend does, one stacked twiddle table per basis).
        """

    @abc.abstractmethod
    def inverse_ntt_batch(self, tensor: ResidueTensor) -> ResidueTensor:
        """Inverse negacyclic NTT of every row (bit-reversed input)."""

    # -- pointwise arithmetic --------------------------------------------------
    @abc.abstractmethod
    def add(self, a: ResidueTensor, b: ResidueTensor) -> ResidueTensor:
        """Element-wise ``(a + b) mod p`` for every row pair."""

    @abc.abstractmethod
    def sub(self, a: ResidueTensor, b: ResidueTensor) -> ResidueTensor:
        """Element-wise ``(a - b) mod p`` for every row pair."""

    @abc.abstractmethod
    def neg(self, a: ResidueTensor) -> ResidueTensor:
        """Element-wise ``(-a) mod p`` for every row."""

    @abc.abstractmethod
    def mul(self, a: ResidueTensor, b: ResidueTensor) -> ResidueTensor:
        """Element-wise ``(a * b) mod p`` — the ⊙ of the NTT-domain pipeline."""

    @abc.abstractmethod
    def inner_product(
        self,
        pairs: Sequence[tuple[ResidueTensor, ResidueTensor]],
        addends: Sequence[ResidueTensor] = (),
    ) -> ResidueTensor:
        """Element-wise ``(Σ_t a_t * b_t + Σ addends) mod p``, fully reduced.

        ``pairs`` holds at least one ``(a_t, b_t)``; every tensor shares the
        first one's primes.  One multiply-accumulate over every row, where a
        chain of ``mul`` and ``add`` would reduce each product and each
        partial sum on its own (the result is the same, bit for bit).
        """

    @abc.abstractmethod
    def scalar_mul(self, a: ResidueTensor, scalar: int) -> ResidueTensor:
        """Multiply every row by one integer scalar (reduced per modulus)."""

    # -- structural operations -------------------------------------------------
    @abc.abstractmethod
    def concat(self, tensors: Sequence[ResidueTensor]) -> ResidueTensor:
        """Stack tensors row-wise into one wide batch (primes concatenate).

        This is how callers assemble the cross-polynomial batches the paper's
        Fig. 3 argues for — all tensors must share ``n`` and this backend.
        """

    @abc.abstractmethod
    def split(
        self, tensor: ResidueTensor, counts: Sequence[int]
    ) -> list[ResidueTensor]:
        """Inverse of :meth:`concat`: split into tensors of ``counts`` rows."""

    @abc.abstractmethod
    def slice_rows(
        self, tensor: ResidueTensor, start: int, stop: int
    ) -> ResidueTensor:
        """A new tensor holding rows ``start:stop`` (e.g. dropping RNS primes)."""

    @abc.abstractmethod
    def copy(self, tensor: ResidueTensor) -> ResidueTensor:
        """Deep copy — fresh storage, no aliasing."""

    @abc.abstractmethod
    def tensor_equal(self, a: ResidueTensor, b: ResidueTensor) -> bool:
        """Whether two tensors hold identical primes and residues."""

    # -- RNS compound operations (keep the HE layer resident) -----------------
    @abc.abstractmethod
    def digit_broadcast(self, tensor: ResidueTensor, index: int) -> ResidueTensor:
        """RNS digit decomposition by shift: row ``i`` reads row ``(i + index) mod L``.

        Returns a tensor over the same primes (``L`` rows) whose row ``i``
        is ``tensor[(i + index) mod L] mod p_i``.  Row ``j`` of a
        coefficient-domain residue matrix is the digit of prime ``j``, so
        shift ``index`` holds, in row ``i``, the digit that key switching
        pairs with row ``i`` of key component ``(i + index) mod L``; shift 0
        is the tensor itself.  ``index`` must lie in ``[0, L)``.
        """

    @abc.abstractmethod
    def mod_switch_drop_last(
        self, tensor: ResidueTensor, plaintext_modulus: int
    ) -> ResidueTensor:
        """Exact BGV modulus switch dropping the last prime, fully in RNS.

        For each coefficient ``c`` (with ``w = c mod q_last`` available as the
        last residue row) the switched value is ``(c + t*u_c) / q_last`` where
        ``u = (-w * t^{-1}) mod q_last`` and ``u_c`` is its centered
        representative — computed per remaining prime ``p_j`` as
        ``(c_j + t*u_c) * q_last^{-1} mod p_j`` without any CRT
        reconstruction.  Requires ``q_last ≡ 1 (mod t)`` (checked by the
        evaluator) for plaintext invariance.
        """

    @abc.abstractmethod
    def mod_switch_correction(
        self, tensor: ResidueTensor, plaintext_modulus: int, primes: Sequence[int]
    ) -> ResidueTensor:
        """The correction term of :meth:`mod_switch_drop_last`, over ``primes``.

        ``tensor`` is one row: the dropped prime's residues ``w`` in the
        coefficient domain.  Row ``i`` of the result is ``t*u_c mod
        primes[i]``, so ``mod_switch_drop_last`` of a coefficient tensor
        ``c`` equals ``(c_i + corr_i) * q_last^{-1} mod p_i`` row for row.
        An NTT-domain modulus switch inverse-transforms only the dropped
        row, forward-transforms this correction and finishes pointwise.
        """

    # -- twiddle residency -----------------------------------------------------
    def warm_twiddles(self, n: int, primes: Sequence[int]) -> None:
        """Precompute the per-``(n, p)`` twiddle tables for the given primes.

        Called by :class:`repro.he.context.HeContext` at construction so the
        first homomorphic operation does not pay table building.  Default:
        no-op.
        """

    # -- validation helpers ----------------------------------------------------
    def _check_owned(self, tensor: ResidueTensor) -> None:
        if tensor.backend is not self:
            raise ValueError(
                "tensor is owned by backend %r, not %r — tensors are opaque "
                "handles and cannot cross backends implicitly"
                % (tensor.backend.name, self.name)
            )

    def _check_pair(self, a: ResidueTensor, b: ResidueTensor) -> None:
        self._check_owned(a)
        self._check_owned(b)
        if a.primes != b.primes:
            raise ValueError(
                "tensor prime mismatch: %d vs %d rows over different moduli"
                % (len(a.primes), len(b.primes))
            )
        if a.n != b.n:
            raise ValueError("row length mismatch: %d vs %d" % (a.n, b.n))

    def _check_operands(self, pairs, addends) -> list[ResidueTensor]:
        """Validate :meth:`inner_product` operands; return them flattened."""
        if not pairs:
            raise ValueError("an inner product needs at least one pair")
        tensors = [tensor for pair in pairs for tensor in pair] + list(addends)
        for tensor in tensors:
            self._check_pair(tensors[0], tensor)
        return tensors

    @staticmethod
    def _check_rows_shape(rows: ResidueRows, primes: Sequence[int]) -> None:
        if len(rows) != len(primes):
            raise ValueError(
                "batch shape mismatch: %d rows vs %d primes" % (len(rows), len(primes))
            )
        # A batch is a rectangular residue matrix; a ragged batch would be
        # rejected by the vectorised backends and silently mis-handled by
        # row-wise ones, so every backend rejects it up front.
        if rows:
            n = len(rows[0])
            for index, row in enumerate(rows):
                if len(row) != n:
                    raise ValueError(
                        "ragged batch: row 0 has %d entries but row %d has %d"
                        % (n, index, len(row))
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(name=%r)" % (type(self).__name__, self.name)
