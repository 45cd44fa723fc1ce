"""Homomorphic operations: addition, multiplication, relinearisation, modulus switching.

Every ciphertext multiplication performed here is, computationally, a batch
of ``np`` negacyclic polynomial multiplications — each of which is the
``iNTT(NTT(a) ⊙ NTT(b))`` pipeline the paper accelerates.  The evaluator is
a *plan emitter*: its ``_emit_*`` methods write each homomorphic operation
into a declarative :class:`repro.backends.ops.Plan`, which runs through
:meth:`~repro.backends.base.ComputeBackend.execute` in a single call, so a
sharding backend can fuse the whole operation into one task per worker per
stage instead of one pool round trip per backend method — the CPU analogue
of the wide-batch kernel launches the paper's GPU amortises.

There is one lowering front-end: :meth:`repro.he.pipeline.Pipeline.run_many`
turns ciphertext expressions into plans, compiled once per expression shape
and cached on the evaluator.  Each per-op method (:meth:`Evaluator.add`,
:meth:`Evaluator.multiply`, :meth:`Evaluator.relinearize`, ...) builds its
one-node expression on a pipeline over the evaluator itself and runs it, so
``ev.multiply(a, b)`` and ``(pipe.load(a) * pipe.load(b)).run()`` on a
pipeline over ``ev`` compile one plan between them.  Each operation's
argument checks live once, in its emitter.

Ciphertexts rest in the NTT domain (SEAL's ``is_ntt_form``), so the
cheapest transform — the one never run — is the common case: no emitter
ends in an inverse transform, and an operand already in the NTT domain is
never transformed again.  Coefficient-domain inputs (a stored payload, a
hand-built ciphertext) still work: they are transformed where an op needs
NTT rows.  The transforms that remain are the ones the cross-row steps
need, and only on the rows they read:

* relinearisation decomposes the quadratic component into per-prime digits
  (row ``i`` of the coefficient-domain residue matrix *is* the digit for
  prime ``i``) laid out shift-major: the ``digit_broadcast`` node of shift
  ``g`` holds digit ``(i + g) mod np`` in row ``i``, reduced mod ``p_i``.
  Shift 0 is ``c2`` itself, whose image the plan already holds; shifts
  ``1 .. np-1`` are whole repetitions of the basis, transformed as one
  batch (``np(np-1)`` rows, one kernel run per worker), and each pairs row
  by row with the relinearisation key read the same way
  (:meth:`~repro.he.keys.RelinearizationKey.shift_major`).  The products
  are summed onto ``c0`` and ``c1``, which the ``fuse_inner_products``
  pass turns into one multiply-accumulate node per output;
* modulus switching uses the exact RNS formula
  ``(c_j + t*u_c) * q_last^{-1} mod p_j``, where the correction ``u_c`` is
  read off the dropped residue row alone.  An NTT-domain source
  inverse-transforms just that row, a ``mod_switch_correction`` node maps
  ``t*u_c`` onto the kept primes, and the correction's forward image is
  added and scaled pointwise; a coefficient-domain source switches in
  place through ``mod_switch_drop_last``.

A ``multiply → relinearize → mod_switch_to_next`` chain therefore performs
**zero** list ↔ ndarray conversions (asserted by the backend's conversion
counter in the test-suite) and, fused into one plan on the ``parallel``
backend, three pool dispatches (asserted by ``dispatch_count``); run op by
op it costs at most one dispatch per op, since a worker inverse-transforms
the few input rows a cross-row step reads itself.

The reference for every operation is the same evaluator on the ``scalar``
backend with ``passes="none"``: it runs the raw emitted plan one backend
method per node.  It lowers through the same code as the evaluator it
checks; ``tests/test_golden_values.py`` pins each per-op result by digest.

The evaluator's :attr:`Evaluator.metrics` count the forward/inverse NTT
rows its plans ran (``ntt.invocations``), which the examples use to connect
the HE layer to the GPU performance model, and the plans compiled and
reused (``plan.compiled``, ``plan.cache_hits``).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..backends import ops
from ..backends.base import ComputeBackend, ResidueTensor
from ..backends.registry import resolve_backend
from ..compiler import ConstantPool, PassManager, count_ntt_rows
from ..compiler.manager import materialize_derived
from ..telemetry import TRACER
from ..telemetry.metrics import MetricsRegistry
from ..rns.basis import RnsBasis
from ..rns.poly import Domain, RnsPolynomial
from .ciphertext import Ciphertext
from .keys import RelinearizationKey
from .params import HEParams

__all__ = ["Evaluator"]

_PLAIN_RING_MISMATCH = (
    "plaintext lives in a different ring than the ciphertext; "
    "re-encode it for this level first"
)


class _P:
    """A symbolic polynomial during plan emission: value index + ring metadata."""

    __slots__ = ("value", "domain", "basis")

    def __init__(self, value: int, domain: Domain, basis: RnsBasis) -> None:
        self.value = value
        self.domain = domain
        self.basis = basis


class _Emitter:
    """An :class:`~repro.backends.ops.OpGraph` plus emission bookkeeping."""

    __slots__ = ("graph", "ntt_rows")

    def __init__(self) -> None:
        self.graph = ops.OpGraph()
        #: Residue rows moved through forward/inverse NTT nodes — added to
        #: the evaluator's ``ntt.invocations`` counter each time the plan
        #: executes.
        self.ntt_rows = 0

    def bind(self, name: str, poly: RnsPolynomial) -> _P:
        """Declare a plan input carrying the polynomial's ring metadata."""
        return _P(self.graph.input(name), poly.domain, poly.basis)


class Evaluator:
    """Homomorphic evaluator for the RNS-BGV scheme.

    Args:
        params: Scheme parameters.
        backend: Compute backend the evaluator batches its residue-matrix
            work through (registry default when omitted, resolved **once** at
            construction).  All backends are bit-exact, so ciphertexts are
            interchangeable across evaluators with different backends —
            ciphertexts resident on a foreign backend are materialised once
            at the boundary (visible in the conversion counters).
    """

    def __init__(
        self,
        params: HEParams,
        backend: ComputeBackend | str | None = None,
        metrics: MetricsRegistry | None = None,
        passes=None,
        constant_pool: ConstantPool | None = None,
    ) -> None:
        self.params = params
        self.backend = resolve_backend(backend)
        #: The evaluator's metrics namespace.  When an ``HeContext`` builds
        #: the evaluator it passes its own registry as the parent, so the
        #: context's snapshot aggregates every evaluator it handed out.
        self.metrics = MetricsRegistry(parent=metrics)
        self.metrics.declare(
            "plan.compiled",
            "plan.cache_hits",
            "ntt.invocations",
            "plan.pool.hits",
            "plan.pool.misses",
        )
        self._plan_cache: dict[tuple, tuple] = {}
        #: Optimiser pipeline resolved once at construction (like the
        #: backend): ``passes`` accepts a spec per
        #: :func:`repro.compiler.resolve_passes`; ``None`` applies the
        #: documented precedence and ``"none"``/``()`` disables rewriting.
        self._pass_manager = PassManager(passes)
        #: NTT images of constant plan inputs (relinearisation keys,
        #: repeated plaintexts).  An ``HeContext`` shares one pool across
        #: every evaluator it hands out, so a key transformed for one
        #: evaluator stays resident for all of them.
        self._constant_pool = (
            constant_pool if constant_pool is not None else ConstantPool()
        )

    @property
    def passes(self) -> tuple[str, ...]:
        """The optimiser passes applied to compiled plans, in order."""
        return self._pass_manager.passes

    @property
    def peak_live_bytes(self) -> int:
        """The largest static peak of live value bytes among the cached plans.

        Each cache entry stores it at compile time
        (:func:`repro.backends.ops.peak_live_bytes`, the larger of the cold
        and warm variants); ``HeContext.metrics()`` reports it as the
        ``plan.peak_live_bytes`` gauge.
        """
        return max((entry[-1] for entry in self._plan_cache.values()), default=0)

    def _poly(self, tensor: ResidueTensor, basis: RnsBasis, domain: Domain) -> RnsPolynomial:
        return RnsPolynomial(basis, self.params.n, tensor, domain)

    # -- plan plumbing ------------------------------------------------------------------
    def _run_plan(
        self, key: tuple, build, bindings: dict, constants: tuple = ()
    ) -> list[RnsPolynomial]:
        """Fetch-or-compile the plan for ``key`` and execute it with ``bindings``.

        ``build`` returns ``(plan, output specs, ntt rows)``; it only runs on
        a cache miss, so repeated operations of the same shape — every
        iteration of a loop over ciphertexts, for instance — compile once and
        execute straight from the cache.  Freshly built plans run through the
        optimiser pipeline (see :mod:`repro.compiler`) before caching;
        ``constants`` names the bindings that are stable across executions
        (key components, repeated plaintexts).  When the residency pass
        hoists their transforms, two variants are cached: a *cold* plan that
        computes the constants' NTT images in-plan (same dispatch shape as
        the unoptimised plan) and exports them to seed the constant pool,
        and the *warm* plan that binds the pooled images and skips the
        transforms — the steady state every later execution runs in.  Each
        entry also keeps the larger static peak of live value bytes of its
        variants (:attr:`peak_live_bytes`).
        """
        cached = self._plan_cache.get(key)
        if cached is None:
            if TRACER.enabled:
                with TRACER.span("plan.compile", op=key[0]):
                    plan, specs, ntt_rows = build()
            else:
                plan, specs, ntt_rows = build()
            derived: tuple = ()
            cold = None
            input_primes = {
                name: bindings[name].primes
                for name in plan.input_names
                if name in bindings
            }
            if self._pass_manager.passes:
                optimized = self._pass_manager.run(
                    plan,
                    input_primes=input_primes,
                    constant_inputs=constants,
                    metrics=self.metrics,
                )
                if optimized.plan is not plan:
                    plan = optimized.plan
                    derived = optimized.derived_inputs
                    for derived_name, source in derived:
                        input_primes[derived_name] = input_primes[source]
                    # Recount: ntt.invocations reports transforms actually
                    # executed, so the static row count must track the
                    # optimised plan, not the emitted one.
                    ntt_rows = count_ntt_rows(plan, input_primes)
                    if derived:
                        cold_plan, const_outputs = materialize_derived(
                            plan, derived, input_primes
                        )
                        cold = (
                            cold_plan,
                            count_ntt_rows(cold_plan, input_primes),
                            const_outputs,
                        )
            variants = (plan,) if cold is None else (plan, cold[0])
            peak = max(
                ops.peak_live_bytes(variant, input_primes, self.params.n)
                for variant in variants
            )
            cached = (plan, specs, ntt_rows, derived, cold, peak)
            self._plan_cache[key] = cached
            self.metrics.inc("plan.compiled")
        else:
            self.metrics.inc("plan.cache_hits")
        plan, specs, ntt_rows, derived, cold, _ = cached
        if derived:
            pooled: dict[str, ResidueTensor] = {}
            for derived_name, source in derived:
                image = self._constant_pool.lookup(bindings[source])
                if image is None:
                    pooled.clear()
                    break
                pooled[derived_name] = image
            if pooled:
                self.metrics.inc("plan.pool.hits", len(derived))
                bindings = dict(bindings)
                bindings.update(pooled)
            else:
                # Cold start: one execution of the seeding variant fills the
                # pool; dispatch count and bit-level results match the
                # unoptimised plan exactly.
                self.metrics.inc("plan.pool.misses", len(derived))
                cold_plan, cold_rows, const_outputs = cold
                outputs = self.backend.execute(cold_plan, bindings)
                for output_name, source in const_outputs:
                    self._constant_pool.store(
                        bindings[source], outputs[output_name]
                    )
                self.metrics.inc("ntt.invocations", cold_rows)
                return [
                    self._poly(outputs[name], basis, domain)
                    for name, basis, domain in specs
                ]
        outputs = self.backend.execute(plan, bindings)
        self.metrics.inc("ntt.invocations", ntt_rows)
        return [
            self._poly(outputs[name], basis, domain) for name, basis, domain in specs
        ]

    @staticmethod
    def _finish(em: _Emitter, polys: Sequence[_P]) -> tuple:
        specs = []
        for index, poly in enumerate(polys):
            name = "out%d" % index
            em.graph.output(name, poly.value)
            specs.append((name, poly.basis, poly.domain))
        return em.graph.compile(), tuple(specs), em.ntt_rows

    # -- emission helpers (called by repro.he.pipeline's lowering) --------------------
    def _emit_ntt_batch(
        self, em: _Emitter, polys: Sequence[_P], forward: bool
    ) -> list[_P]:
        """Emit one batched transform covering every pending polynomial.

        This is the paper's batching observation applied at the HE layer:
        the ``(number of polynomials) x np`` independent transforms of an
        operation become one wide node.  Values still in the source domain
        are concatenated into one transform node and split back; values
        already converted pass through untouched.
        """
        source = Domain.COEFFICIENT if forward else Domain.NTT
        target = Domain.NTT if forward else Domain.COEFFICIENT
        graph = em.graph
        results = list(polys)
        pending = [i for i, poly in enumerate(results) if poly.domain is source]
        if not pending:
            return results
        transform = graph.forward_ntt if forward else graph.inverse_ntt
        if len(pending) == 1:
            pieces = [transform(results[pending[0]].value)]
        else:
            stacked = graph.concat([results[i].value for i in pending])
            pieces = graph.split(
                transform(stacked), [results[i].basis.count for i in pending]
            )
        for i, piece in zip(pending, pieces):
            results[i] = _P(piece, target, results[i].basis)
            em.ntt_rows += results[i].basis.count
        return results

    def _emit_poly_add(self, em: _Emitter, x: _P, y: _P) -> _P:
        self._check_emit_compatible(x, y)
        return _P(em.graph.add(x.value, y.value), x.domain, x.basis)

    def _emit_poly_sub(self, em: _Emitter, x: _P, y: _P) -> _P:
        self._check_emit_compatible(x, y)
        return _P(em.graph.sub(x.value, y.value), x.domain, x.basis)

    @staticmethod
    def _check_emit_compatible(x: _P, y: _P) -> None:
        # Mirrors RnsPolynomial._check_compatible for symbolic polynomials.
        if x.basis.primes != y.basis.primes:
            raise ValueError("polynomials live in different rings")
        if x.domain is not y.domain:
            raise ValueError(
                "domain mismatch: %s vs %s — convert explicitly first"
                % (x.domain.value, y.domain.value)
            )

    def _emit_tensor(
        self, em: _Emitter, a_ntt: Sequence[_P], b_ntt: Sequence[_P]
    ) -> list[_P]:
        """NTT-domain tensor product; the result stays in the NTT domain."""
        graph = em.graph
        basis = a_ntt[0].basis
        result_size = len(a_ntt) + len(b_ntt) - 1
        accumulators: list[int | None] = [None] * result_size
        for i, poly_a in enumerate(a_ntt):
            for j, poly_b in enumerate(b_ntt):
                term = graph.mul(poly_a.value, poly_b.value)
                k = i + j
                accumulators[k] = (
                    term
                    if accumulators[k] is None
                    else graph.add(accumulators[k], term)
                )
        return [_P(value, Domain.NTT, basis) for value in accumulators]

    def _emit_multiply(self, em: _Emitter, sa: Sequence[_P], sb: Sequence[_P]) -> list[_P]:
        if sa[0].basis.primes != sb[0].basis.primes:
            raise ValueError("ciphertexts are at different levels; mod-switch first")
        transformed = self._emit_ntt_batch(em, list(sa) + list(sb), forward=True)
        return self._emit_tensor(em, transformed[: len(sa)], transformed[len(sa) :])

    def _emit_square(self, em: _Emitter, sa: Sequence[_P]) -> list[_P]:
        a_ntt = self._emit_ntt_batch(em, list(sa), forward=True)
        return self._emit_tensor(em, a_ntt, a_ntt)

    def _emit_linear(
        self, em: _Emitter, sa: Sequence[_P], sb: Sequence[_P], subtract: bool
    ) -> list[_P]:
        if sa[0].basis.primes != sb[0].basis.primes:
            raise ValueError("ciphertexts are at different levels; mod-switch first")
        graph = em.graph
        if len({poly.domain for poly in (*sa, *sb)}) > 1:
            # Operands in both domains (a stored coefficient-domain payload
            # and an NTT-resident ciphertext): the coefficient side moves to
            # the NTT domain.
            transformed = self._emit_ntt_batch(em, [*sa, *sb], forward=True)
            sa, sb = transformed[: len(sa)], transformed[len(sa) :]
        combine = self._emit_poly_sub if subtract else self._emit_poly_add
        size = max(len(sa), len(sb))
        polys = []
        for index in range(size):
            if index < len(sa) and index < len(sb):
                polys.append(combine(em, sa[index], sb[index]))
            elif index < len(sa):
                poly = sa[index]
                polys.append(_P(graph.copy(poly.value), poly.domain, poly.basis))
            elif subtract:
                poly = sb[index]
                polys.append(_P(graph.neg(poly.value), poly.domain, poly.basis))
            else:
                poly = sb[index]
                polys.append(_P(graph.copy(poly.value), poly.domain, poly.basis))
        return polys

    def _emit_negate(self, em: _Emitter, sa: Sequence[_P]) -> list[_P]:
        return [_P(em.graph.neg(p.value), p.domain, p.basis) for p in sa]

    def _emit_relinearize(
        self, em: _Emitter, sa: Sequence[_P], srk: Sequence[tuple[_P, _P]]
    ) -> list[_P]:
        """Key switching of ``c2`` onto ``c0`` and ``c1``, digits in whole-basis batches.

        ``srk`` is the key shift-major (:meth:`RelinearizationKey.shift_major`):
        entry ``g``'s row ``i`` is row ``i`` of component ``(i + g) mod L``.
        Digit shift ``g`` (a ``digit_broadcast`` node) holds, in row ``i``,
        digit ``(i + g) mod L`` reduced mod ``p_i``, so output row ``i`` is
        ``c_k + Σ_g NTT(shift_g)_i * key_g_i`` — every digit row paired with
        the key row it paired with digit-major.  Shift 0 is ``c2`` itself,
        whose image the plan holds; shifts ``1 .. L-1`` are ``L - 1`` whole
        repetitions of the basis, which the ``batch_ntt`` pass merges into
        one forward transform (``L(L-1)`` rows, one kernel run).  The sums
        are emitted as ``Mul`` and ``Add``; the ``fuse_inner_products`` pass
        folds each into one multiply-accumulate node.
        """
        graph = em.graph
        if len(sa) == 2:
            return [_P(graph.copy(p.value), p.domain, p.basis) for p in sa]
        if len(sa) != 3:
            raise ValueError("relinearisation supports size-3 ciphertexts only")
        basis = sa[0].basis
        if len(srk) != len(basis):
            raise ValueError("relinearisation key was generated for a different basis")
        c0, c1, c2 = sa
        # The digits are cut from c2's coefficient form; c0 and c1 seed the
        # NTT-domain accumulators.
        c2_coeff = self._emit_ntt_batch(em, [c2], forward=False)[0]
        c0_ntt, c1_ntt, c2_ntt = self._emit_ntt_batch(em, [c0, c1, c2], forward=True)
        acc0, acc1 = c0_ntt.value, c1_ntt.value
        for shift, (rk0, rk1) in enumerate(srk):
            # Each shift's digit is transformed with its key pair (whose
            # transforms the residency pass hoists); batch_ntt merges the
            # digits' transforms into one.
            pending = [rk0, rk1]
            if shift:
                digit = graph.digit_broadcast(c2_coeff.value, shift)
                pending.insert(0, _P(digit, Domain.COEFFICIENT, basis))
            *digit_ntt, rk0_ntt, rk1_ntt = self._emit_ntt_batch(em, pending, forward=True)
            image = digit_ntt[0].value if shift else c2_ntt.value
            acc0 = graph.add(acc0, graph.mul(image, rk0_ntt.value))
            acc1 = graph.add(acc1, graph.mul(image, rk1_ntt.value))
        return [_P(acc0, Domain.NTT, basis), _P(acc1, Domain.NTT, basis)]

    def _emit_mod_switch(self, em: _Emitter, sa: Sequence[_P], t: int) -> list[_P]:
        basis = sa[0].basis
        if len(basis) < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        if basis.primes[-1] % t != 1:
            raise ValueError("modulus switching requires q_last ≡ 1 (mod t)")
        graph = em.graph
        count = basis.count
        new_basis = basis.drop_last(1)
        results = [
            _P(graph.mod_switch_drop_last(poly.value, t), Domain.COEFFICIENT, new_basis)
            if poly.domain is Domain.COEFFICIENT
            else None
            for poly in sa
        ]
        in_ntt = [i for i, poly in enumerate(sa) if poly.domain is Domain.NTT]
        if not in_ntt:
            return results
        # NTT-domain sources: inverse-transform only the dropped row of each,
        # derive the correction over the kept primes from it, transform the
        # correction and finish pointwise: (x_i + corr_i) * q_last^{-1}.
        last = RnsBasis.from_primes(basis.primes[-1:], basis.n)
        dropped = self._emit_ntt_batch(
            em,
            [
                _P(graph.slice_rows(sa[i].value, count - 1, count), Domain.NTT, last)
                for i in in_ntt
            ],
            forward=False,
        )
        corrections = self._emit_ntt_batch(
            em,
            [
                _P(
                    graph.mod_switch_correction(row.value, t, new_basis.primes),
                    Domain.COEFFICIENT,
                    new_basis,
                )
                for row in dropped
            ],
            forward=True,
        )
        q_last = basis.primes[-1]
        q_inv = new_basis.from_residues(
            [pow(q_last % p, -1, p) for p in new_basis.primes]
        )
        for i, correction in zip(in_ntt, corrections):
            kept = graph.slice_rows(sa[i].value, 0, count - 1)
            results[i] = _P(
                graph.scalar_mul(graph.add(kept, correction.value), q_inv),
                Domain.NTT,
                new_basis,
            )
        return results

    def _emit_add_plain(self, em: _Emitter, sa: Sequence[_P], pt: _P) -> list[_P]:
        if pt.basis.primes != sa[0].basis.primes:
            raise ValueError(_PLAIN_RING_MISMATCH)
        graph = em.graph
        if pt.domain is not sa[0].domain:
            # Whichever side is in the coefficient domain moves to the NTT
            # domain (the plaintext's image is a constant the pool keeps).
            *sa, pt = self._emit_ntt_batch(em, list(sa) + [pt], forward=True)
        return [self._emit_poly_add(em, sa[0], pt)] + [
            _P(graph.copy(p.value), p.domain, p.basis) for p in sa[1:]
        ]

    def _emit_multiply_plain(self, em: _Emitter, sa: Sequence[_P], pt: _P) -> list[_P]:
        if pt.basis.primes != sa[0].basis.primes:
            raise ValueError(_PLAIN_RING_MISMATCH)
        graph = em.graph
        basis = sa[0].basis
        transformed = self._emit_ntt_batch(em, list(sa) + [pt], forward=True)
        plaintext_ntt = transformed[-1]
        return [
            _P(graph.mul(poly.value, plaintext_ntt.value), Domain.NTT, basis)
            for poly in transformed[:-1]
        ]

    # -- per-op methods: one-expression pipeline runs ---------------------------------
    def _pipeline(self) -> "Pipeline":
        """A :class:`~repro.he.pipeline.Pipeline` over this evaluator.

        Built per call rather than kept: a pipeline held by its evaluator
        would be a reference cycle, and ``HeContext`` reports
        ``plan.peak_live_bytes`` over a weak set of the evaluators it handed
        out.
        """
        from .pipeline import Pipeline

        return Pipeline(self)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition (component-wise)."""
        pipe = self._pipeline()
        return (pipe.load(a) + pipe.load(b)).run()

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction."""
        pipe = self._pipeline()
        return (pipe.load(a) - pipe.load(b)).run()

    def negate(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        return (-self._pipeline().load(a)).run()

    def add_plain(self, a: Ciphertext, plaintext: RnsPolynomial) -> Ciphertext:
        """Add an (unencrypted) plaintext polynomial."""
        return self._pipeline().load(a).add_plain(plaintext).run()

    def multiply_plain(self, a: Ciphertext, plaintext: RnsPolynomial) -> Ciphertext:
        """Multiply by an (unencrypted) plaintext polynomial.

        The plaintext is transformed once (not once per ciphertext
        component), in the same batched forward call as the components; a
        plaintext reused across calls keeps its NTT image in the constant
        pool.
        """
        return self._pipeline().load(a).mul_plain(plaintext).run()

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic multiplication (tensor product, result has size a.size + b.size - 1).

        The components are multiplied element-wise and accumulated in the
        NTT domain, where the product rests — the double-CRT strategy every
        RNS HE library uses.  NTT-resident operands (every fresh encryption)
        cost no transform; coefficient-domain components are converted in
        one batched forward call (``(a.size + b.size) * np`` rows at most),
        at the batch width the paper shows the hardware wants.  The whole
        operation is one compiled plan: a single ``execute`` call, one pool
        dispatch on the sharded backend.
        """
        pipe = self._pipeline()
        return (pipe.load(a) * pipe.load(b)).run()

    def square(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic squaring.

        The operand is forward-transformed *once* and tensored with itself —
        half the forward NTTs of ``multiply(a, a)``, which the
        ``ntt.invocations`` counter reflects.
        """
        return self._pipeline().load(a).square().run()

    def relinearize(self, a: Ciphertext, relin_key: RelinearizationKey) -> Ciphertext:
        """Reduce a size-3 ciphertext back to size 2 using the key-switching key.

        The RNS digit decomposition never reconstructs big integers: row ``i``
        of the coefficient-domain residue matrix of ``c2`` *is* ``c2 mod q_i``
        already reduced.  The digits are laid out by shift: the
        ``digit_broadcast`` node of shift ``g`` re-reduces row ``(i + g) mod
        np`` into row ``i``, and pairs with the key's shift-major polynomial
        ``g`` (the key's one layout, :attr:`RelinearizationKey.pairs`,
        adopted once per foreign backend, so the residency pass keeps their
        NTT images in the constant pool).  An NTT-resident ``c2`` is
        inverse-transformed once for the digits; shift 0 is ``c2``'s own
        image, so only the ``np - 1`` other shifts are transformed, as one
        batch of whole basis repetitions.  The products are accumulated onto
        ``c0`` and ``c1`` in the NTT domain, where the result rests — one
        multiply-accumulate node each once the default passes have run.  The
        whole key switch is one plan — on the sharded backend one dispatch:
        every worker inverse-transforms an NTT-resident input ``c2`` in full
        (a replicated value, see :func:`repro.backends.ops.replicated_values`)
        and reads a coefficient-domain one straight out of shared memory.  A
        size-2 ciphertext comes back as a copy, with no plan.
        """
        if a.size == 2:
            return a.copy()
        return self._pipeline().load(a).relinearize(relin_key).run()

    def mod_switch_to_next(self, a: Ciphertext) -> Ciphertext:
        """Drop the last RNS prime, scaling the ciphertext (and its noise) down.

        Requires the dropped prime ``q ≡ 1 (mod t)`` (guaranteed by
        :func:`repro.he.params.generate_bgv_primes`), which keeps the
        plaintext unchanged.  Each coefficient ``c`` is replaced by
        ``(c + δ) / q`` with ``δ ≡ -c (mod q)`` and ``δ ≡ 0 (mod t)`` —
        computed entirely in RNS, since ``δ`` depends only on the dropped
        residue row and the division becomes a per-prime multiplication by
        ``q^{-1} mod p_j``.  An NTT-resident component switches in the NTT
        domain: only its dropped row is inverse-transformed, a
        ``mod_switch_correction`` node maps ``δ`` onto the kept primes, and
        its forward image is added and scaled pointwise (``np - 1`` forward
        rows); a coefficient-domain component switches in place through a
        ``mod_switch_drop_last`` node.  All components switch in one plan
        (on the sharded backend one dispatch: every worker inverse-transforms
        the dropped rows of NTT-resident input components in full, a
        replicated value).
        """
        return self._pipeline().load(a).mod_switch().run()
