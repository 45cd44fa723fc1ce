"""Lazy ciphertext expressions: whole evaluator chains compiled into one plan.

This module is the one lowering front-end of the HE layer, the way a GPU
runtime captures a stream of kernels into a replayable graph.  A
:class:`Pipeline` over an :class:`~repro.he.evaluator.Evaluator` (built by
:meth:`repro.he.context.HeContext.pipeline`) wraps ciphertexts into lazy
:class:`CiphertextExpr` nodes; arithmetic on them records structure instead
of computing, and :meth:`CiphertextExpr.run` lowers the whole expression
through the evaluator's emitters into **one**
:class:`~repro.backends.ops.Plan` executed in a single
:meth:`~repro.backends.base.ComputeBackend.execute` call::

    pipe = ctx.pipeline()
    a, b = pipe.load(ct_a), pipe.load(ct_b)
    result = (a * b).relinearize(ctx.relinearization_key()).mod_switch().run()

On the ``parallel`` backend the plan executes as fused per-worker stages:
the chain above costs **three** pool dispatches (the two cross-row steps —
digit decomposition and modulus switching — each start a new stage) instead
of one round trip per backend method, with every intermediate tensor
staying in worker memory.  Compilation happens once per expression *shape*:
re-running the same chain over fresh ciphertexts reuses the plan cached on
the evaluator (its ``plan.cache_hits`` counter).  The per-op evaluator
methods are one-expression runs of this same code, so they share that
cache: ``ev.multiply(a, b)`` compiles the plan that
``(pipe.load(a) * pipe.load(b)).run()`` on a pipeline over ``ev`` reuses.

Expressions are ordinary immutable DAG nodes — sharing a sub-expression
(``x = a * b; (x + x).run()``) emits it once.  :meth:`Pipeline.run_many`
lowers several independent expressions into one plan: stages are cut by
dependency level (:func:`repro.backends.ops.split_stages`), so the
statements share stages and the optimiser's ``batch_ntt`` pass merges their
transforms into wide nodes.  The serving layer's cross-request batches
(:func:`repro.service.batching.execute_group`) run this way.
"""

from __future__ import annotations

from ..rns.poly import RnsPolynomial
from .ciphertext import Ciphertext
from .evaluator import _PLAIN_RING_MISMATCH, _Emitter, Evaluator
from .keys import RelinearizationKey

__all__ = ["CiphertextExpr", "Pipeline"]


class CiphertextExpr:
    """One node of a lazy ciphertext expression.

    Build leaves with :meth:`Pipeline.load`; combine with ``*``, ``+``,
    ``-``, unary ``-``, :meth:`square`, :meth:`relinearize` and
    :meth:`mod_switch`; execute with :meth:`run`.  Nodes are immutable and
    freely shareable between expressions of the same pipeline.
    """

    __slots__ = ("pipeline", "kind", "children", "ciphertext", "key", "plaintext")

    def __init__(
        self,
        pipeline: "Pipeline",
        kind: str,
        children: tuple["CiphertextExpr", ...] = (),
        ciphertext: Ciphertext | None = None,
        key: RelinearizationKey | None = None,
        plaintext: RnsPolynomial | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.kind = kind
        self.children = children
        self.ciphertext = ciphertext
        self.key = key
        self.plaintext = plaintext

    def _combine(self, other: "CiphertextExpr", kind: str) -> "CiphertextExpr":
        if not isinstance(other, CiphertextExpr):
            return NotImplemented
        if other.pipeline is not self.pipeline:
            raise ValueError(
                "cannot combine expressions from different pipelines — load "
                "both ciphertexts through the same HeContext.pipeline()"
            )
        return CiphertextExpr(self.pipeline, kind, (self, other))

    def __mul__(self, other: "CiphertextExpr") -> "CiphertextExpr":
        return self._combine(other, "multiply")

    def __add__(self, other: "CiphertextExpr") -> "CiphertextExpr":
        return self._combine(other, "add")

    def __sub__(self, other: "CiphertextExpr") -> "CiphertextExpr":
        return self._combine(other, "sub")

    def __neg__(self) -> "CiphertextExpr":
        return CiphertextExpr(self.pipeline, "negate", (self,))

    def square(self) -> "CiphertextExpr":
        """Lazy homomorphic squaring (half the forward NTTs of ``x * x``)."""
        return CiphertextExpr(self.pipeline, "square", (self,))

    def relinearize(self, key: RelinearizationKey) -> "CiphertextExpr":
        """Lazy relinearisation under ``key`` (size 3 back to size 2)."""
        return CiphertextExpr(self.pipeline, "relinearize", (self,), key=key)

    def mod_switch(self) -> "CiphertextExpr":
        """Lazy modulus switch to the next level (drops the last RNS prime)."""
        return CiphertextExpr(self.pipeline, "mod_switch", (self,))

    def _with_plain(self, plaintext: RnsPolynomial, kind: str) -> "CiphertextExpr":
        if not isinstance(plaintext, RnsPolynomial):
            raise TypeError(
                "%s expects an RnsPolynomial plaintext, got %r"
                % (kind, type(plaintext).__name__)
            )
        # The emitters check the plaintext's primes.  Its degree is checked
        # here, as the expression is built: symbolic polynomials do not carry
        # it, and a cached plan's signature does not name it.
        if plaintext.n != self.pipeline.evaluator.params.n:
            raise ValueError(_PLAIN_RING_MISMATCH)
        return CiphertextExpr(self.pipeline, kind, (self,), plaintext=plaintext)

    def mul_plain(self, plaintext: RnsPolynomial) -> "CiphertextExpr":
        """Lazy multiplication by an (unencrypted) plaintext polynomial.

        A coefficient-domain plaintext is transformed in the plan on every
        run; one reused across many expressions (a rotation diagonal, a
        mask) is best transformed once with ``plaintext.to_ntt()``, after
        which the product runs no transform at all.
        """
        return self._with_plain(plaintext, "multiply_plain")

    def add_plain(self, plaintext: RnsPolynomial) -> "CiphertextExpr":
        """Lazy addition of an (unencrypted) plaintext polynomial."""
        return self._with_plain(plaintext, "add_plain")

    def run(self) -> Ciphertext:
        """Compile (or fetch the cached plan for) this expression and execute it."""
        return self.pipeline.run(self)


class _SymCt:
    """A symbolic ciphertext during lowering: symbolic polys + level."""

    __slots__ = ("polys", "level")

    def __init__(self, polys: list, level: int) -> None:
        self.polys = polys
        self.level = level


class Pipeline:
    """Compiles fluent ciphertext expressions into single fused plans.

    A pipeline runs on one :class:`~repro.he.evaluator.Evaluator` (and with
    it one plan cache, shared with the evaluator's per-op methods and any
    other pipeline over it): every distinct expression shape compiles
    exactly once per evaluator, and each :meth:`run` is exactly one backend
    ``execute`` call.

    Args:
        evaluator: The evaluator whose backend, parameters, optimiser
            passes and plan cache the pipeline uses.  The attribute may be
            reassigned; later runs then use the new evaluator.
    """

    def __init__(self, evaluator: Evaluator) -> None:
        self.evaluator = evaluator

    # -- building --------------------------------------------------------------
    def load(self, ciphertext: Ciphertext) -> CiphertextExpr:
        """Wrap a ciphertext as a lazy expression leaf."""
        if not isinstance(ciphertext, Ciphertext):
            raise TypeError(
                "Pipeline.load expects a Ciphertext, got %r"
                % type(ciphertext).__name__
            )
        return CiphertextExpr(self, "load", ciphertext=ciphertext)

    # -- lowering --------------------------------------------------------------
    def _collect(
        self,
        expr: CiphertextExpr,
        leaf_ordinals: dict,
        leaves: list,
        key_ordinals: dict,
        keys: list,
        plain_ordinals: dict,
        plains: list,
    ) -> tuple:
        """Assign identity ordinals to leaves/keys/plaintexts and build the cache key.

        The signature captures everything that changes the compiled plan:
        the expression structure, each leaf's size/domains/basis, each
        relinearisation key's component count (keys rest in the NTT domain)
        and each plaintext's ring and domain.  Two runs with the same
        signature bind different tensors to the same plan.
        """
        if expr.kind == "load":
            ordinal = leaf_ordinals.get(id(expr))
            if ordinal is None:
                ordinal = len(leaves)
                leaf_ordinals[id(expr)] = ordinal
                leaves.append(expr.ciphertext)
            ct = expr.ciphertext
            return (
                "load",
                ordinal,
                ct.basis.primes,
                tuple(poly.domain for poly in ct.polys),
            )
        if expr.kind == "relinearize":
            ordinal = key_ordinals.get(id(expr.key))
            if ordinal is None:
                ordinal = len(keys)
                key_ordinals[id(expr.key)] = ordinal
                keys.append(expr.key)
            child = self._collect(
                expr.children[0], leaf_ordinals, leaves, key_ordinals, keys,
                plain_ordinals, plains,
            )
            return ("relinearize", ordinal, len(expr.key.pairs), child)
        if expr.kind in ("multiply_plain", "add_plain"):
            ordinal = plain_ordinals.get(id(expr.plaintext))
            if ordinal is None:
                ordinal = len(plains)
                plain_ordinals[id(expr.plaintext)] = ordinal
                plains.append(expr.plaintext)
            pt = expr.plaintext
            child = self._collect(
                expr.children[0], leaf_ordinals, leaves, key_ordinals, keys,
                plain_ordinals, plains,
            )
            return (expr.kind, ordinal, pt.basis.primes, pt.domain, child)
        return (expr.kind,) + tuple(
            self._collect(
                child, leaf_ordinals, leaves, key_ordinals, keys,
                plain_ordinals, plains,
            )
            for child in expr.children
        )

    @staticmethod
    def _result_level(expr: CiphertextExpr) -> int:
        if expr.kind == "load":
            return expr.ciphertext.level
        level = Pipeline._result_level(expr.children[0])
        return level + 1 if expr.kind == "mod_switch" else level

    @staticmethod
    def _result_size(expr: CiphertextExpr) -> int:
        """Component count of the expression's result, statically.

        Needed to slice each statement's polynomials out of the flat output
        list a multi-statement plan returns.
        """
        if expr.kind == "load":
            return len(expr.ciphertext.polys)
        sizes = [Pipeline._result_size(child) for child in expr.children]
        if expr.kind == "multiply":
            return sizes[0] + sizes[1] - 1
        if expr.kind in ("add", "sub"):
            return max(sizes)
        if expr.kind == "square":
            return 2 * sizes[0] - 1
        if expr.kind == "relinearize":
            return 2 if sizes[0] == 3 else sizes[0]
        return sizes[0]

    def run(self, expr: CiphertextExpr) -> Ciphertext:
        """Lower, compile (cached) and execute an expression in one backend call."""
        return self.run_many([expr])[0]

    def run_many(self, exprs) -> list[Ciphertext]:
        """Lower, compile (cached) and execute many expressions as ONE plan.

        All expressions lower through one shared memo (shared sub-expressions
        emit once) into a single plan executed in one backend call — the
        engine behind :class:`repro.compiler.program.HeProgram`.  Returns the
        result ciphertexts in input order.
        """
        exprs = list(exprs)
        if not exprs:
            raise ValueError("run_many needs at least one expression")
        for expr in exprs:
            if not isinstance(expr, CiphertextExpr):
                raise TypeError(
                    "run_many expects CiphertextExpr values, got %r"
                    % type(expr).__name__
                )
            if expr.pipeline is not self:
                raise ValueError("expression belongs to a different pipeline")
        evaluator = self.evaluator
        leaf_ordinals: dict = {}
        leaves: list = []
        key_ordinals: dict = {}
        keys: list = []
        plain_ordinals: dict = {}
        plains: list = []
        signature = (
            # The statements' outermost operations label the plan.compile
            # span: a per-op call's label is its operation.
            ",".join(expr.kind for expr in exprs),
            tuple(
                self._collect(
                    expr, leaf_ordinals, leaves, key_ordinals, keys,
                    plain_ordinals, plains,
                )
                for expr in exprs
            ),
        )

        # Adoption happens per run (bindings always carry tensors resident
        # on the pinned backend), independent of whether the plan is cached:
        # a no-op (same handle) in the common case, a counted one-time
        # boundary crossing for a polynomial made on another backend.
        backend = evaluator.backend
        adopted = {
            ordinal: [poly.with_backend(backend) for poly in ct.polys]
            for ordinal, ct in enumerate(leaves)
        }
        adopted_keys = {
            ordinal: key.shift_major(backend) for ordinal, key in enumerate(keys)
        }
        adopted_plains = {
            ordinal: plain.with_backend(backend)
            for ordinal, plain in enumerate(plains)
        }

        bindings: dict = {}
        for ordinal, polys in adopted.items():
            for index, poly in enumerate(polys):
                bindings["ct%d_%d" % (ordinal, index)] = poly.tensor
        for ordinal, components in adopted_keys.items():
            for index, (rk0, rk1) in enumerate(components):
                bindings["key%d_rk0_%d" % (ordinal, index)] = rk0.tensor
                bindings["key%d_rk1_%d" % (ordinal, index)] = rk1.tensor
        for ordinal, plain in adopted_plains.items():
            bindings["pt%d" % ordinal] = plain.tensor

        def build():
            em = _Emitter()
            bound_keys = {
                ordinal: [
                    (
                        em.bind("key%d_rk0_%d" % (ordinal, index), rk0),
                        em.bind("key%d_rk1_%d" % (ordinal, index), rk1),
                    )
                    for index, (rk0, rk1) in enumerate(components)
                ]
                for ordinal, components in adopted_keys.items()
            }
            bound_plains = {
                ordinal: em.bind("pt%d" % ordinal, plain)
                for ordinal, plain in adopted_plains.items()
            }
            memo: dict[int, _SymCt] = {}

            def lower(node: CiphertextExpr) -> _SymCt:
                cached = memo.get(id(node))
                if cached is not None:
                    return cached
                if node.kind == "load":
                    ordinal = leaf_ordinals[id(node)]
                    polys = [
                        em.bind("ct%d_%d" % (ordinal, index), poly)
                        for index, poly in enumerate(adopted[ordinal])
                    ]
                    result = _SymCt(polys, node.ciphertext.level)
                elif node.kind == "multiply":
                    left, right = (lower(child) for child in node.children)
                    result = _SymCt(
                        evaluator._emit_multiply(em, left.polys, right.polys),
                        left.level,
                    )
                elif node.kind in ("add", "sub"):
                    left, right = (lower(child) for child in node.children)
                    result = _SymCt(
                        evaluator._emit_linear(
                            em, left.polys, right.polys, subtract=node.kind == "sub"
                        ),
                        left.level,
                    )
                elif node.kind == "negate":
                    child = lower(node.children[0])
                    result = _SymCt(
                        evaluator._emit_negate(em, child.polys), child.level
                    )
                elif node.kind == "square":
                    child = lower(node.children[0])
                    result = _SymCt(
                        evaluator._emit_square(em, child.polys), child.level
                    )
                elif node.kind == "relinearize":
                    child = lower(node.children[0])
                    srk = bound_keys[key_ordinals[id(node.key)]]
                    result = _SymCt(
                        evaluator._emit_relinearize(em, child.polys, srk),
                        child.level,
                    )
                elif node.kind == "mod_switch":
                    child = lower(node.children[0])
                    result = _SymCt(
                        evaluator._emit_mod_switch(
                            em, child.polys, evaluator.params.plaintext_modulus
                        ),
                        child.level + 1,
                    )
                elif node.kind in ("multiply_plain", "add_plain"):
                    child = lower(node.children[0])
                    pt = bound_plains[plain_ordinals[id(node.plaintext)]]
                    emit = (
                        evaluator._emit_multiply_plain
                        if node.kind == "multiply_plain"
                        else evaluator._emit_add_plain
                    )
                    result = _SymCt(emit(em, child.polys, pt), child.level)
                else:  # pragma: no cover - defensive
                    raise ValueError("unknown expression kind %r" % node.kind)
                memo[id(node)] = result
                return result

            flat: list = []
            try:
                for expr in exprs:
                    flat.extend(lower(expr).polys)
            finally:
                # ``lower`` refers to itself: dropping it breaks that cycle,
                # which would keep the evaluator and the leaf ciphertexts
                # alive until the next garbage collection.
                del lower
            return evaluator._finish(em, flat)

        polys = evaluator._run_plan(signature, build, bindings)
        results: list[Ciphertext] = []
        offset = 0
        for expr in exprs:
            size = self._result_size(expr)
            results.append(
                Ciphertext(
                    polys=polys[offset : offset + size],
                    params=evaluator.params,
                    level=self._result_level(expr),
                )
            )
            offset += size
        return results
