"""The :class:`HeContext` facade: one object that owns params, basis, backend
and warm twiddle caches.

Every double-CRT HE library pins a single context object that owns the
parameter set, the RNS basis and the precomputed tables (SEAL's
``SEALContext``, HEAAN's ``Context``, PALISADE's ``CryptoContext``); this is
the same API shape for this repository.  Building the pieces by hand —
KeyGenerator here, BatchEncoder there, an Evaluator resolving the backend
registry per call — invites two failure modes the facade removes:

* **Backend drift** — the registry default is re-resolved from the
  environment, so flipping ``REPRO_BACKEND`` mid-session could silently mix
  backends between components.  ``HeContext`` resolves the backend **once**
  at :meth:`HeContext.create` and hands the same pinned instance to every
  factory product; later environment flips affect new contexts only.
* **Cold twiddle tables** — the first homomorphic operation would otherwise
  pay O(n) table construction per prime.  The context warms the backend's
  per-``(n, p)`` caches up front (the resident-table policy Section IV of
  the paper analyses).

Typical usage (the whole quickstart)::

    from repro.he import HeContext, toy_params

    ctx = HeContext.create(toy_params())
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([1, 2, 3]))
    print(ctx.encoder().decode(ctx.decryptor().decrypt(ct))[:3])
"""

from __future__ import annotations

import weakref

from ..backends.base import ComputeBackend
from ..backends.registry import resolve_backend
from ..rns.basis import RnsBasis
from ..telemetry import enable_tracing, maybe_enable_from_env
from ..telemetry.metrics import MetricsRegistry
from .encoder import BatchEncoder, IntegerEncoder
from .encryptor import Decryptor, Encryptor
from .evaluator import Evaluator
from .keys import KeyGenerator, PublicKey, RelinearizationKey, SecretKey
from .params import HEParams

__all__ = ["HeContext"]


class HeContext:
    """A fully pinned HE session: params + basis + backend + key material.

    Build one with :meth:`create`; every factory method returns a component
    bound to the context's pinned backend and shared key material, so data
    produced by one component stays resident for all the others.

    Attributes:
        params: The scheme parameters the context was created for.
        basis: The level-0 RNS basis (one modulus chain for the session).
        backend: The compute backend pinned at creation — resolved from the
            registry exactly once, never re-read from the environment.
    """

    def __init__(
        self, params: HEParams, basis: RnsBasis, backend: ComputeBackend,
        keygen: KeyGenerator, metrics_parent: MetricsRegistry | None = None,
    ) -> None:
        self.params = params
        self.basis = basis
        self.backend = backend
        self._keygen = keygen
        self._relin_key: RelinearizationKey | None = None
        self._batch_encoder: BatchEncoder | None = None
        # Aggregates the counters of every evaluator this context hands out
        # (each evaluator registry is created with this one as its parent).
        # ``metrics_parent`` chains this aggregate into a larger one — the
        # serving layer parents every tenant context into the server's root
        # registry so fleet-wide totals fall out of the same inc() walk.
        self._metrics = MetricsRegistry(parent=metrics_parent)
        self._metrics.declare("plan.compiled", "plan.cache_hits", "ntt.invocations")
        # The live evaluators this context handed out, for the gauge of the
        # largest static peak of live value bytes among their cached plans.
        evaluators: "weakref.WeakSet[Evaluator]" = weakref.WeakSet()
        self._evaluators = evaluators
        self._metrics.set_gauge(
            "plan.peak_live_bytes",
            lambda: max(
                (evaluator.peak_live_bytes for evaluator in evaluators), default=0
            ),
        )

    @classmethod
    def create(
        cls,
        params: HEParams,
        backend: ComputeBackend | str | None = None,
        seed: int = 2020,
        warm: bool = True,
        trace: str | None = None,
        metrics_parent: MetricsRegistry | None = None,
    ) -> "HeContext":
        """Build a context: resolve the backend once, generate the basis, warm caches.

        The context uses the backend as built and configures nothing on
        it: a kernel or a shard count is chosen where the backend is built
        (``backend=NumpyBackend(engine="high_radix:8")``,
        ``backend=ParallelBackend(shards=4)``).

        Args:
            params: Scheme parameters.
            backend: Backend instance or registry name; ``None`` resolves the
                registry default **now** (subsequent ``REPRO_BACKEND`` flips
                do not reach this context).
            seed: Key-generation RNG seed (reproducible key material).
            warm: Precompute the per-prime twiddle tables up front so the
                first operation runs at steady-state speed.
            trace: Path for a Chrome-trace JSON capture of this process
                (written at interpreter exit; load it in Perfetto or
                ``chrome://tracing``).  Tracing is process-wide — it starts
                here, before key generation, so the warm-up work is in the
                trace too.  ``None`` falls back to the ``REPRO_TRACE``
                environment variable; see :mod:`repro.telemetry`.
            metrics_parent: Optional registry the context's own metrics
                aggregate reports into (counter increments walk the parent
                chain).  The serving layer passes its root registry here so
                per-tenant contexts roll up into fleet-wide totals.
        """
        if trace is not None:
            enable_tracing(trace)
        else:
            maybe_enable_from_env()
        pinned = resolve_backend(backend)
        keygen = KeyGenerator(params, seed=seed, backend=pinned)
        context = cls(
            params, keygen.basis, pinned, keygen, metrics_parent=metrics_parent
        )
        if warm:
            pinned.warm_twiddles(params.n, keygen.basis.primes)
        return context

    # -- key material ----------------------------------------------------------
    @property
    def keygen(self) -> KeyGenerator:
        """The context's key generator (pinned backend, shared secret)."""
        return self._keygen

    def secret_key(self) -> SecretKey:
        """The session secret key (generated once, cached)."""
        return self._keygen.secret_key()

    def public_key(self) -> PublicKey:
        """A public key for the session secret."""
        return self._keygen.public_key()

    def relinearization_key(self) -> RelinearizationKey:
        """The session relinearisation key (generated once, cached)."""
        if self._relin_key is None:
            self._relin_key = self._keygen.relinearization_key()
        return self._relin_key

    # -- component factories ---------------------------------------------------
    def encryptor(self, seed: int = 95) -> Encryptor:
        """A fresh encryptor under the session public key (pinned backend)."""
        return Encryptor(
            self.params, self.public_key(), seed=seed, backend=self.backend
        )

    def decryptor(self) -> Decryptor:
        """A decryptor holding the session secret key."""
        return Decryptor(self.params, self.secret_key())

    def evaluator(self, passes=None) -> Evaluator:
        """A homomorphic evaluator batching through the pinned backend.

        Each per-op method runs its operation as a one-expression
        :class:`~repro.he.pipeline.Pipeline` over the evaluator: one plan,
        compiled once per shape into the evaluator's plan cache and executed
        in a single backend call.  Every evaluator gets its own cache and
        counters (aggregated into :meth:`metrics`); all of them bind the
        context's relinearisation key, which rests in the NTT domain, so no
        evaluator transforms it.

        Args:
            passes: Plan-optimiser spec applied to compiled plans (see
                :func:`repro.compiler.resolve_passes`): a comma-separated
                string or iterable of pass names, ``"none"`` to disable
                rewriting, ``None`` for the documented precedence
                (``set_default_passes`` > default).
                Optimised plans are bit-for-bit identical to unoptimised
                ones on every backend.
        """
        evaluator = Evaluator(
            self.params,
            backend=self.backend,
            metrics=self._metrics,
            passes=passes,
        )
        self._evaluators.add(evaluator)
        return evaluator

    # -- telemetry -------------------------------------------------------------
    def metrics(self) -> dict:
        """One flat snapshot of every counter/gauge the session touches.

        Merges the pinned backend's registry (``conversions.rows``,
        ``pool.dispatches``, ``shm.bytes_in_use``, the per-shape
        ``ntt.engine_choices``) with the context's own aggregate of every
        evaluator it handed out (``plan.compiled``, ``plan.cache_hits``,
        ``ntt.invocations``, and ``plan.peak_live_bytes``: the largest
        static peak of live value bytes among the live evaluators' cached
        plans).  The two registries use disjoint key namespaces, so the
        merge loses nothing.
        """
        snapshot = self.backend.metrics.snapshot()
        snapshot.update(self._metrics.snapshot())
        return snapshot

    def reset_metrics(self) -> None:
        """Zero every counter in one call: the backend's (conversions,
        dispatches) and — cascading through the registry parent links —
        those of every evaluator/pipeline this context created.  Replaces
        the piecemeal ``reset_conversion_count()`` /
        ``reset_dispatch_count()`` dance; gauges report live state and are
        unaffected."""
        self.backend.metrics.reset()
        self._metrics.reset()

    @staticmethod
    def metrics_diff(before: dict, after: dict) -> dict:
        """Counter deltas between two :meth:`metrics` snapshots.

        The headline counters (``pool.dispatches``, ``conversions.rows``,
        ``ntt.invocations``, ``fallback.rows``) are always present (zero when
        untouched) so before/after comparisons — the pass benchmark, the
        examples' tables — never need ``.get`` fallbacks; every other integer
        counter that moved is included.  Histogram summaries and gauges
        (dict/bool values) report state, not work, and are skipped.
        """
        diff = {
            "pool.dispatches": 0,
            "conversions.rows": 0,
            "ntt.invocations": 0,
            "fallback.rows": 0,
        }
        for key, value in after.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            baseline = before.get(key, 0)
            if not isinstance(baseline, int) or isinstance(baseline, bool):
                baseline = 0
            delta = value - baseline
            if delta or key in diff:
                diff[key] = delta
        return diff

    def program(self) -> "HeProgram":
        """A whole-program front end: many named statements, one fused plan.

        Statements recorded with :meth:`~repro.compiler.program.HeProgram.let`
        compile together through :meth:`Pipeline.run_many`, so shared
        sub-expressions lower once and the optimiser's CSE pass merges
        duplicate transforms *across* statements.
        """
        from ..compiler.program import HeProgram

        return HeProgram(self)

    def pipeline(self) -> "Pipeline":
        """A lazy ciphertext-expression pipeline over a new :meth:`evaluator`.

        Expressions built from :meth:`Pipeline.load` leaves —
        ``(a * b).relinearize(rk).mod_switch().run()`` — compile **once**
        into a single fused plan and execute in one backend call; on the
        ``parallel`` backend the whole chain runs in at most one pool
        dispatch per cross-row stage (three for the canonical
        multiply → relinearize → mod-switch chain).  The evaluator is built
        here, at call time, so it takes the passes in force now
        (``set_default_passes``); ``pipe.evaluator`` may be reassigned.
        """
        from .pipeline import Pipeline

        return Pipeline(self.evaluator())

    def encoder(self) -> BatchEncoder:
        """The session's SIMD batch encoder (cached; requires NTT-prime ``t``)."""
        if self._batch_encoder is None:
            self._batch_encoder = BatchEncoder(
                self.params, self.basis, backend=self.backend
            )
        return self._batch_encoder

    def integer_encoder(self) -> IntegerEncoder:
        """A constant-coefficient integer encoder for the session."""
        return IntegerEncoder(self.params, self.basis, backend=self.backend)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "HeContext(params=%r, backend=%r, np=%d)" % (
            self.params.name,
            self.backend.name,
            self.basis.count,
        )
