"""In-process workloads: chain-60 (numpy backend) and bootstrap-30 (parallel).

Both are closed loops with one caller.  Every session builds a fresh backend
through ``build_backend`` (``HeContext.create(backend="numpy")`` would return
the registry singleton and skip the autotune race and the table builds), so
each one pays the whole set-up a new user pays.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass

from common import (
    NO_SPANS,
    Window,
    ct_digest,
    fault_counters,
    peak_rss_mb,
    reap_children,
    same_ciphertext,
    spanned,
    timed_outcome,
    unshared_peak_mb,
    worker_pids,
)
from repro.backends.pool import get_arena
from repro.backends.registry import build_backend
from repro.compiler import set_default_passes
from repro.he import HeContext, HEParams, bootstrap_circuit


@dataclass(frozen=True)
class Spec:
    """Shape of one local workload."""

    params: HEParams
    backend: str
    shards: int | None
    inputs: int  # distinct inputs the loop rotates over
    sessions: int  # fresh sessions per run; setup_s is their median


class Data:
    """Everything a run derives from its seed; the library sees only this."""

    def __init__(self, params: HEParams, inputs: int, seed: int, pairs: bool) -> None:
        rng = random.Random(seed)
        self.key_seed = rng.randrange(1, 1 << 31)
        self.enc_seed = rng.randrange(1, 1 << 31)
        self.circuit_seed = rng.randrange(1, 1 << 31)
        t, n = params.plaintext_modulus, params.n
        if pairs:
            self.values = [
                tuple([rng.randrange(t) for _ in range(n)] for _ in range(2))
                for _ in range(inputs)
            ]
        else:
            self.values = [rng.randrange(1, t) for _ in range(inputs)]


class Session:
    """One fresh session: backend, context, keys, inputs, compiled expressions.

    ``check(index, result)`` verifies a session's first result per input;
    later results are compared bit for bit against that verified result.
    ``setup_s`` runs from building the backend to the first verified result.
    """

    def __init__(
        self, workload, data: Data, check, spans=NO_SPANS,
        backend: str | None = None, passes=None,
    ) -> None:
        spec = workload.spec
        self.attempted = 0
        self.failed = 0
        start = time.perf_counter()
        with spans.span("setup.session"):
            with spans.span("backends.build_backend"):
                be = build_backend(backend or spec.backend)
                if spec.shards is not None and backend is None:
                    be.set_shards(spec.shards)
            with spans.span("he.context_create"):
                self.ctx = HeContext.create(spec.params, backend=be, seed=data.key_seed)
            with spans.span("he.relin_keygen"):
                self.ctx.relinearization_key()
            self.inputs = workload.encrypt(self.ctx, data, spans)
            if passes is not None:
                set_default_passes(passes)
            try:
                self.pipe = self.ctx.pipeline()
            finally:
                set_default_passes(None)
            self.exprs = workload.expressions(self.ctx, self.pipe, self.inputs, data)
            self.results = []
            with spans.span("he.first_op"):
                first = self.exprs[0].run()
            self._verify(check, 0, first)
        self.setup_s = time.perf_counter() - start
        for index in range(1, len(self.exprs)):
            self._verify(check, index, self.exprs[index].run())

    def _verify(self, check, index: int, result) -> None:
        self.attempted += 1
        if not check(index, result):
            self.failed += 1
        self.results.append(result)

    @property
    def backend(self):
        return self.ctx.backend

    def op(self, index: int):
        """One timed op on input ``index`` (rotating), verified bit for bit."""
        slot = index % len(self.exprs)
        start = time.perf_counter()
        result = self.exprs[slot].run()
        latency = time.perf_counter() - start
        return latency, same_ciphertext(self.backend, result, self.results[slot])

    def close(self) -> None:
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()
        reap_children()


class LocalWorkload:
    """Common driver of the in-process workloads."""

    spec: Spec
    pairs: bool

    def __init__(self, spec: Spec | None = None) -> None:
        if spec is not None:
            self.spec = spec

    # -- hooks -------------------------------------------------------------------
    def encrypt(self, ctx, data: Data, spans):
        raise NotImplementedError

    def expressions(self, ctx, pipe, inputs, data: Data):
        raise NotImplementedError

    def reference(self, data: Data, spans=NO_SPANS) -> tuple[list[str], int]:
        """Digests of every input's reference result, and how many of those
        failed their own check."""
        raise NotImplementedError

    # -- runs --------------------------------------------------------------------
    def data(self, seed: int) -> Data:
        return Data(self.spec.params, self.spec.inputs, seed, self.pairs)

    def sessions(self, data: Data, digests: list[str], count: int, spans=NO_SPANS):
        """``count`` fresh sessions in turn; returns the last (still open) one
        with the set-up times and the verification tallies of all of them."""
        def check(index, result):
            return ct_digest(result) == digests[index]

        setups, attempted, failed = [], 0, 0
        session = None
        for _ in range(count):
            if session is not None:
                session.close()
                session = None
            # Earlier sessions leave reference cycles behind; collecting them
            # first keeps the pool workers forked below from inheriting them.
            gc.collect()
            session = Session(self, data, check, spans)
            setups.append(session.setup_s)
            attempted += session.attempted
            failed += session.failed
        return session, setups, attempted, failed

    def peak_rss(self) -> float:
        """Peak RSS of the processes doing HE work: this one, plus what each
        pool worker added to the pages it shares with the others."""
        return peak_rss_mb() + sum(unshared_peak_mb(pid) for pid in worker_pids())

    def measure(self, seed: int, seconds: float) -> tuple[dict, dict]:
        data = self.data(seed)
        digests, failed_reference = self.reference(data)
        session, setups, attempted, failed = self.sessions(data, digests, self.spec.sessions)
        attempted += len(digests)
        failed += failed_reference
        try:
            window = Window(seconds).run(session.op)
            rss = self.peak_rss()
            choices = session.ctx.metrics().get("ntt.engine_choices")
        finally:
            session.close()
        return timed_outcome(setups, window, rss, attempted, failed, choices)

    def counted_ops(self, session, ops: int = 8) -> dict:
        """Per-op program counters over warm ops (plus the shared-memory peak)."""
        ctx = session.ctx
        arena = get_arena()
        shm_peak = arena.bytes_in_use
        failed = 0
        before = ctx.metrics()
        for index in range(ops):
            _, ok = session.op(index)
            failed += not ok
            shm_peak = max(shm_peak, arena.bytes_in_use)
        diff = HeContext.metrics_diff(before, ctx.metrics())
        return {
            "compiler.ntt_rows_per_op": diff["ntt.invocations"] / ops,
            "compiler.pool_hits_per_op": diff.get("plan.pool.hits", 0) / ops,
            "pool.dispatches_per_op": diff["pool.dispatches"] / ops,
            "backend.conversions_per_op": diff["conversions.rows"] / ops,
            "backend.fallback_rows_per_op": diff["fallback.rows"] / ops,
            "pool.shm_peak_mb": shm_peak / float(1 << 20),
            "_attempted": ops,
            "_failed": failed,
        }

    def os_window(self, session, seconds: float, spans=NO_SPANS):
        """A window with the library's tracer off, counting page faults and
        system time per op over this process and its pool workers."""
        pids = [None] + worker_pids()
        before = [fault_counters(pid) for pid in pids]
        window = Window(seconds, min_ops=20).run(spanned(session.op, spans, "op"))
        after = [fault_counters(pid) for pid in pids]
        ops = max(window.attempted, 1)
        faults = sum(a[0] - b[0] for a, b in zip(after, before))
        system = sum(a[1] - b[1] for a, b in zip(after, before))
        return window, {
            "os.minor_faults_per_op": faults / ops,
            "os.sys_ms_per_op": system * 1e3 / ops,
        }

    def compile_ms(self, session, repeats: int = 5) -> float:
        """First run on a fresh evaluator (warm backend and pool) minus a warm run."""
        pipe = session.pipe
        expr = session.exprs[0]
        firsts, warms = [], []
        for _ in range(repeats):
            pipe.evaluator = session.ctx.evaluator()
            start = time.perf_counter()
            expr.run()
            firsts.append(time.perf_counter() - start)
            for _ in range(2):
                start = time.perf_counter()
                expr.run()
                warms.append(time.perf_counter() - start)
        return (statistics.median(firsts) - statistics.median(warms)) * 1e3


class Chain(LocalWorkload):
    """chain-60: fused multiply -> relinearize -> mod_switch at 60-bit primes."""

    spec = Spec(
        params=HEParams(
            n=4096, plaintext_modulus=65537, prime_bits=60, prime_count=6, name="chain-60"
        ),
        backend="numpy",
        shards=None,
        inputs=4,
        sessions=3,
    )
    pairs = True

    def encrypt(self, ctx, data: Data, spans):
        encoder = ctx.encoder()
        encryptor = ctx.encryptor(seed=data.enc_seed)
        inputs = []
        for left, right in data.values:
            plains = [encoder.encode(left), encoder.encode(right)]
            pair = []
            for plain in plains:
                with spans.span("he.encrypt"):
                    pair.append(encryptor.encrypt(plain))
            inputs.append(tuple(pair))
        return inputs

    def expressions(self, ctx, pipe, inputs, data: Data):
        rk = ctx.relinearization_key()
        return [
            (pipe.load(a) * pipe.load(b)).relinearize(rk).mod_switch()
            for a, b in inputs
        ]

    def expected_slots(self, data: Data, index: int) -> list[int]:
        t = self.spec.params.plaintext_modulus
        left, right = data.values[index]
        return [(x * y) % t for x, y in zip(left, right)]

    def decrypt_check(self, session, data: Data):
        """A check that decrypts and decodes, against the plaintext products."""
        decryptor = session.ctx.decryptor()
        encoder = session.ctx.encoder()

        def check(index, result):
            slots = encoder.decode(decryptor.decrypt(result))
            return slots == self.expected_slots(data, index)

        return check

    def reference_session(self, data: Data, spans=NO_SPANS) -> Session:
        """A fresh session whose first results are decrypt-checked (kept open).

        The check needs the session's own secret key, so it runs once the
        session exists, over the results it verified with a pass-through.
        """
        session = Session(self, data, lambda index, result: True, spans)
        check = self.decrypt_check(session, data)
        session.failed = sum(
            not check(index, result) for index, result in enumerate(session.results)
        )
        return session

    def reference(self, data: Data, spans=NO_SPANS) -> tuple[list[str], int]:
        session = self.reference_session(data, spans)
        try:
            return [ct_digest(result) for result in session.results], session.failed
        finally:
            session.close()


class Bootstrap(LocalWorkload):
    """bootstrap-30: the bootstrap-shaped circuit as one plan, 2-shard parallel."""

    spec = Spec(
        params=HEParams(
            n=4096, plaintext_modulus=17, prime_bits=30, prime_count=6, name="bootstrap-30"
        ),
        backend="parallel",
        shards=2,
        inputs=2,
        sessions=5,
    )
    pairs = False
    circuit = {"c2s_terms": 4, "eval_depth": 1, "s2c_terms": 4}

    def encrypt(self, ctx, data: Data, spans):
        encoder = ctx.integer_encoder()
        encryptor = ctx.encryptor(seed=data.enc_seed)
        inputs = []
        for value in data.values:
            plain = encoder.encode(value)
            with spans.span("he.encrypt"):
                inputs.append(encryptor.encrypt(plain))
        return inputs

    def expressions(self, ctx, pipe, inputs, data: Data):
        return [
            bootstrap_circuit(ctx, pipe, ct, seed=data.circuit_seed + index, **self.circuit)
            for index, ct in enumerate(inputs)
        ]

    def reference(self, data: Data, spans=NO_SPANS) -> tuple[list[str], int]:
        """The same circuit compiled with ``passes="none"`` on the numpy backend."""
        session = Session(
            self, data, lambda index, result: True, spans, backend="numpy", passes="none"
        )
        try:
            return [ct_digest(result) for result in session.results], 0
        finally:
            session.close()
