"""Measured-engine counterparts for the figure harness.

The cost-model columns of the experiment tables price the paper's GPU; the
helpers here produce the *measured* companion numbers by running the actual
:class:`~repro.backends.engines.NttEngine` implementations through the
production backend path (``from_rows`` → ``forward_ntt_batch``), exactly the
route :class:`repro.he.context.HeContext` and the evaluator take.  Every
figure that reports engine behaviour shows both: the model column for the
paper's hardware, the measured column for this repository's data plane.

Measurement shapes are deliberately smaller than the paper's ``N = 2^16..17,
np = 21`` points — the sweep must stay cheap enough for the test harness —
and are scaled per backend (the pure-Python reference backend measures at a
fraction of the vectorised backend's shape).  Column headers and notes name
the shape so model and measured numbers cannot be confused.

All helpers cache backends (twiddle tables, auto-tuner verdicts) and results
module-wide, so a full ``run_all()`` pays for each measurement once.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable

from ..backends.base import ComputeBackend
from ..backends.registry import resolve_backend
from ..modarith.primes import generate_ntt_primes

__all__ = [
    "MEASURE_PRIME_BITS",
    "MEASURE_SHAPES",
    "measurement_shape",
    "measurement_backend",
    "measure_prime_bits",
    "set_measure_prime_bits",
    "measured_forward_ms",
    "measured_fft_ms",
    "traced_ntt_share",
]

#: Default ``(log_n, batch)`` measurement shape per backend name.
MEASURE_SHAPES = {"numpy": (12, 8), "scalar": (8, 2)}
#: Default measurement word size.  The wide-word window keeps the array
#: backends exact (and vectorised) up to 62-bit primes, so the harness can be
#: re-pointed at the paper's ~60-bit regime with :func:`set_measure_prime_bits`
#: (the ``--p-bits`` CLI flag); 30-bit remains the default because the
#: reference scalar backend's measurement shapes are tuned for it.
MEASURE_PRIME_BITS = 30
#: Valid ``--p-bits`` range: small enough primes exist for the measurement
#: ring sizes at the bottom, the wide-word exactness ceiling at the top.
MEASURE_PRIME_BITS_RANGE = (15, 62)
#: Rows repeat this many distinct moduli so per-modulus batching is exercised.
_DISTINCT_PRIMES = 2

_prime_bits_override: int | None = None

_backend_cache: dict[tuple[str, str | None], ComputeBackend] = {}
_prime_cache: dict[tuple[int, int, int], list[int]] = {}
_result_cache: dict[tuple, float] = {}


def measure_prime_bits() -> int:
    """The word size (prime bit length) the measurement harness runs at."""
    return MEASURE_PRIME_BITS if _prime_bits_override is None else _prime_bits_override


def set_measure_prime_bits(bits: int | None) -> None:
    """Override the harness word size (``None`` restores the default).

    Cached measurement results keyed on the old word size stay valid — every
    cache key includes the prime bit length — so flipping back and forth does
    not require re-measuring.
    """
    if bits is not None:
        low, high = MEASURE_PRIME_BITS_RANGE
        if not low <= bits <= high:
            raise ValueError(
                "measurement prime bits must be in [%d, %d], got %r"
                % (low, high, bits)
            )
    global _prime_bits_override
    _prime_bits_override = bits


def measurement_shape(backend_name: str) -> tuple[int, int]:
    """The ``(log_n, batch)`` measurement shape for a backend."""
    return MEASURE_SHAPES.get(backend_name, MEASURE_SHAPES["scalar"])


def measurement_backend(
    backend: ComputeBackend | str | None = None, engine: str | None = None
) -> ComputeBackend:
    """A dedicated backend instance for measurements (cached per engine pin).

    Fresh instances keep engine pins and auto-tuner state out of the shared
    registry singletons; caching them here keeps twiddle tables warm across
    the whole figure harness.
    """
    resolved = resolve_backend(backend)
    key = (resolved.name, engine)
    instance = _backend_cache.get(key)
    if instance is None:
        instance = type(resolved)(engine=engine) if engine is not None else type(resolved)()
        _backend_cache[key] = instance
    return instance


def _primes(n: int, count: int, bits: int | None = None) -> list[int]:
    bits = measure_prime_bits() if bits is None else bits
    key = (n, count, bits)
    primes = _prime_cache.get(key)
    if primes is None:
        primes = generate_ntt_primes(bits, count, n)
        _prime_cache[key] = primes
    return primes


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm: twiddle tables, auto-tuner, allocator
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measured_forward_ms(
    engine: str | None = None,
    backend: ComputeBackend | str | None = None,
    log_n: int | None = None,
    batch: int | None = None,
    distinct_primes: int | None = None,
    repeats: int = 2,
    prime_bits: int | None = None,
) -> float:
    """Best-of-``repeats`` milliseconds for one batched forward NTT.

    The batch enters residency once (outside the timed region) and the timed
    call is exactly the production ``forward_ntt_batch`` the HE layer issues.
    ``engine=None`` measures the backend's own dynamic selection (the
    auto-tuned path); a spec pins the engine.  ``prime_bits`` overrides the
    harness word size (see :func:`measure_prime_bits`) for this one call.
    """
    instance = measurement_backend(backend, engine)
    default_log_n, default_batch = measurement_shape(instance.name)
    log_n = default_log_n if log_n is None else log_n
    batch = default_batch if batch is None else batch
    distinct = min(batch, _DISTINCT_PRIMES if distinct_primes is None else distinct_primes)
    bits = measure_prime_bits() if prime_bits is None else prime_bits
    key = ("fwd", instance.name, engine, log_n, batch, distinct, bits)
    cached = _result_cache.get(key)
    if cached is not None:
        return cached
    n = 1 << log_n
    primes = _primes(n, distinct, bits)
    batch_primes = [primes[i % distinct] for i in range(batch)]
    rng = random.Random(log_n * 1000003 + batch)
    rows = [[rng.randrange(p) for _ in range(n)] for p in batch_primes]
    tensor = instance.from_rows(rows, batch_primes)
    result = _best_of(lambda: instance.forward_ntt_batch(tensor), repeats) * 1e3
    _result_cache[key] = result
    return result


def measured_fft_ms(log_n: int = 12, batch: int = 8, repeats: int = 2) -> float | None:
    """Best-of-``repeats`` milliseconds for a batched complex FFT (``np.fft``).

    The measured stand-in for the paper's DFT kernels; ``None`` when NumPy is
    unavailable.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without numpy
        return None
    key = ("fft", log_n, batch)
    cached = _result_cache.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(2020)
    data = rng.standard_normal((batch, 1 << log_n)) + 1j * rng.standard_normal(
        (batch, 1 << log_n)
    )
    result = _best_of(lambda: np.fft.fft(data, axis=1), repeats) * 1e3
    _result_cache[key] = result
    return result


def traced_ntt_share(
    backend: ComputeBackend | str | None = None, engine: str | None = None
) -> dict[str, object]:
    """Measure the NTT share of one multiply → relinearize chain from spans.

    Runs the chain through :class:`repro.he.context.HeContext` on the
    production path under the :mod:`repro.telemetry` tracer and derives the
    share from span *self time* (:func:`repro.telemetry.summarize`) — the
    same arithmetic the ``--trace`` summary table prints — as the measured
    companion of the paper's 50.04 % motivation claim.  Self-time accounting
    keeps the share honest under fusion: a ``plan.execute`` span contains
    its ``op.*`` spans, so inclusive sums would double-count.  Every call
    measures afresh, so the spans of each run land in the trace.
    """
    from ..he.context import HeContext
    from ..he.params import HEParams
    from ..telemetry import TRACER, summarize

    instance = measurement_backend(backend, engine)
    n, prime_count = (1024, 6) if instance.name == "numpy" else (256, 3)
    params = HEParams(n=n, plaintext_modulus=17, prime_bits=measure_prime_bits(),
                      prime_count=prime_count)
    context = HeContext.create(params, backend=instance, seed=7)
    encryptor = context.encryptor(seed=11)
    encoder = context.integer_encoder()
    ct_a = encryptor.encrypt(encoder.encode(3))
    ct_b = encryptor.encrypt(encoder.encode(5))
    evaluator = context.evaluator()
    relin_key = context.relinearization_key()

    # Warm run: plan compilation and twiddle tables stay off the trace.
    evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin_key)

    was_enabled = TRACER.enabled
    if not was_enabled:
        TRACER.start()
    mark = TRACER.mark()
    try:
        evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin_key)
        events = TRACER.events_since(mark)
    finally:
        if not was_enabled:
            TRACER.stop()
    stats = summarize(events)
    return {
        "backend": instance.name,
        "n": n,
        "np": prime_count,
        "prime_bits": params.prime_bits,
        "ntt_ms": stats["ntt_self_seconds"] * 1e3,
        "total_ms": stats["total_self_seconds"] * 1e3,
        "share": stats["ntt_share"],
    }
