"""Pluggable compute backends for the RNS/HE stack.

Every residue-matrix operation of the library — the batched forward/inverse
NTTs of :class:`repro.rns.poly.RnsPolynomial`, the pointwise arithmetic of
the evaluator's ``iNTT(NTT(a) ⊙ NTT(b))`` pipeline, RNS digit decomposition
and modulus switching — dispatches through the :class:`ComputeBackend`
interface defined here, moving opaque backend-resident
:class:`ResidueTensor` handles instead of Python lists (see the ResidueTensor
contract in :mod:`repro.backends.base`).  Ships with:

* ``"scalar"`` — exact big-int reference path (any word size).
* ``"numpy"`` — batched uint64 vectorisation for every prime below 2^62,
  one array pass per op over all primes of a tensor, with a counted
  per-prime scalar fallback above.
* ``"parallel"`` — shards every batched operation of an inner backend
  (default ``numpy``) across a persistent process pool over shared-memory
  resident tensors, with a work-threshold crossover that keeps small
  shapes inline; worker count via :func:`set_default_shards` /
  ``REPRO_SHARDS``.

Select explicitly (``get_backend("numpy")``), process-wide
(:func:`set_default_backend`), or via the ``REPRO_BACKEND`` environment
variable.

Inside the array backends, *how* a batch of NTTs is executed is a second
pluggable axis: the :class:`NttEngine` layer in
:mod:`repro.backends.engines` runs the paper's algorithm variants
(``radix2``, ``high_radix``, ``four_step``, ``stockham``) as array kernels.
The array path runs the fixed kernel (``stockham``); the one way to run
another is to build ``NumpyBackend(engine=spec)``.  The scalar oracle runs
one transform and takes no engine.

Since the op-graph redesign, the primary execution entrypoint is
:meth:`ComputeBackend.execute`: callers compile a chain of operations into a
declarative :class:`Plan` (built with :class:`OpGraph`, see
:mod:`repro.backends.ops`) and the backend runs it in one shot —
interpreted one backend method per node on ``scalar``/``numpy``, fused into
one task per worker per plan stage on ``parallel``.  The per-op methods are
what the interpreter calls for each node; they also serve polynomial-level
arithmetic (:class:`repro.rns.poly.RnsPolynomial`).
"""

from .base import ComputeBackend, ResidueRows, ResidueTensor
from .ops import NODE_NAMES, OpGraph, Plan
from .engines import NttEngine, available_engines, get_engine, register_engine
from .pool import SHARDS_ENV_VAR, resolve_shard_count, set_default_shards
from .registry import (
    BACKEND_ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from .scalar import ScalarBackend, ScalarTensor

__all__ = [
    "BACKEND_ENV_VAR",
    "NODE_NAMES",
    "SHARDS_ENV_VAR",
    "ComputeBackend",
    "NttEngine",
    "OpGraph",
    "Plan",
    "ResidueRows",
    "ResidueTensor",
    "ScalarBackend",
    "ScalarTensor",
    "available_backends",
    "available_engines",
    "get_backend",
    "get_engine",
    "register_backend",
    "register_engine",
    "resolve_backend",
    "resolve_shard_count",
    "set_default_backend",
    "set_default_shards",
]
