"""Backend registry: explicit selection, env override, lazy instantiation.

Selection precedence (first match wins):

1. An explicit ``name`` passed to :func:`get_backend`.
2. A process-wide default installed with :func:`set_default_backend`.
3. The ``REPRO_BACKEND`` environment variable (read at call time, so test
   harnesses and batch jobs can flip backends without touching code).
4. ``"numpy"`` when NumPy is importable, else ``"scalar"``.

Backend instances are cached per name so twiddle tables are shared by every
layer that resolves the same backend — the resident-table policy Section IV
of the paper analyses.  Three backends ship built in: ``scalar`` (exact
big-int reference), ``numpy`` (batched uint64 vectorisation) and
``parallel`` (the multiprocessing pool of :mod:`repro.backends.parallel`,
sharding batches across cores over shared-memory tensors; its worker count
resolves via ``REPRO_SHARDS``).  Third-party backends (a GPU runtime, a
remote executor) plug in through :func:`register_backend`.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from .base import ComputeBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "available_backends",
    "build_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_factories: dict[str, Callable[[], ComputeBackend]] = {}
_instances: dict[str, ComputeBackend] = {}
_default_name: str | None = None


def register_backend(
    name: str, factory: Callable[[], ComputeBackend], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Args:
        name: Registry key (lower-case by convention).
        factory: Zero-argument callable building the backend instance.
        replace: Allow overwriting an existing registration.
    """
    if name in _factories and not replace:
        raise ValueError("backend %r is already registered" % name)
    _factories[name] = factory
    _instances.pop(name, None)


def _build_scalar() -> ComputeBackend:
    from .scalar import ScalarBackend

    return ScalarBackend()


def _build_numpy() -> ComputeBackend:
    try:
        from .numpy_backend import NumpyBackend
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError(
            "the 'numpy' backend requires NumPy; install it or select "
            "REPRO_BACKEND=scalar"
        ) from exc
    return NumpyBackend()


def _build_parallel() -> ComputeBackend:
    try:
        from .parallel import ParallelBackend
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError(
            "the 'parallel' backend requires NumPy for its shared-memory "
            "tensors; install it or select REPRO_BACKEND=scalar"
        ) from exc
    return ParallelBackend()


register_backend("scalar", _build_scalar)
register_backend("numpy", _build_numpy)
register_backend("parallel", _build_parallel)


def _unknown_backend_error(name: str) -> KeyError:
    from .ops import NODE_NAMES

    return KeyError(
        "unknown backend %r (registered: %s; selection also honours the "
        "REPRO_BACKEND and REPRO_SHARDS environment overrides).  Every "
        "registered backend executes the same plan nodes through "
        "ComputeBackend.execute: %s"
        % (name, ", ".join(_factories), ", ".join(NODE_NAMES))
    )


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - depends on environment
        return False
    return True


def available_backends() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_factories)


def set_default_backend(name: str | None) -> None:
    """Install (or with ``None`` clear) the process-wide default backend."""
    if name is not None and name not in _factories:
        raise _unknown_backend_error(name)
    global _default_name
    _default_name = name


def build_backend(name: str) -> ComputeBackend:
    """Build a *fresh*, uncached instance of a registered backend.

    Runs the registered factory, so any configuration it applies (an engine
    such as ``NumpyBackend(engine=spec)``, constructor arguments) is
    preserved — unlike instantiating the bare class of the cached
    singleton.  Used by layers that need a private instance
    (:class:`repro.backends.parallel.ParallelBackend`'s embedded inner
    backend, the service's per-tenant backends).
    """
    if name not in _factories:
        raise _unknown_backend_error(name)
    return _factories[name]()


def get_backend(name: str | None = None) -> ComputeBackend:
    """Resolve a backend by the documented precedence and return its instance.

    Instances are cached per name: repeated calls return the same object so
    precomputed twiddle tables are shared across the whole process.
    """
    if name is None:
        name = _default_name
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or None
    if name is None:
        name = "numpy" if _numpy_available() else "scalar"
    if name not in _factories:
        raise _unknown_backend_error(name)
    instance = _instances.get(name)
    if instance is None:
        instance = _factories[name]()
        _instances[name] = instance
    return instance


def resolve_backend(backend: ComputeBackend | str | None) -> ComputeBackend:
    """Normalise a backend argument to a live :class:`ComputeBackend` instance.

    Accepts an instance (returned as-is), a registry name, or ``None`` (the
    documented default precedence).  This is the single resolution point the
    pinning layers (:class:`repro.he.context.HeContext`, evaluators,
    polynomials) go through — resolve once, hold the instance, and later
    environment flips cannot silently mix backends inside one object graph.
    """
    if isinstance(backend, ComputeBackend):
        return backend
    return get_backend(backend)
